"""End-to-end benchmark of the ``sama`` sampler, from files on disk to a
container on disk or an audit verdict.

    python3 -m e2ebench --workload vqa-ppm --seed 1 --seconds 45 --trace 0

Run from the repository root; ``sama`` is imported from ``src/``. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
taken from operations that alternate between traced and untraced. See
``e2ebench/README.md``.

This module imports only the standard library at the top, so the set-up
probe, which runs it in a fresh interpreter, times the import of numpy
and ``sama`` the way a user pays for them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_BASE = ROOT / ".e2ebench-work"
OUT_BASE = ROOT / ".e2ebench-out"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "read_mb_per_op": "MB",
    "container_mb_per_op": "MB",
    "setup_s": "s",
}


def import_sama():
    """Import ``sama`` from this checkout's ``src/``, and from nowhere else."""
    if not (SRC / "sama" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no sama sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import sama
    import sama.cli  # noqa: F401  (not imported by the package itself)

    if Path(sama.__file__).resolve().parent != (SRC / "sama").resolve():
        raise SystemExit(f"e2ebench: imported sama from {sama.__file__}, not {SRC}")
    return sama


def probe_setup(workload: str, work: Path) -> dict:
    """Import ``sama`` and run one cold operation (in a fresh interpreter)."""
    t0 = time.perf_counter()
    sama = import_sama()
    from .workloads import WORKLOADS

    wl = WORKLOADS[workload](work)
    wl.operate(sama, wl.items()[0])
    return {"setup_s": time.perf_counter() - t0}


def prepare_inputs(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs and expected outputs (in a child process,
    so the benchmark process's peak memory is that of the operations)."""
    from .workloads import WORKLOADS

    return {"problems": WORKLOADS[workload](work).generate(seed, import_sama())}


def child(*args: str) -> dict:
    """Run this command in a fresh interpreter; return its JSON last line."""
    proc = subprocess.run(
        [sys.executable, "-m", "e2ebench", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"e2ebench {' '.join(args)} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples, sizes, setup_values) -> tuple[dict, str]:
    from . import measure

    ok = [s for s in samples if s.ok and not s.traced]
    if not ok:
        return {}, "no operation succeeded"
    walls = [s.wall_s for s in ok]
    tail_s, pct = measure.tail(walls)
    metrics = {
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "throughput_ops_s": len(ok) / sum(walls),
        "cpu_ms_per_op": statistics.median(s.cpu_s for s in ok) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "read_mb_per_op": sum(s.read_bytes for s in ok) / len(ok) / 1e6,
        "container_mb_per_op": sum(sizes[s.item] for s in ok) / len(ok) / 1e6,
        "setup_s": statistics.median(setup_values),
    }
    note = f"latency_tail_ms is p{pct:.1f} of {len(ok)} samples"
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, note


def per_layer(samples, tracer) -> tuple[dict, list[str]]:
    from . import spans

    layers = spans.per_op_layers(tracer)
    traced = [s for s in samples if s.ok and s.traced]
    untraced = [s for s in samples if s.ok and not s.traced]
    ops = [layers[i] for i, s in enumerate(s for s in samples if s.traced) if s.ok]
    problems = []
    for o, s in zip(ops, traced):
        total = spans.layer_self_sum_ms(o)
        if total > s.wall_s * 1e3:
            problems.append(f"layer self times {total:.3f} ms exceed the wall time {s.wall_s * 1e3:.3f} ms")
    metrics = {}
    for name, (unit, fn) in spans.LAYER_METRICS.items():
        value = statistics.median(fn(o) for o in ops) if ops else 0.0
        metrics[name] = _metric(float(value), unit)
    overhead = 0.0
    if traced and untraced:
        overhead = (
            statistics.median(s.wall_s for s in traced)
            - statistics.median(s.wall_s for s in untraced)
        ) * 1e3
    metrics["trace.overhead_ms"] = _metric(overhead, "ms")
    return metrics, problems


def run(args) -> int:
    os.environ.pop("SAMA_THREADS", None)  # serial, the default a user gets
    sama = import_sama()
    from . import measure, spans
    from .workloads import WORKLOADS

    info = measure.machine_info()
    steal0, load0 = measure.steal_ticks(), measure.load_average()
    ref_start = measure.reference_loop_ms()
    wall0 = time.perf_counter()

    work = WORK_BASE / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[args.workload](work)
    tracer = spans.Tracer(time.perf_counter) if args.trace else None
    op_ids = itertools.count()
    phases = {}
    try:
        t = time.perf_counter()
        wl_args = ("--workload", args.workload, "--seed", str(args.seed))
        problems = child(*wl_args, "--prepare", str(work))["problems"]
        phases["generate"] = time.perf_counter() - t
        probe = (*wl_args, "--probe", str(work))
        setup_values = [] if args.trace else [child(*probe)["setup_s"] for _ in range(SETUP_PROBES)]
        phases["probes"] = time.perf_counter() - t - phases["generate"]
        items = wl.items()
        wl.operate(sama, items[0])  # warm-up: lazy imports and caches, not measured

        def operate(i: int, traced: bool):
            if not traced:
                return wl.operate(sama, items[i])
            tracer.install()
            try:
                return tracer.operation(next(op_ids), lambda: wl.operate(sama, items[i]))
            finally:
                tracer.uninstall()

        samples = measure.run_rounds(
            len(items),
            operate,
            lambda i, outcome: wl.check(sama, i, items[i], outcome),
            args.seconds,
            traced=(lambda n: n % 2 == 0) if args.trace else (lambda n: False),
        )
        t = time.perf_counter()
        problems += wl.once(sama, args.seed)
        phases["once"] = time.perf_counter() - t
        sizes = [os.path.getsize(it.container) if it.container.exists() else 0 for it in items]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ref_end = measure.reference_loop_ms()
    elapsed = time.perf_counter() - wall0
    steal_s = (measure.steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
    failed = [s for s in samples if not s.ok]

    if args.trace:
        metrics, more = per_layer(samples, tracer)
        problems += more
        tracer.dump(OUT_BASE / f"trace-{args.workload}.jsonl")
        note = "missing targets: " + (", ".join(tracer.missing) or "none")
        if tracer.miscounted:
            note += "; counts lost: " + ", ".join(sorted(tracer.miscounted))
    else:
        metrics, note = end_to_end(samples, sizes, setup_values)
        if not metrics:
            problems.append(note)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(
        f"steadiness: nproc {info['nproc']}  python {info['python']}  numpy {info['numpy']}  "
        f"load {load0} -> {measure.load_average()}  steal {steal_s:.2f} s over {elapsed:.1f} s  "
        f"reference loop {ref_start:.1f} ms -> {ref_end:.1f} ms"
    )
    for name, m in metrics.items():
        print(f"  {name:<28}{m['value']:>14.4f} {m['unit']}")
    print(f"  {note}")
    if setup_values:
        print(f"  set-up probes (s): {', '.join(f'{v:.3f}' for v in setup_values)}")
    print("  phases (s): " + "  ".join(f"{k} {v:.1f}" for k, v in phases.items()))
    for s in failed[:5]:
        print(f"  failed op on item {s.item}: {s.error}")
    for p in problems:
        print(f"  problem: {p}")
    print(f"attempted {len(samples)}  failed {len(failed)}")

    OUT_BASE.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": info,
        "steal_s": steal_s,
        "reference_loop_ms": [ref_start, ref_end],
        "setup_probes_s": setup_values,
        "phases_s": phases,
        "samples": [s.__dict__ for s in samples],
        "metrics": metrics,
    }
    (OUT_BASE / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, default=str)
    )
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m e2ebench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("vqa-ppm", "iqa-png", "audit-ppm"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--prepare", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        print(json.dumps(probe_setup(args.workload, args.probe)))
        return 0
    if args.prepare:
        print(json.dumps(prepare_inputs(args.workload, args.seed, args.prepare)))
        return 0
    return run(args)
