"""Command-line front end.

Subcommands: sample-image, sample-video, preview, masks, bench,
attn-check, verify. Settings come from defaults, then an optional JSON
config file, then flags (flags win). A flag and the config key it sets
share one name (a SamplerConfig field for the sampler flags, which are
all that bench takes), and config-file values get the flags' checks
before any input is read. Exit codes: 0 success, 1 configuration error,
2 I/O or input-format error, 3 pipeline or property violation, 141
standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import imageio
from .errors import (
    BadArity,
    ConfigError,
    CorruptFile,
    EmptyClip,
    IndivisibleDims,
    InsufficientFrames,
    MixedDimensions,
    SamaError,
    UnsupportedFormat,
)
from .masks import SPATIAL_KINDS, TEMPORAL_KINDS, level_count
from .masks import make_interlace_mask, make_spatial_mask, make_temporal_mask
from .media import (
    OFFSET_POLICIES,
    SamplerConfig,
    load_clip,
    load_image,
    select_frames,
    split_snippets,
)
from .pack import (
    SampledTensor,
    container_bytes,
    provenance_audit,
    read_container,
    render_preview,
    write_container,
)
from .pipeline import sample_image, sample_video
from .scalehead import run_property_suite

PREVIEW_STYLES = ("plain", "tinted", "bordered")

INFER_SELECT_FRAMES = 128
INFER_SNIPPETS = 4

_IO_ERRORS = (
    OSError,
    UnsupportedFormat,
    CorruptFile,
    EmptyClip,
    MixedDimensions,
    InsufficientFrames,
)

# JSON config schema: key -> accepted python types; the sampler keys are
# SamplerConfig's fields, typed by their defaults
_SAMPLER_KEYS = {f.name: (type(f.default),) for f in fields(SamplerConfig)}
_CONFIG_SCHEMA: dict[str, tuple[type, ...]] = {
    **_SAMPLER_KEYS,
    "input": (str,),
    "out": (str,),
    "preview": (str,),
    "infer": (bool,),
}
# The keys each command takes: those it has flags for (image commands have no
# frame count or temporal mask). A config file naming another is rejected.
_IMAGE_KEYS = _SAMPLER_KEYS.keys() - {"frames_out", "temporal_mask"}
_COMMAND_KEYS = {
    "sample-image": _IMAGE_KEYS | {"input", "out", "preview"},
    "sample-video": _CONFIG_SCHEMA.keys(),
    "bench": _IMAGE_KEYS,
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors as ConfigError (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts and sizes: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        pair = int(a), int(b)
    except ValueError as exc:
        raise ConfigError(f"{what} must look like 7x7, got {text!r}") from exc
    if min(pair) < 1:
        raise ConfigError(f"{what} values must be >= 1, got {text!r}")
    return pair


def load_run_config(path: str | Path) -> dict:
    """Read and strictly validate a JSON config document."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    for key, value in doc.items():
        accepted = _CONFIG_SCHEMA.get(key)
        if accepted is None:
            raise ConfigError(f"unknown config key {key!r}")
        if not isinstance(value, accepted) or isinstance(value, bool) != (
            accepted == (bool,)
        ):
            raise ConfigError(
                f"config key {key!r} must be {accepted[0].__name__}, "
                f"got {type(value).__name__}"
            )
        if key == "preview" and value not in PREVIEW_STYLES:  # the flag's choices
            styles = ", ".join(PREVIEW_STYLES)
            raise ConfigError(f"config key 'preview' must be one of {styles}, got {value!r}")
    return doc


def _resolve_config(args, kind: str) -> tuple[SamplerConfig, dict]:
    """defaults < config file < flags; returns (SamplerConfig, the other
    settings). A flag not given is absent from ``args`` (SUPPRESS)."""
    doc = load_run_config(args.config) if args.config else {}
    foreign = sorted(doc.keys() - _COMMAND_KEYS[args.command])
    if foreign:
        raise ConfigError(f"config key {foreign[0]!r} does not apply to {args.command}")
    merged = {**doc, **{k: v for k, v in vars(args).items() if k in _CONFIG_SCHEMA}}
    values = {k: v for k, v in merged.items() if k in _SAMPLER_KEYS}
    settings = {k: v for k, v in merged.items() if k not in _SAMPLER_KEYS}

    base = SamplerConfig() if kind == "video" else SamplerConfig.iqa_default()
    config = replace(base, **values)
    known = config.spatial_mask in SPATIAL_KINDS and config.temporal_mask in TEMPORAL_KINDS
    if "n_scales" not in values and known:  # an unknown kind is left to validate
        levels = level_count(config.spatial_mask, config.temporal_mask, config.frames_out)
        config = replace(config, n_scales=levels)
    config.validate(kind)
    return config, settings


def _print_shares(tensor: SampledTensor) -> None:
    shares = tensor.scale_shares()
    parts = [f"scale {s}: {frac:.1%}" for s, frac in sorted(shares.items())]
    print("per-scale pixel shares: " + "  ".join(parts))


def _write_frames(frames, path: Path) -> None:
    """Write one frame to ``path``, or each of several to
    ``<stem>_fNNN<suffix>`` next to it."""
    if len(frames) == 1:
        imageio.write_image(path, frames[0].data)
        return
    for i, frame in enumerate(frames):
        imageio.write_image(path.with_name(f"{path.stem}_f{i:03d}{path.suffix}"), frame.data)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_sample(args) -> int:
    kind = args.kind
    config, settings = _resolve_config(args, kind)
    inp, out = settings.get("input"), settings.get("out")
    if not inp or not out:
        source = "file" if kind == "image" else "directory"
        raise ConfigError(f"sample-{kind} needs an input {source} and --out")
    infer = settings.get("infer", False)
    if infer and config.frames_out * INFER_SNIPPETS > INFER_SELECT_FRAMES:
        raise ConfigError(
            f"--infer cuts {INFER_SNIPPETS} snippets from a {INFER_SELECT_FRAMES}-frame pool: "
            f"frames_out must be at most {INFER_SELECT_FRAMES // INFER_SNIPPETS}, "
            f"got {config.frames_out}"
        )
    out = Path(out)
    media = load_image(inp) if kind == "image" else load_clip(inp)
    jobs = [(media, out)]
    if infer:
        pool = select_frames(media, INFER_SELECT_FRAMES, config.seed, config.offset_policy)
        snippets = split_snippets(pool, config.frames_out, INFER_SNIPPETS)
        jobs = [
            (snippet, out.with_name(f"{out.stem}_snip{i}{out.suffix}"))
            for i, snippet in enumerate(snippets)
        ]
    style = settings.get("preview")
    for media, path in jobs:
        result = sample_image(media, config) if kind == "image" else sample_video(media, config)
        write_container(result.tensor, path)
        if style:
            previews = render_preview(result.tensor, style)
            _write_frames(previews, path.with_name(f"{path.stem}_preview.png"))
        _print_shares(result.tensor)
        print(f"wrote {path}")
    return 0


def cmd_preview(args) -> int:
    tensor = read_container(args.input)
    grid_rows = grid_cols = None
    if args.grid:
        grid_rows, grid_cols = _parse_pair(args.grid, "--grid")
    elif args.style == "bordered" and tensor.grid is None:
        raise ConfigError("bordered preview of a loaded container needs --grid RxC")
    frames = render_preview(tensor, args.style, grid_rows, grid_cols)
    out = Path(args.out)
    _write_frames(frames, out)
    print(f"wrote {out}" if len(frames) == 1 else f"wrote {len(frames)} frames next to {out}")
    return 0


def cmd_masks(args) -> int:
    if args.action != "dump":
        raise ConfigError(f"unknown masks action {args.action!r}")
    out_h, out_w = _parse_pair(args.size, "--size")
    # every mask is built before anything is written: a flag value no mask
    # accepts is a configuration error and leaves no files behind
    tmask = None
    try:
        if args.scales is None:
            mask = make_spatial_mask(args.spatial_mask, out_h, out_w)
            n_levels = level_count(args.spatial_mask, "none", args.frames)
        else:
            mask = make_interlace_mask(args.scales, out_h, out_w, args.block)
            n_levels = args.scales
        if args.temporal_mask and args.temporal_mask != "none":
            levels = level_count("none", args.temporal_mask, args.frames)
            tmask = make_temporal_mask(args.temporal_mask, args.frames, levels)
    except (BadArity, IndivisibleDims) as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for s in range(n_levels):
        indicator = np.where(mask.indices == s, 255, 0).astype(np.uint8)
        path = out_dir / f"mask_{mask.kind}_scale{s}.pgm"
        path.write_bytes(imageio.encode_pgm(indicator))
        print(f"wrote {path}")
    if tmask is not None:
        print(f"{args.temporal_mask} schedule (per frame pair): {list(tmask.schedule)}")
    return 0


def cmd_bench(args) -> int:
    height, width = _parse_pair(args.size, "--size")
    reps = args.reps
    config, _ = _resolve_config(args, "image")
    stats = bench_mod.bench_image(height, width, config, reps, config.seed)
    print(f"image pipeline on {height}x{width}, {reps} reps")
    print(f"{'stage':<12}{'median ms':>12}{'p95 ms':>12}")
    for name in bench_mod.BENCH_STAGES:
        st = stats[name]
        print(f"{name:<12}{st.median * 1e3:>12.3f}{st.p95 * 1e3:>12.3f}")
    cmp = bench_mod.compare_single_vs_interlaced(height, width, reps, config.seed)
    print(
        "fragment+compose: single-scale "
        f"{cmp['single_scale'] * 1e3:.3f} ms, two-scale interlace "
        f"{cmp['interlaced'] * 1e3:.3f} ms (ratio {cmp['ratio']:.2f})"
    )
    scaling = bench_mod.pyramid_scaling(height, width, reps=max(reps // 3, 3))
    line = ", ".join(f"{n} levels: {t * 1e3:.2f} ms" for n, t in scaling.items())
    print(f"pyramid interpolation vs level count: {line}")
    return 0


def cmd_attn_check(args) -> int:
    results = run_property_suite(seeds=args.seeds)
    failed = _print_property_table(results)
    return 3 if failed else 0


def _print_property_table(results) -> int:
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    return failed


def cmd_verify(args) -> int:
    failures = 0
    lap = time.perf_counter()

    def check(name: str, passed: bool, detail: str = "") -> None:
        """Print one result with the wall time since the previous one."""
        nonlocal failures, lap
        now = time.perf_counter()
        elapsed = f"{(now - lap) * 1e3:.1f} ms"
        lap = now
        status = "PASS" if passed else "FAIL"
        failures += 0 if passed else 1
        suffix = f"{detail}, {elapsed}" if detail else elapsed
        print(f"{status}  {name} ({suffix})")

    # gather audits on fresh runs
    frame = bench_mod.synthetic_frame(600, 800, seed=11)
    icfg = SamplerConfig.iqa_default(offset_policy="random", seed=7)
    ires = sample_image(frame, icfg)
    if args.inject_fault:
        ires.tensor.data[0, 5, 5, 0] ^= 0xFF
    report = provenance_audit(ires.tensor, ires.pyramid)
    check(
        "image gather audit",
        report.ok,
        f"{report.mismatches} mismatches over {report.total_pixels} pixels",
    )

    clip = bench_mod.synthetic_clip(240, 320, 6, seed=12)
    vcfg = SamplerConfig(frames_out=8, n_scales=4, offset_policy="random", seed=9)
    vres = sample_video(clip, vcfg)
    vreport = provenance_audit(vres.tensor, vres.pyramid)
    check(
        "video gather audit",
        vreport.ok,
        f"{vreport.mismatches} mismatches over {vreport.total_pixels} pixels",
    )

    # mask partitions: the indices of an n-level mask take exactly the
    # values 0..n-1, so every pixel has one owner and every level some pixels
    parts = [(make_interlace_mask(n, 256, 256, 32), n) for n in (3, 4)]
    parts += [(make_spatial_mask(k, 224, 224), level_count(k, "none", 1))
              for k in SPATIAL_KINDS[1:]]
    ok = all(np.array_equal(np.unique(mask.indices), np.arange(n)) for mask, n in parts)
    check("mask partition of unity", ok)

    # temporal schedules
    prog = make_temporal_mask("progressive", 32, 16).schedule
    chop = make_temporal_mask("choppy", 32, 16).schedule
    mix = make_temporal_mask("mixed", 32, 8).schedule
    sched_ok = (
        prog == tuple(range(16))
        and chop == tuple(0 if i % 2 == 0 else 15 for i in range(16))
        and mix == tuple(range(8)) * 2
    )
    check("temporal schedules", sched_ok)

    # determinism replay
    blobs = [
        container_bytes(sample_video(clip, vcfg).tensor)
        for _ in range(max(args.seed_replay, 2))
    ]
    check("determinism replay", all(b == blobs[0] for b in blobs), f"{len(blobs)} runs")

    results = run_property_suite(seeds=args.seeds)
    failures += _print_property_table(results)
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# Parser


class _PairFlag(argparse.Action):
    """``--grid RxC`` / ``--frag HxW``: one value stored under the two fields in ``const``."""

    def __call__(self, parser, namespace, text, option_string=None):
        vars(namespace).update(zip(self.const, _parse_pair(text, option_string)))


def _add_sampler_flags(p: _Parser, video: bool) -> None:
    """The flags that set SamplerConfig fields, each stored under its field
    name; ``p`` is built with ``argument_default=SUPPRESS``, so a flag not
    given is absent from the namespace."""
    p.add_argument("--config", default=None, help="JSON config file; flags override it")
    p.add_argument("--grid", action=_PairFlag, const=("grid_rows", "grid_cols"),
                   help="grid as RxC, e.g. 7x7")
    p.add_argument("--frag", action=_PairFlag, const=("frag_h", "frag_w"),
                   help="fragment size as HxW, e.g. 32x32")
    if video:
        p.add_argument(
            "--frames", type=int, dest="frames_out", metavar="FRAMES", help="output frame count"
        )
        p.add_argument("--temporal-mask", choices=TEMPORAL_KINDS, dest="temporal_mask")
    p.add_argument(
        "--scales", type=int, dest="n_scales", metavar="SCALES", help="pyramid level count"
    )
    p.add_argument("--spatial-mask", choices=SPATIAL_KINDS, dest="spatial_mask")
    p.add_argument("--offset", choices=OFFSET_POLICIES, dest="offset_policy",
                   help="fragment offset policy")
    p.add_argument("--seed", type=int)
    p.add_argument("--aligned-offsets", action="store_true", dest="aligned_offsets")


def _add_sample_command(sub, kind: str, summary: str, source: str) -> _Parser:
    p = sub.add_parser(f"sample-{kind}", help=summary, argument_default=argparse.SUPPRESS)
    _add_sampler_flags(p, video=kind == "video")
    p.add_argument("input", nargs="?", help=source)
    p.add_argument("--preview", choices=PREVIEW_STYLES)
    p.add_argument("--out", help="output container path")
    p.set_defaults(func=cmd_sample, kind=kind)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="sama", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_sample_command(sub, "image", "sample one image into a container", "PNG or PPM file")
    p = _add_sample_command(
        sub, "video", "sample a frame directory", "directory of frame_NNNNNN images"
    )
    p.add_argument(
        "--infer",
        action="store_true",
        help=f"select {INFER_SELECT_FRAMES} frames and emit {INFER_SNIPPETS} snippet containers",
    )

    p = sub.add_parser("preview", help="render a container to an image")
    p.add_argument("input", help="container file")
    p.add_argument("--style", choices=PREVIEW_STYLES, default="plain")
    p.add_argument("--grid", help="grid RxC (needed for bordered style)")
    p.add_argument("--out", required=True, help="output .png or .ppm path")
    p.set_defaults(func=cmd_preview)

    p = sub.add_parser("masks", help="dump masks for visual inspection")
    p.add_argument("action", choices=["dump"])
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--size", default="224x224", help="mask dims HxW")
    p.add_argument(  # a mask is always dumped: every kind but "none"
        "--spatial-mask", choices=SPATIAL_KINDS[1:], default="window", dest="spatial_mask"
    )
    p.add_argument(
        "--scales", type=int, choices=(3, 4), help="dump a 3- or 4-scale interlace"
    )
    p.add_argument(
        "--block", type=_positive_int, default=32, help="interlace block size (default 32)"
    )
    p.add_argument(
        "--temporal-mask", choices=TEMPORAL_KINDS, dest="temporal_mask"
    )
    p.add_argument(
        "--frames", type=_positive_int, default=32, help="frame count for schedule printout"
    )
    p.set_defaults(func=cmd_masks)

    p = sub.add_parser(
        "bench", help="per-stage timing on synthetic input", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--size", default="1080x1920", help="input dims HxW")
    p.add_argument("--reps", type=_positive_int, default=20)
    _add_sampler_flags(p, video=False)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("attn-check", help="run the numeric property suite")
    p.add_argument("--seeds", type=_positive_int, default=100)
    p.set_defaults(func=cmd_attn_check)

    p = sub.add_parser("verify", help="audits, partitions, determinism, numerics")
    p.add_argument("--seeds", type=_positive_int, default=25, help="property-suite seeds")
    p.add_argument("--seed-replay", type=_positive_int, default=2, dest="seed_replay")
    p.add_argument(
        "--inject-fault",
        action="store_true",
        dest="inject_fault",
        help="testing hook: corrupt one gathered byte to prove the audit trips",
    )
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed reader surfaces here, not at shutdown
        return code
    except BrokenPipeError:
        # The reader closed stdout (``sama verify | head -1``): stop quietly
        # with the shell's SIGPIPE status, and point stdout at devnull so
        # the flush at interpreter shutdown has nothing left to fail on.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _IO_ERRORS as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except SamaError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
