"""Closed-loop operation runner, summary statistics and the steadiness record."""

from __future__ import annotations

import gc
import os
import platform
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


@dataclass
class Sample:
    """One attempted operation."""

    item: int
    wall_s: float
    cpu_s: float
    read_bytes: int
    ok: bool
    traced: bool
    error: str = ""


def tail(values: Sequence[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it.

    Sorted ascending, the value at index n - 11 has exactly ten larger
    samples; its percentile is the share of samples at or below it. With
    ten samples or fewer no percentile has ten beyond it, and the median is
    reported as p50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def read_chars() -> tuple[int, int]:
    """(rchar, length of the text read) from /proc/self/io.

    Reading the file adds its own length to rchar, so a caller taking the
    difference of two readings subtracts the first reading's length.
    """
    with open("/proc/self/io", "rb") as fh:
        text = fh.read()
    for line in text.splitlines():
        if line.startswith(b"rchar:"):
            return int(line.split()[1]), len(text)
    raise RuntimeError("/proc/self/io has no rchar line")


def run_rounds(
    n_items: int,
    operate: Callable[[int, bool], object],
    check: Callable[[int, object], str | None],
    seconds: float,
    traced: Callable[[int], bool] = lambda i: False,
) -> list[Sample]:
    """Run whole rounds over ``n_items`` items until ``seconds`` have passed.

    One client, closed loop: the next operation starts when the previous one
    and its check have finished. Only ``operate`` is timed. An operation
    that raises, or whose ``check`` returns a message, counts as failed.
    Every run attempts a whole number of rounds, so the failed share does
    not depend on the run length.
    """
    samples: list[Sample] = []
    start = time.perf_counter()
    while True:
        for item in range(n_items):
            is_traced = traced(len(samples))
            gc.collect()
            rchar0, probe_len = read_chars()
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            error = ""
            try:
                outcome = operate(item, is_traced)
            except Exception as exc:  # a failing operation is counted, not fatal
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            cpu1 = time.process_time()
            rchar1, _ = read_chars()
            if not error:
                try:
                    error = check(item, outcome) or ""
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            samples.append(
                Sample(
                    item=item,
                    wall_s=t1 - t0,
                    cpu_s=cpu1 - cpu0,
                    read_bytes=rchar1 - rchar0 - probe_len,
                    ok=not error,
                    traced=is_traced,
                    error=error,
                )
            )
        if time.perf_counter() - start >= seconds:
            return samples


# ---------------------------------------------------------------------------
# Steadiness record


def steal_ticks() -> int:
    """Machine-wide steal time so far, in USER_HZ ticks (/proc/stat)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def reference_loop_ms() -> float:
    """Wall time of a fixed single-threaded numpy workload (sorting and
    prefix sums, no BLAS); a slowed machine reads higher."""
    import numpy as np

    v = np.random.default_rng(0).random(400_000)
    w, total = np.empty_like(v), np.empty_like(v)  # no allocation inside the loop
    t0 = time.perf_counter()
    for _ in range(6):
        w[:] = v
        w.sort()
        np.cumsum(w, out=total)
    return (time.perf_counter() - t0) * 1e3


def machine_info() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def load_average() -> str:
    one, five, fifteen = os.getloadavg()
    return f"{one:.2f}/{five:.2f}/{fifteen:.2f}"
