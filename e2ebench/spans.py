"""In-memory spans around calls into the ``sama`` modules.

Wrappers are installed from the benchmark's side on the names the callers
look up at call time (``sama.pipeline.build_pyramid`` is what
``sample_video`` calls, ``sama.cli.sample_video`` is what the CLI calls),
and removed after each traced operation, so untraced operations run the
unmodified program. A target that no longer exists is skipped and listed
in ``missing``; its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# (module, attribute, layer, counter). A layer of None records counts only.
TARGETS: tuple[tuple[str, str, str | None, str | None], ...] = (
    ("sama.cli", "main", "cli", None),
    ("sama.cli", "load_clip", "media.load", None),
    ("sama.media", "load_clip", "media.load", None),
    ("sama.cli", "load_image", "media.load", None),
    ("sama.media", "load_image", "media.load", None),
    ("sama.imageio", "decode_png", "imageio.decode", "decode"),
    ("sama.imageio", "decode_ppm", "imageio.decode", "decode"),
    ("sama.pipeline", "select_frames", "media.select", "select"),
    ("sama.media", "select_frames", "media.select", "select"),
    ("sama.pipeline", "build_pyramid", "pyramid.build", None),
    ("sama.pyramid", "build_pyramid", "pyramid.build", None),
    ("sama.pyramid", "PyramidLevel.rect", "pyramid.rect", None),
    ("sama.pyramid", "resize_rect", None, "interp"),
    ("sama.pyramid", "PyramidLevel.frame", "pyramid.frame", None),
    ("sama.pipeline", "plan_level", "fragments.plan", None),
    ("sama.pipeline", "make_spatial_mask", "masks", None),
    ("sama.pipeline", "make_temporal_mask", "masks", None),
    ("sama.cli", "sample_video", "pipeline.sample", "provenance"),
    ("sama.cli", "sample_image", "pipeline.sample", "provenance"),
    ("sama.pack", "container_bytes", "pack.serialize", None),
    ("sama.cli", "write_container", "pack.write", None),
    ("sama.pack", "read_container", "pack.read", None),
    ("sama.pack", "provenance_audit", "pack.audit", "audit"),
)

ROOT = "op"  # the benchmark's own span around one whole operation


def _count(kind: str, args: tuple, result) -> dict[str, float]:
    """Work counts taken from a wrapped call's arguments and result."""
    if kind == "decode":
        return {"decode_mpx": result.shape[0] * result.shape[1] / 1e6}
    if kind == "select":
        return {"frames_used": len({id(f) for f in result.frames})}
    if kind == "interp":
        h, w = args[5], args[6]  # resize_rect(src, out_h, out_w, y0, x0, h, w)
        return {"interp_calls": 1, "interp_mpx": h * w / 1e6}
    if kind == "provenance":
        prov = result.tensor.provenance
        return {"provenance_mb": 0.0 if prov is None else prov.nbytes / 1e6}
    if kind == "audit":
        return {"audit_pixels": result.total_pixels}
    raise ValueError(kind)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an operation's root
    op: int


class Tracer:
    """Collects spans and counts for the operations it is told about."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self.missing: list[str] = []
        self.miscounted: set[str] = set()
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def operation(self, op: int, fn: Callable[[], object]):
        """Run ``fn`` as operation ``op`` under the root span."""
        self._op = op
        self.counts[op] = Counter()
        index = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(index)
            self._op = None

    def _wrap(self, fn, layer: str | None, counter: str | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            index = tracer._open(layer) if layer else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if index is not None:
                    tracer._close(index)
            if counter:
                try:
                    tracer.counts[tracer._op].update(_count(counter, args, result))
                except (AttributeError, IndexError, TypeError):
                    tracer.miscounted.add(counter)  # signature or result changed
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every target that exists with a recording wrapper."""
        self.missing = []
        for module_name, attr, layer, counter in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = None if owner is None else getattr(owner, name, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            # class attributes are restored from the class dict, not the
            # bound lookup, so methods stay plain functions
            original = owner.__dict__[name] if isinstance(owner, type) else fn
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(fn, layer, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]) + "\n")


# ---------------------------------------------------------------------------
# Self times and per-layer metrics


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, [])):  # by start: count what lies past reach
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


@dataclass
class OpLayers:
    """Per-layer totals of one traced operation."""

    self_ms: Counter
    incl_ms: Counter
    calls: Counter
    counts: Counter
    wall_ms: float  # the root span


def per_op_layers(tracer: Tracer) -> dict[int, OpLayers]:
    """Group spans by operation; inclusive time counts only a layer's
    outermost spans, so a layer that calls itself is not counted twice."""
    selfs = self_times(tracer.spans)
    ops: dict[int, OpLayers] = {}
    for i, s in enumerate(tracer.spans):
        layers = ops.setdefault(
            s.op, OpLayers(Counter(), Counter(), Counter(), tracer.counts.get(s.op, Counter()), 0.0)
        )
        if s.name == ROOT:
            layers.wall_ms = (s.end - s.start) * 1e3
            continue
        layers.self_ms[s.name] += selfs[i] * 1e3
        layers.calls[s.name] += 1
        p = s.parent
        while p >= 0 and tracer.spans[p].name != s.name:
            p = tracer.spans[p].parent
        if p < 0:
            layers.incl_ms[s.name] += (s.end - s.start) * 1e3
    return ops


# name -> (unit, function of OpLayers)
LAYER_METRICS: dict[str, tuple[str, Callable[[OpLayers], float]]] = {
    "imageio.decode_ms": ("ms", lambda o: o.self_ms["imageio.decode"]),
    "imageio.decode_calls": ("count", lambda o: o.calls["imageio.decode"]),
    "imageio.decode_mpx": ("Mpx", lambda o: o.counts["decode_mpx"]),
    "media.load_ms": ("ms", lambda o: o.self_ms["media.load"]),
    "media.frames_decoded": ("count", lambda o: o.calls["imageio.decode"]),
    "media.frames_used": ("count", lambda o: _frames_used(o)),
    "media.decode_useful_ratio": (
        "ratio",
        lambda o: _frames_used(o) / o.calls["imageio.decode"] if o.calls["imageio.decode"] else 0.0,
    ),
    "media.select_ms": ("ms", lambda o: o.self_ms["media.select"]),
    "pyramid.build_ms": ("ms", lambda o: o.incl_ms["pyramid.build"]),
    "pyramid.rect_ms": ("ms", lambda o: o.incl_ms["pyramid.rect"]),
    "pyramid.rect_calls": ("count", lambda o: o.calls["pyramid.rect"]),
    "pyramid.interp_calls": ("count", lambda o: o.counts["interp_calls"]),
    "pyramid.interp_mpx": ("Mpx", lambda o: o.counts["interp_mpx"]),
    "pyramid.frame_ms": ("ms", lambda o: o.incl_ms["pyramid.frame"]),
    "pyramid.frame_calls": ("count", lambda o: o.calls["pyramid.frame"]),
    "fragments.plan_ms": ("ms", lambda o: o.incl_ms["fragments.plan"]),
    "fragments.plan_calls": ("count", lambda o: o.calls["fragments.plan"]),
    "masks.ms": ("ms", lambda o: o.incl_ms["masks"]),
    "pipeline.sample_ms": ("ms", lambda o: o.incl_ms["pipeline.sample"]),
    "pipeline.gather_self_ms": ("ms", lambda o: o.self_ms["pipeline.sample"]),
    "pipeline.provenance_mb": ("MB", lambda o: o.counts["provenance_mb"]),
    "pack.serialize_ms": ("ms", lambda o: o.incl_ms["pack.serialize"]),
    "pack.write_ms": ("ms", lambda o: o.self_ms["pack.write"]),
    "pack.read_ms": ("ms", lambda o: o.incl_ms["pack.read"]),
    "pack.audit_ms": ("ms", lambda o: o.self_ms["pack.audit"]),
    "pack.audit_pixels": ("count", lambda o: o.counts["audit_pixels"]),
    "cli.self_ms": ("ms", lambda o: o.self_ms["cli"]),
}


def _frames_used(o: OpLayers) -> float:
    """Distinct source frames behind the output: those frame selection kept,
    or every decoded frame when the operation selects none."""
    if o.calls["media.select"]:
        return o.counts["frames_used"]
    return o.calls["imageio.decode"]


def layer_self_sum_ms(o: OpLayers) -> float:
    """Sum of every layer's self time in one operation (root excluded)."""
    return sum(o.self_ms.values())
