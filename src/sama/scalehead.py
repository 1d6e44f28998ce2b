"""Numerical kernel for the quality head and scale-encoded attention.

Everything here is plain float64 numpy, sized for desk-scale verification:
windowed attention with a relative position bias, the same logits with an
additive or multiplicative (elementwise) relative scale bias, temporal
squeeze-excitation gating, the two-layer regression head with mean
pooling, softmax-weighted temporal pooling, and analytic-vs-finite-
difference gradient checks for each parameterization. No training happens
here; parameters are supplied or seeded by the caller.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NonFiniteInput

HEAD_HIDDEN = 64  # hidden width of the regression head
SE_REDUCTION = 4  # squeeze-excitation bottleneck ratio


def _check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{name} contains NaN or infinity")
    return arr


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# Attention variants


@dataclass(frozen=True)
class AttnInputs:
    """Window attention operands: L tokens of width d, plus bias tables."""

    q: np.ndarray  # (L, d)
    k: np.ndarray  # (L, d)
    v: np.ndarray  # (L, d)
    b: np.ndarray  # (L, L) relative position bias
    r: np.ndarray | None = None  # (L, L) relative scale bias

    def __post_init__(self):
        q = _check_finite("q", self.q)
        k = _check_finite("k", self.k)
        v = _check_finite("v", self.v)
        b = _check_finite("b", self.b)
        if q.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
            raise DimMismatch("q, k, v must share one (L, d) shape")
        length = q.shape[0]
        if b.shape != (length, length):
            raise DimMismatch(f"position bias must be ({length}, {length})")
        r = self.r
        if r is not None:
            r = _check_finite("r", r)
            if r.shape != (length, length):
                raise DimMismatch(f"scale bias must be ({length}, {length})")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "r", r)

    @property
    def dim(self) -> int:
        return self.q.shape[1]

    def base_logits(self) -> np.ndarray:
        return self.q @ self.k.T / math.sqrt(self.dim) + self.b

    def _require_r(self) -> np.ndarray:
        if self.r is None:
            raise DimMismatch("this variant needs the relative scale bias r")
        return self.r


def attn_base(inp: AttnInputs) -> np.ndarray:
    """softmax(q kT / sqrt(d) + b) v."""
    return softmax_rows(inp.base_logits()) @ inp.v


def attn_rsb_add(inp: AttnInputs) -> np.ndarray:
    """Scale bias added to the logits."""
    return softmax_rows(inp.base_logits() + inp._require_r()) @ inp.v


def attn_rsb_mul(inp: AttnInputs) -> np.ndarray:
    """Scale bias as an elementwise factor on the logits."""
    return softmax_rows(inp.base_logits() * inp._require_r()) @ inp.v


ATTN_VARIANTS = {
    "base": attn_base,
    "rsb_add": attn_rsb_add,
    "rsb_mul": attn_rsb_mul,
}


def scale_bias_from_schedule(
    frame_scales: np.ndarray, pair_table: np.ndarray, tokens_per_slot: int = 1
) -> np.ndarray:
    """Expand a per-scale-pair table to an (L, L) token bias.

    ``frame_scales`` gives each temporal slot's pyramid level;
    ``pair_table[i, j]`` is the bias between a token from level i and one
    from level j. Tokens are laid out slot-major.
    """
    scales = np.repeat(np.asarray(frame_scales, dtype=np.int64), tokens_per_slot)
    return np.asarray(pair_table, dtype=np.float64)[scales[:, None], scales[None, :]]


# ---------------------------------------------------------------------------
# Feature grid, SE gating, head, pooling


@dataclass(frozen=True)
class FeatureGrid:
    """Backbone output: (H/32, W/32, T/2, C) features (T/2 == 1 for images)."""

    z: np.ndarray

    def __post_init__(self):
        z = _check_finite("z", self.z)
        if z.ndim != 4 or z.shape[3] < 1:
            raise DimMismatch("feature grid must be (H', W', T', C)")
        object.__setattr__(self, "z", z)

    @property
    def slots(self) -> int:
        return self.z.shape[2]

    @property
    def channels(self) -> int:
        return self.z.shape[3]


def feature_grid_dims(config, kind: str = "video") -> tuple[int, int, int]:
    """Grid a backbone produces for a sampler config: spatial /32, frames /2.

    (4x4 patch embed with three 2x downsample stages spatially; two-frame
    embedding temporally.)
    """
    if config.out_h % 32 or config.out_w % 32:
        raise DimMismatch("output dims must be divisible by 32 for the backbone")
    if kind == "image":
        slots = 1
    else:
        if config.frames_out % 2:
            raise DimMismatch("video frame count must be even (two-frame embed)")
        slots = config.frames_out // 2
    return config.out_h // 32, config.out_w // 32, slots


@dataclass(frozen=True)
class SqueezeExciteParams:
    """Two FC layers gating the temporal slots (bottleneck = slots / 4)."""

    w1: np.ndarray  # (hidden, T')
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (T', hidden)
    b2: np.ndarray  # (T',)

    @staticmethod
    def hidden_for(slots: int) -> int:
        return max(slots // SE_REDUCTION, 1)

    @staticmethod
    def unit_gate(slots: int) -> "SqueezeExciteParams":
        """Zero weights, large output bias: the gate saturates at 1."""
        hidden = SqueezeExciteParams.hidden_for(slots)
        return SqueezeExciteParams(
            w1=np.zeros((hidden, slots)),
            b1=np.zeros(hidden),
            w2=np.zeros((slots, hidden)),
            b2=np.full(slots, 50.0),
        )

    def gate(self, squeezed: np.ndarray) -> np.ndarray:
        h = np.maximum(self.w1 @ squeezed + self.b1, 0.0)
        return sigmoid(self.w2 @ h + self.b2)


def se_gate(grid: FeatureGrid, params: SqueezeExciteParams) -> FeatureGrid:
    """Squeeze each temporal slot to its mean, excite, and rescale the slot."""
    slots = grid.slots
    if (
        params.w1.ndim != 2
        or params.w1.shape[1] != slots
        or params.w2.shape != (slots, params.w1.shape[0])
        or params.b1.shape != (params.w1.shape[0],)
        or params.b2.shape != (slots,)
    ):
        raise DimMismatch("SE parameters do not match the slot count")
    squeezed = grid.z.mean(axis=(0, 1, 3))
    g = params.gate(squeezed)
    return FeatureGrid(grid.z * g[None, None, :, None])


@dataclass(frozen=True)
class HeadParams:
    """Two FC layers regressing features to one score per position."""

    w1: np.ndarray  # (C, 64)
    b1: np.ndarray  # (64,)
    w2: np.ndarray  # (64, 1)
    b2: np.ndarray  # (1,)

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2"):
            object.__setattr__(self, name, _check_finite(name, getattr(self, name)))
        if self.w1.ndim != 2 or self.w1.shape[1] != HEAD_HIDDEN:
            raise DimMismatch(f"head hidden width must be {HEAD_HIDDEN}")
        if self.b1.shape != (HEAD_HIDDEN,) or self.w2.shape != (HEAD_HIDDEN, 1):
            raise DimMismatch("head layer shapes are inconsistent")
        if self.b2.shape != (1,):
            raise DimMismatch("head output bias must be a single value")

    @staticmethod
    def seeded(channels: int, rng: np.random.Generator) -> "HeadParams":
        return HeadParams(
            w1=rng.standard_normal((channels, HEAD_HIDDEN)) / math.sqrt(channels),
            b1=rng.standard_normal(HEAD_HIDDEN) * 0.1,
            w2=rng.standard_normal((HEAD_HIDDEN, 1)) / math.sqrt(HEAD_HIDDEN),
            b2=rng.standard_normal(1) * 0.1,
        )


def quality_head(grid: FeatureGrid, params: HeadParams) -> tuple[np.ndarray, float]:
    """Per-position scores and their global mean."""
    if params.w1.shape[0] != grid.channels:
        raise DimMismatch(
            f"head expects {params.w1.shape[0]} channels, grid has {grid.channels}"
        )
    hidden = np.maximum(grid.z @ params.w1 + params.b1, 0.0)
    scores = (hidden @ params.w2 + params.b2)[..., 0]
    return scores, float(scores.mean())


def weighted_pool(scores: np.ndarray, weights: np.ndarray) -> float:
    """Softmax-weighted temporal average of per-slot spatial means."""
    scores = _check_finite("scores", scores)
    weights = _check_finite("weights", weights)
    if scores.ndim != 3:
        raise DimMismatch("score map must be (H', W', T')")
    if weights.shape != (scores.shape[2],):
        raise DimMismatch("need one weight per temporal slot")
    p = softmax_rows(weights)
    return float(p @ scores.mean(axis=(0, 1)))


def temporal_weights_from_features(
    grid: FeatureGrid, params: HeadParams
) -> np.ndarray:
    """Input-conditioned temporal weights: two FC layers on per-slot means."""
    if params.w1.shape[0] != grid.channels:
        raise DimMismatch("weight net does not match the grid channels")
    pooled = grid.z.mean(axis=(0, 1))  # (T', C)
    hidden = np.maximum(pooled @ params.w1 + params.b1, 0.0)
    return (hidden @ params.w2 + params.b2)[:, 0]


# ---------------------------------------------------------------------------
# Analytic gradients of the mean-pooled scalar


def pooled_attn_scalar(inp: AttnInputs, variant: str) -> float:
    return float(ATTN_VARIANTS[variant](inp).mean())


def grad_pooled_wrt_scale_bias(inp: AttnInputs, variant: str) -> np.ndarray:
    """d mean(attn) / d r for the additive and multiplicative variants."""
    if variant not in ("rsb_add", "rsb_mul"):
        raise ValueError(f"no scale bias in variant {variant!r}")
    base = inp.base_logits()
    r = inp._require_r()
    logits = base + r if variant == "rsb_add" else base * r
    p = softmax_rows(logits)
    length, dim = inp.q.shape
    # scalar = mean(P V); dS/dP = ones/(L d) @ V.T, then softmax backward
    g_p = np.full((length, dim), 1.0 / (length * dim)) @ inp.v.T
    inner = (g_p * p).sum(axis=-1, keepdims=True)
    g_logits = p * (g_p - inner)
    return g_logits if variant == "rsb_add" else g_logits * base


def grad_pool_wrt_weights(scores: np.ndarray, weights: np.ndarray) -> np.ndarray:
    p = softmax_rows(np.asarray(weights, dtype=np.float64))
    m = scores.mean(axis=(0, 1))
    return p * (m - float(p @ m))


def grad_pool_wrt_scores(scores: np.ndarray, weights: np.ndarray) -> np.ndarray:
    p = softmax_rows(np.asarray(weights, dtype=np.float64))
    spatial = scores.shape[0] * scores.shape[1]
    return np.broadcast_to(p / spatial, scores.shape).copy()


def grad_se_scalar_wrt_excite_bias(
    grid: FeatureGrid, params: SqueezeExciteParams
) -> np.ndarray:
    """d mean(se_gate(z)) / d b2."""
    squeezed = grid.z.mean(axis=(0, 1, 3))
    g = params.gate(squeezed)
    slot_sums = grid.z.sum(axis=(0, 1, 3))
    return g * (1.0 - g) * slot_sums / grid.z.size


# ---------------------------------------------------------------------------
# Finite-difference verification


@dataclass
class GradCheckReport:
    op: str
    analytic: float
    numeric: dict[float, float]
    rel_errors: dict[float, float]

    @property
    def best_h(self) -> float:
        return min(self.rel_errors, key=self.rel_errors.get)

    @property
    def best_rel_error(self) -> float:
        return self.rel_errors[self.best_h]

    def ok(self, tol: float) -> bool:
        return self.best_rel_error <= tol


def _relative_error(a: float, n: float) -> float:
    scale = max(abs(a), abs(n))
    if scale < 1e-12:
        return 0.0
    return abs(a - n) / scale


DEFAULT_STEPS = (1e-3, 1e-4, 1e-5)


def _central_difference_report(
    op: str, scalar_at, analytic: float, steps
) -> GradCheckReport:
    numeric = {}
    rel = {}
    for h in steps:
        n = (scalar_at(h) - scalar_at(-h)) / (2.0 * h)
        numeric[h] = n
        rel[h] = _relative_error(analytic, n)
    return GradCheckReport(op=op, analytic=analytic, numeric=numeric, rel_errors=rel)


def grad_check(op: str, point, direction: np.ndarray, steps=DEFAULT_STEPS) -> GradCheckReport:
    """Directional analytic derivative vs central differences over a step sweep.

    Supported ops: ``rsb_add`` / ``rsb_mul`` (point = AttnInputs, direction
    like r), ``weighted_pool`` (point = (scores, weights), direction like
    weights), ``weighted_pool_scores`` (direction like scores), ``se_gate``
    (point = (FeatureGrid, SqueezeExciteParams), direction like b2).
    """
    direction = np.asarray(direction, dtype=np.float64)
    if op in ("rsb_add", "rsb_mul"):
        inp: AttnInputs = point
        analytic = float((grad_pooled_wrt_scale_bias(inp, op) * direction).sum())

        def scalar_at(h: float) -> float:
            shifted = AttnInputs(inp.q, inp.k, inp.v, inp.b, inp.r + h * direction)
            return pooled_attn_scalar(shifted, op)

    elif op == "weighted_pool":
        scores, weights = point
        analytic = float(grad_pool_wrt_weights(scores, weights) @ direction)

        def scalar_at(h: float) -> float:
            return weighted_pool(scores, weights + h * direction)

    elif op == "weighted_pool_scores":
        scores, weights = point
        analytic = float((grad_pool_wrt_scores(scores, weights) * direction).sum())

        def scalar_at(h: float) -> float:
            return weighted_pool(scores + h * direction, weights)

    elif op == "se_gate":
        grid, params = point
        analytic = float(grad_se_scalar_wrt_excite_bias(grid, params) @ direction)

        def scalar_at(h: float) -> float:
            shifted = SqueezeExciteParams(
                params.w1, params.b1, params.w2, params.b2 + h * direction
            )
            return float(se_gate(grid, shifted).z.mean())

    else:
        raise ValueError(f"unknown grad_check op {op!r}")
    return _central_difference_report(op, scalar_at, analytic, steps)


# ---------------------------------------------------------------------------
# Property suite (used by the CLI checks)


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _random_attn(rng: np.random.Generator, with_r: bool = True) -> AttnInputs:
    length = int(rng.integers(2, 17))
    dim = int(rng.integers(1, 9))
    r = rng.standard_normal((length, length)) if with_r else None
    return AttnInputs(
        q=rng.standard_normal((length, dim)),
        k=rng.standard_normal((length, dim)),
        v=rng.standard_normal((length, dim)),
        b=rng.standard_normal((length, length)),
        r=r,
    )


def run_property_suite(seeds: int = 100, rng_seed: int = 0) -> list[PropertyResult]:
    """Every numeric invariant this module promises, over random instances.

    Each result's detail ends with the wall time since the previous result;
    a loop that decides several results is charged to the first of them.
    """
    rng = np.random.default_rng(rng_seed)
    results: list[PropertyResult] = []
    lap = time.perf_counter()

    def record(name: str, worst: float, tol: float) -> None:
        nonlocal lap
        now = time.perf_counter()
        ms = (now - lap) * 1e3
        lap = now
        results.append(
            PropertyResult(
                name=name,
                passed=worst <= tol,
                detail=f"worst {worst:.3e} (tol {tol:.0e}, {seeds} seeds, {ms:.1f} ms)",
            )
        )

    worst_add = worst_mul = worst_rows = worst_shift = 0.0
    for _ in range(seeds):
        inp = _random_attn(rng)
        base = attn_base(inp)
        zero_r = AttnInputs(inp.q, inp.k, inp.v, inp.b, np.zeros_like(inp.r))
        one_r = AttnInputs(inp.q, inp.k, inp.v, inp.b, np.ones_like(inp.r))
        worst_add = max(worst_add, float(np.abs(attn_rsb_add(zero_r) - base).max()))
        worst_mul = max(worst_mul, float(np.abs(attn_rsb_mul(one_r) - base).max()))
        for variant in ("base", "rsb_add", "rsb_mul"):
            logits = inp.base_logits()
            if variant == "rsb_add":
                logits = logits + inp.r
            elif variant == "rsb_mul":
                logits = logits * inp.r
            rows = softmax_rows(logits).sum(axis=-1)
            worst_rows = max(worst_rows, float(np.abs(rows - 1.0).max()))
        shift = rng.standard_normal((inp.q.shape[0], 1))
        shifted = AttnInputs(inp.q, inp.k, inp.v, inp.b + shift, inp.r)
        worst_shift = max(worst_shift, float(np.abs(attn_base(shifted) - base).max()))
    record("additive scale bias at zero reduces to base attention", worst_add, 1e-12)
    record("multiplicative scale bias at one reduces to base attention", worst_mul, 1e-12)
    record("softmax rows sum to one", worst_rows, 1e-6)
    record("row-constant logit shifts leave outputs unchanged", worst_shift, 1e-9)

    worst_g_add = worst_g_mul = 0.0
    for _ in range(seeds):
        inp = _random_attn(rng)
        direction = rng.standard_normal(inp.r.shape)
        worst_g_add = max(
            worst_g_add, grad_check("rsb_add", inp, direction).best_rel_error
        )
        worst_g_mul = max(
            worst_g_mul, grad_check("rsb_mul", inp, direction).best_rel_error
        )
    record("additive-bias gradient matches central differences", worst_g_add, 1e-4)
    record("multiplicative-bias gradient matches central differences", worst_g_mul, 1e-4)

    worst_uniform = worst_linear = worst_se = worst_perm = 0.0
    for _ in range(seeds):
        hp = int(rng.integers(1, 5))
        wp = int(rng.integers(1, 5))
        tp = int(rng.integers(1, 9))
        ch = int(rng.integers(1, 9))
        scores = rng.standard_normal((hp, wp, tp))
        worst_uniform = max(
            worst_uniform,
            abs(weighted_pool(scores, np.zeros(tp)) - float(scores.mean())),
        )
        direction = rng.standard_normal(scores.shape)
        worst_linear = max(
            worst_linear,
            grad_check(
                "weighted_pool_scores", (scores, rng.standard_normal(tp)), direction
            ).best_rel_error,
        )
        grid = FeatureGrid(rng.standard_normal((hp, wp, tp, ch)))
        unit = SqueezeExciteParams.unit_gate(tp)
        worst_se = max(worst_se, float(np.abs(se_gate(grid, unit).z - grid.z).max()))
        params = HeadParams.seeded(ch, rng)
        _, scalar = quality_head(grid, params)
        perm = rng.permutation(hp * wp)
        shuffled = grid.z.reshape(hp * wp, tp, ch)[perm].reshape(grid.z.shape)
        _, scalar_p = quality_head(FeatureGrid(shuffled), params)
        worst_perm = max(worst_perm, abs(scalar - scalar_p))
    record("uniform temporal weights equal plain mean pooling", worst_uniform, 1e-12)
    record("pooling is linear in the score map", worst_linear, 1e-10)
    record("saturated excitation gate passes features through", worst_se, 0.0)
    record("head scalar ignores spatial permutations", worst_perm, 1e-9)

    worst_g_se = 0.0
    for _ in range(max(seeds // 4, 1)):
        tp = int(rng.integers(1, 9))
        grid = FeatureGrid(rng.standard_normal((3, 2, tp, 4)))
        hidden = SqueezeExciteParams.hidden_for(tp)
        params = SqueezeExciteParams(
            w1=rng.standard_normal((hidden, tp)),
            b1=rng.standard_normal(hidden),
            w2=rng.standard_normal((tp, hidden)),
            b2=rng.standard_normal(tp),
        )
        direction = rng.standard_normal(tp)
        worst_g_se = max(
            worst_g_se, grad_check("se_gate", (grid, params), direction).best_rel_error
        )
    record("excitation-bias gradient matches central differences", worst_g_se, 1e-4)
    return results
