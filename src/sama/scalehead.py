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
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimMismatch, NonFiniteInput

HEAD_HIDDEN = 64  # hidden width of the regression head
SE_REDUCTION = 4  # squeeze-excitation bottleneck ratio


def _check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{name} contains NaN or infinity")
    return arr


def _check_fields(obj) -> None:
    """Check every array field of a frozen dataclass finite and store it as
    float64; a field whose default is None may be None."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is None and f.default is None:
            continue
        object.__setattr__(obj, f.name, _check_finite(f.name, value))


def _max_abs(arr: np.ndarray) -> float:
    return float(np.abs(arr).max())


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
        _check_fields(self)
        q = self.q
        if q.ndim != 2 or self.k.shape != q.shape or self.v.shape != q.shape:
            raise DimMismatch("q, k, v must share one (L, d) shape")
        length = q.shape[0]
        for table, what in ((self.b, "position"), (self.r, "scale")):
            if table is not None and table.shape != (length, length):
                raise DimMismatch(f"{what} bias must be ({length}, {length})")

    @property
    def dim(self) -> int:
        return self.q.shape[1]


def _logits(inp: AttnInputs, variant: str) -> np.ndarray:
    """q kT / sqrt(d) + b, then the scale bias r added (``rsb_add``) or
    multiplied in elementwise (``rsb_mul``); ``base`` takes no r."""
    logits = inp.q @ inp.k.T / math.sqrt(inp.dim) + inp.b
    if variant == "base":
        return logits
    if inp.r is None:
        raise DimMismatch("this variant needs the relative scale bias r")
    return logits + inp.r if variant == "rsb_add" else logits * inp.r


def attn_base(inp: AttnInputs) -> np.ndarray:
    """softmax(q kT / sqrt(d) + b) v."""
    return softmax_rows(_logits(inp, "base")) @ inp.v


def attn_rsb_add(inp: AttnInputs) -> np.ndarray:
    """Scale bias added to the logits."""
    return softmax_rows(_logits(inp, "rsb_add")) @ inp.v


def attn_rsb_mul(inp: AttnInputs) -> np.ndarray:
    """Scale bias as an elementwise factor on the logits."""
    return softmax_rows(_logits(inp, "rsb_mul")) @ inp.v


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
        _check_fields(self)
        if self.z.ndim != 4 or self.z.shape[3] < 1:
            raise DimMismatch("feature grid must be (H', W', T', C)")

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

    def __post_init__(self):
        _check_fields(self)
        if self.w1.ndim != 2:
            raise DimMismatch("SE first layer must be (hidden, T')")
        hidden, slots = self.w1.shape
        if (self.b1.shape, self.w2.shape, self.b2.shape) != ((hidden,), (slots, hidden), (slots,)):
            raise DimMismatch("SE layer shapes are inconsistent")

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
    if params.b2.shape != (grid.slots,):
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
        _check_fields(self)
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


def _mlp(features: np.ndarray, params: HeadParams) -> np.ndarray:
    """The two FC layers on the last axis, which must hold the grid channels:
    relu(x w1 + b1) w2 + b2, one value per leading position."""
    if params.w1.shape[0] != features.shape[-1]:
        raise DimMismatch(
            f"head expects {params.w1.shape[0]} channels, grid has {features.shape[-1]}"
        )
    hidden = np.maximum(features @ params.w1 + params.b1, 0.0)
    return (hidden @ params.w2 + params.b2)[..., 0]


def quality_head(grid: FeatureGrid, params: HeadParams) -> tuple[np.ndarray, float]:
    """Per-position scores and their global mean."""
    scores = _mlp(grid.z, params)
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
    return _mlp(grid.z.mean(axis=(0, 1)), params)  # (T', C) -> (T',)


# ---------------------------------------------------------------------------
# Analytic gradients of the mean-pooled scalar


def pooled_attn_scalar(inp: AttnInputs, variant: str) -> float:
    return float(ATTN_VARIANTS[variant](inp).mean())


def grad_pooled_wrt_scale_bias(inp: AttnInputs, variant: str) -> np.ndarray:
    """d mean(attn) / d r for the additive and multiplicative variants."""
    if variant not in ("rsb_add", "rsb_mul"):
        raise ValueError(f"no scale bias in variant {variant!r}")
    p = softmax_rows(_logits(inp, variant))
    length, dim = inp.q.shape
    # scalar = mean(P V); dS/dP = ones/(L d) @ V.T, then softmax backward
    g_p = np.full((length, dim), 1.0 / (length * dim)) @ inp.v.T
    inner = (g_p * p).sum(axis=-1, keepdims=True)
    g_logits = p * (g_p - inner)
    return g_logits if variant == "rsb_add" else g_logits * _logits(inp, "base")


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
            return pooled_attn_scalar(replace(inp, r=inp.r + h * direction), op)

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
            shifted = replace(params, b2=params.b2 + h * direction)
            return float(se_gate(grid, shifted).z.mean())

    else:
        raise ValueError(f"unknown grad_check op {op!r}")
    numeric = {h: (scalar_at(h) - scalar_at(-h)) / (2.0 * h) for h in steps}
    rel = {h: _relative_error(analytic, n) for h, n in numeric.items()}
    return GradCheckReport(op=op, analytic=analytic, numeric=numeric, rel_errors=rel)


# ---------------------------------------------------------------------------
# Property suite (used by the CLI checks)


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _random_attn(rng: np.random.Generator) -> AttnInputs:
    length = int(rng.integers(2, 17))
    dim = int(rng.integers(1, 9))
    return AttnInputs(
        q=rng.standard_normal((length, dim)),
        k=rng.standard_normal((length, dim)),
        v=rng.standard_normal((length, dim)),
        b=rng.standard_normal((length, length)),
        r=rng.standard_normal((length, length)),
    )


def _random_grid(rng: np.random.Generator) -> FeatureGrid:
    """A grid of 1-4 x 1-4 positions, 1-8 slots and 1-8 channels."""
    shape = rng.integers(1, (5, 5, 9, 9))
    return FeatureGrid(rng.standard_normal(tuple(shape)))


def _reduces_to_base(variant: str, identity: float, rng: np.random.Generator) -> float:
    inp = _random_attn(rng)
    at_identity = replace(inp, r=np.full_like(inp.r, identity))
    return _max_abs(ATTN_VARIANTS[variant](at_identity) - attn_base(inp))


def _row_sum_error(rng: np.random.Generator) -> float:
    inp = _random_attn(rng)
    return max(_max_abs(softmax_rows(_logits(inp, v)).sum(axis=-1) - 1.0) for v in ATTN_VARIANTS)


def _row_shift_error(rng: np.random.Generator) -> float:
    inp = _random_attn(rng)
    shift = rng.standard_normal((inp.q.shape[0], 1))
    return _max_abs(attn_base(replace(inp, b=inp.b + shift)) - attn_base(inp))


def _bias_gradient_error(variant: str, rng: np.random.Generator) -> float:
    inp = _random_attn(rng)
    return grad_check(variant, inp, rng.standard_normal(inp.r.shape)).best_rel_error


def _uniform_pool_error(rng: np.random.Generator) -> float:
    scores = _random_grid(rng).z[..., 0]  # a score map: one channel of a grid
    return abs(weighted_pool(scores, np.zeros(scores.shape[2])) - float(scores.mean()))


def _pool_linearity_error(rng: np.random.Generator) -> float:
    scores = _random_grid(rng).z[..., 0]
    weights = rng.standard_normal(scores.shape[2])
    direction = rng.standard_normal(scores.shape)
    return grad_check("weighted_pool_scores", (scores, weights), direction).best_rel_error


def _unit_gate_error(rng: np.random.Generator) -> float:
    grid = _random_grid(rng)
    return _max_abs(se_gate(grid, SqueezeExciteParams.unit_gate(grid.slots)).z - grid.z)


def _permutation_error(rng: np.random.Generator) -> float:
    grid = _random_grid(rng)
    hp, wp, tp, ch = grid.z.shape
    params = HeadParams.seeded(ch, rng)
    shuffled = grid.z.reshape(hp * wp, tp, ch)[rng.permutation(hp * wp)]
    _, scalar = quality_head(grid, params)
    _, scalar_p = quality_head(FeatureGrid(shuffled.reshape(grid.z.shape)), params)
    return abs(scalar - scalar_p)


def _excite_gradient_error(rng: np.random.Generator) -> float:
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
    return grad_check("se_gate", (grid, params), direction).best_rel_error


class Property(NamedTuple):
    """A promised invariant: the error of one random instance drawn from the
    generator must not exceed ``tol``. It runs ``max(seeds // per_seed, 1)``
    instances."""

    name: str
    tol: float
    error: Callable[[np.random.Generator], float]
    per_seed: int = 1


PROPERTIES = (
    Property("additive scale bias at zero reduces to base attention", 1e-12,
             partial(_reduces_to_base, "rsb_add", 0.0)),
    Property("multiplicative scale bias at one reduces to base attention", 1e-12,
             partial(_reduces_to_base, "rsb_mul", 1.0)),
    Property("softmax rows sum to one", 1e-6, _row_sum_error),
    Property("row-constant logit shifts leave outputs unchanged", 1e-9, _row_shift_error),
    Property("additive-bias gradient matches central differences", 1e-4,
             partial(_bias_gradient_error, "rsb_add")),
    Property("multiplicative-bias gradient matches central differences", 1e-4,
             partial(_bias_gradient_error, "rsb_mul")),
    Property("uniform temporal weights equal plain mean pooling", 1e-12, _uniform_pool_error),
    Property("pooling is linear in the score map", 1e-10, _pool_linearity_error),
    Property("saturated excitation gate passes features through", 0.0, _unit_gate_error),
    Property("head scalar ignores spatial permutations", 1e-9, _permutation_error),
    Property("excitation-bias gradient matches central differences", 1e-4,
             _excite_gradient_error, per_seed=4),
)


def run_property_suite(seeds: int = 100, rng_seed: int = 0) -> list[PropertyResult]:
    """Every property in ``PROPERTIES``, in order, each on its own instances
    from one generator seeded with ``rng_seed``. Each result's detail ends
    with the wall time of that property alone; a NaN error fails it."""
    rng = np.random.default_rng(rng_seed)
    results = []
    for prop in PROPERTIES:
        runs = max(seeds // prop.per_seed, 1)
        start = time.perf_counter()
        worst = float(np.max([prop.error(rng) for _ in range(runs)]))
        ms = (time.perf_counter() - start) * 1e3
        detail = f"worst {worst:.3e}, tol {prop.tol:.0e}, {runs} seeds, {ms:.1f} ms"
        results.append(PropertyResult(prop.name, worst <= prop.tol, detail))
    return results
