import math

import numpy as np
import pytest

from sama.errors import DimMismatch, NonFiniteInput
from sama.scalehead import (
    AttnInputs,
    FeatureGrid,
    GradCheckReport,
    HeadParams,
    SqueezeExciteParams,
    attn_base,
    attn_rsb_add,
    attn_rsb_mul,
    grad_check,
    pooled_attn_scalar,
    quality_head,
    run_property_suite,
    scale_bias_from_schedule,
    se_gate,
    softmax_rows,
    temporal_weights_from_features,
    weighted_pool,
)


# ---------------------------------------------------------------------------
# Independent scalar oracles (pure python loops, no numpy broadcasting)


def oracle_attention(q, k, v, b, r=None, mode="none"):
    L, d = len(q), len(q[0])
    out = [[0.0] * d for _ in range(L)]
    for i in range(L):
        logits = []
        for j in range(L):
            dot = sum(q[i][t] * k[j][t] for t in range(d)) / math.sqrt(d) + b[i][j]
            if mode == "add":
                dot += r[i][j]
            elif mode == "mul":
                dot *= r[i][j]
            logits.append(dot)
        m = max(logits)
        exps = [math.exp(x - m) for x in logits]
        z = sum(exps)
        probs = [e / z for e in exps]
        for col in range(d):
            out[i][col] = sum(probs[j] * v[j][col] for j in range(L))
    return np.array(out)


def oracle_weighted_pool(scores, weights):
    tp = len(weights)
    m = max(weights)
    exps = [math.exp(w - m) for w in weights]
    z = sum(exps)
    total = 0.0
    hp, wp = scores.shape[0], scores.shape[1]
    for t in range(tp):
        mean_t = sum(scores[i, j, t] for i in range(hp) for j in range(wp)) / (hp * wp)
        total += exps[t] / z * mean_t
    return total


def oracle_se_gate(z, w1, b1, w2, b2):
    hp, wp, tp, ch = z.shape
    squeezed = [
        sum(z[i, j, t, c] for i in range(hp) for j in range(wp) for c in range(ch))
        / (hp * wp * ch)
        for t in range(tp)
    ]
    hidden = [
        max(sum(w1[h][t] * squeezed[t] for t in range(tp)) + b1[h], 0.0)
        for h in range(len(b1))
    ]
    gates = [
        1.0 / (1.0 + math.exp(-(sum(w2[t][h] * hidden[h] for h in range(len(b1))) + b2[t])))
        for t in range(tp)
    ]
    out = np.empty_like(z)
    for t in range(tp):
        out[:, :, t, :] = z[:, :, t, :] * gates[t]
    return out, gates


def _rand_inputs(rng, length=3, dim=3, with_r=True):
    return AttnInputs(
        q=rng.standard_normal((length, dim)),
        k=rng.standard_normal((length, dim)),
        v=rng.standard_normal((length, dim)),
        b=rng.standard_normal((length, length)),
        r=rng.standard_normal((length, length)) if with_r else None,
    )


# ---------------------------------------------------------------------------
# Base attention


def test_uniform_attention_is_column_mean():
    L, d = 5, 3
    rng = np.random.default_rng(0)
    v = rng.standard_normal((L, d))
    inp = AttnInputs(q=np.zeros((L, d)), k=rng.standard_normal((L, d)), v=v, b=np.zeros((L, L)))
    out = attn_base(inp)
    for row in out:
        assert np.allclose(row, v.mean(axis=0), atol=1e-12)


def test_two_token_hand_case():
    inp = AttnInputs(
        q=np.array([[1.0], [0.0]]),
        k=np.array([[1.0], [0.0]]),
        v=np.array([[1.0], [0.0]]),
        b=np.zeros((2, 2)),
    )
    out = attn_base(inp)
    e = math.e
    assert out[0, 0] == pytest.approx(e / (e + 1), abs=1e-9)  # ~0.7311
    assert out[1, 0] == pytest.approx(0.5, abs=1e-12)


def test_large_negative_bias_masks_to_self():
    rng = np.random.default_rng(1)
    L, d = 4, 2
    v = rng.standard_normal((L, d))
    b = np.full((L, L), -1e9)
    np.fill_diagonal(b, 0.0)
    inp = AttnInputs(q=rng.standard_normal((L, d)), k=rng.standard_normal((L, d)), v=v, b=b)
    assert np.allclose(attn_base(inp), v, atol=1e-9)


def test_attention_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    for mode, fn in [("none", attn_base), ("add", attn_rsb_add), ("mul", attn_rsb_mul)]:
        inp = _rand_inputs(rng)
        expected = oracle_attention(
            inp.q.tolist(), inp.k.tolist(), inp.v.tolist(), inp.b.tolist(),
            inp.r.tolist(), mode,
        )
        assert np.allclose(fn(inp), expected, atol=1e-9)


def test_input_validation():
    with pytest.raises(NonFiniteInput):
        AttnInputs(
            q=np.array([[np.nan]]), k=np.ones((1, 1)), v=np.ones((1, 1)), b=np.zeros((1, 1))
        )
    with pytest.raises(DimMismatch):
        AttnInputs(
            q=np.ones((2, 2)), k=np.ones((3, 2)), v=np.ones((2, 2)), b=np.zeros((2, 2))
        )
    with pytest.raises(DimMismatch):
        attn_rsb_add(
            AttnInputs(q=np.ones((2, 2)), k=np.ones((2, 2)), v=np.ones((2, 2)), b=np.zeros((2, 2)))
        )


# ---------------------------------------------------------------------------
# Scale-bias variants


def test_zero_scale_bias_reduces_to_base():
    rng = np.random.default_rng(3)
    for _ in range(20):
        inp = _rand_inputs(rng, length=int(rng.integers(2, 17)), dim=int(rng.integers(1, 9)))
        zero = AttnInputs(inp.q, inp.k, inp.v, inp.b, np.zeros_like(inp.r))
        assert np.abs(attn_rsb_add(zero) - attn_base(inp)).max() <= 1e-12


def test_unit_scale_factor_reduces_to_base():
    rng = np.random.default_rng(4)
    for _ in range(20):
        inp = _rand_inputs(rng, length=int(rng.integers(2, 17)), dim=int(rng.integers(1, 9)))
        ones = AttnInputs(inp.q, inp.k, inp.v, inp.b, np.ones_like(inp.r))
        assert np.abs(attn_rsb_mul(ones) - attn_base(inp)).max() <= 1e-12


def test_constant_additive_bias_is_invisible():
    rng = np.random.default_rng(5)
    inp = _rand_inputs(rng, length=6, dim=4)
    shifted = AttnInputs(inp.q, inp.k, inp.v, inp.b, np.full((6, 6), 3.7))
    assert np.allclose(attn_rsb_add(shifted), attn_base(inp), atol=1e-9)


def test_zero_scale_factor_gives_uniform_attention():
    rng = np.random.default_rng(6)
    inp = _rand_inputs(rng, length=5, dim=3)
    zeroed = AttnInputs(inp.q, inp.k, inp.v, inp.b, np.zeros((5, 5)))
    out = attn_rsb_mul(zeroed)
    for row in out:
        assert np.allclose(row, inp.v.mean(axis=0), atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        logits = rng.standard_normal((int(rng.integers(1, 17)), int(rng.integers(1, 17)))) * 10
        assert np.abs(softmax_rows(logits).sum(axis=-1) - 1.0).max() <= 1e-6


def test_scale_bias_from_schedule_expansion():
    table = np.arange(16, dtype=np.float64).reshape(4, 4)
    frame_scales = [0, 0, 2, 2]
    r = scale_bias_from_schedule(frame_scales, table, tokens_per_slot=1)
    assert r.shape == (4, 4)
    assert r[0, 2] == table[0, 2] and r[2, 0] == table[2, 0]
    r2 = scale_bias_from_schedule([0, 1], table, tokens_per_slot=2)
    assert r2.shape == (4, 4)
    assert (r2[:2, 2:] == table[0, 1]).all()


# ---------------------------------------------------------------------------
# SE gating


def test_se_unit_gate_passthrough():
    rng = np.random.default_rng(8)
    grid = FeatureGrid(rng.standard_normal((3, 4, 6, 5)))
    out = se_gate(grid, SqueezeExciteParams.unit_gate(6))
    assert np.array_equal(out.z, grid.z)


def test_se_constant_slots_scale_by_gate():
    rng = np.random.default_rng(9)
    tp = 4
    z = np.empty((2, 3, tp, 5))
    for t in range(tp):
        z[:, :, t, :] = float(t + 1)
    grid = FeatureGrid(z)
    hidden = SqueezeExciteParams.hidden_for(tp)
    params = SqueezeExciteParams(
        w1=rng.standard_normal((hidden, tp)),
        b1=rng.standard_normal(hidden),
        w2=rng.standard_normal((tp, hidden)),
        b2=rng.standard_normal(tp),
    )
    out = se_gate(grid, params)
    _, gates = oracle_se_gate(z, params.w1.tolist(), params.b1.tolist(),
                              params.w2.tolist(), params.b2.tolist())
    for t in range(tp):
        assert out.z[:, :, t, :].mean() == pytest.approx((t + 1) * gates[t], rel=1e-12)


def test_se_matches_scalar_oracle():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((2, 2, 5, 3))
    hidden = SqueezeExciteParams.hidden_for(5)
    params = SqueezeExciteParams(
        w1=rng.standard_normal((hidden, 5)),
        b1=rng.standard_normal(hidden),
        w2=rng.standard_normal((5, hidden)),
        b2=rng.standard_normal(5),
    )
    expected, _ = oracle_se_gate(z, params.w1.tolist(), params.b1.tolist(),
                                 params.w2.tolist(), params.b2.tolist())
    assert np.allclose(se_gate(FeatureGrid(z), params).z, expected, atol=1e-9)


def test_se_rejects_mismatched_params():
    grid = FeatureGrid(np.zeros((2, 2, 4, 3)))
    with pytest.raises(DimMismatch):
        se_gate(grid, SqueezeExciteParams.unit_gate(6))


def test_se_params_reject_a_nan_before_any_gate_runs():
    unit = SqueezeExciteParams.unit_gate(4)
    with pytest.raises(NonFiniteInput, match="b2"):
        SqueezeExciteParams(unit.w1, unit.b1, unit.w2, np.array([0.0, np.nan, 0.0, 0.0]))


@pytest.mark.parametrize("field, shape", [("b1", (2,)), ("w2", (4, 2)), ("b2", (3,))])
def test_se_params_reject_layers_that_disagree(field, shape):
    fields = vars(SqueezeExciteParams.unit_gate(4)) | {field: np.zeros(shape)}
    with pytest.raises(DimMismatch):
        SqueezeExciteParams(**fields)


# ---------------------------------------------------------------------------
# Quality head


def test_constant_head_outputs_bias():
    grid = FeatureGrid(np.random.default_rng(11).standard_normal((3, 3, 2, 6)))
    params = HeadParams(
        w1=np.zeros((6, 64)), b1=np.zeros(64), w2=np.zeros((64, 1)), b2=np.array([2.5])
    )
    scores, scalar = quality_head(grid, params)
    assert (scores == 2.5).all()
    assert scalar == 2.5


def test_constant_grid_scalar_equals_any_position():
    rng = np.random.default_rng(12)
    vec = rng.standard_normal(5)
    z = np.broadcast_to(vec, (2, 4, 3, 5)).copy()
    params = HeadParams.seeded(5, rng)
    scores, scalar = quality_head(FeatureGrid(z), params)
    assert np.allclose(scores, scores[0, 0, 0], atol=1e-12)
    assert scalar == pytest.approx(scores[0, 0, 0], abs=1e-12)


def test_head_matches_bruteforce():
    rng = np.random.default_rng(13)
    z = rng.standard_normal((2, 2, 1, 8))
    params = HeadParams.seeded(8, rng)
    scores, scalar = quality_head(FeatureGrid(z), params)
    for i in range(2):
        for j in range(2):
            hidden = [
                max(sum(z[i, j, 0, c] * params.w1[c, h] for c in range(8)) + params.b1[h], 0.0)
                for h in range(64)
            ]
            expect = sum(hidden[h] * params.w2[h, 0] for h in range(64)) + params.b2[0]
            assert scores[i, j, 0] == pytest.approx(expect, rel=1e-9)
    assert scalar == pytest.approx(scores.mean(), rel=1e-12)


def test_head_permutation_invariance():
    rng = np.random.default_rng(14)
    z = rng.standard_normal((4, 5, 3, 6))
    params = HeadParams.seeded(6, rng)
    _, scalar = quality_head(FeatureGrid(z), params)
    perm = rng.permutation(20)
    shuffled = z.reshape(20, 3, 6)[perm].reshape(4, 5, 3, 6)
    _, scalar_p = quality_head(FeatureGrid(shuffled), params)
    assert scalar_p == pytest.approx(scalar, abs=1e-9)


def test_head_shape_validation():
    with pytest.raises(DimMismatch):
        HeadParams(w1=np.zeros((6, 32)), b1=np.zeros(32), w2=np.zeros((32, 1)), b2=np.zeros(1))
    grid = FeatureGrid(np.zeros((2, 2, 1, 5)))
    params = HeadParams.seeded(8, np.random.default_rng(0))
    with pytest.raises(DimMismatch):
        quality_head(grid, params)


# ---------------------------------------------------------------------------
# Weighted pooling


def test_uniform_weights_equal_global_mean():
    rng = np.random.default_rng(15)
    scores = rng.standard_normal((3, 4, 6))
    assert weighted_pool(scores, np.zeros(6)) == pytest.approx(scores.mean(), abs=1e-12)
    assert weighted_pool(scores, np.full(6, 3.3)) == pytest.approx(scores.mean(), abs=1e-12)


def test_dominant_weight_approaches_slot_mean():
    rng = np.random.default_rng(16)
    scores = rng.standard_normal((3, 4, 6))
    weights = np.zeros(6)
    weights[2] = 40.0
    assert weighted_pool(scores, weights) == pytest.approx(
        scores[:, :, 2].mean(), abs=1e-3
    )


def test_weighted_pool_matches_oracle():
    rng = np.random.default_rng(17)
    scores = rng.standard_normal((2, 3, 4))
    weights = rng.standard_normal(4)
    assert weighted_pool(scores, weights) == pytest.approx(
        oracle_weighted_pool(scores, weights.tolist()), rel=1e-9
    )


def test_feature_conditioned_weights():
    rng = np.random.default_rng(18)
    grid = FeatureGrid(rng.standard_normal((3, 3, 4, 6)))
    params = HeadParams.seeded(6, rng)
    w = temporal_weights_from_features(grid, params)
    assert w.shape == (4,)
    scores, _ = quality_head(grid, params)
    assert np.isfinite(weighted_pool(scores, w))


# ---------------------------------------------------------------------------
# Gradient checks


def test_linear_op_gradient_exact():
    rng = np.random.default_rng(19)
    scores = rng.standard_normal((3, 3, 4))
    weights = rng.standard_normal(4)
    direction = rng.standard_normal(scores.shape)
    report = grad_check("weighted_pool_scores", (scores, weights), direction)
    assert report.best_rel_error <= 1e-10


def test_attention_gradient_small_case():
    rng = np.random.default_rng(20)
    inp = _rand_inputs(rng, length=3, dim=3)
    direction = rng.standard_normal((3, 3))
    report = grad_check("rsb_add", inp, direction)
    assert report.best_rel_error < 1e-5


def test_zero_direction_zero_everywhere():
    rng = np.random.default_rng(21)
    inp = _rand_inputs(rng, length=3, dim=2)
    report = grad_check("rsb_add", inp, np.zeros((3, 3)))
    assert report.analytic == 0.0
    assert all(abs(n) < 1e-12 for n in report.numeric.values())
    assert report.best_rel_error == 0.0


def test_gradients_across_many_seeds():
    rng = np.random.default_rng(22)
    for _ in range(30):
        inp = _rand_inputs(
            rng, length=int(rng.integers(2, 17)), dim=int(rng.integers(1, 9))
        )
        direction = rng.standard_normal(inp.r.shape)
        for op in ("rsb_add", "rsb_mul"):
            assert grad_check(op, inp, direction).best_rel_error <= 1e-4


def test_se_gradient():
    rng = np.random.default_rng(23)
    grid = FeatureGrid(rng.standard_normal((3, 2, 6, 4)))
    hidden = SqueezeExciteParams.hidden_for(6)
    params = SqueezeExciteParams(
        w1=rng.standard_normal((hidden, 6)),
        b1=rng.standard_normal(hidden),
        w2=rng.standard_normal((6, hidden)),
        b2=rng.standard_normal(6),
    )
    report = grad_check("se_gate", (grid, params), rng.standard_normal(6))
    assert report.best_rel_error <= 1e-4


def test_pool_weights_gradient():
    rng = np.random.default_rng(24)
    scores = rng.standard_normal((2, 2, 5))
    weights = rng.standard_normal(5)
    report = grad_check("weighted_pool", (scores, weights), rng.standard_normal(5))
    assert report.best_rel_error <= 1e-6


# ---------------------------------------------------------------------------
# Property suite wiring


def test_property_suite_all_pass():
    results = run_property_suite(seeds=10)
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    assert len(results) == 11


def test_feature_grid_dims_from_config():
    from sama.media import SamplerConfig
    from sama.scalehead import feature_grid_dims

    assert feature_grid_dims(SamplerConfig()) == (7, 7, 16)
    assert feature_grid_dims(SamplerConfig.iqa_default(), kind="image") == (8, 8, 1)
    with pytest.raises(DimMismatch):
        feature_grid_dims(SamplerConfig(frag_h=30))
    with pytest.raises(DimMismatch):
        feature_grid_dims(SamplerConfig(frames_out=7, temporal_mask="none", n_scales=1))
