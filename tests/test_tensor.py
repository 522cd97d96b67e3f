import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from hici import tensor as tensor_module
from hici.gradcheck import finite_diff_grad
from hici.tensor import (
    EXACT_MAX_ENTRIES,
    FLOPS,
    SCORE_BUDGET,
    GraphError,
    _softmax,
    ShapeError,
    Tensor,
    add,
    attention,
    backward,
    concat_rows,
    cross_entropy_mean,
    embedding,
    flop_scope,
    gelu,
    grad_or_zero,
    l2_normalize,
    layer_norm,
    matmul,
    mul_const,
    nll_rows,
    no_grad,
    parameter,
    prefix_stats,
    reshape,
    scale,
    slice_rows,
    softplus,
    tsum,
)

from oracles import matmul_triple_loop, two_pass_stats
from pools import serial_and_pooled


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    out = matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_projector():
    out = matmul(Tensor([[1.0, 0.0], [0.0, 0.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(out.data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_vs_triple_loop():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    out = matmul(Tensor(a), Tensor(b))
    assert np.abs(out.data - matmul_triple_loop(a, b)).max() <= 1e-15


def test_matmul_vs_triple_loop_8x8():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a, b = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        out = matmul(Tensor(a), Tensor(b))
        assert np.abs(out.data - matmul_triple_loop(a, b)).max() <= 1e-13


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    assert np.array_equal(_softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])


def test_softmax_large_inputs_stable():
    out = _softmax(np.array([[1000.0, 1000.0]]))
    assert np.isfinite(out).all()
    assert np.array_equal(out, [[0.5, 0.5]])


def test_softmax_analytic():
    out = _softmax(np.array([[0.0, math.log(3.0)]]))
    assert np.abs(out - [[0.25, 0.75]]).max() <= 1e-15


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m, n = rng.integers(1, 8, size=2)
        x = rng.normal(scale=10.0, size=(m, n))
        sums = _softmax(x.copy()).sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-12


def test_softmax_mask_zeroes_hidden_positions():
    x = np.array([[1.0, 2.0, 3.0]])
    hidden = np.array([[False, True, False]])
    out = _softmax(x.copy(), hidden=hidden)
    assert out[0, 1] == 0.0
    assert abs(out.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# layer norm


def test_layer_norm_constant_row():
    out = layer_norm(Tensor([[1.0, 1.0, 1.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    assert np.abs(out.data).max() <= 1e-6


def test_layer_norm_already_normalized():
    out = layer_norm(Tensor([[-1.0, 1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)
    assert np.array_equal(out.data, [[-1.0, 1.0]])


def test_layer_norm_affine():
    out = layer_norm(Tensor([[0.0, 2.0]]), Tensor(2.0 * np.ones(2)),
                     Tensor(np.ones(2)), eps=0.0)
    assert np.array_equal(out.data, [[-1.0, 3.0]])


def test_layer_norm_standardizes():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 9))
    out = layer_norm(Tensor(x), Tensor(np.ones(9)), Tensor(np.zeros(9)), eps=0.0).data
    assert np.abs(out.mean(axis=1)).max() <= 1e-12
    assert np.abs((out**2).mean(axis=1) - 1.0).max() <= 1e-9


# ---------------------------------------------------------------------------
# statistics


def _prefix_stats(x):
    """(mean, max, min, std) arrays, each (B, d), of prefix_stats on x (B, R, d)."""
    out = prefix_stats(Tensor(x)).data
    return tuple(out[:, k] for k in range(4))


def test_prefix_stats_hand_example():
    mean, mx, mn, sd = _prefix_stats(np.array([[[1.0, 3.0]], [[3.0, 1.0]], [[2.0, 2.0]]]))
    assert np.array_equal(mean, [[1.0, 3.0], [2.0, 2.0], [2.0, 2.0]])
    assert np.array_equal(mx, [[1.0, 3.0], [3.0, 3.0], [3.0, 3.0]])
    assert np.array_equal(mn, [[1.0, 3.0], [1.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(sd, [[0.0, 0.0], [1.0, 1.0], [math.sqrt(2 / 3), math.sqrt(2 / 3)]])


def test_prefix_stats_single_row():
    x = np.array([[[5.0, 7.0]], [[5.0, 7.0]]])
    mean, mx, mn, sd = _prefix_stats(x)
    for t in (mean, mx, mn):
        assert np.array_equal(t, [[5.0, 7.0], [5.0, 7.0]])
    assert np.array_equal(sd, np.zeros((2, 2)))


def test_prefix_stats_vs_two_pass_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 10, 7))
    stats = _prefix_stats(x)
    for i in range(10):
        omean, omx, omn, osd = two_pass_stats(x[:i + 1].reshape(-1, 7))
        assert np.abs(stats[0][i] - omean).max() <= 1e-12
        assert np.array_equal(stats[1][i], omx)
        assert np.array_equal(stats[2][i], omn)
        assert np.abs(stats[3][i] - osd).max() <= 1e-12


def _reference_stacks(rng):
    """(6, 5, 3) stacks, below `EXACT_MAX_ENTRIES`, with a zero column, a NaN
    row, subnormals and a 10**+-150 spread."""
    zero_col, nan_row = rng.normal(size=(2, 6, 5, 3))
    zero_col[:, :, 1] = 0.0
    nan_row[2, 1] = np.nan
    return [zero_col, nan_row, rng.normal(size=(6, 5, 3)) * 1e-310,
            rng.normal(size=(6, 5, 3)) * 10.0 ** rng.integers(-150, 151, size=(6, 5, 3))]


def test_prefix_stats_mean_is_correctly_rounded_fsum():
    # wide exponent ranges, cancellation and half-way cases included
    rng = np.random.default_rng(40)
    for x in [rng.normal(size=(6, 5, 3)) * 10.0 ** rng.integers(-200, 200, size=(6, 5, 3)),
              rng.choice([1e-16, 1.0, 1e16, -1e16, 2.0**-53, 3.0], size=(6, 5, 3)),
              rng.normal(size=(6, 5, 3)) * 2.0 ** -1070,
              1e8 + rng.normal(size=(6, 5, 3)),
              rng.normal(size=(63, 8, 32)),
              1e8 + rng.normal(size=(63, 8, 32)),
              rng.normal(size=(63, 8, 32)) * 1e-310] + _reference_stacks(rng):
        mean = _prefix_stats(x)[0]
        for i in range(len(x)):
            rows = x[:i + 1].reshape(-1, x.shape[2])
            fsum = [math.fsum(rows[:, j]) / rows.shape[0] for j in range(x.shape[2])]
            assert np.array_equal(mean[i], fsum, equal_nan=True)


def test_prefix_stats_std_is_root_of_correctly_rounded_variance():
    # the x^2 sums must be exact; a variance scaled by 4**shift, an exact power
    # of two, keeps subnormal blocks apart from 0
    rng = np.random.default_rng(44)
    for x in [rng.normal(size=(6, 5, 3)) * 10.0 ** rng.integers(-100, 100, size=(6, 5, 3)),
              rng.choice([1e-16, 1.0, 1e16, -1e16, 2.0**-53, 3.0], size=(6, 5, 3)),
              1e8 + rng.normal(size=(6, 5, 3)),
              rng.normal(size=(63, 8, 32)),
              1e8 + rng.normal(size=(63, 8, 32)),
              rng.normal(size=(63, 8, 32)) * 1e-310] + _reference_stacks(rng):
        sd = _prefix_stats(x)[3]
        shift = 600 if np.abs(x).max() < 1e-300 else 0
        s, q = [0] * x.shape[2], [0] * x.shape[2]   # running exact sums of x and x^2, None after a NaN
        for i in range(len(x)):
            r = (i + 1) * x.shape[1]
            for j in range(x.shape[2]):
                if s[j] is None or np.isnan(x[i, :, j]).any():
                    s[j] = None
                    assert math.isnan(sd[i, j])
                    continue
                col = [Fraction(v) for v in x[i, :, j]]
                s[j] += sum(col)
                q[j] += sum(v * v for v in col)
                var = (r * q[j] - s[j] ** 2) / (r * r)
                assert sd[i, j] == math.ldexp(math.sqrt(float(var * 4**shift)), -shift)


def _stats_and_grad(x, g):
    p = parameter(x)
    out = prefix_stats(p)
    backward(tsum(mul_const(out, g)))
    return out.data, p.grad


def _tie_stacks():
    """(2, 2, 16) stacks of ones with a cell on or a hair beside a value
    half-way between two floats, then the same cell moved off the tie.

    Column 0 sums to 1 + 2**-53 (a tie), 1.5 + 2**-53 + 2**-120 (just above
    one) or 1 + 2**-52, with a part far below the rest; in column 1 the
    first block is (c, 0), variance c**2 / 4, with c**2 of 54 bits for the
    odd c."""
    stacks = []
    for col in ((1.0, 2.0**-53, 2.0**-120, -2.0**-120),
                (1.0, 2.0**-53, 2.0**-120, 0.5),
                (1.0, 2.0**-52, 2.0**-120, -2.0**-120)):
        x = np.ones((2, 2, 16))
        x[:, :, 0] = np.reshape(col, (2, 2))
        stacks.append(x)
    for c in (94906267.0, 94906266.0):
        x = np.ones((2, 2, 16))
        x[0, :, 1] = c, 0.0
        stacks.append(x)
    return stacks


def _stress_stacks(rng, shape):
    """One stack of `shape` per stress family of the exact pooled sums."""
    x = rng.normal(size=shape)
    sparse = np.where(rng.random(shape) < 0.9, 0.0, x)
    wide = x * 1e-4   # beside a 1e300 column these scale to about 2**-530: float squares lose bits
    wide[..., 0] = 1e300
    nan_row = x.copy()
    nan_row[-1, 0] = np.nan
    return [x, 1e8 + x, x * 10.0 ** rng.integers(-150, 151, size=shape), x * 1e-310,
            x * 1e300, np.where(x > 0, 1.7e308, -1.7e308), np.full(shape, 0.1), sparse,
            wide, nan_row]


def _moments_args(x):
    """The (xs, rows, k) that `prefix_stats` hands a moments routine for x (B, R, d)."""
    xf = np.where(np.isfinite(x), x, 0.0)
    k = math.frexp(np.abs(xf).max())[1] - 480
    return np.ldexp(xf, -k), np.arange(1, x.shape[0] + 1)[:, None] * x.shape[1], k


def _route_outputs(x, g, monkeypatch):
    """prefix_stats outputs and gradients with x forced onto the ladder, then
    onto the Python-int sums, by moving `EXACT_MAX_ENTRIES`."""
    outs = []
    with monkeypatch.context() as m:
        for n in (0, x.size):
            m.setattr(tensor_module, "EXACT_MAX_ENTRIES", n)
            outs.append(_stats_and_grad(x, g))
    return outs


def _assert_routines_agree(x, g, monkeypatch):
    """Both moments routines, and prefix_stats on both routes, give the same bits."""
    with np.errstate(over="ignore", invalid="ignore"):   # +-1.7e308: sums past the float range
        ladder = tensor_module._ladder_moments(*_moments_args(x))
        exact = tensor_module._exact_moments(*_moments_args(x))
        on_ladder, on_ints = _route_outputs(x, g, monkeypatch)
    for a, b in zip(ladder + on_ladder, exact + on_ints):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), x.shape


def test_prefix_stats_certified_path_covers_normal_blocks(monkeypatch):
    # the strict-scope shape of one L stack lies above `EXACT_MAX_ENTRIES`: the
    # large-stack route (the ladder, which replaced the certified path) covers
    # every cell alone, and its bits are those of the Python-int sums
    def fail(*args):
        raise AssertionError("integer sums called")

    for seed in range(4):
        rng = np.random.default_rng(seed)
        x, g = rng.normal(size=(63, 8, 32)), rng.normal(size=(63, 4, 32))
        ref = _route_outputs(x, g, monkeypatch)[1]
        with monkeypatch.context() as m:
            m.setattr(tensor_module, "_exact_moments", fail)
            out = _stats_and_grad(x, g)
            with no_grad():
                assert np.array_equal(prefix_stats(Tensor(x)).data, ref[0])
        assert np.array_equal(out[0], ref[0]) and np.array_equal(out[1], ref[1])


def test_prefix_stats_fallback_inputs_match_exact_path(monkeypatch):
    # the inputs the deleted certified path refused or special-cased (constant
    # columns, 1e8 + N(0,1), 10**+-150 spreads, subnormal sums, rounding ties)
    # give the Python-int sums' bits on the ladder too
    rng = np.random.default_rng(45)
    const = rng.normal(size=(63, 8, 32))
    const[:, :, ::3] = 0.1     # equal rows: variance exactly 0
    cases = [const, 1e8 + rng.normal(size=(63, 8, 32)),
             rng.normal(size=(9, 4, 8)) * 10.0 ** rng.integers(-150, 151, size=(9, 4, 8)),
             rng.normal(size=(9, 4, 8)) * 1e-310] + _tie_stacks()
    for x in cases:
        _assert_routines_agree(x, rng.normal(size=(x.shape[0], 4, x.shape[2])), monkeypatch)


def test_prefix_stats_moment_routes_give_equal_bits(monkeypatch):
    # the Python-int sums and the extraction ladder compute the same exact sums,
    # so they round to the same bits whatever the stack's size
    rng = np.random.default_rng(46)
    for x in _stress_stacks(rng, (9, 4, 8)) + _stress_stacks(rng, (40, 4, 8)):
        _assert_routines_agree(x, rng.normal(size=(x.shape[0], 4, x.shape[2])), monkeypatch)


def test_prefix_stats_routes_by_entry_count(monkeypatch):
    # up to `EXACT_MAX_ENTRIES` entries the integer sums run, above it the ladder;
    # exactly one of them per call
    calls = []
    for name in ("_ladder_moments", "_exact_moments"):
        f = getattr(tensor_module, name)
        monkeypatch.setattr(tensor_module, name,
                            lambda *a, f=f, name=name: calls.append(name) or f(*a))
    rng = np.random.default_rng(47)
    n = EXACT_MAX_ENTRIES
    for shape, offset, route in (((1, n, 1), 0.0, "_exact_moments"),
                                 ((n // 64, 4, 16), 1e8, "_exact_moments"),
                                 ((1, 4, 32), 0.0, "_exact_moments"),
                                 ((1, n + 1, 1), 0.0, "_ladder_moments"),
                                 ((n // 32 + 1, 1, 32), 0.0, "_ladder_moments"),
                                 ((1, n + 1, 1), 1e8, "_ladder_moments")):
        calls.clear()
        prefix_stats(Tensor(offset + rng.normal(size=shape)))
        assert calls == [route], shape


def test_prefix_stats_ladder_edge_stacks():
    # above `EXACT_MAX_ENTRIES`: an all-zero stack (no warning: the suite turns
    # warnings into errors), one nonzero entry, and 5,000 blocks of full mantissas,
    # whose prefix sums over blocks overflow int64 unless the levels narrow with B
    mean, mx, mn, sd = _prefix_stats(np.zeros((63, 8, 32)))
    assert not mean.any() and not sd.any() and not mx.any() and not mn.any()
    x = np.zeros((63, 8, 32))
    x[5, 3, 7] = -3.0
    mean, mx, mn, sd = _prefix_stats(x)
    r = 8 * np.arange(1, 64)
    assert np.array_equal(mean[:, 7], np.where(np.arange(63) < 5, 0.0, -3.0 / r))
    var = np.where(np.arange(63) < 5, 0.0, 9.0 * (r - 1) / (r * r))   # correctly rounded
    assert np.array_equal(sd[:, 7], np.sqrt(var))
    assert not np.delete(mean, 7, axis=1).any() and not np.delete(sd, 7, axis=1).any()
    full = np.full((5000, 2, 1), 1 - 2.0**-52)
    exact = tensor_module._exact_moments(*_moments_args(full))
    for a, b in zip(tensor_module._ladder_moments(*_moments_args(full)), exact):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_prefix_stats_permutation_invariant_bitwise():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 13, 4))
    perm = rng.permutation(13)
    base = prefix_stats(Tensor(x)).data
    assert np.array_equal(base, prefix_stats(Tensor(x[:, perm])).data)
    # rows may also move between the blocks of one prefix
    flat = x[:3].reshape(-1, 4)[rng.permutation(39)].reshape(3, 13, 4)
    assert np.array_equal(base[2], prefix_stats(Tensor(flat)).data[2])


def test_prefix_stats_prefix_is_causal():
    # changing block j leaves every prefix before j bit-identical
    rng = np.random.default_rng(41)
    x = rng.normal(size=(5, 3, 4))
    base = prefix_stats(Tensor(x)).data
    for j in range(5):
        x2 = x.copy()
        x2[j] = rng.normal(scale=100.0, size=(3, 4))
        out = prefix_stats(Tensor(x2)).data
        assert np.array_equal(out[:j], base[:j])
        assert not np.array_equal(out[j], base[j])


def test_prefix_stats_constant_column_has_zero_std():
    x = np.full((3, 4, 2), 0.1)
    x[:, :, 1] = np.random.default_rng(42).normal(size=(3, 4))
    sd = _prefix_stats(x)[3]
    assert np.array_equal(sd[:, 0], np.zeros(3))
    assert (sd[:, 1] > 0).all()


def test_prefix_stats_propagates_non_finite_rows():
    x = np.ones((3, 2, 2))
    x[1, 0, 0] = np.nan
    mean, mx, mn, sd = _prefix_stats(x)
    assert np.array_equal(mean[0], [1.0, 1.0]) and np.array_equal(sd[0], [0.0, 0.0])
    for t in (mean, mx, mn, sd):
        assert np.isnan(t[1:, 0]).all() and np.isfinite(t[:, 1]).all()


def test_prefix_stats_backward_centres_each_prefix_on_its_own_mean():
    # means drifting by 1e3 per block: the gradient must match the sum of
    # one-block backwards over each prefix, each centred on its own mean
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(16, 2, 8)) + 1e3 * np.arange(16)[:, None, None]
        g = rng.normal(size=(16, 4, 8))
        p = parameter(x)
        backward(tsum(mul_const(prefix_stats(p), g)))
        ref = np.zeros_like(x)
        for i in range(16):
            q = parameter(x[:i + 1].reshape(1, -1, 8))
            backward(tsum(mul_const(prefix_stats(q), g[i:i + 1])))
            ref[:i + 1] += q.grad.reshape(i + 1, 2, 8)
        worst = max(worst, np.abs(p.grad - ref).max() / np.abs(ref).max())
    assert worst <= 1e-14, worst


def test_prefix_stats_std_gradient_of_subnormal_blocks():
    # std is homogeneous of degree 1, so its gradient at x * 2**-1030 equals
    # the one at x; r * std is subnormal there and its reciprocal overflows
    rng = np.random.default_rng(43)
    tiny = rng.normal(size=(3, 4, 2)) * 1e-310
    g = np.zeros((3, 4, 2))
    g[:, 3] = rng.normal(size=(3, 2))
    grads = []
    for x in (tiny, np.ldexp(tiny, 1030)):   # exact: subnormals scale up without rounding
        p = parameter(x)
        backward(tsum(mul_const(prefix_stats(p), g)))
        grads.append(p.grad)
    assert np.isfinite(grads[0]).all()
    assert np.abs(grads[0] - grads[1]).max() <= 1e-12 * np.abs(grads[1]).max()


def test_prefix_stats_mean_past_the_float_range_is_the_plain_sum_over_r():
    # a column sum past the largest float is +-inf, fl(sum) / r, with no exception and
    # no warning (the suite turns warnings into errors); the +-1.7e308 column is a control
    for shape in ((1, 2, 1), (2, 1, 1), (80, 8, 2)):   # the last one takes the ladder
        for v in (1.7e308, -1.7e308):
            x = np.full(shape, v)
            mean, mx, mn, sd = _prefix_stats(x)
            assert mean[-1, 0] == math.copysign(math.inf, v)
            assert mean[0, 0] == (v if shape[1] == 1 else math.copysign(math.inf, v))
            assert (mx == v).all() and (mn == v).all() and (sd == 0.0).all()
    mean, mx, mn, sd = _prefix_stats(np.array([[[1.7e308], [-1.7e308]]]))
    assert (mean[0, 0], mx[0, 0], mn[0, 0], sd[0, 0]) == (0.0, 1.7e308, -1.7e308, 1.7e308)


def test_prefix_stats_routes_max_and_min_gradients_to_their_first_rows():
    # ties inside a block and across blocks: each prefix's max (min) gradient goes to the
    # first row of the first block that holds the prefix extreme
    x = np.array([[[1.0, -2.0], [3.0, -2.0]],
                  [[3.0, -5.0], [0.0, -5.0]],
                  [[4.0, 7.0], [4.0, -5.0]]])
    for which in (1, 2):
        g = np.zeros((3, 4, 2))
        g[:, which] = [[1.0, 10.0], [100.0, 1000.0], [1e4, 1e5]]
        p = parameter(x)
        backward(tsum(mul_const(prefix_stats(p), g)))
        want = np.zeros_like(x)
        if which == 1:   # max: col 0 rows (0,1), (0,1), (2,0); col 1 rows (0,0), (0,0), (2,0)
            want[0, 1, 0], want[2, 0, 0] = 1.0 + 100.0, 1e4
            want[0, 0, 1], want[2, 0, 1] = 10.0 + 1000.0, 1e5
        else:            # min: col 0 rows (0,0), (1,1), (1,1); col 1 rows (0,0), (1,0), (1,0)
            want[0, 0, 0], want[1, 1, 0] = 1.0, 100.0 + 1e4
            want[0, 0, 1], want[1, 0, 1] = 10.0, 1000.0 + 1e5
        assert np.array_equal(p.grad, want), which


def test_prefix_stats_rejects_empty_blocks():
    for shape in ((0, 2, 3), (2, 0, 3), (2, 3)):
        with pytest.raises(ShapeError, match="prefix_stats"):
            prefix_stats(Tensor(np.zeros(shape)))


# ---------------------------------------------------------------------------
# l2 normalize / softplus / gelu


def test_l2_normalize_345():
    out = l2_normalize(Tensor([3.0, 4.0]))
    assert np.abs(out.data - [0.6, 0.8]).max() <= 1e-15


def test_l2_normalize_zero_vector():
    assert np.array_equal(l2_normalize(Tensor([0.0, 0.0])).data, [0.0, 0.0])


def test_l2_normalize_idempotent_on_unit():
    v = np.array([1.0, 0.0, 0.0])
    assert np.abs(l2_normalize(Tensor(v)).data - v).max() <= 1e-15


def test_l2_normalize_works_along_the_last_axis():
    out = l2_normalize(Tensor([[[3.0, 4.0]], [[0.0, 0.0]]])).data
    assert np.abs(out - [[[0.6, 0.8]], [[0.0, 0.0]]]).max() <= 1e-15


def test_l2_normalize_of_a_row_past_the_square_range_is_its_unit_vector():
    # 1e200 squared overflows: the row is normalized in a power-of-two scale, with no warning
    row = np.full(3, 1e200)
    out = l2_normalize(Tensor(row)).data
    assert np.array_equal(out, l2_normalize(Tensor(row * 2.0**-600)).data)
    assert np.abs(out - 1.0 / math.sqrt(3.0)).max() <= 1e-15


def test_l2_normalize_scales_only_the_rows_past_2_256_whatever_else_the_stack_holds():
    small, big = np.array([3.0, -4.0, 0.5]), np.full(3, 1e200)
    alone = [l2_normalize(Tensor(row)).data for row in (small, big)]
    for filler in (0.0, np.nan, np.inf):   # a NaN or inf row must not hide the 1e200 one
        with np.errstate(invalid="ignore"):   # inf / inf in the filler row
            stack = l2_normalize(Tensor(np.stack([small, big, np.full(3, filler)]))).data
        assert np.array_equal(stack[0], alone[0]) and np.array_equal(stack[1], alone[1])


def test_l2_normalize_backward_scales_with_its_input():
    # at 2**600 the cube of the norm is past the float range; the gradient scales exactly
    v = np.array([[3.0, 4.0], [-12.0, 5.0]])
    upstream = np.array([[0.7, -1.3], [2.5, 0.25]])
    grads = []
    for s in (1.0, 2.0**600):
        p = parameter(v * s)
        backward(tsum(mul_const(l2_normalize(p), upstream)))
        grads.append(p.grad)
    assert np.array_equal(grads[1], grads[0] * 2.0**-600)


def test_softplus_values():
    assert abs(softplus(Tensor([0.0])).data[0] - math.log(2.0)) <= 1e-15
    assert abs(softplus(Tensor([100.0])).data[0] - 100.0) <= 1e-12
    small = softplus(Tensor([-100.0])).data[0]
    assert abs(small - math.exp(-100.0)) <= 1e-10 * math.exp(-100.0)


def test_softplus_positive():
    rng = np.random.default_rng(7)
    x = rng.normal(scale=50.0, size=200)
    assert (softplus(Tensor(x)).data > 0).all()


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(8)
    x = rng.normal(scale=100.0, size=(5, 6))
    for out in (_softmax(x.copy()), gelu(Tensor(x)).data, softplus(Tensor(x)).data,
                layer_norm(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6))).data):
        assert np.isfinite(out).all()


# ---------------------------------------------------------------------------
# elementwise kernels: bit-exact against the plain formulas


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_formula(x):
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * (x * x * x))))


def test_masked_softmax_equals_three_where_formula():
    rng = np.random.default_rng(21)
    a = rng.normal(scale=4.0, size=(3, 2, 6, 9))
    visible = rng.random((6, 9)) < 0.5
    visible[0] = False
    visible[0, 4] = True                    # a row with one visible entry
    visible[1:, 0] = True
    masked = np.where(visible, a, -np.inf)
    shifted = masked - masked.max(axis=-1, keepdims=True)
    e = np.where(visible, np.exp(np.where(visible, shifted, 0.0)), 0.0)
    ref = e / e.sum(axis=-1, keepdims=True)
    out = _softmax(a, ~visible)
    assert np.array_equal(out, ref)
    assert np.all(out[..., ~visible] == 0.0) and not np.signbit(out).any()
    assert np.all(out[..., 0, 4] == 1.0)


def test_unmasked_softmax_equals_formula():
    a = np.random.default_rng(22).normal(scale=30.0, size=(4, 5, 7))
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    assert np.array_equal(_softmax(a), e / e.sum(axis=-1, keepdims=True))


def test_nll_rows_equals_log_sum_exp_formula():
    rng = np.random.default_rng(23)
    block = SCORE_BUDGET // 257
    for n_rows in (33, 2 * block + 33):   # one partial block; two whole and a partial
        logits = rng.normal(scale=8.0, size=(n_rows, 257))
        targets = rng.integers(0, 257, size=n_rows)
        out = nll_rows(logits, targets)
        m = logits.max(axis=1, keepdims=True)
        ref = m[:, 0] + np.log(np.sum(np.exp(logits - m), axis=1))
        ref = ref - logits[np.arange(n_rows), targets]
        assert np.array_equal(out, ref)


_GELU_POINTS = [0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 3.0, -3.0, 40.0, -40.0, 1e3, -1e3]


def test_gelu_equals_out_of_place_formula():
    x = np.concatenate([_GELU_POINTS, np.random.default_rng(24).normal(scale=3.0, size=4000)])
    out, ref = gelu(Tensor(x)).data, _gelu_formula(x)
    assert np.array_equal(out, ref)
    assert np.array_equal(np.signbit(out), np.signbit(ref))


def test_gelu_without_grad_equals_grad_mode_output():
    x = np.concatenate([_GELU_POINTS, np.random.default_rng(24).normal(scale=3.0, size=4000)])
    with no_grad():
        free = gelu(parameter(x)).data
    recorded = gelu(parameter(x))
    assert recorded.requires_grad
    assert np.array_equal(free, recorded.data)
    assert np.array_equal(np.signbit(free), np.signbit(recorded.data))


def test_gelu_matches_scalar_reference():
    # np.tanh and math.tanh may differ in the last bit and 1 + tanh cancels
    # for negative x, so the bound is absolute (relative for |x| > 1), not in ulps
    x = np.concatenate([_GELU_POINTS, np.random.default_rng(25).normal(scale=3.0, size=4000)])
    out = gelu(Tensor(x)).data
    for xi, yi in zip(x.tolist(), out.tolist()):
        ref = 0.5 * xi * (1.0 + math.tanh(_GELU_C * (xi + 0.044715 * (xi * xi * xi))))
        assert abs(yi - ref) <= 4e-16 * max(1.0, abs(xi)), xi


def test_gelu_equals_out_of_place_formula_at_the_extremes():
    tiny = np.nextafter(0.0, 1.0)
    x = np.array([1e308, -1e308, np.finfo(float).max, -np.finfo(float).max, tiny, -tiny,
                  2.5e-308, -2.5e-308, 1e-310, -1e-310, 0.0, -0.0])
    with np.errstate(over="ignore"):   # x * x * x overflows to inf, and tanh(inf) = 1
        out, ref = gelu(Tensor(x)).data, _gelu_formula(x)
    assert np.array_equal(out, ref)
    assert np.array_equal(np.signbit(out), np.signbit(ref))
    assert out[0] == 1e308 and np.isfinite(out).all()


def _layer_norm_formula(x, gain, bias, eps):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) * (1.0 / np.sqrt(var + eps)) * gain + bias


def test_layer_norm_equals_out_of_place_formula():
    rng = np.random.default_rng(27)
    x = rng.normal(loc=3.0, scale=5.0, size=(40, 33))
    x[0] = 7.0                                  # a constant row
    gain, bias = rng.normal(size=33), rng.normal(size=33)
    for eps in (1e-5, 1e-12):
        out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias), eps).data
        assert np.array_equal(out, _layer_norm_formula(x, gain, bias, eps))


def _adjoint_received(t):
    """Wrap the closure of `t`'s node so that a backward records the adjoint it is called with.

    The sweep releases an interior node's `.grad` once its closure has
    run; the returned list then holds that array (the same object, so a
    caller can check that nothing wrote into it) and a copy taken on entry.
    """
    node = t._node
    received, closure = [], node._backward

    def bwd(g, *inputs):
        received.append((g, g.copy()))
        closure(g, *inputs)

    node._backward = bwd
    return received


def _unchanged(received):
    """The one adjoint a wrapped closure received, after checking its bits did not change."""
    (g, on_entry), = received
    assert np.array_equal(g, on_entry) and np.array_equal(np.signbit(g), np.signbit(on_entry))
    return g


def test_gelu_backward_equals_whole_array_formula():
    rng = np.random.default_rng(32)
    x = rng.normal(scale=3.0, size=(300, 250))   # 75,000 entries: two whole blocks and a part
    assert x.size > 2 * SCORE_BUDGET and x.size % SCORE_BUDGET != 0
    x.flat[:len(_GELU_POINTS)] = _GELU_POINTS
    upstream = rng.normal(size=x.shape)
    upstream.flat[::7] = -0.0
    p = parameter(x)
    y = gelu(p)
    received = _adjoint_received(y)
    backward(tsum(mul_const(y, upstream)))
    g = _unchanged(received)
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    du = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
    ref = g * (((1.0 - t * t) * (x * 0.5)) * du + (t + 1.0) * 0.5)
    assert np.array_equal(p.grad, ref)
    assert np.array_equal(np.signbit(p.grad), np.signbit(ref))


def test_layer_norm_backward_equals_whole_array_formula():
    rng = np.random.default_rng(33)
    n_rows = 2 * (SCORE_BUDGET // 33) + 17             # two whole row blocks and a part
    x = rng.normal(loc=3.0, scale=5.0, size=(n_rows, 33))
    x[0] = 7.0                                        # a constant row
    upstream = rng.normal(size=x.shape)
    upstream[1] = -0.0
    a, gain, bias = parameter(x), parameter(rng.normal(size=33)), parameter(rng.normal(size=33))
    eps = 1e-5
    y = layer_norm(a, gain, bias, eps)
    received = _adjoint_received(y)
    backward(tsum(mul_const(y, upstream)))
    g = _unchanged(received)
    xhat = x - x.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(xhat).mean(axis=1, keepdims=True) + eps)
    xhat = xhat * inv
    dxhat = g * gain.data
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
    for got, ref in ((a.grad, (dxhat - m1 - xhat * m2) * inv),
                     (gain.grad, (g * xhat).sum(axis=0)), (bias.grad, g.sum(axis=0))):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_embedding_backward_equals_in_order_scatter_add():
    rng = np.random.default_rng(34)
    ids = rng.integers(0, 39, size=3000)                # repeated ids; row 39 never read
    upstream = rng.normal(scale=1e3, size=(3000, 7))
    upstream[::5, 2] = -0.0
    table = parameter(rng.normal(size=(40, 7)))
    backward(tsum(mul_const(embedding(table, ids), upstream)))
    ref = np.zeros((40, 7))
    np.add.at(ref, ids, upstream)
    assert np.array_equal(table.grad, ref)
    assert np.array_equal(np.signbit(table.grad), np.signbit(ref))


def _attention_formula(q, k, v, n_heads, visible=None):
    """Head split, scaled scores, three-`where` masked softmax, P V, head merge."""
    width = k.shape[-1]
    dk = width // n_heads

    def split(x):
        return np.ascontiguousarray(x.reshape(x.shape[:-1] + (n_heads, dk)).swapaxes(-3, -2))

    s = (split(q) @ split(k).swapaxes(-1, -2)) * (1.0 / math.sqrt(dk))
    if visible is None:
        e = np.exp(s - s.max(axis=-1, keepdims=True))
    else:
        masked = np.where(visible, s, -np.inf)
        shifted = masked - masked.max(axis=-1, keepdims=True)
        e = np.where(visible, np.exp(np.where(visible, shifted, 0.0)), 0.0)
    o = (e / e.sum(axis=-1, keepdims=True)) @ split(v)
    return o.swapaxes(-3, -2).reshape(o.shape[:-3] + (o.shape[-2], width))


def test_attention_equals_out_of_place_formula():
    rng = np.random.default_rng(28)
    k, v = rng.normal(scale=3.0, size=(2, 3, 5, 12))
    visible = rng.random((4, 5)) < 0.5
    visible[:, 2] = True
    for q in (rng.normal(scale=3.0, size=(3, 4, 12)), rng.normal(scale=3.0, size=(4, 12))):
        for mask in (None, visible):
            hidden = None if mask is None else ~mask
            out = attention(Tensor(q), Tensor(k), Tensor(v), 3, hidden=hidden).data
            assert np.array_equal(out, _attention_formula(q, k, v, 3, mask))

    # without a graph, over the score budget: chunks of blocks, the last one partial
    n_blocks, per_block = 100, 2 * 16 * 24
    step = SCORE_BUDGET // per_block
    assert n_blocks * per_block > SCORE_BUDGET and n_blocks % step != 0
    k, v = rng.normal(scale=3.0, size=(2, n_blocks, 24, 12))
    visible = np.tril(np.ones((16, 24), dtype=bool), k=8)
    for q in (rng.normal(scale=3.0, size=(n_blocks, 16, 12)), rng.normal(scale=3.0, size=(16, 12))):
        for mask in (None, visible):
            hidden = None if mask is None else ~mask
            with no_grad():
                out = attention(Tensor(q), Tensor(k), Tensor(v), 2, hidden=hidden).data
            assert np.array_equal(out, _attention_formula(q, k, v, 2, mask))
            assert np.array_equal(
                out, attention(parameter(q), Tensor(k), Tensor(v), 2, hidden=hidden).data)


def test_attention_rejects_a_bad_mask_alike_on_every_path():
    # a mask is (Lq, Lk), its shape checked once per call before any chunking: it
    # fails alike graph-free below and above the score budget, and with a graph
    rng = np.random.default_rng(32)
    n_blocks = 100
    k, v = rng.normal(size=(2, n_blocks, 24, 12))
    q = rng.normal(size=(n_blocks, 16, 12))
    step = SCORE_BUDGET // (2 * 16 * 24)
    cases = (   # one mask per block or per head is not an (Lq, Lk) mask
        np.zeros((16, 23), dtype=bool),
        np.zeros((2, 16, 23), dtype=bool),
        np.zeros((2, 16, 24), dtype=bool),
        np.zeros((step, 2, 16, 24), dtype=bool),
    )
    for mask in cases:
        paths = ((3, False), (n_blocks, False), (n_blocks, True))
        for blocks, grad in paths:
            args = ((parameter if grad else Tensor)(q[:blocks]), Tensor(k[:blocks]),
                    Tensor(v[:blocks]), 2)
            with pytest.raises(ShapeError) as err:
                if grad:
                    attention(*args, hidden=mask)
                else:
                    with no_grad():
                        attention(*args, hidden=mask)
            assert str(err.value) == f"attention: mask shape {mask.shape} vs scores (16, 24)"


def test_attention_probe_receives_every_probability_over_the_budget():
    rng = np.random.default_rng(31)
    q, k, v = rng.normal(size=(3, 100, 16, 12))
    seen = []
    with no_grad():
        out = attention(Tensor(q), Tensor(k), Tensor(v), 2, probe=seen.append).data
    assert 100 * 2 * 16 * 16 > SCORE_BUDGET
    assert len(seen) == 1 and seen[0].shape == (100, 2, 16, 16)
    assert np.allclose(seen[0].sum(axis=-1), 1.0, rtol=0, atol=1e-15)
    assert np.array_equal(out, _attention_formula(q, k, v, 2))


def test_softmax_normalizes_its_argument_in_place():
    scores = np.random.default_rng(29).normal(size=(2, 4, 5))
    hidden = np.triu(np.ones((4, 5), dtype=bool), k=1)
    for mask in (None, hidden):
        buf = scores.copy()
        assert _softmax(buf, mask) is buf
        assert np.allclose(buf.sum(axis=-1), 1.0, rtol=0, atol=1e-15)


def test_kernels_leave_their_inputs_unchanged():
    rng = np.random.default_rng(26)
    scores = rng.normal(size=(2, 4, 5))
    kept = scores.copy()
    nll_rows(scores[0], np.arange(4))
    assert np.array_equal(scores, kept)

    hidden = np.triu(np.ones((4, 5), dtype=bool), k=1)
    upstream = rng.normal(size=(4, 5))
    gain, bias = parameter(rng.normal(size=5)), parameter(rng.normal(size=5))
    for op in (gelu, lambda t: layer_norm(t, gain, bias)):
        a = parameter(rng.normal(size=(4, 5)))
        before = [t.data.copy() for t in (a, gain, bias)]
        y = op(a)
        received = _adjoint_received(y)
        backward(tsum(mul_const(y, upstream)))
        assert all(np.array_equal(t.data, b) for t, b in zip((a, gain, bias), before))
        assert np.array_equal(_unchanged(received), upstream)   # the adjoint the op received

    upstream = rng.normal(size=(3, 4, 6))
    for q_shape in ((3, 4, 6), (4, 6)):
        for mask in (None, hidden):
            q, k, v = (parameter(rng.normal(size=shape))
                       for shape in (q_shape, (3, 5, 6), (3, 5, 6)))
            before = [t.data.copy() for t in (q, k, v)]
            mask_before = None if mask is None else mask.copy()
            y = attention(q, k, v, 2, hidden=mask)
            received = _adjoint_received(y)
            backward(tsum(mul_const(y, upstream)))
            assert all(np.array_equal(t.data, b) for t, b in zip((q, k, v), before))
            assert mask is None or np.array_equal(mask, mask_before)
            assert np.array_equal(_unchanged(received), upstream)

    logits = parameter(rng.normal(size=(4, 5)))
    before = logits.data.copy()
    backward(cross_entropy_mean(logits, np.arange(4)))
    assert np.array_equal(logits.data, before)


# ---------------------------------------------------------------------------
# autodiff


def test_no_grad_records_no_graph():
    w = parameter(np.ones((2, 2)))
    with no_grad():
        y = matmul(w, w)
    assert not y.requires_grad and y._parents == () and y._backward is None
    assert matmul(w, w).requires_grad


def test_no_grad_nests_and_restores_the_mode_after_an_exception():
    w = parameter(np.ones((2, 2)))
    with no_grad():
        with no_grad():
            pass
        assert not matmul(w, w).requires_grad      # still off after the inner block
    assert matmul(w, w).requires_grad
    with pytest.raises(KeyError):
        with no_grad():
            raise KeyError("inside")
    assert matmul(w, w).requires_grad


def test_flop_scope_nests_and_pops_after_an_exception():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 4)))
    outer = list(FLOPS._scope)
    with tensor_module.measure_flops() as counter:
        with flop_scope("outer"):
            with flop_scope("inner"):
                matmul(a, b)
            matmul(a, b)
            with pytest.raises(KeyError):
                with flop_scope("failed"):
                    assert FLOPS._scope[-1] == "failed"
                    raise KeyError("inside")
            assert FLOPS._scope == outer + ["outer"]
    assert FLOPS._scope == outer
    assert counter.total("inner", "matmul") == counter.total("outer", "matmul") == 48
    assert "failed" not in counter.buckets


def test_results_are_c_contiguous_float64_and_copied_only_when_strided():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    cut = slice_rows(x, 1, 2, axis=1)   # numpy gives a strided view here
    assert cut.data.flags.c_contiguous and cut.data.dtype == np.float64
    assert np.array_equal(cut.data, x.data[:, 1:2]) and not np.shares_memory(cut.data, x.data)
    flat = reshape(x, (6, 4))           # a contiguous view is wrapped as it is
    assert flat.data.flags.c_contiguous and np.shares_memory(flat.data, x.data)


def test_a_handed_over_first_gradient_is_kept_bit_for_bit():
    w = parameter(np.ones(4))
    g = np.array([-0.0, 0.0, -2.5, 1e-310])
    w._take(g)
    assert w.grad is g                                                # kept, not copied
    assert np.array_equal(g.view(np.uint64),
                          np.array([-0.0, 0.0, -2.5, 1e-310]).view(np.uint64))   # -0.0 too
    w._take(np.full(4, 7.0))
    assert w.grad is g and np.array_equal(g, [7.0, 7.0, 4.5, 7.0])   # added in place

    w = parameter(np.ones(3))
    backward(tsum(mul_const(w, [-0.0, 1.0, -2.0])))   # mul_const hands over 1.0 * -0.0
    assert np.array_equal(w.grad, [0.0, 1.0, -2.0]) and np.signbit(w.grad[0])


@pytest.mark.parametrize("build, expected", [
    (lambda x, y: add(x, x), lambda up: (up + up, None)),
    (lambda x, y: add(x, y), lambda up: (up, up)),
    (lambda x, y: concat_rows([x, x]), lambda up: (up[:3] + up[3:], None)),
    (lambda x, y: concat_rows([x, y], axis=1), lambda up: (up[:, :4], up[:, 4:])),
], ids=["add-x-x", "add-x-y", "concat-x-x", "concat-x-y-axis1"])
def test_a_tensor_read_twice_through_add_sums_both_gradients(build, expected):
    # add hands its adjoint to one input and a copy to the other; concat_rows
    # hands each input a view of its own part of the adjoint
    rng = np.random.default_rng(36)
    x, y = parameter(rng.normal(size=(3, 4))), parameter(rng.normal(size=(3, 4)))
    out = build(x, y)
    upstream = rng.normal(size=out.shape)
    backward(tsum(mul_const(out, upstream)))
    gx, gy = expected(upstream)
    assert np.array_equal(x.grad, gx)
    assert y.grad is None if gy is None else np.array_equal(y.grad, gy)
    assert y.grad is None or not np.shares_memory(x.grad, y.grad)


def test_reshape_hands_its_own_adjoint_to_its_input():
    rng = np.random.default_rng(37)
    x = parameter(rng.normal(size=(3, 4)))
    upstream = rng.normal(size=(2, 6))
    y = reshape(x, (2, 6))
    received = _adjoint_received(y)
    backward(tsum(mul_const(y, upstream)))
    (g, _on_entry), = received
    assert np.shares_memory(x.grad, g)   # a view of the adjoint, not a copy
    assert np.array_equal(x.grad, upstream.reshape(3, 4))


def test_cross_entropy_backward_makes_no_second_logits_array():
    rng = np.random.default_rng(35)
    logits = parameter(rng.normal(scale=4.0, size=(2048, 257)))
    targets = rng.integers(0, 257, size=2048)
    tracemalloc.start()
    try:
        backward(cross_entropy_mean(logits, targets))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * logits.data.nbytes
    ref = _softmax(logits.data.copy())
    ref[np.arange(2048), targets] -= 1.0
    ref *= 1.0 / 2048
    assert np.array_equal(logits.grad, ref + 0.0)


# ---------------------------------------------------------------------------
# the loss takes over logits that nothing else holds


LOGITS_BYTES = 2048 * 257 * 8


def _loss_inputs():
    """h (2048, 32), w (32, 257) and targets: h @ w are logits of 17 row blocks."""
    rng = np.random.default_rng(45)
    return (rng.normal(size=(2048, 32)), rng.normal(scale=0.5, size=(32, 257)),
            rng.integers(0, 257, size=2048))


def _spy_exp_buffers(monkeypatch):
    """For each log-sum-exp the loss runs, whether it takes exp in the logits' own buffer."""
    taken, log_sum_exp = [], tensor_module._log_sum_exp

    def spy(logits, exp_out):
        taken.append(exp_out is not None and np.shares_memory(logits, exp_out))
        return log_sum_exp(logits, exp_out)

    monkeypatch.setattr(tensor_module, "_log_sum_exp", spy)
    return taken


def _traced_peak(call):
    """call() and the peak bytes it allocates (tracemalloc). Callers run it on one CPU:
    a graph-free log-sum-exp allocates a row block's buffer in each pool thread at once."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def _stash(t, kept, view=False):
    """t, its array (or a view of it) appended to `kept`."""
    kept.append(t.data[:1] if view else t.data)
    return t


def _named(hp, wp, targets):
    logits = matmul(hp, wp)
    return cross_entropy_mean(logits, targets), logits.data


def _array_held(hp, wp, targets, view=False):
    kept = []
    loss = cross_entropy_mean(_stash(matmul(hp, wp), kept, view), targets)
    return loss, kept[0] if kept[0].base is None else kept[0].base


def _view_of_held(hp, wp, targets):
    # the logits' array is a view whose own count is that of a temporary's
    whole = matmul(hp, wp)
    return cross_entropy_mean(reshape(whole, whole.shape), targets), whole.data


def _leaf(hp, wp, targets):
    box = [parameter(hp.data @ wp.data)]
    logits = weakref.ref(box[0].data)   # raises no count; the loss's node keeps the leaf
    return cross_entropy_mean(box.pop(), targets), logits()


def _through_wrapper(hp, wp, targets):
    # the shape of perfbench's tracer: a *args wrapper whose hook reads the arguments after the call
    seen = []

    def traced(*args, **kwargs):
        out = cross_entropy_mean(*args, **kwargs)
        seen.append(args[0].data)
        return out

    return traced(matmul(hp, wp), targets), seen[0]


def _graph_free(hp, wp, targets):
    # an interior result, handed over as a temporary; it dies with the call, so a
    # copy of its array is checked, and the peak holds that copy beside the logits
    box = [matmul(hp, wp)]
    logits = box[0].data.copy()
    with no_grad():
        return cross_entropy_mean(box.pop(), targets), logits


def test_the_loss_takes_over_a_temporary_interior_logits_buffer(monkeypatch, cpus):
    cpus(1)
    h, w, targets = _loss_inputs()
    hp, wp = parameter(h), parameter(w)
    taken = _spy_exp_buffers(monkeypatch)
    _, peak = _traced_peak(lambda: cross_entropy_mean(matmul(hp, wp), targets))
    assert taken == [True]
    assert peak <= 1.1 * LOGITS_BYTES   # the logits, and no second array of their size


def test_a_taken_over_buffer_gives_the_held_calls_loss_and_gradients(cpus):
    h, w, targets = _loss_inputs()

    def run(held):
        hp, wp = parameter(h), parameter(w)
        loss = _named(hp, wp, targets)[0] if held else cross_entropy_mean(matmul(hp, wp), targets)
        backward(loss)
        return [loss.data, hp.grad, wp.grad]

    for temporary, held in zip(serial_and_pooled(cpus, lambda: run(False), n_cpus=(2,)),
                               serial_and_pooled(cpus, lambda: run(True), n_cpus=(2,))):
        for a, b in zip(temporary, held):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("call", [
    _named, _array_held, lambda hp, wp, targets: _array_held(hp, wp, targets, view=True),
    _view_of_held, _leaf, _through_wrapper, _graph_free,
], ids=["named", "array-held", "view-held", "view-of-held", "leaf", "args-wrapper", "graph-free"])
def test_the_loss_leaves_logits_that_something_else_holds(monkeypatch, cpus, call):
    # each call keeps today's path and its peak: the logits, bit for bit, beside a
    # second array of their size (the exp buffer; the graph-free case's copy)
    cpus(1)
    h, w, targets = _loss_inputs()
    hp, wp = parameter(h), parameter(w)
    with no_grad():
        expected = matmul(hp, wp).data
        expected_loss = cross_entropy_mean(Tensor(expected), targets).data
    taken = _spy_exp_buffers(monkeypatch)
    (loss, logits), peak = _traced_peak(lambda: call(hp, wp, targets))
    assert taken == [False]
    assert np.array_equal(logits, expected)   # bit for bit
    assert np.array_equal(loss.data, expected_loss)
    assert 1.9 * LOGITS_BYTES <= peak <= 2.1 * LOGITS_BYTES


def test_no_buffer_is_taken_over_where_the_probe_cannot_tell(monkeypatch, cpus):
    cpus(1)
    h, w, targets = _loss_inputs()
    hp, wp = parameter(h), parameter(w)
    monkeypatch.setattr(tensor_module, "_SOLE_REF_COUNTS", None)
    taken = _spy_exp_buffers(monkeypatch)
    _, peak = _traced_peak(lambda: cross_entropy_mean(matmul(hp, wp), targets))
    assert taken == [False]
    assert peak >= 1.9 * LOGITS_BYTES


def test_backward_linear_layer():
    x = np.array([[1.0, 2.0, 3.0]])
    w = parameter(np.zeros((3, 2)))
    loss = tsum(matmul(Tensor(x), w))
    backward(loss)
    assert np.array_equal(w.grad, np.repeat(x.T, 2, axis=1))


def test_backward_disconnected_parameter_gets_zero():
    w = parameter(np.ones((2, 2)))
    loss = tsum(Tensor(np.ones((2, 2))))
    backward(loss)
    assert w.grad is None
    assert np.array_equal(grad_or_zero(w), np.zeros((2, 2)))


def test_double_backward_raises():
    w = parameter(np.ones((2, 2)))
    loss = tsum(matmul(w, w))
    backward(loss)
    with pytest.raises(GraphError, match="already ran"):
        backward(loss)


def test_backward_needs_scalar():
    w = parameter(np.ones((2, 2)))
    with pytest.raises(GraphError, match="scalar"):
        backward(matmul(w, w))


def test_gradient_shapes_match_parameters():
    rng = np.random.default_rng(9)
    w = parameter(rng.normal(size=(3, 4)))
    g = parameter(rng.normal(size=4))
    b = parameter(rng.normal(size=4))
    loss = tsum(layer_norm(matmul(Tensor(rng.normal(size=(2, 3))), w), g, b))
    backward(loss)
    for p in (w, g, b):
        assert p.grad.shape == p.data.shape


def _check_op_gradient(build_loss, p, tol=1e-6):
    """Reverse-mode vs. central differences for one parameterized loss."""
    loss = build_loss(p)
    backward(loss)
    g_ad = grad_or_zero(p).copy()

    def f(arr):
        saved = p.data
        p.data = arr
        val = build_loss(p).item()
        p.data = saved
        return val

    g_fd = finite_diff_grad(f, p.data.copy())
    denom = max(np.linalg.norm(g_ad), np.linalg.norm(g_fd), 1e-300)
    assert np.linalg.norm(g_ad - g_fd) / denom <= tol


def _primitive_cases():
    rng = np.random.default_rng(42)
    c45 = rng.normal(size=(4, 5))
    c44 = rng.normal(size=(4, 4))
    c234 = rng.normal(size=(2, 3, 4))
    b54 = rng.normal(size=(5, 4))
    rng.random(size=(4, 5))   # unused draw: the constants below keep their values
    ids = rng.integers(0, 4, size=6)
    emb_w = rng.normal(size=(6, 3))
    targets = rng.integers(0, 5, size=4)
    gain, bias = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=5))
    c254 = rng.normal(size=(2, 5, 4))
    c274 = rng.normal(size=(2, 7, 4))
    c134 = c234[:1]
    tril = np.tril(np.ones((3, 3), dtype=bool))
    c345 = rng.normal(size=(3, 4, 5))
    return {
        "matmul": ((4, 5), lambda p: tsum(mul_const(matmul(p, Tensor(b54)), c44))),
        "layer_norm_x": ((4, 5), lambda p: tsum(mul_const(layer_norm(p, gain, bias), c45))),
        "layer_norm_affine": ((5,),
                              lambda p: tsum(mul_const(layer_norm(Tensor(c45), p, bias), c45))),
        "stats": ((1, 6, 5), lambda p: tsum(mul_const(prefix_stats(p), c45))),
        "prefix_stats": ((3, 2, 5), lambda p: tsum(mul_const(prefix_stats(p), c345))),
        "l2_normalize": ((7,), lambda p: tsum(mul_const(l2_normalize(p), np.arange(7.0)))),
        "l2_normalize_rows": ((3, 4), lambda p: tsum(mul_const(l2_normalize(p), c234[0]))),
        "softplus": ((6,), lambda p: tsum(mul_const(softplus(p), np.arange(6.0) - 2))),
        "gelu": ((6,), lambda p: tsum(mul_const(gelu(p), np.arange(6.0) - 3))),
        "cross_entropy": ((4, 5), lambda p: cross_entropy_mean(p, targets)),
        "embedding": ((4, 3), lambda p: tsum(mul_const(embedding(p, ids), emb_w))),
        "concat_rows_axis1": ((2, 3, 4), lambda p: tsum(mul_const(
            concat_rows([p, Tensor(c234[:, :1]), p], axis=1), c274))),
        "attention": ((1, 3, 4), lambda p: tsum(mul_const(attention(p, p, p, 1), c134))),
        "attention_masked": ((1, 3, 4), lambda p: tsum(mul_const(
            attention(p, p, p, 1, hidden=~tril), c134))),
        "attention_shared_q": ((3, 4), lambda p: tsum(mul_const(
            attention(p, Tensor(c254), Tensor(c254[::-1]), 2), c234))),
        "attention_blocks_heads": ((2, 3, 4), lambda p: tsum(mul_const(
            attention(p, p, p, 2), c234))),
        "scale": ((1,), lambda p: tsum(scale(Tensor(c45), p))),
    }


@pytest.mark.parametrize("name", sorted(_primitive_cases()))
def test_primitive_gradients_match_finite_differences(name):
    shape, build = _primitive_cases()[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    p = parameter(rng.normal(size=shape))
    _check_op_gradient(build, p)


# ---------------------------------------------------------------------------
# finite differences themselves


def test_finite_diff_quadratic():
    g = finite_diff_grad(lambda p: float(p[0] ** 2), np.array([3.0]))
    assert abs(g[0] - 6.0) <= 1e-9


def test_finite_diff_constant():
    g = finite_diff_grad(lambda p: 1.0, np.array([3.0, -1.0]))
    assert np.array_equal(g, [0.0, 0.0])
