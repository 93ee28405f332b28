import math
import tracemalloc

import numpy as np
import pytest

from rigkit.model import (
    ModelParams,
    TailLaw,
    _sizes_from_tilde,
    default_attribute_count,
    iterated_log,
    realized_weights,
    sample_tilde_weights,
    trial_rng,
)

from oracles import quantile_reference, tilde_weights_reference


def test_iterated_log_guard():
    assert iterated_log(0) == math.log(math.log(2.0))
    assert iterated_log(100000) == pytest.approx(math.log(math.log(100002.0)))
    # positive well below e - 2, thanks to the +2 guard
    assert iterated_log(1) > 0


def test_default_attribute_count_formula():
    for n in (2, 10, 1000, 100000):
        raw = n * math.log(n) ** 2 * iterated_log(n)
        m = default_attribute_count(n)
        assert m == max(n, math.ceil(raw))
        assert m >= n
    assert default_attribute_count(1) == 1
    with pytest.raises(ValueError):
        default_attribute_count(0)


def test_survival_examples():
    law = TailLaw(alpha=0.5, c0=1.0)
    assert law.survival(4.0) == pytest.approx(0.125, abs=1e-15)
    assert law.survival(0.5) == 1.0
    assert law.survival(1.0) == 1.0
    arr = law.survival(np.array([0.5, 1.0, 4.0]))
    assert np.allclose(arr, [1.0, 1.0, 0.125])


def test_quantile_round_trip():
    law = TailLaw(alpha=0.8, c0=2.0)
    assert law.quantile(1.0) == pytest.approx(2.0)
    t = np.array([2.0, 3.7, 155.0, 1e6])
    back = law.quantile(law.survival(t))
    assert np.allclose(back, t, rtol=1e-12)
    p = np.array([1e-9, 1e-3, 0.4, 1.0])
    assert np.allclose(law.survival(law.quantile(p)), p, rtol=1e-12)


def test_quantile_rejects_bad_p():
    law = TailLaw(alpha=0.5, c0=1.0)
    for p in (0.0, -0.1, 1.0001):
        with pytest.raises(ValueError):
            law.quantile(p)


def test_law_validation():
    for alpha in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValueError):
            TailLaw(alpha=alpha, c0=1.0)
    with pytest.raises(ValueError):
        TailLaw(alpha=0.5, c0=0.0)


def test_tail_constant_and_mean():
    law = TailLaw(alpha=0.5, c0=2.0)
    assert law.tail_constant == pytest.approx(2.0**1.5)


def test_interval_mean_closed_form():
    law = TailLaw(alpha=0.8, c0=1.0)
    a = 0.8
    # untruncated tail mean at any t >= c0
    for t in (1.0, 2.5, 40.0):
        expected = ((1 + a) / a) * t ** (-a)
        assert law.interval_mean(t, math.inf) == pytest.approx(expected, rel=1e-12)
    # interval additivity
    whole = law.interval_mean(1.0, math.inf)
    split = law.interval_mean(1.0, 7.0) + law.interval_mean(7.0, math.inf)
    assert whole == pytest.approx(split, rel=1e-12)
    assert law.interval_mean(5.0, 5.0) == 0.0
    assert law.interval_mean(9.0, 3.0) == 0.0
    # lo below c0 clamps to c0
    assert law.interval_mean(0.1, 2.0) == pytest.approx(law.interval_mean(1.0, 2.0))


def test_interval_mean_matches_quadrature():
    from scipy.integrate import quad

    law = TailLaw(alpha=0.6, c0=1.5)
    a, c0 = 0.6, 1.5
    # density on (c0, inf): (1+a) * c0^(1+a) * t^(-2-a)
    def integrand(t):
        return t * (1 + a) * c0 ** (1 + a) * t ** (-2 - a)

    for lo, hi in ((1.5, 9.0), (2.0, 50.0), (4.0, 4.5)):
        val, err = quad(integrand, lo, hi)
        assert law.interval_mean(lo, hi) == pytest.approx(val, rel=1e-9)


def test_truncated_mean_monte_carlo():
    law = TailLaw(alpha=0.8, c0=1.0)
    rng = trial_rng(1234, 0, 0)
    z = law.quantile(1.0 - rng.random(10**6))
    cut = 50.0
    zt = np.where(z <= cut, z, 0.0)
    analytic = law.interval_mean(1.0, cut)
    se = float(np.std(zt, ddof=1)) / math.sqrt(zt.shape[0])
    assert abs(float(np.mean(zt)) - analytic) <= 4.0 * se


def test_sizes_from_tilde_rounding():
    params = ModelParams(n=4, m=100, alpha=0.5, c0=1.0)
    assert params.size_scale == pytest.approx(5.0)
    tilde = np.array([0.09, 0.1, 0.3, 1000.0])
    sizes = _sizes_from_tilde(params, tilde)
    # floor(x*5 + 0.5): 0.45->0, 0.5 rounds up to 1, 1.5->2, cap at m
    assert sizes.tolist() == [0, 1, 2, 100]
    # monotone in tilde_z
    t = np.sort(trial_rng(0, 0, 0).random(100) * 40)
    s = _sizes_from_tilde(params, t)
    assert np.all(np.diff(s) >= 0)


def test_sample_weights_shape_and_floor():
    params = ModelParams(n=5000, m=20000, alpha=0.8, c0=1.5)
    w = sample_tilde_weights(params, trial_rng(7, 5000, 0))
    assert len(w) == 5000
    assert np.all(w.tilde_z >= 1.5)
    assert np.all(w.sizes >= 0) and np.all(w.sizes <= 20000)
    assert w.sizes.dtype == np.int64


@pytest.mark.parametrize("n", [1, 7, 300, 100_000])
def test_sample_weights_match_reference_bytes(n):
    # the uniforms, the power, the scaling and the rounding are done in
    # place, and give the bytes of the formulas written out one new array
    # at a time; the generator is left where the reference leaves it
    for alpha in (0.3, 0.8, 0.95):
        for c0 in (1.0, 2.5, 1000.0):
            params = ModelParams(n=n, m=default_attribute_count(n), alpha=alpha, c0=c0)
            rng, ref_rng = trial_rng(3, n, 1), trial_rng(3, n, 1)
            got = sample_tilde_weights(params, rng)
            tilde_z, sizes = tilde_weights_reference(n, params.m, alpha, c0, ref_rng)
            assert got.tilde_z.dtype == np.float64 and got.sizes.dtype == np.int64
            assert got.tilde_z.tobytes() == tilde_z.tobytes(), (alpha, c0)
            assert got.sizes.tobytes() == sizes.tobytes(), (alpha, c0)
            assert rng.random() == ref_rng.random()


def test_sample_weights_memory():
    # traced peak, in n-length float64 arrays: the weights and the sizes,
    # with the one float temporary of the rounding beside them; forming
    # 1 - u, the power and the scaling in new arrays, with u held through
    # the rounding, peaked at 5
    n = 100_000
    params = ModelParams(n=n, m=default_attribute_count(n), alpha=0.8, c0=1.0)
    rng = trial_rng(1, n, 0)
    tracemalloc.start()
    try:
        sample_tilde_weights(params, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.05 * 8 * n  # 3.0 measured


def test_quantile_matches_reference_bytes():
    # scalars come back as floats, arrays as new arrays, and p is left as
    # it is
    p = np.concatenate([[1e-300, 1e-12, 0.5, 1.0], trial_rng(5, 0, 0).random(1000) + 1e-9])
    for alpha, c0 in ((0.3, 1.0), (0.8, 2.5), (0.95, 1000.0), (0.5, 2)):
        law = TailLaw(alpha=alpha, c0=c0)
        kept = p.copy()
        got = law.quantile(p)
        assert got.tobytes() == quantile_reference(alpha, c0, p).tobytes()
        assert p.tobytes() == kept.tobytes()
        for x in (1.0, 0.25, 1e-300, np.float64(0.75), np.array(0.125)):
            value = law.quantile(x)
            assert type(value) is float
            assert value == float(quantile_reference(alpha, c0, x))


def test_sampling_determinism():
    params = ModelParams(n=300, m=1000, alpha=0.6, c0=1.0)
    w1 = sample_tilde_weights(params, trial_rng(42, 300, 3))
    w2 = sample_tilde_weights(params, trial_rng(42, 300, 3))
    assert np.array_equal(w1.tilde_z, w2.tilde_z)
    w3 = sample_tilde_weights(params, trial_rng(42, 300, 4))
    assert not np.array_equal(w1.tilde_z, w3.tilde_z)


def test_realized_weights_inverts_scale():
    params = ModelParams(n=100, m=400, alpha=0.5, c0=1.0)
    sizes = np.arange(100, dtype=np.int64) % 7
    w = realized_weights(params, sizes)
    assert np.allclose(w.tilde_z * params.size_scale, sizes)
    assert np.array_equal(w.sizes, sizes)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n=0, m=10, alpha=0.5)
    with pytest.raises(ValueError):
        ModelParams(n=10, m=0, alpha=0.5)
    with pytest.raises(ValueError):
        ModelParams(n=10, m=10, alpha=1.0)
    p = ModelParams(n=500, m=default_attribute_count(500), alpha=0.8)
    assert p.m == default_attribute_count(500)
