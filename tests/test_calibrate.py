"""Tests for null-quantile calibration."""
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from gofkit.calibrate import (
    NullCalibration,
    chisq_mix_quantile,
    empirical_null_quantile,
    normal_calibration,
    normal_quantile,
)
from gofkit.embedding import TestReport
from gofkit.kernels import zonal_profile
from gofkit.spectrum import cosine_basis, sphere_zonal_spectrum, tensor_product_basis


def test_normal_quantile_values():
    assert normal_quantile(0.05) == pytest.approx(1.6449, abs=1e-4)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_quantile(0.025) == pytest.approx(1.9600, abs=1e-4)


def test_normal_quantile_domain():
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            normal_quantile(alpha)


def test_normal_quantile_precision():
    # compare against scipy's full-precision inverse CDF
    for alpha in (0.2, 0.1, 0.01, 0.001):
        assert abs(normal_quantile(alpha) - stats.norm.ppf(1 - alpha)) < 1e-8


# ---------------------------------------------------------------------------
# chi-square mixtures


def test_chisq_single_unit_eigenvalue():
    c = chisq_mix_quantile([1.0], 0.05, reps=10 ** 6, seed=0)
    assert c.quantile == pytest.approx(3.8415, abs=0.02)
    assert c.method == "chisq-mixture-mc"


def test_chisq_scaled_pair():
    c = chisq_mix_quantile([0.5, 0.5], 0.05, reps=10 ** 6, seed=1)
    assert c.quantile == pytest.approx(0.5 * 5.9915, abs=0.02)


def test_chisq_quantile_monotone_in_alpha():
    lam = [0.4, 0.2, 0.1]
    q999 = chisq_mix_quantile(lam, 0.001, reps=5000, seed=2).quantile
    q50 = chisq_mix_quantile(lam, 0.5, reps=5000, seed=2).quantile
    assert q999 > q50


def test_chisq_within_mc_standard_error():
    reps = 20000
    c = chisq_mix_quantile([1.0], 0.05, reps=reps, seed=3)
    q = stats.chi2.ppf(0.95, df=1)
    # SE of a sample quantile: sqrt(a(1-a)/n) / f(q)
    se = np.sqrt(0.05 * 0.95 / reps) / stats.chi2.pdf(q, df=1)
    assert abs(c.quantile - q) < 3 * se


def test_chisq_input_validation():
    with pytest.raises(ValueError):
        chisq_mix_quantile([1.0, -0.5], 0.05, reps=1000, seed=0)
    with pytest.raises(ValueError):
        chisq_mix_quantile([1.0, float("nan"), float("nan")], 0.05, reps=1000, seed=0)
    with pytest.raises(ValueError):
        chisq_mix_quantile([1.0], 0.05, reps=50, seed=0)
    with pytest.raises(ValueError):
        chisq_mix_quantile([1.0], 1.5, reps=1000, seed=0)


def _ungrouped_draws(lam, reps, seed, chunk=8192):
    """One squared normal per eigenvalue, over blocks of ``chunk`` rows."""
    rng = np.random.default_rng(seed)
    out = []
    for start in range(0, reps, chunk):
        z = rng.standard_normal((min(chunk, reps - start), len(lam)))
        out.append((z * z) @ np.asarray(lam, dtype=float))
    return np.concatenate(out)


@pytest.mark.parametrize("reps", [100, 8191, 8192, 8193, 20000])
def test_chisq_distinct_spectrum_draws_one_normal_per_eigenvalue(reps):
    # all-distinct and not sorted ascending, so drawing the simple
    # eigenvalues in any order other than the spectrum's changes the bits
    lam = cosine_basis(40).eigenvalues[[0, 3, 1, 2] + list(range(4, 40))]
    c = chisq_mix_quantile(lam, 0.05, reps=reps, seed=11)
    assert np.array_equal(c.replicates, _ungrouped_draws(lam, reps, seed=11))


def _one_block_draws(lam, reps, seed, chunk=8192):
    """The 0.11.0 draw: each block of ``chunk`` rows forms all its squared
    normals, then all its tied chi-square variates, as whole arrays."""
    lam = np.asarray(lam, dtype=float)
    values, counts = np.unique(lam, return_counts=True)
    simple = lam[counts[np.searchsorted(values, lam)] == 1]
    tied, dof = values[counts > 1], counts[counts > 1]
    rng = np.random.default_rng(seed)
    out = []
    for start in range(0, reps, chunk):
        m = min(chunk, reps - start)
        z = rng.standard_normal((m, simple.size))
        out.append((z * z) @ simple + rng.chisquare(dof, (m, dof.size)) @ tied)
    return np.concatenate(out)


_PINNED_SPECTRA = {
    "tensor-d5-K256": tensor_product_basis(cosine_basis(32), 5, 256).eigenvalues,
    "sphere-S2-zonal": sphere_zonal_spectrum(zonal_profile("gaussian-sphere:1.0"), 3, 20,
                                             quad_points=96).eigenvalues,
    "interleaved-ties": [0.9, 0.5, 0.2, 0.5, 0.3, 0.2, 0.2, 0.1, 0.5, 0.05],
    "distinct-K1000": 1.0 / np.random.default_rng(0).permutation(np.arange(1, 1001)) ** 2,
}


@pytest.mark.parametrize("reps", [100, 8191, 8192, 8193, 20000])
@pytest.mark.parametrize("name", list(_PINNED_SPECTRA))
def test_chisq_draws_match_the_one_block_loop_bit_for_bit(name, reps):
    # the bounded buffer reads the stream in the same order and reduces each
    # row as one whole-block product does, so no replicate moves by an ulp
    lam = _PINNED_SPECTRA[name]
    c = chisq_mix_quantile(lam, 0.05, reps=reps, seed=21)
    assert np.array_equal(c.replicates, _one_block_draws(lam, reps, seed=21))


def test_chisq_memory_does_not_grow_with_the_spectrum():
    # one block of the one-block loop holds two 8192 x 512 arrays, ~64 MB
    lam = 1.0 / np.arange(1, 513) ** 1.5
    tracemalloc.start()
    try:
        chisq_mix_quantile(lam, 0.05, reps=20000, seed=22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


@pytest.mark.parametrize("m", [2, 7, 40])
def test_chisq_pure_tie_is_a_scaled_chi_square(m):
    reps, alpha, scale = 20000, 0.05, 0.5
    c = chisq_mix_quantile([scale] * m, alpha, reps=reps, seed=12)
    q = scale * stats.chi2.ppf(1 - alpha, df=m)
    se = np.sqrt(alpha * (1 - alpha) / reps) / (stats.chi2.pdf(q / scale, df=m) / scale)
    assert abs(c.quantile - q) < 3 * se


@pytest.mark.parametrize("lam", [
    [0.9, 0.5, 0.2, 0.5, 0.3, 0.2, 0.2, 0.1, 0.5, 0.05],
    tensor_product_basis(cosine_basis(32), 5, 256).eigenvalues,
], ids=["interleaved-ties", "tensor-d5-K256"])
def test_chisq_mixed_spectrum_matches_ungrouped_draws(lam):
    reps = 20000
    grouped = chisq_mix_quantile(lam, 0.05, reps=reps, seed=13).replicates
    ungrouped = _ungrouped_draws(lam, reps, seed=14)
    assert stats.ks_2samp(grouped, ungrouped).pvalue > 1e-3
    for alpha in (0.5, 0.1, 0.05, 0.01):
        # the density at q from the ungrouped draws within +-0.5 % of it, and
        # the SE of the difference of two independent sample quantiles
        lo, q, hi = np.quantile(ungrouped, [1 - alpha - 0.005, 1 - alpha, 1 - alpha + 0.005])
        se = np.sqrt(2 * alpha * (1 - alpha) / reps) * (hi - lo) / 0.01
        assert abs(np.quantile(grouped, 1 - alpha) - q) < 4 * se, alpha


# ---------------------------------------------------------------------------
# empirical null quantiles


def _null_points(size, rng):
    return rng.random(size)


def test_empirical_constant_statistic():
    c = empirical_null_quantile(lambda s: 0.0, _null_points, 50, 0.05,
                                reps=150, seed=0)
    assert c.quantile == 0.0
    for alpha in (0.01, 0.5, 0.9):
        assert empirical_null_quantile(lambda s: 0.0, _null_points, 50, alpha,
                                       reps=150, seed=0).quantile == 0.0


def test_empirical_deterministic_given_seed():
    stat = lambda s: float(np.mean(s))
    a = empirical_null_quantile(stat, _null_points, 40, 0.05, reps=120, seed=9)
    b = empirical_null_quantile(stat, _null_points, 40, 0.05, reps=120, seed=9)
    assert a.quantile == b.quantile
    assert np.array_equal(a.replicates, b.replicates)


def test_empirical_reps_floor():
    with pytest.raises(ValueError):
        empirical_null_quantile(lambda s: 0.0, _null_points, 40, 0.05,
                                reps=99, seed=0)


def test_empirical_order_stat_convention():
    # quantile is the order statistic at 1-based index ceil((1-alpha) reps)
    stat = lambda s: float(np.mean(s))
    c = empirical_null_quantile(stat, _null_points, 40, 0.05, reps=200, seed=4)
    expected = np.sort(c.replicates)[int(np.ceil(0.95 * 200)) - 1]
    assert c.quantile == expected


def test_doubling_reps_shrinks_quantile_se():
    # MC standard error of the quantile should fall roughly like 1/sqrt(2)
    stat = lambda s: float(np.mean(s) * np.sqrt(s.size))
    small, large = [], []
    for seed in range(40):
        small.append(empirical_null_quantile(stat, _null_points, 30, 0.1,
                                             reps=150, seed=seed).quantile)
        large.append(empirical_null_quantile(stat, _null_points, 30, 0.1,
                                             reps=300, seed=1000 + seed).quantile)
    ratio = np.std(large) / np.std(small)
    assert abs(ratio - 1.0 / np.sqrt(2.0)) < 0.3


# ---------------------------------------------------------------------------
# p-values and report plumbing


def test_p_value_consistent_with_threshold():
    c = chisq_mix_quantile([0.7, 0.3], 0.05, reps=5000, seed=5)
    for stat in np.linspace(0.0, 6.0, 61):
        p = c.p_value(float(stat))
        assert (p <= 0.05) == (stat > c.quantile)


def test_p_value_counts_a_tied_replicate():
    # the p-value is the fraction of replicates at or above the statistic, so
    # a statistic equal to the stored quantile is not rejected and its
    # p-value stays above alpha
    c = NullCalibration(method="empirical-mc", alpha=0.05, quantile=94.0, reps=100,
                        seed=0, replicates=np.arange(100.0))
    assert c.p_value(95.0) == 0.05
    report = TestReport(kind="adaptive", statistic=c.quantile, threshold=c.quantile,
                        reject=False, p_value=c.p_value(c.quantile), alpha=0.05,
                        calibration=c, parameters={})
    assert report.p_value == 0.06


def test_normal_calibration_p_value():
    c = normal_calibration(0.05)
    assert c.p_value(0.0) == pytest.approx(0.5)
    assert c.p_value(c.quantile) == pytest.approx(0.05, rel=1e-6)
    assert c.method == "normal"


def test_calibration_validation():
    with pytest.raises(ValueError):
        NullCalibration(method="empirical-mc", alpha=0.05, quantile=1.0,
                        reps=10, seed=0)
    with pytest.raises(ValueError):
        NullCalibration(method="normal", alpha=0.0, quantile=1.0,
                        reps=None, seed=None)


def test_theory_calibration_has_no_p_value():
    c = NullCalibration(method="theory-loglog", alpha=0.05, quantile=2.4,
                        reps=None, seed=None)
    assert c.p_value(3.0) is None
