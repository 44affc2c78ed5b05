"""Tests for the MMD / moderated-MMD statistics and the adaptive maximum."""
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gofkit import calibrate as cal
from gofkit import embedding, kernels
from gofkit.dists import null_sampler
from gofkit.embedding import (
    GRAM_SIZE_LIMIT,
    RhoGrid,
    Sample,
    TestReport,
    adaptive_grid,
    adaptive_stat,
    eta_sq,
    eta_sq_gram,
    mmd_vstat,
    null_calibration,
    rho_schedule,
    run_test,
    statistic,
    studentized_stat,
    theory_threshold,
)
from gofkit.spectrum import (
    ModeratedSpectrum,
    SpectralBasis,
    cosine_basis,
    effective_variance,
    gauss_legendre_01,
    moderate,
    moderated_variance,
    nystrom_decompose,
    sphere_zonal_spectrum,
    tensor_product_basis,
)


def diag_term(ms: ModeratedSpectrum, sample: Sample) -> float:
    """n^-1 sum_i K~_rho(X_i, X_i): the mean diagonal of the moderated Gram."""
    gram = ms.basis.kernel_matrix(sample.points, weights=ms.moderated_eigenvalues)
    return float(np.diag(gram).mean())


def _rank_one_basis(lam=1.0):
    return SpectralBasis(
        [lam], lambda X, m: np.ones((X.shape[0], m)),
        null_id="uniform-cube-1", degenerate=True)


def test_sample_shapes_and_csv(tmp_path):
    s = Sample(np.array([0.1, 0.2, 0.3]))
    assert s.n == 3 and s.dim == 1
    with pytest.raises(ValueError):
        Sample(np.empty((0, 1)))
    path = tmp_path / "x.csv"
    np.savetxt(path, np.array([[0.1, 0.2], [0.3, 0.4]]), delimiter=",")
    loaded = Sample.from_csv(path)
    assert loaded.n == 2 and loaded.dim == 2


# ---------------------------------------------------------------------------
# mmd


def test_mmd_zero_on_balanced_sample():
    basis = cosine_basis(7)
    sample = Sample(np.array([1, 3, 5, 7]) / 8.0)
    assert mmd_vstat(basis, sample) == pytest.approx(0.0, abs=1e-28)


def test_mmd_single_point_half():
    basis = cosine_basis(20000)
    assert mmd_vstat(basis, Sample(np.array([0.5]))) == \
        pytest.approx(1.0 / 12.0, abs=1e-4)


def test_mmd_duplication_invariant():
    basis = cosine_basis(30)
    pts = np.random.default_rng(0).random(15)
    a = mmd_vstat(basis, Sample(pts))
    b = mmd_vstat(basis, Sample(np.concatenate([pts, pts])))
    assert a == pytest.approx(b, rel=1e-12)


def test_mmd_requires_degenerate_basis():
    basis = SpectralBasis([1.0], lambda X, m: np.ones((X.shape[0], m)),
                          null_id="uniform-cube-1", degenerate=False)
    with pytest.raises(ValueError, match="degenerate"):
        mmd_vstat(basis, Sample(np.array([0.5])))


def test_mmd_nonnegative():
    basis = cosine_basis(40)
    rng = np.random.default_rng(2)
    for _ in range(5):
        assert mmd_vstat(basis, Sample(rng.random(30))) >= 0.0


# ---------------------------------------------------------------------------
# eta^2 and the Gram identity


def test_eta_single_point_coth_oracle():
    ms = ModeratedSpectrum(cosine_basis(10 ** 6), 0.1)
    target = 5.0 / math.tanh(5.0) - 1.0
    assert eta_sq(ms, Sample(np.array([0.5]))) == pytest.approx(target, abs=1e-3)


def test_eta_times_rho_sq_approaches_mmd():
    basis = cosine_basis(60)
    sample = Sample(np.random.default_rng(1).random(25))
    gamma = mmd_vstat(basis, sample)
    rho = 1e3
    eta = eta_sq(ModeratedSpectrum(basis, rho), sample)
    assert abs(rho ** 2 * eta - gamma) <= gamma * basis.eigenvalues[0] / rho ** 2


def test_eta_monotone_in_rho():
    basis = cosine_basis(60)
    sample = Sample(np.random.default_rng(4).random(25))
    vals = [eta_sq(ModeratedSpectrum(basis, r), sample)
            for r in (0.01, 0.1, 1.0, 10.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all(v >= 0 for v in vals)


def test_eta_gram_identity_random_sample():
    basis = cosine_basis(64)
    rng = np.random.default_rng(7)
    sample = Sample(rng.random(20))
    for rho in (0.01, 0.1, 1.0):
        ms = ModeratedSpectrum(basis, rho)
        a, b = eta_sq(ms, sample), eta_sq_gram(ms, sample)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))


def test_eta_gram_rank_one_half():
    # lam=1, rho=1 moderates to 1/2; phi == 1 makes the Gram mean 1/2
    ms = ModeratedSpectrum(_rank_one_basis(), 1.0)
    sample = Sample(np.random.default_rng(0).random(9))
    assert eta_sq_gram(ms, sample) == pytest.approx(0.5, rel=1e-14)


def test_eta_gram_size_limit():
    ms = ModeratedSpectrum(cosine_basis(8), 0.1)
    sample = Sample(np.linspace(0.01, 0.99, 10))
    with pytest.raises(ValueError, match="Gram"):
        eta_sq_gram(ms, sample, limit=5)
    assert GRAM_SIZE_LIMIT >= 1000


def test_eta_gram_single_point():
    ms = ModeratedSpectrum(cosine_basis(200), 0.1)
    x = Sample(np.array([0.37]))
    assert eta_sq_gram(ms, x) == pytest.approx(eta_sq(ms, x), rel=1e-12)


# ---------------------------------------------------------------------------
# diagonal term and studentization


def test_diag_term_single_point_half():
    ms = ModeratedSpectrum(cosine_basis(10 ** 6), 0.1)
    target = 5.0 / math.tanh(5.0) - 1.0
    assert diag_term(ms, Sample(np.array([0.5]))) == pytest.approx(target, abs=1e-3)


def test_diag_term_rank_one():
    ms = ModeratedSpectrum(_rank_one_basis(), 1.0)
    sample = Sample(np.random.default_rng(3).random(11))
    assert diag_term(ms, sample) == pytest.approx(0.5, rel=1e-14)


def test_diag_term_permutation_invariant():
    ms = ModeratedSpectrum(cosine_basis(32), 0.2)
    pts = np.random.default_rng(5).random(17)
    assert diag_term(ms, Sample(pts)) == pytest.approx(
        diag_term(ms, Sample(pts[::-1])), rel=1e-14)


def test_studentized_single_point_is_zero():
    ms = ModeratedSpectrum(cosine_basis(50), 0.1)
    assert studentized_stat(ms, Sample(np.array([0.42]))) == pytest.approx(0.0)


def test_studentized_null_moments():
    basis = cosine_basis(128)
    ms = ModeratedSpectrum(basis, 0.1)
    rng = np.random.default_rng(11)
    stats = np.array([studentized_stat(ms, Sample(rng.random(2000)))
                      for _ in range(500)])
    assert abs(stats.mean()) <= 0.1
    assert 0.8 <= stats.var() <= 1.2


@functools.cache
def _sphere5():
    # gaussian-sphere:1.0 on S^5 to degree 20: K = 14,755 in 13 degree blocks
    return sphere_zonal_spectrum(kernels.zonal_profile("gaussian-sphere:1.0"), 6, 20,
                                 quad_points=96)


@pytest.mark.parametrize("name", ["tensor", "sphere2", "sphere5", "cosine"])
def test_moderated_variance_over_runs_is_the_k_sum(name):
    basis = {
        "tensor": lambda: tensor_product_basis(cosine_basis(32), 5, 256),
        "sphere2": lambda: sphere_zonal_spectrum(
            kernels.zonal_profile("gaussian-sphere:1.0"), 3, 20),
        "sphere5": _sphere5,
        "cosine": lambda: cosine_basis(128),
    }[name]()
    rhos = adaptive_grid(500, 1.0).values
    mod = moderate(basis.eigenvalues, rhos[:, None])
    k_sum = (mod * mod).sum(axis=1)
    v = moderated_variance(basis.eigenvalues, rhos)
    if name == "cosine":  # no ties: the same terms in the same order
        assert np.array_equal(v, k_sum)
    else:
        assert np.abs(v / k_sum - 1.0).max() <= 1e-13


def test_studentized_memory_follows_the_degree_blocks_not_k():
    basis, n = _sphere5(), 500
    x = null_sampler(basis.null_id)(n, np.random.default_rng(3))
    summary, grid = basis.summary(x), adaptive_grid(n, basis.decay_exponent)
    tracemalloc.start()
    try:
        embedding._studentized(basis, summary, grid.values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # a (grid x K) array would take 56 x 14,755 x 8 = 6.6 MB


def test_scale_coupling_identity():
    # (lam, rho) -> (c lam, sqrt(c) rho) leaves every quantity unchanged
    c = 3.7
    k = np.arange(1, 41, dtype=float)
    lam = 1.0 / (k * math.pi) ** 2

    def feat(X, m):
        return math.sqrt(2.0) * np.cos(np.outer(X[:, 0], k[:m]) * math.pi)

    b1 = SpectralBasis(lam, feat, null_id="uniform-cube-1", degenerate=True)
    b2 = SpectralBasis(c * lam, feat, null_id="uniform-cube-1", degenerate=True)
    sample = Sample(np.random.default_rng(6).random(30))
    rho = 0.13
    s1 = studentized_stat(ModeratedSpectrum(b1, rho), sample)
    s2 = studentized_stat(ModeratedSpectrum(b2, math.sqrt(c) * rho), sample)
    assert s1 == pytest.approx(s2, rel=1e-12)
    assert eta_sq(ModeratedSpectrum(b1, rho), sample) == pytest.approx(
        eta_sq(ModeratedSpectrum(b2, math.sqrt(c) * rho), sample), rel=1e-12)


# ---------------------------------------------------------------------------
# schedules and grids


def test_rho_schedule_value():
    assert rho_schedule(1000, 1.0, 0.0, 1.0) == pytest.approx(0.063096, abs=1e-6)


def test_rho_schedule_monotone_in_theta():
    vals = [rho_schedule(1000, 1.0, th) for th in (0.0, 1.0, 2.0)]
    assert vals[0] > vals[1] > vals[2]


def test_rho_schedule_c_linear():
    assert rho_schedule(500, 1.0, 0.0, 2.5) == \
        pytest.approx(2.5 * rho_schedule(500, 1.0, 0.0, 1.0), rel=1e-14)


def test_rho_schedule_domain():
    with pytest.raises(ValueError):
        rho_schedule(1, 1.0)
    with pytest.raises(ValueError):
        rho_schedule(100, 0.5)
    with pytest.raises(ValueError):
        rho_schedule(100, 1.0, -0.1)
    with pytest.raises(ValueError):
        rho_schedule(100, 1.0, 0.0, 0.0)


def test_adaptive_grid_n1000():
    grid = adaptive_grid(1000, 1.0)
    assert grid.rho_star == pytest.approx(1.9327e-6, rel=1e-4)
    assert grid.m_star == 16
    assert grid.values.size == 17


def test_adaptive_grid_dyadic():
    grid = adaptive_grid(300, 1.2)
    ratios = grid.values[1:] / grid.values[:-1]
    assert np.allclose(ratios, 2.0)
    assert np.all(np.diff(grid.values) > 0)


def test_adaptive_grid_top_value_bound():
    for n, s in ((100, 1.0), (1000, 1.0), (5000, 2.0)):
        grid = adaptive_grid(n, s)
        root = math.sqrt(math.log(math.log(n))) / n
        assert grid.values[-1] <= 2.0 * root ** (2.0 * s / (4.0 * s + 1.0))


def test_adaptive_grid_small_n_rejected():
    with pytest.raises(ValueError):
        adaptive_grid(15, 1.0)


def test_rho_grid_validation():
    with pytest.raises(ValueError):
        RhoGrid(rho_star=0.0, m_star=3)
    with pytest.raises(ValueError):
        RhoGrid(rho_star=0.1, m_star=-1)
    with pytest.raises(TypeError):
        RhoGrid(rho_star=0.1, m_star=2, values=np.array([99.0]))


def test_rho_grid_compares_and_hashes_by_its_parameters():
    a, b = RhoGrid(0.1, 2), RhoGrid(0.1, 2)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != RhoGrid(0.1, 3) and a != RhoGrid(0.2, 2)


def test_theory_threshold():
    assert theory_threshold(1000) == pytest.approx(2.4079, abs=1e-4)


# ---------------------------------------------------------------------------
# adaptive statistic


def test_adaptive_single_point_zero():
    basis = cosine_basis(32)
    grid = adaptive_grid(1000, 1.0)
    res = adaptive_stat(basis, grid, Sample(np.array([0.81])))
    assert res.value == pytest.approx(0.0)
    # one point: n eta^2 equals the diagonal term at every rho, and the tie
    # goes to the lowest rho
    assert res.argmax_rho == grid.values[0]


def test_adaptive_single_entry_grid():
    basis = cosine_basis(32)
    sample = Sample(np.random.default_rng(8).random(50))
    grid = RhoGrid(rho_star=0.07, m_star=0)
    res = adaptive_stat(basis, grid, sample)
    assert res.value == pytest.approx(
        studentized_stat(ModeratedSpectrum(basis, 0.07), sample), rel=1e-12)
    assert res.argmax_rho == pytest.approx(0.07)


def test_adaptive_dominates_grid_members():
    basis = cosine_basis(32)
    sample = Sample(np.random.default_rng(9).random(60))
    grid = adaptive_grid(60, 1.0)
    res = adaptive_stat(basis, grid, sample)
    for rho in grid.values:
        assert res.value >= studentized_stat(
            ModeratedSpectrum(basis, float(rho)), sample) - 1e-12


# one basis of each kind; the zonal one groups its eigenvalues by degree, so
# its summary has fewer entries than basis.eigenvalues
_BASES = {
    "cosine": cosine_basis(24),
    "tensor": tensor_product_basis(cosine_basis(8), 3, 40),
    "nystrom": nystrom_decompose(kernels.cosine_reference_kernel(200), gauss_legendre_01(64),
                                 12, null_id="uniform-cube-1"),
    "zonal": sphere_zonal_spectrum(kernels.zonal_profile("gaussian-sphere:1.0"), 3, 12),
}


def _studentized_reference(basis, rho, sample):
    """(n eta^2 - diag term) / sqrt(2 v) from the public per-rho pieces."""
    ms = ModeratedSpectrum(basis, rho)
    num = sample.n * eta_sq(ms, sample) - diag_term(ms, sample)
    return num / math.sqrt(2.0 * effective_variance(ms))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_BASES)), st.integers(2, 120), st.integers(0, 2 ** 32 - 1),
       st.floats(1e-6, 0.5), st.integers(0, 12))
def test_adaptive_is_the_first_maximiser_of_per_rho_studentized(name, n, seed, rho_star,
                                                                m_star):
    basis = _BASES[name]
    x = null_sampler(basis.null_id)(n, np.random.default_rng(seed))
    if name != "zonal":
        x = x ** 1.5  # off the null, so the grid values differ
    sample, grid = Sample(x), RhoGrid(rho_star, m_star)
    per_rho = [studentized_stat(ModeratedSpectrum(basis, float(r)), sample)
               for r in grid.values]
    for r, t in zip(grid.values, per_rho):
        assert t == pytest.approx(_studentized_reference(basis, float(r), sample),
                                  rel=1e-9, abs=1e-9)
    assert statistic("adaptive", basis, basis.summary(x), grid=grid) == max(per_rho)
    best = adaptive_stat(basis, grid, sample)
    assert best.value == max(per_rho)
    # the first grid value within round-off of the maximum
    top = max(per_rho) - embedding._ARGMAX_RTOL * abs(max(per_rho))
    assert best.argmax_rho == grid.values[[t >= top for t in per_rho].index(True)]
    assert statistic("m3d", basis, basis.summary(x), rho=grid.values[-1]) == per_rho[-1]


def test_run_test_evaluates_the_adaptive_grid_once(monkeypatch):
    basis = cosine_basis(32)
    sample = Sample(np.random.default_rng(4).random(200) ** 1.5)
    calls = []
    real = embedding._studentized

    def spy(basis, summary, rhos):
        calls.append(len(rhos))
        return real(basis, summary, rhos)

    monkeypatch.setattr(embedding, "_studentized", spy)
    report = run_test("adaptive", basis, sample, 0.05, calibration=null_calibration(
        "adaptive", basis, sample.n, 0.05, calibrate="theory"))
    grid = adaptive_grid(sample.n, basis.decay_exponent)
    assert calls == [grid.values.size]
    best = adaptive_stat(basis, grid, sample)
    assert report.statistic == best.value
    assert report.parameters["argmax_rho"] == best.argmax_rho


def test_adaptive_argmax_ignores_round_off_on_a_plateau(monkeypatch):
    # a flat stretch at the start of the grid whose later entry comes out one
    # ulp higher, as a summary that differs by round-off can make it
    flat = 2.5
    t = np.array([flat, flat, np.nextafter(flat, 3.0), flat, 1.0])
    monkeypatch.setattr(embedding, "_studentized", lambda basis, s, rhos: t.copy())
    basis, grid = cosine_basis(8), RhoGrid(rho_star=1e-30, m_star=4)
    best = embedding._adaptive(basis, grid, basis.summary(np.array([0.5])))
    assert best.value == t[2]
    assert best.argmax_rho == grid.rho_star
    # a clear maximum further up the grid is still found
    t[3] = flat * (1.0 + 1e-9)
    best = embedding._adaptive(basis, grid, basis.summary(np.array([0.5])))
    assert (best.value, best.argmax_rho) == (t[3], grid.values[3])


def test_adaptive_monotone_in_refinement():
    basis = cosine_basis(32)
    sample = Sample(np.random.default_rng(10).random(60))
    small = RhoGrid(rho_star=0.01, m_star=2)
    big = RhoGrid(rho_star=0.01, m_star=5)
    assert adaptive_stat(basis, big, sample).value >= \
        adaptive_stat(basis, small, sample).value


# ---------------------------------------------------------------------------
# run_test / TestReport


def test_run_test_mmd_chisq_threshold():
    # single eigenvalue 1 makes the null limit a chi-square(1)
    basis = SpectralBasis(
        [1.0],
        lambda X, m: math.sqrt(2.0) * np.cos(math.pi * X[:, :1])[:, :m],
        null_id="uniform-cube-1", degenerate=True)
    sample = Sample(np.random.default_rng(0).random(100))
    report = run_test("mmd", basis, sample, 0.05, calibration=null_calibration(
        "mmd", basis, sample.n, 0.05, reps=200000, seed=3))
    assert report.threshold == pytest.approx(3.8415, abs=0.1)
    assert report.kind == "mmd"


def test_run_test_m3d_half_alpha():
    basis = cosine_basis(32)
    sample = Sample(np.random.default_rng(1).random(80))
    report = run_test("m3d", basis, sample, 0.5, rho=0.1)
    assert report.threshold == pytest.approx(0.0, abs=1e-12)


def test_run_test_adaptive_theory_threshold():
    basis = cosine_basis(32)
    sample = Sample(np.random.default_rng(2).random(1000))
    report = run_test("adaptive", basis, sample, 0.05, calibration=null_calibration(
        "adaptive", basis, sample.n, 0.05, calibrate="theory"))
    assert report.threshold == pytest.approx(2.4079, abs=1e-4)
    assert report.parameters["theory_threshold"] == report.threshold


def test_run_test_mc_requires_seed():
    basis = cosine_basis(16)
    sample = Sample(np.random.default_rng(3).random(40))
    with pytest.raises(ValueError, match="seed"):
        run_test("mmd", basis, sample, 0.05)
    with pytest.raises(ValueError, match="seed"):
        run_test("adaptive", basis, sample, 0.05)


def test_run_test_refuses_a_calibration_it_cannot_check():
    # a calibrator's raw output records neither kind nor spectrum
    basis = cosine_basis(16)
    sample = Sample(np.random.default_rng(3).random(40))
    with pytest.raises(ValueError, match="kind None \\(calibration\\) != m3d"):
        run_test("m3d", basis, sample, 0.05, rho=0.1,
                 calibration=cal.normal_calibration(0.05))


def test_run_test_m3d_refuses_rho_and_theta():
    basis = cosine_basis(16)
    sample = Sample(np.random.default_rng(3).random(40))
    with pytest.raises(ValueError, match="rho or theta, not both"):
        run_test("m3d", basis, sample, 0.05, rho=0.1, theta=0.0)


@pytest.mark.parametrize("kind", ["mmd", "adaptive"])
@pytest.mark.parametrize("moderation", [{"rho": 0.5}, {"theta": 3.0},
                                        {"rho": 0.5, "theta": 3.0}])
def test_run_test_refuses_rho_and_theta_outside_m3d(kind, moderation):
    # rho and theta set m3d's moderation; mmd and adaptive would drop them
    basis = cosine_basis(16)
    sample = Sample(np.random.default_rng(3).random(40))
    calibration = null_calibration(kind, basis, 40, 0.05, reps=200, seed=1,
                                   calibrate="theory" if kind == "adaptive" else None)
    with pytest.raises(ValueError, match="%s takes no rho or theta" % kind):
        run_test(kind, basis, sample, 0.05, calibration=calibration, **moderation)


@pytest.mark.parametrize("kind", ["mmd", "adaptive"])
def test_run_test_refuses_rho_before_drawing_a_null(kind, monkeypatch):
    def drawn(*args, **kwargs):
        raise AssertionError("a Monte-Carlo null was drawn before the refusal")

    for name in ("empirical_null_quantile", "chisq_mix_quantile"):
        monkeypatch.setattr(cal, name, drawn)
    sample = Sample(np.random.default_rng(3).random(40))
    with pytest.raises(ValueError, match="%s takes no rho or theta" % kind):
        run_test(kind, cosine_basis(16), sample, 0.05, seed=1, rho=0.5)


@pytest.mark.parametrize("extra", [{"calibrate": "mc"}, {"reps": 500}, {"seed": 1}])
def test_run_test_refuses_a_null_request_beside_a_ready_calibration(extra):
    basis = cosine_basis(16)
    sample = Sample(np.random.default_rng(3).random(40))
    ready = null_calibration("mmd", basis, 40, 0.05, reps=200, seed=1)
    with pytest.raises(ValueError, match="exclude each other"):
        run_test("mmd", basis, sample, 0.05, calibration=ready, **extra)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_rho_or_theta_is_refused(bad):
    basis = cosine_basis(16)
    sample = Sample(np.random.default_rng(3).random(40))
    with pytest.raises(ValueError, match="rho must be finite"):
        run_test("m3d", basis, sample, 0.05, rho=bad)
    with pytest.raises(ValueError, match="theta must be finite"):
        run_test("m3d", basis, sample, 0.05, theta=bad)
    with pytest.raises(ValueError, match="rho must be finite"):
        ModeratedSpectrum(basis, bad)
    with pytest.raises(ValueError, match="theta must be finite"):
        rho_schedule(100, 1.0, bad)


def test_run_test_unknown_kind():
    basis = cosine_basis(16)
    with pytest.raises(ValueError, match="kind"):
        run_test("bogus", basis, Sample(np.array([0.5])), 0.05)


def test_report_invariants_enforced():
    with pytest.raises(ValueError, match="decision"):
        TestReport(kind="mmd", statistic=1.0, threshold=2.0, reject=True,
                   p_value=None, alpha=0.05, calibration=cal.normal_calibration(0.05),
                   parameters={})
    with pytest.raises(ValueError, match="p-value"):
        TestReport(kind="mmd", statistic=3.0, threshold=2.0, reject=True,
                   p_value=0.5, alpha=0.05, calibration=cal.normal_calibration(0.05),
                   parameters={})


def test_report_serialization_roundtrip():
    basis = cosine_basis(32)
    sample = Sample(np.random.default_rng(5).random(60))
    report = run_test("m3d", basis, sample, 0.05, rho=0.1)
    d = report.to_dict()
    assert d["kind"] == "m3d"
    assert d["calibration"]["method"] == "normal"
    text = report.to_text()
    assert "statistic" in text and "threshold" in text
    assert (report.p_value <= 0.05) == report.reject


def test_degenerate_sample_accepted():
    basis = cosine_basis(32)
    sample = Sample(np.full(10, 0.25))
    assert np.isfinite(mmd_vstat(basis, sample))
    assert np.isfinite(studentized_stat(ModeratedSpectrum(basis, 0.1), sample))
