"""Tests for null/alternative samplers, densities and divergences."""
import math

import numpy as np
import pytest

from gofkit.dists import (
    AlternativeSpec,
    alt_from_flag,
    chi_square_divergence,
    chi_square_divergence_quadrature,
    density,
    interpolation_radius,
    least_favorable,
    make_gaussian_mixture_spec,
    null_sampler,
    sample,
    spec_from_config,
    spec_to_config,
    uniform_sphere,
    vmf_log_const,
    watson_const,
)
from gofkit.spectrum import cosine_basis, sphere_surface_area, tensor_product_basis


def test_null_sampler_parsing():
    rng = np.random.default_rng(0)
    cube = null_sampler("uniform-cube-3")(100, rng)
    assert cube.shape == (100, 3)
    assert np.all((cube >= 0) & (cube <= 1))
    sph = null_sampler("uniform-sphere-4")(100, rng)
    assert sph.shape == (100, 4)
    assert np.allclose(np.linalg.norm(sph, axis=1), 1.0)
    with pytest.raises(ValueError):
        null_sampler("lebesgue-line")


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="weights"):
        AlternativeSpec("gaussian-mixture", 2,
                        {"weights": [0.5, 0.6], "means": [[0.5, 0.5], [0.4, 0.4]]})
    with pytest.raises(ValueError, match="unit"):
        AlternativeSpec("vmf", 3, {"mu": [1.0, 1.0, 0.0], "kappa": 1.0})
    with pytest.raises(ValueError, match="kappa"):
        AlternativeSpec("watson", 3, {"mu": [0.0, 0.0, 1.0], "kappa": -1.0})
    basis = cosine_basis(4)
    with pytest.raises(ValueError, match="sup-norm"):
        AlternativeSpec("spectral", 1, {"basis": basis, "coefficients": [0.8]})
    with pytest.raises(ValueError, match="uniform_weight"):
        AlternativeSpec("gaussian-mixture", 1,
                        {"weights": [1.0], "means": [[0.5]], "uniform_weight": 1.0})


# ---------------------------------------------------------------------------
# samplers


def test_vmf_kappa_zero_is_uniform():
    spec = AlternativeSpec("vmf", 3, {"mu": [0.0, 0.0, 1.0], "kappa": 0.0})
    x = sample(spec, 10 ** 4, seed=0)
    resultant = np.linalg.norm(x.mean(axis=0))
    assert resultant <= 3.0 / math.sqrt(10 ** 4)


def test_spectral_acceptance_rate():
    # envelope for a=(0.3) on the cosine basis is 1 + 0.3 sqrt(2); the mean
    # acceptance probability over uniform proposals is its reciprocal
    basis = cosine_basis(8)
    spec = AlternativeSpec("spectral", 1,
                           {"basis": basis, "coefficients": [0.3]})
    rng = np.random.default_rng(1)
    proposals = rng.random((10 ** 5, 1))
    envelope = 1.0 + 0.3 * math.sqrt(2.0)
    accept = np.mean(density(spec, proposals) / envelope)
    assert accept == pytest.approx(1.0 / envelope, abs=0.01)


def test_gaussian_mixture_single_component_moments():
    spec = AlternativeSpec("gaussian-mixture", 1,
                           {"weights": [1.0], "means": [[0.5]], "scale": 0.05})
    x = sample(spec, 20000, seed=2)[:, 0]
    assert abs(x.mean() - 0.5) < 3 * 0.05 / math.sqrt(20000)
    assert abs(x.std() - 0.05) < 0.005


def test_sample_deterministic():
    spec = make_gaussian_mixture_spec(2, seed=3)
    assert np.array_equal(sample(spec, 50, seed=7), sample(spec, 50, seed=7))


def test_watson_antipodal_sampling():
    spec = AlternativeSpec("watson", 3, {"mu": [0.0, 0.0, 1.0], "kappa": 2.0})
    x = sample(spec, 20000, seed=4)
    t = x[:, 2]
    # axial symmetry: distribution of t symmetric about 0
    assert abs(t.mean()) < 4.0 / math.sqrt(20000)
    # second moment against 1-D quadrature of the density in t
    u = np.linspace(-1, 1, 20001)
    w = watson_const(3, 2.0) * np.exp(2.0 * u ** 2) * 2 * math.pi
    expected = np.trapezoid(w * u ** 2, u)
    assert abs(np.mean(t ** 2) - expected) < 0.01


def test_marron_wand_product_sampler_in_cube():
    spec = AlternativeSpec("marron-wand:smooth-comb", 3, {})
    x = sample(spec, 500, seed=5)
    assert x.shape == (500, 3)
    assert np.all((x >= 0) & (x <= 1))


# ---------------------------------------------------------------------------
# densities


def test_vmf_mode_density():
    spec = AlternativeSpec("vmf", 3, {"mu": [0.0, 0.0, 1.0], "kappa": 1.0})
    val = density(spec, np.array([[0.0, 0.0, 1.0]]))[0]
    assert val == pytest.approx(math.e / (4.0 * math.pi * math.sinh(1.0)),
                                abs=1e-6)
    assert val == pytest.approx(0.18406, abs=1e-4)


def test_watson_kappa_zero_density():
    spec = AlternativeSpec("watson", 3, {"mu": [0.0, 0.0, 1.0], "kappa": 0.0})
    x = uniform_sphere(5, 3, np.random.default_rng(0))
    assert np.allclose(density(spec, x), 1.0 / (4.0 * math.pi))


def test_watson_antipodal_density():
    spec = AlternativeSpec("watson", 3, {"mu": [0.0, 0.0, 1.0], "kappa": 2.0})
    x = uniform_sphere(20, 3, np.random.default_rng(1))
    assert np.array_equal(density(spec, x), density(spec, -x))


def test_vmf_normalization_integral():
    # surface-measure MC integral of the density over the sphere
    spec = AlternativeSpec("vmf", 3, {"mu": [0.0, 0.0, 1.0], "kappa": 1.0})
    x = uniform_sphere(400000, 3, np.random.default_rng(2))
    integral = sphere_surface_area(3) * density(spec, x).mean()
    assert integral == pytest.approx(1.0, abs=0.01)


def test_watson_normalization_integral():
    for kappa in (0.0, 2.0):
        spec = AlternativeSpec("watson", 3, {"mu": [0.0, 0.0, 1.0],
                                             "kappa": kappa})
        x = uniform_sphere(400000, 3, np.random.default_rng(3))
        integral = sphere_surface_area(3) * density(spec, x).mean()
        assert integral == pytest.approx(1.0, abs=0.01)


def test_marron_wand_densities_integrate_to_one():
    y, w = np.polynomial.legendre.leggauss(256)
    y = ((y + 1.0) / 2.0)[:, None]
    w = w / 2.0
    for name in ("skewed-unimodal", "asymmetric-claw", "smooth-comb"):
        spec = AlternativeSpec("marron-wand:%s" % name, 1, {})
        assert float(w @ density(spec, y)) == pytest.approx(1.0, abs=1e-6)


def test_mw_sampler_density_agreement():
    # empirical means of fixed test functions vs quadrature means
    spec = AlternativeSpec("marron-wand:asymmetric-claw", 1, {})
    n = 100000
    x = sample(spec, n, seed=6)[:, 0]
    y, w = np.polynomial.legendre.leggauss(512)
    y = (y + 1.0) / 2.0
    w = w / 2.0
    dens = density(spec, y[:, None])
    tests = [lambda t: t, lambda t: t ** 2, np.sin,
             lambda t: np.cos(3 * t), lambda t: np.exp(-t)]
    for f in tests:
        target = float(np.sum(w * dens * f(y)))
        second = float(np.sum(w * dens * f(y) ** 2))
        se = math.sqrt(max(second - target ** 2, 0.0) / n)
        assert abs(x_mean := float(np.mean(f(x))) - target) < 4 * se + 1e-12, \
            (f, x_mean, target)


def test_gaussian_mixture_density_integrates_with_contamination():
    spec = make_gaussian_mixture_spec(1, seed=7, uniform_weight=0.5)
    y, w = np.polynomial.legendre.leggauss(512)
    y = ((y + 1.0) / 2.0)[:, None]
    w = w / 2.0
    assert float(w @ density(spec, y)) == pytest.approx(1.0, abs=1e-6)


def test_spectral_moment_identity():
    basis = cosine_basis(8)
    a = [0.2, -0.1]
    spec = AlternativeSpec("spectral", 1, {"basis": basis, "coefficients": a})
    x = sample(spec, 10 ** 5, seed=8)
    feats = basis.features(x)
    for k, ak in enumerate(a):
        bound = 4.0 / math.sqrt(10 ** 5) * math.sqrt(2.0)
        assert abs(feats[:, k].mean() - ak) < bound


# ---------------------------------------------------------------------------
# chi-square divergence


def test_chi2_spectral_parseval():
    basis = cosine_basis(8)
    one = AlternativeSpec("spectral", 1, {"basis": basis, "coefficients": [0.3]})
    assert chi_square_divergence(one) == pytest.approx(0.09)
    two = AlternativeSpec("spectral", 1,
                          {"basis": basis, "coefficients": [0.3, 0.4]})
    assert chi_square_divergence(two) == pytest.approx(0.25)
    assert chi_square_divergence_quadrature(two, basis) == \
        pytest.approx(0.25, abs=1e-6)


def test_chi2_quadrature_refuses_a_ten_dimensional_spectral_spec():
    # uniform-cube-10 starts with uniform-cube-1
    basis = tensor_product_basis(cosine_basis(4), 10, 20)
    spec = AlternativeSpec("spectral", 10, {"basis": basis, "coefficients": [0.1]})
    with pytest.raises(ValueError, match="1-D spectral specs only"):
        chi_square_divergence_quadrature(spec, basis)


def test_chi2_null_is_zero():
    assert chi_square_divergence(AlternativeSpec("uniform-cube", 2, {})) == 0.0
    assert chi_square_divergence(AlternativeSpec("uniform-sphere", 3, {})) == 0.0


def test_chi2_vmf_closed_form_vs_quadrature():
    kappa, d = 1.5, 3
    spec = AlternativeSpec("vmf", d, {"mu": [0.0, 0.0, 1.0], "kappa": kappa})
    closed = chi_square_divergence(spec)
    # chi^2 = omega int f^2 dsigma - 1; for d=3 the surface element in
    # t = <mu, x> is 2 pi dt
    t = np.linspace(-1, 1, 200001)
    c = math.exp(vmf_log_const(d, kappa))
    f = c * np.exp(kappa * t)
    quad = sphere_surface_area(d) * 2.0 * math.pi * np.trapezoid(f * f, t) - 1.0
    assert closed == pytest.approx(quad, abs=1e-4)


def test_chi2_mw_product_power():
    spec1 = AlternativeSpec("marron-wand:skewed-unimodal", 1, {})
    spec3 = AlternativeSpec("marron-wand:skewed-unimodal", 3, {})
    one = chi_square_divergence(spec1)
    three = chi_square_divergence(spec3)
    assert three == pytest.approx((one + 1.0) ** 3 - 1.0, rel=1e-10)


def test_chi2_contamination_scaling():
    base = make_gaussian_mixture_spec(1, seed=9)
    mixed = make_gaussian_mixture_spec(1, seed=9, uniform_weight=0.5)
    assert chi_square_divergence(mixed) == \
        pytest.approx(0.25 * chi_square_divergence(base), rel=1e-10)


def test_chi2_no_quadrature_path():
    spec = AlternativeSpec(
        "sphere-mixture", 3,
        {"components": [{"type": "vmf", "weight": 1.0,
                         "mu": [0.0, 0.0, 1.0], "kappa": 1.0}]})
    with pytest.raises(ValueError, match="quadrature"):
        chi_square_divergence(spec)


# ---------------------------------------------------------------------------
# interpolation diagnostics


def test_interpolation_single_coefficient():
    diag = interpolation_radius([1.0], [0.101321], 1.0)
    assert diag.m_literal == pytest.approx(1.0 / 0.101321, rel=1e-6)
    assert diag.m_literal == pytest.approx(9.870, abs=2e-3)


def test_interpolation_zero_coefficients():
    diag = interpolation_radius([0.0, 0.0], [0.5, 0.25], 1.0)
    assert diag.m_literal == 0.0
    assert diag.m_proof == 0.0


def test_interpolation_rescaling_law():
    lam = 1.0 / (np.arange(1, 9) * math.pi) ** 2
    a = np.array([0.3, 0.1, 0.05, 0.02, 0.0, 0.0, 0.0, 0.0])
    theta = 2.0
    base = interpolation_radius(a, lam, theta)
    for c in (0.5, 2.0):
        scaled = interpolation_radius(c * a, lam, theta)
        # brute force: LHS scales by c^{2 + 4/theta}, so M by c^{1 + 2/theta}
        assert scaled.m_literal == pytest.approx(
            c ** (1.0 + 2.0 / theta) * base.m_literal, rel=1e-10)


def test_interpolation_truncation_monotone():
    lam = 1.0 / (np.arange(1, 7) * math.pi) ** 2
    a = np.array([0.3, 0.2, 0.1, 0.05, 0.02, 0.01])
    full = interpolation_radius(a, lam, 1.0)
    trunc = interpolation_radius(a[:3], lam, 1.0)
    assert trunc.m_literal <= full.m_literal + 1e-12


def test_interpolation_validation():
    with pytest.raises(ValueError):
        interpolation_radius([0.1, 0.2], [0.5], 1.0)
    with pytest.raises(ValueError):
        interpolation_radius([0.1], [0.5], 0.0)


# ---------------------------------------------------------------------------
# least-favorable construction


def test_least_favorable_multi():
    basis = cosine_basis(64)
    spec = least_favorable(basis, 1000, 1.0, 0.0, 0.01, seed=0)
    coeffs = spec.params["coefficients"]
    assert coeffs.size == 10
    assert np.allclose(np.abs(coeffs), math.sqrt(0.001))
    assert chi_square_divergence(spec) == pytest.approx(0.01, rel=1e-12)


def test_least_favorable_single_frequency():
    basis = cosine_basis(64)
    spec = least_favorable(basis, 10 ** 4, 1.0, 0.0, 0.01, seed=0, mode="single")
    coeffs = spec.params["coefficients"]
    assert coeffs.size == 10
    assert coeffs[9] == pytest.approx(math.sqrt(0.01))
    assert np.count_nonzero(coeffs) == 1


def test_least_favorable_positivity_guard():
    basis = cosine_basis(64)
    with pytest.raises(ValueError):
        least_favorable(basis, 1000, 1.0, 0.0, 5.0, seed=0)


# ---------------------------------------------------------------------------
# serialization


def test_spec_config_roundtrip():
    spec = make_gaussian_mixture_spec(2, seed=11, uniform_weight=0.3)
    cfg = spec_to_config(spec)
    back = spec_from_config(cfg)
    assert back.family == spec.family and back.dim == spec.dim
    assert np.allclose(back.params["means"], spec.params["means"])
    assert back.params["uniform_weight"] == pytest.approx(0.3)


def test_alt_from_flag():
    spec = alt_from_flag("vmf:dim=3,mu=0;0;1,kappa=2")
    assert spec.family == "vmf" and spec.dim == 3
    assert spec.params["kappa"] == 2.0
    mw = alt_from_flag("marron-wand:smooth-comb:dim=5")
    assert mw.family == "marron-wand:smooth-comb" and mw.dim == 5
    with pytest.raises(ValueError, match="dim"):
        alt_from_flag("vmf:kappa=2")
    with pytest.raises(ValueError, match="key=val"):
        alt_from_flag("vmf:dim=3,oops")
