"""Tests for null/alternative samplers and densities."""
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import special

from gofkit import dists
from gofkit.dists import (
    AlternativeSpec,
    density,
    least_favorable,
    make_gaussian_mixture_spec,
    null_sampler,
    sample,
    sample_vmf,
    sample_watson,
    spec_from_config,
    uniform_sphere,
    vmf_log_const,
    watson_log_const,
)
from gofkit.spectrum import cosine_basis, gauss_legendre_01, sphere_surface_area


def _chi2_quadrature(spec: AlternativeSpec, nodes: int = 256) -> float:
    """chi^2 of an alternative on [0,1] against the uniform, by Gauss-Legendre
    quadrature of its density."""
    y, w = np.polynomial.legendre.leggauss(nodes)
    dens = density(spec, ((y + 1.0) / 2.0)[:, None])
    return float(np.sum(w / 2.0 * dens * dens)) - 1.0


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
    # sphere-mixture components are checked like vmf and watson specs
    ok = {"type": "vmf", "weight": 0.5, "mu": [1.0, 0.0, 0.0], "kappa": 1.0}
    for bad, match in [
        ({"type": "vmf", "mu": [0.0, 0.0, 1.0], "kappa": -5.0}, "kappa"),
        ({"type": "watson", "mu": [0.0, 1.0], "kappa": 1.0}, "dimension"),
        ({"type": "vmf", "mu": [0.0, 0.5, 0.5], "kappa": 1.0}, "unit"),
        ({"type": "bingham", "mu": [0.0, 0.0, 1.0], "kappa": 1.0}, "component type"),
    ]:
        with pytest.raises(ValueError, match=match):
            AlternativeSpec("sphere-mixture", 3,
                            {"components": [ok, dict(bad, weight=0.5)]})


# ---------------------------------------------------------------------------
# samplers


def test_accepted_keeps_the_first_n_candidates_in_draw_order():
    batches = iter([np.arange(3), np.arange(0), np.arange(3, 10)])
    asked = []

    def propose(left):
        asked.append(left)
        return next(batches)

    assert dists._accepted(5, propose).tolist() == [0, 1, 2, 3, 4]
    assert asked == [5, 2, 2]
    assert dists._accepted(0, propose).shape == (0,)


def test_spherical_samplers_accept_n_zero():
    rng = np.random.default_rng(0)
    for d in (3, 5):
        mu = np.eye(d)[-1]
        assert sample_vmf(mu, 2.0, 0, rng).shape == (0, d)
        assert sample_watson(mu, 2.0, 0, rng).shape == (0, d)


def _mean_z(values, want):
    """(mean - want) in standard errors of the mean."""
    return (values.mean() - want) / (values.std(ddof=1) / math.sqrt(values.size))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("d, kappa", [(3, 0.5), (3, 5.0), (5, 50.0), (2, 2.0)])
def test_vmf_sampler_mean_resultant(d, kappa, seed):
    # E<x, mu> = A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa); (2, 2) takes the
    # exact tangent direction of d = 2
    mu = np.ones(d) / math.sqrt(d)
    x = sample_vmf(mu, kappa, 20000, np.random.default_rng(seed))
    assert np.abs(np.linalg.norm(x, axis=1) - 1.0).max() <= 1e-12
    want = special.ive(d / 2.0, kappa) / special.ive(d / 2.0 - 1.0, kappa)
    assert abs(_mean_z(x @ mu, want)) <= 4.0


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("d, kappa", [(5, 0.5), (3, 2.0), (6, 4.0), (2, 2.0)])
def test_watson_sampler_second_moment(d, kappa, seed):
    # E<x, mu>^2 = (1/d) M(3/2, d/2+1, kappa) / M(1/2, d/2, kappa); (5, 0.5) takes
    # the envelope for small kappa, (3, 2) the one for d = 3, (2, 2) the
    # t = cos(theta) proposal and the exact tangent direction of d = 2
    mu = np.ones(d) / math.sqrt(d)
    x = sample_watson(mu, kappa, 20000, np.random.default_rng(seed))
    assert np.abs(np.linalg.norm(x, axis=1) - 1.0).max() <= 1e-12
    want = special.hyp1f1(1.5, d / 2.0 + 1.0, kappa) / special.hyp1f1(0.5, d / 2.0, kappa)
    assert abs(_mean_z((x @ mu) ** 2, want / d)) <= 4.0


def test_spectral_sampler_draws_proposals_through_null_sampler(monkeypatch):
    # looked up at call time, so a wrapper (e.g. a row counter) sees every batch
    rows = []
    original = dists.null_sampler

    def counting(null_id):
        draw = original(null_id)
        return lambda m, rng: rows.append(m) or draw(m, rng)

    monkeypatch.setattr(dists, "null_sampler", counting)
    spec = least_favorable(cosine_basis(64), 1000, 1.0, 0.0, 0.01, seed=0)
    assert sample(spec, 100, seed=1).shape == (100, 1)
    assert rows and rows[0] == 200


def test_sphere_mixture_draws_each_component_from_one_stream():
    mu, kappa = np.array([0.0, 0.0, 1.0]), 3.0
    spec = AlternativeSpec("sphere-mixture", 3, {"components": [
        {"type": "watson", "weight": 1.0, "mu": mu.tolist(), "kappa": kappa}]})
    rng = np.random.default_rng(4)
    rng.choice(1, size=50, p=[1.0])
    assert np.array_equal(sample(spec, 50, seed=4), sample_watson(mu, kappa, 50, rng))


@pytest.mark.parametrize("family", ["vmf", "watson", "sphere-mixture"])
def test_sphere_families_refuse_dimension_one(family):
    # S^0 is two points: the radial samplers would take a log or a root of
    # 1 - t^2 = 0 there, and the densities' constants are undefined
    params = {"mu": [1.0], "kappa": 2.0}
    if family == "sphere-mixture":
        params = {"components": [dict(params, type="vmf", weight=1.0)]}
    with pytest.raises(ValueError, match="needs dimension d >= 2, got dimension 1"):
        AlternativeSpec(family, 1, params)


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
    w = math.exp(watson_log_const(3, 2.0)) * np.exp(2.0 * u ** 2) * 2 * math.pi
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


@pytest.mark.parametrize("d", [3, 4, 5, 6, 10, 20, 50, 100])
def test_spherical_constants_match_scipy(d):
    # scipy is the tests' reference only: the package sums Kummer's series itself
    for kappa in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0, 500.0):
        log_area = math.log(sphere_surface_area(d))
        if kappa == 0.0:
            vmf = -log_area
        else:  # ive(nu, k) = I_nu(k) e^-k
            nu = d / 2.0 - 1.0
            vmf = (nu * math.log(kappa) - d / 2.0 * math.log(2.0 * math.pi)
                   - math.log(special.ive(nu, kappa)) - kappa)
        watson = -log_area - math.log(special.hyp1f1(0.5, d / 2.0, kappa))
        assert abs(math.expm1(vmf_log_const(d, kappa) - vmf)) < 2e-12, kappa
        assert abs(math.expm1(watson_log_const(d, kappa) - watson)) < 2e-12, kappa


@pytest.mark.parametrize("family", ["watson", "vmf"])
def test_concentrated_densities_integrate_to_one(family):
    # at kappa = 800, M(1/2, 3/2, kappa) overflows a float; the density is
    # integrated over t = x . mu on S^2, where d sigma = 2 pi dt
    rule = gauss_legendre_01(4000)
    t, w = 2.0 * rule.nodes - 1.0, 2.0 * rule.weights
    x = np.column_stack([np.sqrt(1.0 - t * t), np.zeros_like(t), t])
    spec = AlternativeSpec(family, 3, {"mu": [0.0, 0.0, 1.0], "kappa": 800.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integral = 2.0 * math.pi * float(w @ density(spec, x))
    assert abs(integral - 1.0) < 1e-9


def test_densities_need_no_scipy():
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from gofkit import bench, dists\n"
            "for d in (3, 5):\n"
            "    mu = [0.0] * (d - 1) + [1.0]\n"
            "    x = dists.uniform_sphere(10, d, np.random.default_rng(0))\n"
            "    parts = [{'type': t, 'weight': 0.5, 'mu': mu, 'kappa': 4.0}\n"
            "             for t in ('vmf', 'watson')]\n"
            "    for family, params in (('vmf', {'mu': mu, 'kappa': 4.0}),\n"
            "                           ('watson', {'mu': mu, 'kappa': 4.0}),\n"
            "                           ('sphere-mixture', {'components': parts})):\n"
            "        f = dists.density(dists.AlternativeSpec(family, d, params), x)\n"
            "        assert np.all(np.isfinite(f) & (f > 0)), family\n")
    src = os.path.dirname(os.path.dirname(dists.__file__))
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                   check=True)


def test_marron_wand_densities_integrate_to_one():
    y, w = np.polynomial.legendre.leggauss(256)
    y = ((y + 1.0) / 2.0)[:, None]
    w = w / 2.0
    for name in ("skewed-unimodal", "asymmetric-claw", "smooth-comb"):
        spec = AlternativeSpec("marron-wand:%s" % name, 1, {})
        assert float(w @ density(spec, y)) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("family", ["marron-wand:skewed-unimodal", "uniform-cube"])
def test_density_reads_a_1d_array_as_a_column_of_points(family):
    spec, y = AlternativeSpec(family, 1, {}), np.array([0.1, 0.5, 0.9])
    assert np.array_equal(density(spec, y), density(spec, y[:, None]))
    assert density(spec, y).shape == (3,)
    with pytest.raises(ValueError, match="2-dimensional density needs points with 2 "
                                         "coordinates, got 1"):
        density(AlternativeSpec(family, 2, {}), y)


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


def _edge_mixture():
    # the first component sits on the cube's face, so the box cuts half of it
    return AlternativeSpec("gaussian-mixture", 1,
                           {"weights": [0.5, 0.5], "means": [[0.0], [0.5]],
                            "scale": 0.05})


def test_gaussian_mixture_density_matches_the_sampler_at_the_edge():
    spec, n = _edge_mixture(), 200_000
    frac = float(np.mean(sample(spec, n, seed=12)[:, 0] < 0.25))
    y, w = np.polynomial.legendre.leggauss(256)
    mass = float(np.sum(w / 8.0 * density(spec, ((y + 1.0) / 8.0)[:, None])))
    assert mass == pytest.approx(1.0 / 3.0, abs=1e-6)  # 0.25 / (0.25 + 0.5)
    assert abs(frac - mass) < 4.0 * math.sqrt(mass * (1.0 - mass) / n)


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
# chi-square separation


def test_chi2_spectral_parseval():
    basis = cosine_basis(8)
    one = AlternativeSpec("spectral", 1, {"basis": basis, "coefficients": [0.3]})
    assert _chi2_quadrature(one) == pytest.approx(0.09, abs=1e-6)
    two = AlternativeSpec("spectral", 1,
                          {"basis": basis, "coefficients": [0.3, 0.4]})
    assert _chi2_quadrature(two) == pytest.approx(0.25, abs=1e-6)


# ---------------------------------------------------------------------------
# least-favorable construction


def test_least_favorable_multi():
    basis = cosine_basis(64)
    spec = least_favorable(basis, 1000, 1.0, 0.0, 0.01, seed=0)
    coeffs = spec.params["coefficients"]
    assert coeffs.size == 10
    assert np.allclose(np.abs(coeffs), math.sqrt(0.001))
    assert float(np.sum(coeffs ** 2)) == pytest.approx(0.01, rel=1e-12)  # Parseval


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
    cfg = {"family": spec.family, "dim": spec.dim,
           **{k: np.asarray(v).tolist() for k, v in spec.params.items()}}
    back = spec_from_config(cfg)
    assert back.family == spec.family and back.dim == spec.dim
    assert np.allclose(back.params["means"], spec.params["means"])
    assert back.params["uniform_weight"] == pytest.approx(0.3)
