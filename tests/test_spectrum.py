"""Tests for the spectral decomposition machinery."""
import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from gofkit import cli, spectrum
from gofkit.embedding import statistic
from gofkit.spectrum import (
    DecompositionError,
    ModeratedSpectrum,
    NystromBasis,
    Quadrature,
    SpectralBasis,
    SphereZonalBasis,
    _SUMMARY_BLOCK,
    _ZONAL_BLOCK,
    cosine_basis,
    effective_variance,
    estimate_decay_exponent,
    gauss_legendre_01,
    harmonic_dimension,
    load_spectrum,
    moderate,
    moderated_eval,
    nystrom_decompose,
    parse_null_id,
    save_spectrum,
    sphere_zonal_spectrum,
    tensor_product_basis,
)
from gofkit.kernels import (
    as_points,
    constant_kernel,
    cosine_features,
    cosine_reference_kernel,
    gaussian_kernel,
    gaussian_sphere_profile,
    linear_kernel,
    resolve_kernel,
    zonal_profile,
)


def test_quadrature_weights_sum_to_one():
    q = gauss_legendre_01(64)
    assert abs(q.weights.sum() - 1.0) < 1e-12
    assert np.all(q.weights >= 0)
    assert q.nodes.shape == (64, 1)


def test_quadrature_rejects_bad_weights():
    with pytest.raises(ValueError):
        Quadrature(np.array([[0.1], [0.9]]), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        Quadrature(np.array([[0.1], [0.9]]), np.array([1.5, -0.5]))


# ---------------------------------------------------------------------------
# Nystrom decomposition


def test_nystrom_cosine_eigenvalues_close_to_closed_form():
    quad = gauss_legendre_01(512)
    basis = nystrom_decompose(cosine_reference_kernel(200), quad, 5)
    expected = np.array([1.0 / (k * math.pi) ** 2 for k in range(1, 6)])
    assert np.all(np.abs(basis.eigenvalues - expected) / expected < 0.01)


def test_nystrom_orthonormal_under_quadrature():
    quad = gauss_legendre_01(512)
    basis = nystrom_decompose(cosine_reference_kernel(200), quad, 12)
    phi = basis.phi_nodes
    gram = (phi * quad.weights[:, None]).T @ phi
    assert np.abs(gram - np.eye(12)).max() < 1e-6


def test_nystrom_rank_one_kernel():
    quad = gauss_legendre_01(32)
    basis = nystrom_decompose(constant_kernel, quad, 1)
    assert abs(basis.eigenvalues[0] - 1.0) < 1e-12
    assert np.allclose(basis.features(np.array([[0.3], [0.9]])), 1.0)


def test_nystrom_rank_deficiency_raises():
    quad = gauss_legendre_01(32)
    with pytest.raises(DecompositionError, match="numeric floor"):
        nystrom_decompose(constant_kernel, quad, 2)


def test_nystrom_rejects_asymmetric_kernel():
    quad = gauss_legendre_01(16)

    def bad(X, Y):
        return np.asarray(X)[:, :1] + 2.0 * np.asarray(Y)[:, :1].T

    with pytest.raises(ValueError, match="symmetric"):
        nystrom_decompose(bad, quad, 2)


def test_nystrom_extension_matches_nodes():
    quad = gauss_legendre_01(256)
    basis = nystrom_decompose(cosine_reference_kernel(200), quad, 6)
    # off-node evaluation should track sqrt(2) cos(k pi x) up to sign-fixed form
    x = np.linspace(0.05, 0.95, 19)[:, None]
    feats = basis.features(x)
    for k in range(1, 7):
        target = math.sqrt(2.0) * np.cos(k * math.pi * x[:, 0])
        err = min(np.abs(feats[:, k - 1] - target).max(),
                  np.abs(feats[:, k - 1] + target).max())
        assert err < 1e-6


def test_nystrom_sign_deterministic():
    quad = gauss_legendre_01(128)
    b1 = nystrom_decompose(cosine_reference_kernel(100), quad, 5)
    b2 = nystrom_decompose(cosine_reference_kernel(100), quad, 5)
    assert np.array_equal(b1.phi_nodes, b2.phi_nodes)


# ---------------------------------------------------------------------------
# centering


def center_kernel(kernel, quad):
    """Reference centering, K(x,y) - E K(x,.) - E K(.,y) + E E K under
    ``quad``, with two kernel calls per evaluation."""
    nodes, w = quad.nodes, quad.weights
    grand = float(w @ np.asarray(kernel(nodes, nodes), dtype=float) @ w)

    def row_mean(X):
        return np.asarray(kernel(as_points(X), nodes), dtype=float) @ w

    def centered(X, Y):
        base = np.asarray(kernel(as_points(X), as_points(Y)), dtype=float)
        return base - row_mean(X)[:, None] - row_mean(Y)[None, :] + grand

    return centered


def test_center_constant_kernel_is_zero():
    quad = gauss_legendre_01(64)
    centered = center_kernel(constant_kernel, quad)
    vals = centered(quad.nodes[:5], quad.nodes[:5])
    assert np.abs(vals).max() < 1e-12


def test_center_linear_kernel():
    quad = gauss_legendre_01(128)
    centered = center_kernel(linear_kernel, quad)
    x = np.array([[0.1], [0.4], [0.9]])
    y = np.array([[0.2], [0.7]])
    expected = (x - 0.5) @ (y - 0.5).T
    assert np.abs(centered(x, y) - expected).max() < 1e-10


def test_center_degenerate_kernel_unchanged():
    quad = gauss_legendre_01(256)
    kernel = cosine_reference_kernel(50)
    centered = center_kernel(kernel, quad)
    pts = quad.nodes[::32]
    assert np.abs(centered(pts, pts) - kernel(pts, pts)).max() < 1e-10


def test_center_row_means_vanish():
    quad = gauss_legendre_01(128)

    def gauss(X, Y):
        return np.exp(-np.abs(np.asarray(X)[:, :1] - np.asarray(Y)[:, :1].T) ** 2)

    centered = center_kernel(gauss, quad)
    rows = centered(quad.nodes, quad.nodes) @ quad.weights
    assert np.abs(rows).max() < 1e-10


# ---------------------------------------------------------------------------
# truncated / moderated evaluation


def _eval_truncated(basis, x, y) -> float:
    """Sum_{k<=K} lambda_k phi_k(x) phi_k(y) at one pair of points."""
    return float(basis.kernel_matrix(x, y)[0, 0])


def test_eval_truncated_rank_one():
    basis = SpectralBasis([1.0], lambda X: np.ones((np.atleast_2d(X).shape[0], 1)),
                          null_id="uniform-cube-1")
    assert _eval_truncated(basis, 0.2, 0.9) == pytest.approx(1.0)


def test_eval_truncated_half_point():
    basis = cosine_basis(20000)
    # sum over even k of 2/(k pi)^2 = 1/12
    assert _eval_truncated(basis, 0.5, 0.5) == pytest.approx(1.0 / 12.0, abs=1e-4)


def test_eval_truncated_symmetry():
    basis = cosine_basis(50)
    assert _eval_truncated(basis, 0.12, 0.77) == _eval_truncated(basis, 0.77, 0.12)


def test_moderated_eval_coth_oracle():
    basis = cosine_basis(10 ** 6)
    ms = ModeratedSpectrum(basis, 0.1)
    target = 5.0 / math.tanh(5.0) - 1.0
    assert moderated_eval(ms, 0.5, 0.5) == pytest.approx(target, abs=1e-3)


def test_moderated_eval_limits():
    basis = cosine_basis(100)
    big = moderated_eval(ModeratedSpectrum(basis, 1e6), 0.3, 0.3)
    assert abs(big) < 1e-9
    x = np.array([[0.3]])
    proj = float(basis.features(x)[0] @ basis.features(x)[0])
    assert moderated_eval(ModeratedSpectrum(basis, 0.0), 0.3, 0.3) == \
        pytest.approx(proj, rel=1e-12)


def test_moderation_bounds():
    basis = cosine_basis(64)
    for rho in (0.01, 0.1, 1.0):
        lam = basis.eigenvalues
        mod = moderate(lam, rho)
        assert np.all(mod > 0) and np.all(mod < 1)
        assert np.all(np.diff(mod) <= 0)
        assert np.all(rho ** 2 * mod <= lam + 1e-15)
    # for fixed k, nonincreasing in rho
    m1 = moderate(basis.eigenvalues, 0.05)
    m2 = moderate(basis.eigenvalues, 0.1)
    assert np.all(m2 <= m1)


# ---------------------------------------------------------------------------
# tensor products


def _toy_factor(eigs):
    eigs = np.asarray(eigs, float)

    def feat(X):
        x = np.atleast_2d(np.asarray(X, float))[:, 0]
        k = np.arange(1, eigs.size + 1)
        return math.sqrt(2.0) * np.cos(np.outer(x, k) * math.pi)

    return SpectralBasis(eigs, feat, null_id="uniform-cube-1", degenerate=True,
                         decay_exponent=1.0,
                         sup_norms=np.full(eigs.size, math.sqrt(2.0)))


def test_tensor_d1_is_truncated_factor():
    factor = cosine_basis(10)
    t = tensor_product_basis(factor, 1, 6)
    assert np.array_equal(t.eigenvalues, factor.eigenvalues[:6])


def test_tensor_top_products_small_case():
    factor = _toy_factor([0.4, 0.1])
    t = tensor_product_basis(factor, 2, 4)
    assert np.allclose(t.eigenvalues, [0.4, 0.4, 0.16, 0.1])


def test_tensor_matches_exhaustive_enumeration():
    factor = _toy_factor([0.5, 0.2, 0.04])
    t = tensor_product_basis(factor, 3, 50)
    full = np.concatenate([[1.0], factor.eigenvalues])
    prods = sorted((a * b * c
                    for a in full for b in full for c in full), reverse=True)
    # drop the all-constant mode (eigenvalue 1), keep the top 50
    assert np.allclose(t.eigenvalues, prods[1:51])


def test_tensor_top_mode_is_single_factor():
    factor = _toy_factor([0.3, 0.1])
    t = tensor_product_basis(factor, 4, 3)
    assert t.eigenvalues[0] == pytest.approx(0.3)


def test_tensor_features_orthonormal_mc():
    factor = cosine_basis(4)
    t = tensor_product_basis(factor, 2, 8)
    rng = np.random.default_rng(1)
    X = rng.random((200000, 2))
    F = t.features(X)
    gram = F.T @ F / X.shape[0]
    assert np.abs(gram - np.eye(8)).max() < 0.03


# ---------------------------------------------------------------------------
# sphere spectra


def test_sphere_constant_profile():
    basis = sphere_zonal_spectrum(lambda t: np.ones_like(np.asarray(t, float)),
                                  3, 8, include_degree_zero=True)
    assert list(basis.degrees) == [0]
    assert basis.degree_eigenvalues[0] == pytest.approx(1.0, abs=1e-12)


def test_sphere_diagonal_is_multiplicity_weighted():
    g = gaussian_sphere_profile(1.0)
    basis = sphere_zonal_spectrum(g, 3, 10)
    x = np.array([[0.0, 0.0, 1.0]])
    diag = basis.kernel_matrix(x)[0, 0]
    mult = np.array([harmonic_dimension(3, k) for k in basis.degrees])
    assert diag == pytest.approx(float(np.sum(basis.degree_eigenvalues * mult)),
                                 rel=1e-12)


def test_sphere_gaussian_profile_reconstruction():
    g = gaussian_sphere_profile(1.0)
    basis = sphere_zonal_spectrum(g, 3, 10, include_degree_zero=True)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((100, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y = rng.standard_normal((100, 3))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    approx = np.array([basis.kernel_matrix(x[i:i + 1], y[i:i + 1])[0, 0]
                       for i in range(100)])
    exact = g(np.sum(x * y, axis=1))
    assert np.abs(approx - exact).max() < 1e-6


def test_sphere_addition_theorem_vs_spherical_harmonics():
    # degree-k block = N(3,k) P_k(<x,y>); compare with explicit harmonics
    g = gaussian_sphere_profile(1.0)
    basis = sphere_zonal_spectrum(g, 3, 6, include_degree_zero=True)
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((2, 3))
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    t = float(x @ y)

    def angles(v):
        theta = math.acos(np.clip(v[2], -1, 1))
        phi = math.atan2(v[1], v[0])
        return theta, phi

    tx, px = angles(x)
    ty, py = angles(y)
    for k, lam in zip(basis.degrees, basis.degree_eigenvalues):
        block = 0.0
        for m in range(-k, k + 1):
            ya = special.sph_harm_y(k, m, tx, px)
            yb = special.sph_harm_y(k, m, ty, py)
            block += (ya * np.conj(yb)).real
        # harmonics above are normalized on the unit sphere measure; ours are
        # orthonormal under the uniform probability measure (factor 4 pi)
        expected = 4.0 * math.pi * block
        ours = harmonic_dimension(3, k) * special.eval_legendre(k, t)
        assert abs(ours - expected) < 1e-8
        assert lam > 0


def test_sphere_requires_d_at_least_3():
    with pytest.raises(ValueError):
        sphere_zonal_spectrum(lambda t: np.ones_like(t), 2, 4)


# ---------------------------------------------------------------------------
# zonal summary


def _sphere_points(n, d, seed, shift=0.4):
    g = np.random.default_rng(seed).standard_normal((n, d))
    g[:, 0] += shift
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _reference_mean_sq(basis, X):
    """Per-degree eval_gegenbauer sums over the full n x n Gram matrix."""
    n = X.shape[0]
    t = np.clip(X @ X.T, -1.0, 1.0)
    nu = (basis.d - 2) / 2.0
    return np.array([
        mult * np.sum(special.eval_gegenbauer(int(k), nu, t)
                      / special.eval_gegenbauer(int(k), nu, 1.0)) / (n * n)
        for k, mult in zip(basis.degrees, basis.multiplicities)])


def _zonal_bases(d):
    gaussian = sphere_zonal_spectrum(gaussian_sphere_profile(1.0), d, 20)
    gaps = SphereZonalBasis([0.5, 0.2, 0.1, 0.01], [1, 3, 4, 9], d)
    return gaussian, gaps


@pytest.mark.parametrize("d", [3, 4, 6])
@pytest.mark.parametrize("n", [1, _ZONAL_BLOCK - 1, _ZONAL_BLOCK, _ZONAL_BLOCK + 1,
                               2 * _ZONAL_BLOCK + 3])
def test_zonal_summary_matches_gegenbauer_reference(d, n):
    X = _sphere_points(n, d, seed=10 * d + n)
    for basis in _zonal_bases(d):
        s = basis.summary(X)
        assert np.allclose(s.mean_sq, _reference_mean_sq(basis, X), rtol=1e-10, atol=0)
        assert np.array_equal(s.group_eigenvalues, basis.degree_eigenvalues)
        assert np.array_equal(s.diag_mean, basis.multiplicities)


_SPHERE_BASES = {d: _zonal_bases(d) for d in (3, 4)}
_sphere_cases = st.tuples(st.sampled_from([3, 4]), st.integers(1, 2 * _ZONAL_BLOCK + 5),
                          st.integers(0, 2 ** 32 - 1), st.booleans())


@settings(max_examples=25, deadline=None)
@given(_sphere_cases)
def test_zonal_summary_permutation_invariant(case):
    d, n, seed, gaps = case
    basis = _SPHERE_BASES[d][gaps]
    X = _sphere_points(n, d, seed)
    perm = np.random.default_rng(seed + 1).permutation(n)
    assert np.allclose(basis.summary(X[perm]).mean_sq, basis.summary(X).mean_sq,
                       rtol=1e-10, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(_sphere_cases)
def test_zonal_summary_duplication_invariant(case):
    d, n, seed, gaps = case
    basis = _SPHERE_BASES[d][gaps]
    X = _sphere_points(n, d, seed)
    assert np.allclose(basis.summary(np.vstack([X, X])).mean_sq, basis.summary(X).mean_sq,
                       rtol=1e-10, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(_sphere_cases)
def test_zonal_gram_identity(case):
    d, n, seed, gaps = case
    basis = _SPHERE_BASES[d][gaps]
    X = _sphere_points(n, d, seed)
    gram = basis.kernel_matrix(X).sum() / (n * n)
    s = basis.summary(X)
    assert gram == pytest.approx(float(np.sum(s.group_eigenvalues * s.mean_sq)),
                                 rel=1e-10, abs=1e-13)


def test_zonal_summary_memory_is_linear_in_n():
    basis = _SPHERE_BASES[3][0]
    X = _sphere_points(4000, 3, seed=7, shift=0.0)
    tracemalloc.start()
    try:
        basis.summary(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one n x n Gram matrix alone would be 128 MB
    assert peak < 16e6


@pytest.mark.parametrize("bad, match", [
    (np.array([[0.6, 0.8, 0.0, 0.0]]), "columns"),
    (np.array([[0.0, 0.0, 1.0], [np.nan, 0.0, 1.0]]), "non-finite"),
    (np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0 + 1e-6]]), "unit sphere"),
])
def test_zonal_rejects_points_off_the_sphere(bad, match):
    basis = _SPHERE_BASES[3][0]
    for call in (basis.summary, basis.kernel_matrix):
        with pytest.raises(ValueError, match=match):
            call(bad)
    good = _sphere_points(3, 3, seed=0)
    with pytest.raises(ValueError, match=match):
        basis.kernel_matrix(good, bad)


def _cube_bases():
    cos = cosine_basis(16)
    quad = gauss_legendre_01(64)
    nys = nystrom_decompose(center_kernel(cosine_reference_kernel(), quad), quad, 8,
                            null_id="uniform-cube-1")
    return [(cos, 1), (nys, 1), (tensor_product_basis(cos, 3, 20), 3)]


@pytest.mark.parametrize("basis, d", _cube_bases())
def test_cube_bases_reject_points_outside_the_cube(basis, d):
    good = np.random.default_rng(0).random((5, d))
    bad_rows = [
        (np.full((5, d + 1), 0.5), "columns"),
        (np.where(np.arange(5)[:, None] == 2, np.nan, good), "non-finite"),
        (np.where(np.arange(5)[:, None] == 2, np.inf, good), "non-finite"),
        (np.where(np.arange(5)[:, None] == 2, 1.0 + 1e-6, good), "outside"),
        (np.where(np.arange(5)[:, None] == 2, -1e-6, good), "outside"),
    ]
    for bad, match in bad_rows:
        for call in (basis.summary, basis.features, basis.kernel_matrix):
            with pytest.raises(ValueError, match=match):
                call(bad)
    # the corners and round-off past them are inside
    edge = np.vstack([np.zeros(d), np.ones(d), np.full(d, 1.0 + 1e-12), np.full(d, -1e-12)])
    assert np.all(np.isfinite(basis.features(edge)))
    assert basis.features(np.empty((0, d))).shape == (0, basis.truncation)


def test_parse_null_id():
    assert parse_null_id("uniform-cube-5") == ("uniform-cube", 5)
    assert parse_null_id("uniform-sphere-3") == ("uniform-sphere", 3)
    for bad in ("", "uniform-cube", "uniform-cube-1^3", "gaussian-2", "uniform-cube-x"):
        with pytest.raises(ValueError, match="null id"):
            parse_null_id(bad)


@pytest.mark.parametrize("rows, match", [
    (np.array([[0.6, 0.8], [1.0, 0.0]]), "columns"),
    (np.array([[0.0, 0.0, 1.1], [0.0, 1.0, 0.0]]), "unit sphere"),
])
def test_cli_test_rejects_off_sphere_csv(tmp_path, capsys, rows, match):
    spec = tmp_path / "sph.spec"
    assert cli.main(["decompose", "--kernel", "gaussian-sphere:1.0", "--null",
                     "uniform-sphere-3", "--trunc", "8", "--nodes", "64",
                     "--out", str(spec), "--quiet"]) == 0
    data = tmp_path / "x.csv"
    np.savetxt(data, rows, delimiter=",")
    assert cli.main(["test", "--kind", "m3d", "--theta", "0", "--spectrum", str(spec),
                     "--data", str(data)]) == 1
    assert match in capsys.readouterr().err


# ---------------------------------------------------------------------------
# decay exponent


def test_decay_exponent_power_laws():
    k = np.arange(1, 65, dtype=float)
    assert estimate_decay_exponent(1.0 / (k * math.pi) ** 2) == \
        pytest.approx(1.0, abs=1e-3)
    assert estimate_decay_exponent(k ** -4.0) == pytest.approx(2.0, abs=1e-3)


def test_decay_exponent_super_polynomial_warns():
    k = np.arange(1, 33, dtype=float)
    with pytest.warns(UserWarning, match="super-polynomial"):
        s = estimate_decay_exponent(np.exp(-k))
    assert s > 3.0


def test_decay_exponent_input_validation():
    with pytest.raises(ValueError):
        estimate_decay_exponent([1.0, 0.5, 0.25])
    lam = np.ones(16)
    lam[12] = -1.0
    with pytest.raises(ValueError):
        estimate_decay_exponent(lam)


# ---------------------------------------------------------------------------
# effective variance


def test_effective_variance_single_eigenvalue():
    basis = SpectralBasis([1.0], lambda X: np.ones((np.atleast_2d(X).shape[0], 1)),
                          null_id="uniform-cube-1")
    assert effective_variance(ModeratedSpectrum(basis, 0.0)) == pytest.approx(1.0)


def test_effective_variance_monotone_in_rho():
    basis = cosine_basis(200)
    vals = [effective_variance(ModeratedSpectrum(basis, r))
            for r in (0.01, 0.05, 0.1, 0.5)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# spectrum files


def test_cache_roundtrip_nystrom(tmp_path):
    quad = gauss_legendre_01(128)
    basis = nystrom_decompose(cosine_reference_kernel(100), quad, 10,
                              null_id="uniform-cube-1", kernel_id="cosine-ref:100")
    path = tmp_path / "b.spec"
    save_spectrum(basis, path)
    loaded = load_spectrum(path)
    assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
    assert np.array_equal(loaded.phi_nodes, basis.phi_nodes)
    assert np.array_equal(loaded.quad.nodes, basis.quad.nodes)
    assert np.array_equal(loaded.quad.weights, basis.quad.weights)
    assert loaded.null_id == basis.null_id
    assert loaded.degenerate == basis.degenerate
    # stored arrays are bit-exact; off-node evaluation goes through a matmul
    # whose rounding may depend on buffer alignment, so compare to 1e-12
    x = np.array([[0.3], [0.8]])
    assert np.allclose(loaded.features(x), basis.features(x),
                       rtol=0.0, atol=1e-12)


def test_cache_roundtrip_zonal(tmp_path):
    basis = sphere_zonal_spectrum(gaussian_sphere_profile(1.0), 3, 8)
    path = tmp_path / "s.spec"
    save_spectrum(basis, path)
    loaded = load_spectrum(path)
    assert np.array_equal(loaded.degree_eigenvalues, basis.degree_eigenvalues)
    assert np.array_equal(loaded.degrees, basis.degrees)
    assert loaded.d == basis.d


def _cacheable_bases():
    quad = gauss_legendre_01(128)
    return {
        "nystrom": lambda: nystrom_decompose(gaussian_kernel(0.1), quad, 12,
                                             null_id="uniform-cube-1", kernel_id="gaussian:0.1"),
        "centered-nystrom": lambda: nystrom_decompose(
            cosine_reference_kernel(), quad, 16, null_id="uniform-cube-1",
            kernel_id="cosine-ref", center=True),
        "zonal": lambda: sphere_zonal_spectrum(gaussian_sphere_profile(1.0), 3, 8),
        "zonal-with-constant": lambda: sphere_zonal_spectrum(
            zonal_profile("constant"), 3, 0, include_degree_zero=True),
    }


@pytest.mark.parametrize("kind", sorted(_cacheable_bases()))
def test_cache_roundtrip_derives_the_same_fields(tmp_path, kind):
    basis = _cacheable_bases()[kind]()
    path = tmp_path / "b.spec"
    save_spectrum(basis, path)
    loaded = load_spectrum(path)
    assert loaded.degenerate == basis.degenerate == (kind not in ("nystrom",
                                                                  "zonal-with-constant"))
    assert np.array_equal(loaded.decay_exponent, basis.decay_exponent, equal_nan=True)
    assert (loaded.truncation >= 8) == np.isfinite(loaded.decay_exponent)
    if basis.sup_norms is None:
        assert loaded.sup_norms is None
    else:
        assert np.array_equal(loaded.sup_norms, basis.sup_norms)


def test_save_refuses_a_nystrom_basis_without_a_kernel_id(tmp_path):
    basis = nystrom_decompose(gaussian_kernel(0.3), gauss_legendre_01(64), 8,
                              null_id="uniform-cube-1")
    path = tmp_path / "g.spec"
    with pytest.raises(ValueError, match="kernel id"):
        save_spectrum(basis, path)
    assert not path.exists()


def test_centered_expansion_basis_builds_and_loads_without_a_kernel_call(tmp_path,
                                                                         monkeypatch):
    calls = []
    kernel = cosine_reference_kernel()

    @functools.wraps(kernel)
    def spy(X, Y):
        calls.append(1)
        return kernel(X, Y)

    basis = nystrom_decompose(kernel, gauss_legendre_01(512), 64,
                              null_id="uniform-cube-1", kernel_id="cosine-ref", center=True)
    built = NystromBasis(basis.eigenvalues, spy, basis.quad, basis.phi_nodes, center=True,
                         null_id=basis.null_id, kernel_id="cosine-ref")
    path = tmp_path / "c.spec"
    save_spectrum(basis, path)
    monkeypatch.setattr(spectrum, "resolve_kernel", lambda kernel_id: spy)
    loaded = load_spectrum(path)
    X = np.random.default_rng(5).random((300, 1))
    for other in (built, loaded):
        assert other.degenerate and other.decay_exponent == basis.decay_exponent
        assert _close_to(other.features(X), basis.features(X))
    assert calls == []


def test_basis_fits_its_own_decay_exponent():
    lam = 1.0 / (np.arange(1, 41) * math.pi) ** 2
    features = lambda X: cosine_features(X[:, 0], 40).T
    assert SpectralBasis(lam, features).decay_exponent == estimate_decay_exponent(lam)
    assert SpectralBasis(lam, features, decay_exponent=1.0).decay_exponent == 1.0
    assert math.isnan(SpectralBasis(lam[:7], features).decay_exponent)
    # super-polynomial decay is fitted without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SpectralBasis(np.exp(-np.arange(1.0, 21.0)), None).decay_exponent > 3.0


@pytest.mark.parametrize("bad", [[0.5, np.nan], [np.nan], [0.5, 0.0], [0.5, -0.1]])
def test_basis_rejects_eigenvalues_that_are_not_positive(bad):
    with pytest.raises(ValueError, match="positive"):
        SpectralBasis(np.array(bad), None)


def test_cache_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.spec"
    path.write_bytes(b"not a spectrum file")
    with pytest.raises(ValueError, match="GOFKIT-SPEC"):
        load_spectrum(path)


# ---------------------------------------------------------------------------
# named kernels


@pytest.mark.parametrize("kernel", [cosine_reference_kernel(), gaussian_kernel(0.5),
                                    linear_kernel, constant_kernel],
                         ids=["kernel0", "kernel1", "linear_kernel", "constant_kernel"])
def test_kernels_read_1d_input_as_a_column_of_points(kernel):
    x, y = np.array([0.1, 0.2]), np.array([0.3, 0.5, 0.9])
    got = kernel(x, y)
    assert got.shape == (2, 3)
    assert np.array_equal(got, kernel(x[:, None], y[:, None]))
    assert kernel(0.1, y).shape == (1, 3)


def test_cosine_reference_kernel_needs_a_term():
    for n_terms in (0, -3):
        with pytest.raises(ValueError, match="at least one term"):
            cosine_reference_kernel(n_terms)


# named finite-rank kernels in closed form, independent of their expansions
_CLOSED_FORM = {
    "cosine-ref": lambda X, Y: _np_cos_kernel(200)(X, Y),
    "cosine-ref:1": lambda X, Y: _np_cos_kernel(1)(X, Y),
    "cosine-ref:7": lambda X, Y: _np_cos_kernel(7)(X, Y),
    "linear": lambda X, Y: as_points(X) @ as_points(Y).T,
    "constant": lambda X, Y: np.ones((as_points(X).shape[0], as_points(Y).shape[0])),
}


@pytest.mark.parametrize("kernel_id", sorted(_CLOSED_FORM) + ["gaussian:0.3"])
def test_resolved_kernel_expansions_reproduce_the_kernel(kernel_id):
    kernel = resolve_kernel(kernel_id)
    expansion = getattr(kernel, "expansion", None)
    assert (expansion is None) == (kernel_id not in _CLOSED_FORM)
    rng = np.random.default_rng(len(kernel_id))
    X, Y = rng.random((9, 1)), rng.random((300, 1))
    got = kernel(X, Y)
    if expansion is not None:
        terms, weights = expansion
        fx, fy = terms(X), terms(Y)
        # term by term, as the sum that defines the kernel
        total = sum(w * np.outer(a, b) for w, a, b in
                    zip(np.broadcast_to(weights, fx.shape[:1]), fx, fy))
        assert np.abs(got - total).max() <= 1e-12 * max(np.abs(total).max(), 1.0)
        assert np.abs(got - _CLOSED_FORM[kernel_id](X, Y)).max() <= 1e-12
    if kernel_id == "linear":
        X3 = rng.random((4, 3))
        assert np.allclose(kernel(X3, X3), X3 @ X3.T, rtol=0, atol=1e-15)


def test_zonal_profile_ids():
    t = np.linspace(-1.0, 1.0, 7)
    assert np.array_equal(zonal_profile("gaussian-sphere:0.5")(t),
                          gaussian_sphere_profile(0.5)(t))
    assert np.array_equal(zonal_profile("constant")(t), np.ones(7))
    for bad in ("gaussian:0.5", "linear", "cosine-ref"):
        with pytest.raises(ValueError, match="zonal kernel"):
            zonal_profile(bad)


# ---------------------------------------------------------------------------
# eigenfunction layer: cosine recurrence, prefixes, row-block summaries


def _np_cos(x, K):
    """sqrt(2) cos(k pi x), k = 1..K, one np.cos per cell: an (n, K) array."""
    return math.sqrt(2.0) * np.cos(np.outer(x, np.arange(1, K + 1)) * math.pi)


def _np_cos_kernel(n_terms):
    lam = 1.0 / (np.arange(1, n_terms + 1) * math.pi) ** 2
    return lambda X, Y: (_np_cos(as_points(X)[:, 0], n_terms) * lam) @ _np_cos(
        as_points(Y)[:, 0], n_terms).T


def _nystrom_reference(basis, kernel):
    """Features of a Nystrom basis from the textbook extension with ``kernel``."""
    coef = basis.quad.weights[:, None] * basis.phi_nodes / basis.eigenvalues
    return lambda X: kernel(X, basis.quad.nodes) @ coef


def _tensor_reference(factor_K, idx):
    def features(X):
        out = np.ones((X.shape[0], idx.shape[0]))
        for j in range(idx.shape[1]):
            cols = np.hstack([np.ones((X.shape[0], 1)), _np_cos(X[:, j], factor_K)])
            out *= cols[:, idx[:, j]]
        return out
    return features


def _layer_cases():
    """(basis, d, reference feature map) for each explicit-feature basis kind."""
    quad = gauss_legendre_01(96)
    cos = cosine_basis(48)
    tensor = tensor_product_basis(cosine_basis(12), 3, 40)
    nys = nystrom_decompose(cosine_reference_kernel(60), quad, 10, null_id="uniform-cube-1")
    centered = nystrom_decompose(gaussian_kernel(0.2), quad, 8, null_id="uniform-cube-1",
                                 center=True)
    return {
        "cosine": (cos, 1, lambda X: _np_cos(X[:, 0], 48)),
        "tensor": (tensor, 3, _tensor_reference(12, tensor.meta["tensor_indices"])),
        "nystrom": (nys, 1, _nystrom_reference(nys, _np_cos_kernel(60))),
        "centered-nystrom": (centered, 1, _nystrom_reference(
            centered, center_kernel(gaussian_kernel(0.2), quad))),
    }


_LAYER = _layer_cases()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_LAYER)),
       st.sampled_from([1, _SUMMARY_BLOCK - 1, _SUMMARY_BLOCK, _SUMMARY_BLOCK + 1,
                        2 * _SUMMARY_BLOCK + 3]),
       st.integers(0, 2 ** 32 - 1))
def test_summary_matches_a_direct_cosine_reference(kind, n, seed):
    basis, d, reference = _LAYER[kind]
    # squared uniforms: a sample off the null, so the means are far from 0
    X = np.random.default_rng(seed).random((n, d)) ** 2
    s = basis.summary(X)
    ref = reference(X)
    assert s.n == n
    # relative to each vector's largest entry: a mean near 0 at n = 1 would
    # turn a 1e-13 feature error into a large elementwise relative error
    for got, want in [(s.mean_sq, ref.mean(axis=0) ** 2),
                      (s.diag_mean, (ref * ref).mean(axis=0))]:
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


_layer_cases_across_blocks = st.tuples(
    st.sampled_from(sorted(_LAYER)),
    st.sampled_from([1, 2, _SUMMARY_BLOCK - 1, _SUMMARY_BLOCK, _SUMMARY_BLOCK + 1]),
    st.integers(0, 2 ** 32 - 1))


def _layer_sample(kind, n, seed):
    basis, d, _ = _LAYER[kind]
    return basis, np.random.default_rng(seed).random((n, d)) ** 2


def _summaries_close(got, want):
    assert got.n == want.n
    for a, b in [(got.mean_sq, want.mean_sq), (got.diag_mean, want.diag_mean)]:
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()


@settings(max_examples=25, deadline=None)
@given(_layer_cases_across_blocks)
def test_summary_permutation_invariant(case):
    basis, X = _layer_sample(*case)
    perm = np.random.default_rng(case[2] + 1).permutation(X.shape[0])
    _summaries_close(basis.summary(X[perm]), basis.summary(X))


@settings(max_examples=25, deadline=None)
@given(_layer_cases_across_blocks)
def test_summary_duplication_invariant(case):
    basis, X = _layer_sample(*case)
    twice, once = basis.summary(np.vstack([X, X])), basis.summary(X)
    assert twice.n == 2 * once.n
    _summaries_close(dataclasses.replace(twice, n=once.n), once)


@settings(max_examples=25, deadline=None)
@given(_layer_cases_across_blocks)
def test_studentized_statistic_moderation_limits(case):
    basis, X = _layer_sample(*case)
    s, lam = basis.summary(X), basis.eigenvalues
    # rho = 0 weighs every eigenvalue by 1
    terms = s.n * s.mean_sq.sum(), s.diag_mean.sum()
    want = (terms[0] - terms[1]) / math.sqrt(2.0 * basis.truncation)
    got = statistic("m3d", basis, s, rho=0.0)
    assert abs(got - want) <= 1e-12 * sum(terms) / math.sqrt(2.0 * basis.truncation)
    # as rho grows, lambda / (lambda + rho^2) -> lambda / rho^2 in both the
    # numerator and the standard deviation, and rho^2 cancels
    terms = s.n * (lam * s.mean_sq).sum(), (lam * s.diag_mean).sum()
    scale = math.sqrt(2.0 * (lam * lam).sum())
    want = (terms[0] - terms[1]) / scale
    got = statistic("m3d", basis, s, rho=1e6)
    assert abs(got - want) <= 1e-9 * sum(terms) / scale


@pytest.mark.parametrize("kind", sorted(_LAYER))
def test_summary_checks_each_block_once(kind, monkeypatch):
    basis, d, _ = _LAYER[kind]
    blocks = []
    points = SpectralBasis._points

    def counted(self, X):
        if self is basis:
            blocks.append(len(X))
        return points(self, X)

    monkeypatch.setattr(SpectralBasis, "_points", counted)
    basis.summary(np.random.default_rng(4).random((2 * _SUMMARY_BLOCK + 3, d)))
    assert blocks == [_SUMMARY_BLOCK, _SUMMARY_BLOCK, 3]


@pytest.mark.parametrize("kind", sorted(_LAYER) + ["one-argument"])
def test_head_is_the_feature_prefix(kind):
    if kind == "one-argument":
        basis, d = SpectralBasis(np.array([0.5, 0.25, 0.125]),
                                 lambda X: np.hstack([X, X ** 2, X ** 3])), 1
    else:
        basis, d = _LAYER[kind][:2]
    K = basis.truncation
    for n in (0, 3, 200):
        X = np.random.default_rng(n).random((n, d))
        full = basis.features(X)
        for m in sorted({0, 1, 2, K // 2, K - 1, K}):
            got = basis.head(X, m)
            assert got.shape == (n, m)
            # a prefix may take the other branch of the cosine evaluator
            assert np.allclose(got, full[:, :m], rtol=0, atol=1e-12)
    for m in (-1, K + 1):
        with pytest.raises(ValueError, match="head needs"):
            basis.head(X, m)


@pytest.mark.parametrize("K", [1, 2, 3, 64, 512])
def test_cosine_recurrence_matches_np_cos(K):
    rng = np.random.default_rng(K)
    ends = np.geomspace(1e-12, 0.05, 400)
    x = np.concatenate([[0.0, 1.0, 1e-9, 1.0 - 1e-9, 0.5], ends, 1.0 - ends,
                        rng.random(600)])
    assert x.size >= K  # the recurrence branch
    got = cosine_features(x, K)
    assert got.shape == (K, x.size)
    assert np.abs(got - _np_cos(x, K).T).max() < 2e-11


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40), st.integers(1, 512))
def test_cosine_recurrence_matches_np_cos_anywhere_in_the_cube(points, K):
    x = np.resize(np.asarray(points), max(K, len(points)))
    assert np.abs(cosine_features(x, K) - _np_cos(x, K).T).max() < 2e-11


def test_cosine_features_at_fewer_points_than_degrees_is_np_cos():
    x = np.array([0.1, 0.7])
    assert np.array_equal(cosine_features(x, 5), _np_cos(x, 5).T)
    assert cosine_features(np.empty(0), 3).shape == (3, 0)
    assert cosine_features(x, 0).shape == (0, 2)


def _summary_peak(basis, n, d):
    X = np.random.default_rng(n).random((n, d))
    tracemalloc.start()
    try:
        basis.summary(X)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.filterwarnings("ignore:super-polynomial decay")
@pytest.mark.parametrize("kind", ["cosine", "tensor", "nystrom", "cosine-ref-nystrom"])
def test_summary_memory_does_not_grow_with_n(kind):
    quad = gauss_legendre_01(128)
    basis, d = {
        "cosine": (lambda: cosine_basis(128), 1),
        "tensor": (lambda: tensor_product_basis(cosine_basis(32), 5, 256), 5),
        "nystrom": (lambda: nystrom_decompose(gaussian_kernel(0.2), quad, 16,
                                              null_id="uniform-cube-1", center=True), 1),
        # the spectrum of the decide-cube benchmark: K = 64 on 512 nodes
        "cosine-ref-nystrom": (lambda: nystrom_decompose(
            cosine_reference_kernel(), gauss_legendre_01(512), 64,
            null_id="uniform-cube-1", center=True), 1),
    }[kind]
    basis = basis()
    small, large = _summary_peak(basis, 10 ** 4, d), _summary_peak(basis, 10 ** 5, d)
    assert large <= 1.1 * small, (small, large)


# (kernel id, K, center): the centered constant kernel is zero, so it has no
# basis to compare
_FACTORED_CASES = [(kid, K, center) for kid, K in
                   [("cosine-ref:1", 1), ("cosine-ref:7", 5), ("cosine-ref", 16),
                    ("linear", 1)] for center in (False, True)] + [("constant", 1, False)]


def _factored_and_generic(kernel_id, K, center):
    """A Nystrom basis on ``kernel_id`` and one on the same kernel behind a
    plain lambda, which hides its expansion."""
    quad = gauss_legendre_01(64)
    kernel = resolve_kernel(kernel_id)
    return tuple(nystrom_decompose(k, quad, K, null_id="uniform-cube-1", center=center)
                 for k in (kernel, lambda X, Y: kernel(X, Y)))


_FACTORED = {case: _factored_and_generic(*case) for case in _FACTORED_CASES}


def _close_to(got, want):
    """Within 1e-10 of the largest entry of ``want``."""
    return np.abs(got - want).max(initial=0.0) <= 1e-10 * np.abs(want).max(initial=0.0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_FACTORED_CASES),
       st.sampled_from([1, _SUMMARY_BLOCK - 1, _SUMMARY_BLOCK, _SUMMARY_BLOCK + 1]),
       st.integers(0, 16), st.integers(0, 2 ** 32 - 1))
def test_factored_nystrom_matches_the_kernel_matrix_path(case, n, m, seed):
    factored, generic = _FACTORED[case]
    assert hasattr(resolve_kernel(case[0]), "expansion")
    assert np.array_equal(factored.phi_nodes, generic.phi_nodes)
    m = min(m, factored.truncation)
    X = np.random.default_rng(seed).random((n, 1)) ** 2
    want = generic.features(X)
    assert _close_to(factored.features(X), want)
    assert _close_to(factored.head(X, m), want[:, :m])
    got, ref = factored.summary(X), generic.summary(X)
    assert got.n == ref.n == n
    assert _close_to(got.mean_sq, ref.mean_sq)
    assert _close_to(got.diag_mean, ref.diag_mean)


@pytest.mark.parametrize("center", [False, True])
def test_factored_nystrom_makes_no_kernel_call_after_construction(center):
    calls = []
    kernel = cosine_reference_kernel()

    @functools.wraps(kernel)
    def spy(X, Y):
        calls.append(1)
        return kernel(X, Y)

    assert spy.expansion is kernel.expansion
    basis = nystrom_decompose(spy, gauss_legendre_01(512), 64,
                              null_id="uniform-cube-1", center=center)
    assert calls
    del calls[:]
    X = np.random.default_rng(3).random((2 * _SUMMARY_BLOCK + 1, 1))
    basis.features(X)
    basis.head(X, 10)
    basis.summary(X)
    assert calls == []


def test_centered_nystrom_features_need_one_kernel_call():
    quad = gauss_legendre_01(128)
    calls = []

    def kernel(X, Y):
        calls.append(1)
        return gaussian_kernel(0.1)(X, Y)

    basis = nystrom_decompose(kernel, quad, 12, center=True)
    two_calls = nystrom_decompose(center_kernel(gaussian_kernel(0.1), quad), quad, 12)
    assert np.array_equal(basis.phi_nodes, two_calls.phi_nodes)
    x = np.linspace(0.0, 1.0, 301)
    del calls[:]
    got = basis.features(x)
    assert len(calls) == 1
    assert np.allclose(got, two_calls.features(x), rtol=0, atol=1e-10)
    # degenerate: every eigenfunction has mean 0 under the quadrature
    assert np.abs(quad.weights @ basis.features(quad.nodes)).max() < 1e-10
