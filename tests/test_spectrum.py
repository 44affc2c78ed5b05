"""Tests for the spectral decomposition machinery."""
import math

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from gofkit import cli

from gofkit.spectrum import (
    DecompositionError,
    ModeratedSpectrum,
    PowerLawTail,
    Quadrature,
    SpectralBasis,
    SphereZonalBasis,
    _ZONAL_BLOCK,
    center_kernel,
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
    truncation_variance_bound,
)
from gofkit.kernels import (
    constant_kernel,
    cosine_reference_kernel,
    gaussian_kernel,
    gaussian_sphere_profile,
    linear_kernel,
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
def test_cli_test_rejects_off_sphere_csv(tmp_path, monkeypatch, capsys, rows, match):
    monkeypatch.setenv("GOFKIT_CACHE_DIR", str(tmp_path / "cache"))
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


def test_effective_variance_tail_model():
    small = cosine_basis(500)
    big = cosine_basis(100000)
    rho = 0.1
    truncated = effective_variance(ModeratedSpectrum(small, rho))
    with_tail = effective_variance(ModeratedSpectrum(small, rho), include_tail=True)
    reference = effective_variance(ModeratedSpectrum(big, rho))
    assert abs(with_tail - reference) < abs(truncated - reference)
    assert abs(with_tail - reference) < 1e-6


def test_truncation_variance_bound_covers_remainder():
    small = cosine_basis(500)
    big = cosine_basis(100000)
    rho = 0.1
    remainder = effective_variance(ModeratedSpectrum(big, rho)) - \
        effective_variance(ModeratedSpectrum(small, rho))
    assert truncation_variance_bound(ModeratedSpectrum(small, rho)) >= remainder


def test_tail_model_requires_tail():
    basis = cosine_basis(50, with_tail=False)
    with pytest.raises(ValueError, match="tail"):
        effective_variance(ModeratedSpectrum(basis, 0.1), include_tail=True)
    assert basis.tail is None
    assert isinstance(cosine_basis(50).tail, PowerLawTail)


# ---------------------------------------------------------------------------
# spectrum cache


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


def test_cache_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.spec"
    path.write_bytes(b"not a spectrum file")
    with pytest.raises(ValueError, match="GOFKIT-SPEC"):
        load_spectrum(path)


# ---------------------------------------------------------------------------
# named kernels


@pytest.mark.parametrize("kernel", [cosine_reference_kernel(), gaussian_kernel(0.5),
                                    linear_kernel, constant_kernel])
def test_kernels_read_1d_input_as_a_column_of_points(kernel):
    x, y = np.array([0.1, 0.2]), np.array([0.3, 0.5, 0.9])
    got = kernel(x, y)
    assert got.shape == (2, 3)
    assert np.array_equal(got, kernel(x[:, None], y[:, None]))
    assert kernel(0.1, y).shape == (1, 3)


def test_zonal_profile_ids():
    t = np.linspace(-1.0, 1.0, 7)
    assert np.array_equal(zonal_profile("gaussian-sphere:0.5")(t),
                          gaussian_sphere_profile(0.5)(t))
    assert np.array_equal(zonal_profile("constant")(t), np.ones(7))
    for bad in ("gaussian:0.5", "linear", "cosine-ref"):
        with pytest.raises(ValueError, match="zonal kernel"):
            zonal_profile(bad)
