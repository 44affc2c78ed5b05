"""Decisions that respect the problem's symmetries, checked through run_test.

A map that carries the null to itself and the kernel to itself leaves every
test's statistic unchanged: the reflection x -> 1 - x on [0,1], since
cos(k pi (1 - x)) = (-1)^k cos(k pi x), and a rotation X -> XQ on a sphere,
since a zonal kernel depends on <x, y> alone.  A permutation of a sample's
rows changes none of its statistics.  Each property asks all three tests
for statistics within 1e-12 relative, to the larger of |T| and sqrt(K), and
for the same decision, which a statistic within that distance of its
threshold may miss.  Repeating every row leaves the empirical measure, and
so the V-statistics mmd_vstat and eta_sq, unchanged, to within 1e-12 of
their value; the studentized statistics scale n eta^2 with n, so they move.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gofkit import kernels
from gofkit.embedding import Sample, eta_sq, mmd_vstat, run_test
from gofkit.spectrum import (
    ModeratedSpectrum,
    cosine_basis,
    gauss_legendre_01,
    nystrom_decompose,
    sphere_zonal_spectrum,
)

_TOL = 1e-12
# mmd's chi-square-mixture null at a few draws, m3d at the schedule's rho and
# adaptive at the theory threshold: the properties concern the statistics
_REQUESTS = {"mmd": {"reps": 1000, "seed": 1}, "m3d": {"theta": 0.0},
             "adaptive": {"calibrate": "theory"}}

_CUBE = {
    "cosine-K128": cosine_basis(128),
    "nystrom-cosine-ref-K64": nystrom_decompose(
        kernels.resolve_kernel("cosine-ref"), gauss_legendre_01(512), 64,
        null_id="uniform-cube-1", kernel_id="cosine-ref", center=True),
}
_SPHERE = {d: sphere_zonal_spectrum(kernels.zonal_profile("gaussian-sphere:1.0"), d, 20)
           for d in (3, 4, 5)}


def _assert_same_decisions(basis, X, Y):
    # m3d and adaptive take a centring term of order sqrt(K) from a sum of K
    # terms, so their round-off is relative to that, not to a statistic near 0
    for kind, request in _REQUESTS.items():
        a, b = (run_test(kind, basis, Sample(Z), 0.05, **request) for Z in (X, Y))
        tol = _TOL * max(abs(a.statistic), math.sqrt(basis.truncation))
        assert abs(b.statistic - a.statistic) <= tol, kind
        if abs(a.statistic - a.threshold) > tol:
            assert b.reject == a.reject, kind


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(_CUBE)), st.integers(16, 400), st.floats(0.5, 2.0),
       st.integers(0, 2 ** 32 - 1))
def test_cube_decisions_are_invariant_under_reflection(name, n, power, seed):
    x = np.random.default_rng(seed).random((n, 1)) ** power
    _assert_same_decisions(_CUBE[name], x, 1.0 - x)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.integers(16, 300), st.floats(0.0, 0.5),
       st.integers(0, 2 ** 32 - 1))
def test_sphere_decisions_are_invariant_under_rotation(d, n, tilt, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, d))
    g[:, -1] += tilt
    X = g / np.linalg.norm(g, axis=1, keepdims=True)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    _assert_same_decisions(_SPHERE[d], X, X @ Q)


def _sample_on(d, n, seed):
    """n points of a non-uniform law on [0, 1] (d = 1) or on S^{d-1}."""
    rng = np.random.default_rng(seed)
    if d == 1:
        return rng.random((n, 1)) ** 1.5
    g = rng.standard_normal((n, d))
    g[:, -1] += 0.3
    return g / np.linalg.norm(g, axis=1, keepdims=True)


# each basis with the dimension of its points
_BASES = {**{name: (b, 1) for name, b in _CUBE.items()},
          **{"sphere-S%d" % (d - 1): (b, d) for d, b in _SPHERE.items()}}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(_BASES)), st.integers(16, 300), st.floats(1e-3, 1.0),
       st.integers(0, 2 ** 32 - 1))
def test_decisions_are_invariant_under_row_permutation_and_duplication(name, n, rho,
                                                                        seed):
    basis, d = _BASES[name]
    X = _sample_on(d, n, seed)
    _assert_same_decisions(basis, X, X[np.random.default_rng(seed).permutation(n)])
    once, twice = Sample(X), Sample(np.repeat(X, 2, axis=0))
    ms = ModeratedSpectrum(basis, rho)
    for a, b in ((mmd_vstat(basis, once), mmd_vstat(basis, twice)),
                 (eta_sq(ms, once), eta_sq(ms, twice))):
        assert abs(b - a) <= _TOL * a
