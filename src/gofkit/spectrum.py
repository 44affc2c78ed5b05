"""Spectral decompositions of Mercer kernels relative to a null distribution.

Bases are represented by their eigenvalues together with an explicit feature
map (eigenfunction evaluator).  Zonal kernels on spheres group their
eigenvalues by degree and evaluate kernels through the Gegenbauer addition
theorem; on S^2 their eigenfunctions, the real spherical harmonics, are
evaluated explicitly, and on higher spheres a sample summary walks the Gram
matrix instead.
"""
from __future__ import annotations

import collections
import heapq
import math
import os
import struct
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .kernels import as_points, cosine_features, resolve_kernel


class DecompositionError(RuntimeError):
    """Raised when a numerical eigendecomposition cannot be trusted."""


@dataclass(frozen=True)
class Quadrature:
    """Discrete approximation of the null distribution P0.

    nodes has shape (N, d); weights are nonnegative and sum to one.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim == 1:
            nodes = nodes[:, None]
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape[0] != weights.shape[0]:
            raise ValueError("node and weight counts differ")
        if np.any(weights < 0):
            raise ValueError("quadrature weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.weights.shape[0]


def gauss_legendre_01(n: int) -> Quadrature:
    """Gauss-Legendre rule mapped to [0, 1] with probability weights."""
    x, w = np.polynomial.legendre.leggauss(n)
    return Quadrature(nodes=(x + 1.0) / 2.0, weights=w / 2.0)


class SpectralBasis:
    """Eigenvalues and eigenfunction evaluator of a kernel under P0.

    ``feature_fn(X, m) -> (n, m)`` evaluates the first m eigenfunctions at
    rows of X that :meth:`_points` has checked; :meth:`head` and
    :meth:`features` (m = K) call it.  A basis without one (zonal, d >= 4)
    overrides the kernel-evaluation entry points instead.  Without a
    ``decay_exponent`` the basis fits one to its own eigenvalues (NaN for K < 8).
    """

    def __init__(
        self,
        eigenvalues: np.ndarray,
        feature_fn: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
        *,
        null_id: str = "",
        degenerate: bool = False,
        decay_exponent: Optional[float] = None,
        sup_norms: Optional[np.ndarray] = None,
        meta: Optional[dict] = None,
    ):
        eigenvalues = np.asarray(eigenvalues, dtype=float)
        if eigenvalues.ndim != 1 or eigenvalues.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-D array")
        if not np.all(eigenvalues > 0):
            raise ValueError("eigenvalues must be positive")
        if np.any(np.diff(eigenvalues) > 1e-12 * eigenvalues[0]):
            raise ValueError("eigenvalues must be nonincreasing")
        self.eigenvalues = eigenvalues
        self._feature_fn = feature_fn
        self.null_id = null_id
        self.degenerate = degenerate
        if decay_exponent is None:
            decay_exponent = float("nan")
            if eigenvalues.size >= 8:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    decay_exponent = estimate_decay_exponent(eigenvalues)
        self.decay_exponent = decay_exponent
        self.sup_norms = None if sup_norms is None else np.asarray(sup_norms, float)
        self.meta = dict(meta or {})

    @property
    def truncation(self) -> int:
        return self.eigenvalues.size

    def _points(self, X) -> np.ndarray:
        """X as an (n, d) array.  For a uniform cube or sphere null, ValueError
        unless X has d finite columns and its rows lie on the null's support
        within ``_SUPPORT_TOL``."""
        X = as_points(X)
        if not self.null_id.startswith(("uniform-cube-", "uniform-sphere-")):
            return X
        family, d = parse_null_id(self.null_id)
        if X.shape[1] != d:
            raise ValueError("points have %d columns, %s needs %d"
                             % (X.shape[1], self.null_id, d))
        if not np.all(np.isfinite(X)):
            raise ValueError("points contain non-finite values")
        if family == "uniform-cube":
            off = max(-X.min(initial=0.0), X.max(initial=1.0) - 1.0)
            support = "outside [0,1]^%d" % d
        else:
            off = np.abs(np.linalg.norm(X, axis=1) - 1.0).max(initial=0.0)
            support = "off the unit sphere"
        if off > _SUPPORT_TOL:
            raise ValueError("points lie %s (by %.3g)" % (support, off))
        return X

    def features(self, X: np.ndarray) -> np.ndarray:
        """All K eigenfunctions at the rows of X: ``head(X, K)``."""
        return self.head(X, self.truncation)

    def head(self, X, m: int) -> np.ndarray:
        """The first m eigenfunctions at the rows of X: ``features(X)[:, :m]``."""
        if not 0 <= m <= self.truncation:
            raise ValueError("head needs 0 <= m <= K = %d, got %d" % (self.truncation, m))
        if self._feature_fn is None:
            raise NotImplementedError("basis has no explicit eigenfunctions")
        return self._feature_fn(self._points(X), m)

    def kernel_matrix(self, X, Y=None, weights=None) -> np.ndarray:
        """Sum_k weights_k phi_k(x) phi_k(y) on all pairs (default: the kernel)."""
        if weights is None:
            weights = self.eigenvalues
        # split the weights as sqrt * sqrt so that swapping X and Y gives a
        # bit-identical transpose
        root = np.sqrt(weights)
        fx = self.features(X) * root
        fy = fx if Y is None else self.features(Y) * root
        return fx @ fy.T

    def summary(self, X) -> "SampleSummary":
        """Per-eigenvalue squared empirical means and diagonal means.

        Sums phi and phi^2 over blocks of ``_SUMMARY_BLOCK`` rows, so memory
        does not grow with the sample size; :meth:`features` checks each
        block's rows once.
        """
        X = as_points(X)
        n = X.shape[0]
        total, square = np.zeros(self.truncation), np.zeros(self.truncation)
        for a in range(0, n, _SUMMARY_BLOCK):
            fx = self.features(X[a:a + _SUMMARY_BLOCK])
            total += fx.sum(axis=0)
            square += np.einsum("ij,ij->j", fx, fx)
            del fx  # so that the next block is not built beside this one
        m = total / n
        return SampleSummary(
            group_eigenvalues=self.eigenvalues,
            mean_sq=m * m,
            diag_mean=square / n,
            n=n,
        )


@dataclass(frozen=True)
class SampleSummary:
    """Sufficient statistics for all spectral test statistics of a sample of
    ``n`` points: every statistic is a function of a summary (and rho).

    Eigenvalues with a shared value may be grouped; ``mean_sq`` and
    ``diag_mean`` then hold within-group sums.
    """

    group_eigenvalues: np.ndarray
    mean_sq: np.ndarray
    diag_mean: np.ndarray
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sample must contain at least one point")


class NystromBasis(SpectralBasis):
    """Basis from a weighted Gram eigenproblem with off-node Nystrom extension.

    With ``center=True`` the eigenfunctions are those of the centered kernel
    K(x,y) - r(x) - r(y) + g, with r(x) = sum_i w_i K(x, x_i) and
    g = sum_i w_i r(x_i); ``kernel`` itself stays uncentered.  The basis is
    degenerate when every eigenfunction has mean 0 under the quadrature.

    The features are K(x, nodes) @ coef, a fixed (nodes x K) matrix.  A
    kernel with a finite ``expansion`` (see ``kernels.expansion_kernel``)
    folds its node side into coef once, so a point costs O(terms K) and no
    kernel call; any other kernel costs O(nodes K) plus one kernel row
    K(x, nodes) per point.  The centering vector r goes through the same
    product, so a centered basis on such a kernel is built without one.
    """

    def __init__(self, eigenvalues, kernel, quad: Quadrature, phi_nodes, *,
                 center: bool = False, null_id: str = "", kernel_id: str = ""):
        self.quad = quad
        self.phi_nodes = np.asarray(phi_nodes, dtype=float)
        self.center = bool(center)
        lam = np.asarray(eigenvalues, dtype=float)
        w = quad.weights
        # K(X, nodes) @ M = left(X) @ fold(M); a kernel with an expansion has
        # K(X, nodes) = f(X)' (w f(nodes))
        expansion = getattr(kernel, "expansion", None)
        if expansion is None:
            left, fold = (lambda X: kernel(X, quad.nodes)), (lambda M: M)
        else:
            terms, weights = expansion
            node_side = weights[:, None] * terms(quad.nodes)
            left, fold = (lambda X: terms(X).T), (lambda M: node_side @ M)
        # phi_k(x) = lam_k^{-1} sum_i w_i K(x, x_i) phi_k(x_i)
        coef = (w[:, None] * self.phi_nodes) / lam
        offset = np.zeros(lam.size)
        if self.center:
            # the centered kernel through the same product:
            # K(x, nodes) (coef - w s') + (g s - r(nodes)' coef), s = sum_i coef_i
            r = left(quad.nodes) @ fold(w)
            s = coef.sum(axis=0)
            offset = float(w @ r) * s - r @ coef
            coef = coef - np.outer(w, s)
        right = fold(coef)
        super().__init__(
            lam, lambda X, m: left(X) @ right[:, :m] + offset[:m],
            null_id=null_id,
            degenerate=bool(np.all(np.abs(w @ self.phi_nodes) <= 1e-6)),
            sup_norms=np.abs(self.phi_nodes).max(axis=0),
            meta={"kernel_id": kernel_id},
        )


class SphereZonalBasis(SpectralBasis):
    """Zonal-kernel basis on S^{d-1}; kernels come from the addition theorem.

    Harmonics of degree k share one eigenvalue with multiplicity N(d, k).
    Points must be unit vectors in R^d (the null id defaults to
    uniform-sphere-d).  The basis is degenerate when degree 0, the constant,
    is not kept.

    On S^2 (d = 3) the eigenfunctions are the real spherical harmonics, one
    block of 2k+1 columns per kept degree, in the order of ``degrees``.
    :meth:`features` evaluates them, and :meth:`summary` sums them over
    blocks of ``_SUMMARY_BLOCK`` rows: O(n K) time and O(block K) memory.
    For d >= 4 the harmonics are never materialized, and :meth:`summary`
    costs O(n^2 degree_max) time and O(block n) memory: it walks the Gram
    matrix in blocks of rows and steps one Gegenbauer recurrence through
    every degree up to ``max(degrees)``.
    """

    def __init__(self, degree_eigenvalues, degrees, d, **kw):
        self.degree_eigenvalues = np.asarray(degree_eigenvalues, dtype=float)
        self.degrees = np.asarray(degrees, dtype=int)
        self.d = int(d)
        self.multiplicities = np.array(
            [harmonic_dimension(self.d, k) for k in self.degrees], dtype=float
        )
        order = np.argsort(-self.degree_eigenvalues, kind="stable")
        self.degree_eigenvalues = self.degree_eigenvalues[order]
        self.degrees = self.degrees[order]
        self.multiplicities = self.multiplicities[order]
        expanded = np.repeat(self.degree_eigenvalues, self.multiplicities.astype(int))
        # index of each degree block inside the expanded eigenvalue array
        self._block_start = np.concatenate(
            ([0], np.cumsum(self.multiplicities.astype(int))[:-1])
        )
        kw.setdefault("null_id", "uniform-sphere-%d" % self.d)
        # a closure over self would make every S^2 basis a reference cycle
        degrees = self.degrees
        harmonics = (lambda X, m: _sphere2_harmonics(X, degrees)[:, :m]) \
            if self.d == 3 else None
        super().__init__(expanded, harmonics, degenerate=0 not in self.degrees, **kw)

    def kernel_matrix(self, X, Y=None, weights=None) -> np.ndarray:
        weights = np.asarray(self.eigenvalues if weights is None else weights, dtype=float)
        if weights.shape != self.eigenvalues.shape:
            raise ValueError("weight vector does not match the spectrum")
        X = self._points(X)
        Y = X if Y is None else self._points(Y)
        t = np.clip(X @ Y.T, -1.0, 1.0)
        # one weight per degree: the first entry of its block
        coef = np.zeros(int(self.degrees.max()) + 1)
        coef[self.degrees] = weights[self._block_start] * self.multiplicities
        out = np.zeros_like(t)
        for k, ck in _normalized_gegenbauer(t, (self.d - 2) / 2.0, coef.size - 1):
            if coef[k] != 0.0:
                out += coef[k] * ck
        return out

    def summary(self, X) -> SampleSummary:
        """Per-degree squared empirical means: ``mean_sq[j]`` sums
        (mean_i Y(X_i))^2 over the harmonics Y of degree ``degrees[j]``, and
        ``diag_mean`` is ``multiplicities``."""
        if self.d != 3:
            return self._gram_summary(X)
        # the harmonics' own summary, grouped by degree; by the addition
        # theorem at <x, x> = 1 each degree's diagonal mean is exactly N(3, k)
        s = super().summary(X)
        return SampleSummary(
            group_eigenvalues=self.degree_eigenvalues,
            mean_sq=np.add.reduceat(s.mean_sq, self._block_start),
            diag_mean=self.multiplicities.astype(float),
            n=s.n,
        )

    def _gram_summary(self, X) -> SampleSummary:
        """:meth:`summary` from the Gram matrix, for any d: mean_sq[j] is
        N(d, k) n^-2 sum_{i,l} R_k(<X_i, X_l>) for k = ``degrees[j]``."""
        X = self._points(X)
        n = X.shape[0]
        sums = np.zeros(int(self.degrees.max()) + 1)
        # upper triangle by row blocks: the diagonal block X[a:b] x X[a:b]
        # counts once, the rest of the row X[a:b] x X[b:] counts twice
        for a in range(0, n, _ZONAL_BLOCK):
            b = min(a + _ZONAL_BLOCK, n)
            t = np.clip(X[a:b] @ X[a:].T, -1.0, 1.0)
            for k, ck in _normalized_gegenbauer(t, (self.d - 2) / 2.0, sums.size - 1):
                sums[k] += 2.0 * ck.sum() - ck[:, :b - a].sum()
        return SampleSummary(
            group_eigenvalues=self.degree_eigenvalues,
            mean_sq=self.multiplicities * sums[self.degrees] / (n * n),
            diag_mean=self.multiplicities.astype(float),
            n=n,
        )


def _sphere2_harmonics(X: np.ndarray, degrees) -> np.ndarray:
    """Real spherical harmonics on S^2 of each degree in ``degrees``, in that
    order, at the rows of X: an (n, sum(2k+1)) array.

    Degree k's block holds q_k0(z), then q_km(z) Re w^m and q_km(z) Im w^m
    for m = 1..k, with w = x_1 + i x_2 and z = x_3.  Here q_km is the
    polynomial part of the fully normalized associated Legendre function,
    P_km(cos t) = q_km(cos t) sin^m t, and w^m = sin^m t e^{i m phi} carries
    the sine factor, so no angle is needed.  q_km steps up in k by the
    recurrence of Holmes & Featherstone (2002, J. Geodesy 76), from q_00 = 1
    and q_mm = sqrt(2 3/2 5/4 ... (2m+1)/(2m)) for m >= 1.  Normalized so
    that sum_m Y_km(x) Y_km(y) = (2k+1) P_k(<x, y>): the columns are
    orthonormal under the uniform probability measure.
    """
    n, top = X.shape[0], int(max(degrees))
    width = 2 * np.asarray(degrees) + 1
    # the row of out where each kept degree's block starts
    start = dict(zip((int(k) for k in degrees), np.cumsum(width) - width))
    out = np.empty((int(width.sum()), n))
    x, y, z = X[:, 0], X[:, 1], X[:, 2]
    # (re, im) = w^m, stepped in m by one complex multiplication
    re, im, sectoral = np.ones(n), np.zeros(n), 1.0
    prev, cur, scratch = np.empty(n), np.empty(n), np.empty(n)
    for m in range(top + 1):
        if m:
            re, im = re * x - im * y, re * y + im * x
            sectoral *= math.sqrt((2.0 * m + 1.0) / (2.0 * m) * (2.0 if m == 1 else 1.0))
        prev.fill(0.0)
        cur.fill(sectoral)
        for k in range(m, top + 1):
            if k > m:
                # q_km = a z q_{k-1,m} - b q_{k-2,m}, in place; q_{m-1,m} = 0
                a = math.sqrt((2.0 * k - 1.0) * (2.0 * k + 1.0) / ((k - m) * (k + m)))
                b = 0.0 if k == m + 1 else math.sqrt(
                    (2.0 * k + 1.0) * (k + m - 1.0) * (k - m - 1.0)
                    / ((k - m) * (k + m) * (2.0 * k - 3.0)))
                np.multiply(z, cur, out=scratch)
                scratch *= a
                prev *= b
                np.subtract(scratch, prev, out=prev)
                prev, cur = cur, prev
            if k not in start:
                continue
            row = start[k]
            if m == 0:
                out[row] = cur
            else:
                np.multiply(cur, re, out=out[row + 2 * m - 1])
                np.multiply(cur, im, out=out[row + 2 * m])
    return out.T


# rows per block in SpectralBasis.summary: a block's features stay a few MB
_SUMMARY_BLOCK = 4096
# rows per block in SphereZonalBasis._gram_summary: a block of the Gram
# matrix and the recurrence's terms stay in cache (256 rows ran 2.3x slower
# at n = 1000)
_ZONAL_BLOCK = 64
# how far a point may sit off the null's support: outside [0,1]^d, or by
# | ||x|| - 1 | off the unit sphere
_SUPPORT_TOL = 1e-8


def _normalized_gegenbauer(t: np.ndarray, nu: float, k_max: int):
    """Yield (k, R_k(t)) with R_k = C_k^nu / C_k^nu(1), for k = 0..k_max and nu > 0.

    Three-term recurrence (Atkinson & Han, Spherical Harmonics and
    Approximations on the Unit Sphere, 2012), from R_{-1} = 0 and R_0 = 1:
    (k + 2nu - 1) R_k = 2(k + nu - 1) t R_{k-1} - (k - 1) R_{k-2}.
    It runs in place: a yielded array is overwritten two steps later.
    """
    prev, cur, scratch = np.zeros_like(t), np.ones_like(t), np.empty_like(t)
    yield 0, cur
    for k in range(1, k_max + 1):
        c = k + 2.0 * nu - 1.0
        np.multiply(t, cur, out=scratch)
        scratch *= 2.0 * (k + nu - 1.0) / c
        prev *= (k - 1.0) / c
        np.subtract(scratch, prev, out=prev)
        prev, cur = cur, prev
        yield k, cur


@dataclass(frozen=True)
class ModeratedSpectrum:
    """A basis paired with the moderation parameter rho."""

    basis: SpectralBasis
    rho: float

    def __post_init__(self):
        if not 0.0 <= self.rho < math.inf:  # NaN fails too
            raise ValueError("rho must be finite and nonnegative")

    @property
    def moderated_eigenvalues(self) -> np.ndarray:
        return moderate(self.basis.eigenvalues, self.rho)


def moderate(eigenvalues: np.ndarray, rho: float) -> np.ndarray:
    """lambda / (lambda + rho^2), elementwise."""
    lam = np.asarray(eigenvalues, dtype=float)
    return lam / (lam + rho * rho)


# ---------------------------------------------------------------------------
# construction


def parse_null_id(null_id: str) -> tuple[str, int]:
    """("uniform-cube" | "uniform-sphere", d) from a null id such as
    "uniform-cube-5"; ValueError for any other id."""
    family, _, d = null_id.rpartition("-")
    if family not in ("uniform-cube", "uniform-sphere") or not d.isdigit():
        raise ValueError("unknown null id: %r" % null_id)
    return family, int(d)


def nystrom_decompose(kernel, quad: Quadrature, K: int, *, null_id: str = "",
                      kernel_id: str = "", center: bool = False) -> NystromBasis:
    """Top-K eigenpairs of the weighted Gram matrix sqrt(w_i w_j) K(x_i, x_j).

    ``kernel(X, Y)`` must return the (len(X), len(Y)) kernel matrix.  With
    ``center=True`` the kernel is first centered under ``quad``,
    K(x,y) - E K(x,.) - E K(.,y) + E E K, which makes the basis degenerate.
    Eigenfunction signs are fixed by a deterministic reference function.
    """
    if K < 1 or K > quad.size:
        raise ValueError("K must satisfy 1 <= K <= node count")
    # a kernel that overflows or divides by zero on the nodes is refused
    # below with one message, not with numpy's warnings first
    with np.errstate(all="ignore"):
        G = np.asarray(kernel(quad.nodes, quad.nodes), dtype=float)
    if not np.all(np.isfinite(G)):
        raise ValueError("kernel %r has a non-finite Gram matrix on the quadrature "
                         "nodes" % kernel_id)
    if center:
        r = G @ quad.weights
        G = G - r[:, None] - r[None, :] + float(quad.weights @ G @ quad.weights)
    scale = max(np.abs(G).max(), 1e-300)
    if np.abs(G - G.T).max() > 1e-8 * scale:
        raise ValueError("kernel is not symmetric on the quadrature nodes")
    G = 0.5 * (G + G.T)
    sw = np.sqrt(quad.weights)
    A = sw[:, None] * G * sw[None, :]
    lam_all, vec_all = np.linalg.eigh(A)
    order = np.argsort(-lam_all)
    lam = lam_all[order[:K]]
    vec = vec_all[:, order[:K]]
    floor = quad.size * np.finfo(float).eps * max(lam_all.max(), 0.0)
    if lam[-1] <= floor:
        raise DecompositionError(
            "eigenvalue <= numeric floor: K=%d exceeds the numerical rank" % K
        )
    with np.errstate(divide="ignore"):
        phi_nodes = vec / sw[:, None]
    # sign convention: nonnegative quadrature inner product with a smoothed
    # indicator of the first node; ties resolved toward a positive value there
    x0 = quad.nodes[0]
    h = 0.1 * max(float(np.ptp(quad.nodes)), 1.0)
    ref = np.exp(-np.sum((quad.nodes - x0) ** 2, axis=1) / (2 * h * h))
    score = (quad.weights * ref) @ phi_nodes
    sign = np.where(np.abs(score) > 1e-12, np.sign(score), np.sign(phi_nodes[0]))
    sign = np.where(sign == 0, 1.0, sign)
    return NystromBasis(lam, kernel, quad, phi_nodes * sign, center=center,
                        null_id=null_id, kernel_id=kernel_id)


def moderated_eval(ms: ModeratedSpectrum, x, y) -> float:
    """Sum_{k<=K} lambda_k/(lambda_k+rho^2) phi_k(x) phi_k(y)."""
    weights = ms.moderated_eigenvalues
    return float(ms.basis.kernel_matrix(x, y, weights=weights)[0, 0])


def effective_variance(ms: ModeratedSpectrum) -> float:
    """Sum over retained k of squared moderated eigenvalues."""
    return float(moderated_variance(ms.basis.eigenvalues, [ms.rho])[0])


def moderated_variance(eigenvalues: np.ndarray, rhos) -> np.ndarray:
    """v(rho) = sum_k (lambda_k / (lambda_k + rho^2))^2 at every rho of ``rhos``.

    Each run of equal adjacent eigenvalues, such as a zonal degree block or
    a tie of tensor products, is moderated once and weighted by its length,
    so the work is (rhos x runs), not (rhos x K).  With no ties the sum runs
    over the same terms in the same order as the plain K-sum.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    starts = np.flatnonzero(np.concatenate(([True], lam[1:] != lam[:-1])))
    counts = np.diff(np.append(starts, lam.size))
    mod = moderate(lam[starts], np.asarray(rhos, dtype=float)[:, None])
    return (mod * mod * counts).sum(axis=1)


def estimate_decay_exponent(eigenvalues: Sequence[float]) -> float:
    """Decay exponent s from the log-log slope over the window k in [K/4, K]."""
    lam = np.asarray(eigenvalues, dtype=float)
    K = lam.size
    if K < 8:
        raise ValueError("need at least 8 eigenvalues")
    lo = max(int(math.ceil(K / 4.0)), 1)
    window = lam[lo - 1:]
    if np.any(window <= 0):
        raise ValueError("non-positive eigenvalue in the fitting window")
    k = np.arange(lo, K + 1, dtype=float)
    slope = np.polyfit(np.log(k), np.log(window), 1)[0]
    s = -slope / 2.0
    if s > 3.0:
        warnings.warn("super-polynomial decay: fitted s=%.3g" % s, stacklevel=2)
    return float(s)


def tensor_product_basis(factor: SpectralBasis, d: int, K: int) -> SpectralBasis:
    """Top-K products over the d-fold mode lattice of a 1-D factor basis.

    Mode 0 in each coordinate is the constant eigenfunction (eigenvalue 1);
    the all-constant multi-index is excluded.  Requires a degenerate factor
    so that the products remain orthonormal, on the null uniform-cube-1 (the
    product then has uniform-cube-d) or on none.

    A block of n points and m modes costs one factor call on its n d
    coordinates, then nnz row gathers and nnz - m row products, where nnz
    counts the non-constant factors of the m modes: at most d m, and 438 of
    1280 for the cosine factor at d = 5, K = 256.  The constant factor is
    exactly 1, and x * 1.0 == x for every double, so skipping it gives the
    same bits as multiplying all d factors in coordinate order.
    """
    if d < 1 or K < 1:
        raise ValueError("d and K must be positive")
    if not factor.degenerate:
        raise ValueError("factor basis must be degenerate (centered)")
    if factor.null_id not in ("uniform-cube-1", ""):
        raise ValueError("a tensor factor lives on uniform-cube-1 (or no null), "
                         "not %r" % factor.null_id)
    values = np.concatenate(([1.0], factor.eigenvalues))
    if np.any(np.diff(values) > 1e-12 * values[0]):
        raise ValueError("constant-mode eigenvalue must dominate the factor")
    root = (0,) * d
    heap = [(-values[0] ** d, root)]
    seen = {root}
    picked = []
    while heap and len(picked) < K + 1:
        negv, mi = heapq.heappop(heap)
        picked.append(mi)
        for j in range(d):
            if mi[j] + 1 >= values.size:
                continue
            child = mi[:j] + (mi[j] + 1,) + mi[j + 1:]
            if child not in seen:
                seen.add(child)
                ratio = values[child[j]] / values[mi[j]]
                heapq.heappush(heap, (negv * ratio, child))
    picked = [mi for mi in picked if any(mi)][:K]
    if len(picked) < K:
        raise ValueError("lattice exhausted before reaching K modes")
    idx = np.array(picked, dtype=int)
    lam = np.prod(values[idx], axis=1)
    order = np.argsort(-lam, kind="stable")
    idx = idx[order]
    lam = lam[order]

    def plan(modes):
        # level r: the modes with more than r non-constant factors, and the
        # flat table row (factor mode * d + coordinate) of each one's r-th,
        # in ascending coordinate order; level 0 holds every mode
        live = modes != 0
        which, j = np.nonzero(live)
        rank = np.cumsum(live, axis=1)[which, j] - 1
        rows = modes[which, j] * d + j
        return [(which[rank == r], rows[rank == r])
                for r in range(int(rank.max(initial=-1)) + 1)]

    full = plan(idx)

    def prefix_fn(X, m):
        if X.shape[1] != d:
            raise ValueError("points have wrong dimension")
        n, modes = X.shape[0], idx[:m]
        top = int(modes.max(initial=0))
        # table[i, j] is factor mode i at coordinate j of every point, mode 0
        # the constant; one factor call covers all d coordinates
        table = np.empty((top + 1, d, n))
        table[0] = 1.0
        table[1:] = factor.head(X.T.ravel(), top).T.reshape(top, d, n)
        # an explicit row count: -1 cannot be inferred when n = 0
        flat = table.reshape((top + 1) * d, n)
        # the indices are in range: mode "clip" only skips the buffered copy
        # of "raise"
        out = np.empty((m, n))
        for r, (which, rows) in enumerate(full if m == K else plan(modes)):
            if r:
                out[which] *= np.take(flat, rows, axis=0, mode="clip")
            else:
                np.take(flat, rows, axis=0, out=out, mode="clip")
        return out.T

    sup = None
    if factor.sup_norms is not None:
        per_mode = np.concatenate(([1.0], factor.sup_norms))
        sup = np.prod(per_mode[idx], axis=1)
    return SpectralBasis(
        lam, prefix_fn,
        null_id="uniform-cube-%d" % d if factor.null_id else "",
        degenerate=True,
        sup_norms=sup,
        meta={"tensor_indices": idx},
    )


def harmonic_dimension(d: int, k: int) -> int:
    """Dimension N(d, k) of degree-k spherical harmonics on S^{d-1}."""
    return (2 * k + d - 2) * math.comb(k + d - 3, k) // (d - 2)


def sphere_surface_area(d: int) -> float:
    """Surface area of the unit sphere S^{d-1} in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def sphere_zonal_spectrum(profile, d: int, degree_max: int, *,
                          quad_points: Optional[int] = None,
                          include_degree_zero: bool = False) -> SphereZonalBasis:
    """Funk-Hecke eigenvalues of a zonal kernel g(<x, y>) on S^{d-1}.

    Degree-k eigenvalues are lambda_k = E[g(T) R_k(T)], where T = <x, e> for
    x uniform on S^{d-1} has density proportional to (1-t^2)^{(d-3)/2} and
    R_k is the Gegenbauer polynomial with R_k(1) = 1; the expectation is a
    Gauss rule for that law (:func:`_gegenbauer_gauss`).  The degree-0
    (constant) block is dropped unless requested, which makes the basis
    degenerate under the uniform null.  The eigenvalues must agree with
    those of a rule twice as fine to 1e-10 of the largest.
    """
    if d < 3:
        raise ValueError("ambient dimension must be at least 3")
    if degree_max < 0:
        raise ValueError("degree_max must be nonnegative")
    q = quad_points or max(2 * degree_max + 32, 64)
    if q < 1:
        raise ValueError("the quadrature needs a positive node count, got %d" % q)
    coarse = _funk_hecke(profile, d, degree_max, q)
    fine = _funk_hecke(profile, d, degree_max, 2 * q)
    scale = max(np.abs(fine).max(), 1e-300)
    if np.abs(fine - coarse).max() > 1e-10 * scale:
        raise DecompositionError("quadrature non-convergence for the zonal profile")
    lam = fine
    degrees = np.arange(degree_max + 1)
    keep = lam > max(lam.max(), 0.0) * 1e-12
    if not include_degree_zero:
        keep[0] = False
    if not np.any(keep):
        raise DecompositionError("no positive eigenvalues retained")
    return SphereZonalBasis(lam[keep], degrees[keep], d)


def _funk_hecke(profile, d, degree_max, q):
    t, w = _gegenbauer_gauss(d, q)
    wg = w * np.asarray(profile(t), dtype=float)
    lam = np.empty(degree_max + 1)
    for k, ck in _normalized_gegenbauer(t, (d - 2) / 2.0, degree_max):
        lam[k] = float(wg @ ck)
    return lam


def _gegenbauer_gauss(d: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """q-node Gauss rule for T = <x, e>, x uniform on S^{d-1}: ascending nodes
    t on [-1, 1] and probability weights w, exact for polynomials of degree
    below 2q under the density proportional to (1-t^2)^{(d-3)/2}.

    Golub & Welsch (1969, Math. Comp. 23): the nodes are the eigenvalues of
    the Jacobi matrix J of the monic recurrence p_{k+1} = t p_k - beta_k
    p_{k-1}.  J has a zero diagonal, so J^2 couples only rows of equal
    parity; its even rows form a tridiagonal matrix of order ceil(q/2) whose
    eigenvalues are the squares of the nonnegative nodes.  One Newton step on
    R_q refines them, with (1-t^2) R_q'(t) = q (R_{q-1}(t) - t R_q(t)).  Since
    N(d, k) R_k are orthonormal under the law of T, the weights are the
    Christoffel numbers 1 / sum_{k<q} N(d, k) R_k(t)^2.  Both passes step
    :func:`_normalized_gegenbauer` over the ceil(q/2) nonnegative nodes only,
    in O(q) memory; the rule is mirrored about 0.
    """
    nu = (d - 2) / 2.0
    k = np.arange(1.0, q)
    beta = np.zeros(q + 1)  # beta_0 = beta_q = 0 pad the ends of J
    beta[1:q] = k * (k + 2.0 * nu - 1.0) / (4.0 * (k + nu) * (k + nu - 1.0))
    m = (q + 1) // 2
    # (J^2)_{2j,2j} = beta_{2j} + beta_{2j+1}, (J^2)_{2j,2j+2} = sqrt(beta_{2j+1} beta_{2j+2})
    diag = beta[0:2 * m:2] + beta[1:2 * m:2]
    off = np.sqrt(beta[1:2 * m - 2:2] * beta[2:2 * m - 1:2])
    band = np.diag(diag)
    np.fill_diagonal(band[1:], off)  # the lower triangle is all eigvalsh reads
    x = np.sqrt(np.clip(np.linalg.eigvalsh(band, UPLO="L"), 0.0, 1.0))
    if q % 2:
        x[0] = 0.0  # R_q is odd, so 0 is a node: exactly, and Newton keeps it
    (_, r_prev), (_, r_q) = collections.deque(_normalized_gegenbauer(x, nu, q), maxlen=2)
    x -= r_q * (1.0 - x * x) / (q * (r_prev - x * r_q))
    christoffel = np.zeros_like(x)
    for j, rj in _normalized_gegenbauer(x, nu, q - 1):
        christoffel += float(harmonic_dimension(d, j)) * rj * rj
    w = 1.0 / christoffel
    # the mirror must not repeat the node at 0 of an odd rule
    t = np.concatenate((-x[::-1], x[q % 2:]))
    w = np.concatenate((w[::-1], w[q % 2:]))
    return t, w / w.sum()


# ---------------------------------------------------------------------------
# reference bases


def cosine_basis(K: int) -> SpectralBasis:
    """Reference basis under Uniform[0,1]: lambda_k = (k pi)^-2, sqrt(2) cos(k pi x)."""
    k = np.arange(1, K + 1, dtype=float)
    lam = 1.0 / (k * math.pi) ** 2
    return SpectralBasis(
        lam, lambda X, m: cosine_features(X[:, 0], m).T,
        null_id="uniform-cube-1",
        degenerate=True,
        decay_exponent=1.0,
        sup_norms=np.full(K, math.sqrt(2.0)),
        meta={"kernel_id": "cosine-ref"},
    )


# ---------------------------------------------------------------------------
# spectrum files (binary, little-endian, version-stamped)

SPEC_FORMAT = "GOFKIT-SPEC v1"
_MAGIC = (SPEC_FORMAT + "\n").encode()


def save_spectrum(basis: SpectralBasis, path) -> None:
    """Serialize a basis to the versioned binary spectrum format."""
    import json

    if isinstance(basis, NystromBasis):
        if not basis.meta.get("kernel_id"):
            raise ValueError("a Nystrom basis saves only with a kernel id: the "
                             "loader rebuilds its kernel from that id")
        header = {
            "basis_type": "nystrom",
            "kernel_id": basis.meta["kernel_id"],
            "center": basis.center,
            "null_id": basis.null_id,
            "K": basis.truncation,
            "nodes": basis.quad.size,
            "dim": basis.quad.nodes.shape[1],
            "decay_exponent": basis.decay_exponent,
            "degenerate": basis.degenerate,
        }
        arrays = [basis.eigenvalues, basis.quad.nodes, basis.quad.weights,
                  basis.phi_nodes]
    elif isinstance(basis, SphereZonalBasis):
        header = {
            "basis_type": "zonal",
            "kernel_id": basis.meta.get("kernel_id", ""),
            "null_id": basis.null_id,
            "K": basis.truncation,
            "d": basis.d,
            "decay_exponent": basis.decay_exponent,
            "degenerate": basis.degenerate,
        }
        arrays = [basis.degree_eigenvalues, basis.degrees.astype(float)]
    else:
        raise ValueError("only Nystrom and zonal bases are cacheable")
    hjson = json.dumps(header).encode()
    parts = [_MAGIC, struct.pack("<I", len(hjson)), hjson]
    for arr in arrays:
        a = np.ascontiguousarray(arr, dtype="<f8")
        parts += [struct.pack("<I", a.ndim), struct.pack("<%dq" % a.ndim, *a.shape),
                  a.tobytes()]
    write_atomic(path, parts)


def write_atomic(path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to ``path`` through a temp file in the same directory,
    so ``path`` holds either its old content or all of the new."""
    tmp = "%s.%s.tmp" % (os.fspath(path), os.urandom(8).hex())
    try:
        with open(tmp, "xb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the replace failed
            os.remove(tmp)


def load_spectrum(path) -> SpectralBasis:
    """Load a basis saved by :func:`save_spectrum`.

    The basis derives its decay exponent and degeneracy from the stored
    eigenpairs; the header's copies are written for older readers only.  A
    Nystrom file whose header has no "center" entry (written before gofkit
    0.3.0 recorded centering) is refused with ValueError: nothing else in
    the file says whether its eigenfunctions belong to the centered kernel.
    """
    import json

    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError("not a %s spectrum cache" % SPEC_FORMAT)

        def read(size):
            data = fh.read(size)
            if len(data) != size:
                raise ValueError("truncated spectrum cache %s: %d of %d bytes at offset "
                                 "%d" % (path, len(data), size, fh.tell() - len(data)))
            return data

        hlen = struct.unpack("<I", read(4))[0]
        header = json.loads(read(hlen).decode())

        def read_array():
            ndim = struct.unpack("<I", read(4))[0]
            shape = struct.unpack("<%dq" % ndim, read(8 * ndim))
            count = int(np.prod(shape))
            return np.frombuffer(read(8 * count), dtype="<f8").reshape(shape).copy()

        if header["basis_type"] == "nystrom":
            if "center" not in header:
                raise ValueError("spectrum file %s does not record whether its kernel "
                                 "was centered (written before gofkit 0.3.0); rerun "
                                 "`gofkit decompose`" % path)
            lam = read_array()
            nodes = read_array()
            weights = read_array()
            phi_nodes = read_array()
            return NystromBasis(
                lam, resolve_kernel(header["kernel_id"]), Quadrature(nodes, weights),
                phi_nodes, center=header["center"],
                null_id=header["null_id"], kernel_id=header["kernel_id"])
        if header["basis_type"] == "zonal":
            lam = read_array()
            degrees = read_array().astype(int)
            return SphereZonalBasis(lam, degrees, header["d"], null_id=header["null_id"],
                                    meta={"kernel_id": header["kernel_id"]})
    raise ValueError("unknown basis type in spectrum cache")
