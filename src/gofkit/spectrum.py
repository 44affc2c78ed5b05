"""Spectral decompositions of Mercer kernels relative to a null distribution.

Bases are represented by their eigenvalues together with either an explicit
feature map (eigenfunction evaluator) or, for zonal kernels on spheres, a
degree-structured evaluator that routes all kernel evaluations through the
Gegenbauer addition theorem.
"""
from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special

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

    ``feature_fn(X) -> (n, K)`` evaluates the first K eigenfunctions at the
    rows of X; :meth:`head` evaluates a prefix of them.  Bases without an
    explicit feature map (spherical harmonics) override the
    kernel-evaluation entry points instead.  Without a ``decay_exponent``
    the basis fits one to its own eigenvalues (NaN for K < 8).
    """

    # (X, m) -> the first m eigenfunctions alone; set by bases that can
    # evaluate a prefix for less than the whole feature map
    _prefix_fn = None

    def __init__(
        self,
        eigenvalues: np.ndarray,
        feature_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
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
        if self._feature_fn is None:
            raise NotImplementedError("basis has no explicit eigenfunctions")
        return self._feature_fn(self._points(X))

    def head(self, X, m: int) -> np.ndarray:
        """The first m eigenfunctions at the rows of X: ``features(X)[:, :m]``."""
        if not 0 <= m <= self.truncation:
            raise ValueError("head needs 0 <= m <= K = %d, got %d" % (self.truncation, m))
        if self._prefix_fn is None:
            return self.features(X)[:, :m]
        return self._prefix_fn(self._points(X), m)

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
        m = total / n
        return SampleSummary(
            group_eigenvalues=self.eigenvalues,
            mean_sq=m * m,
            diag_mean=square / n,
            n=n,
        )


class _PrefixBasis(SpectralBasis):
    """A basis built from ``prefix_fn(X, m)``, which evaluates the first m
    eigenfunctions at the (already checked) rows of X without the rest."""

    def __init__(self, eigenvalues, prefix_fn, **kw):
        self._prefix_fn = prefix_fn
        super().__init__(eigenvalues, lambda X: prefix_fn(X, self.truncation), **kw)


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


class NystromBasis(_PrefixBasis):
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
    """Zonal-kernel basis on S^{d-1}; evaluation uses the addition theorem.

    Harmonics of degree k share one eigenvalue with multiplicity N(d, k);
    they are never materialized individually.  Points must be unit vectors
    in R^d (the null id defaults to uniform-sphere-d).  :meth:`summary`
    costs O(n^2 degree_max) time and O(block n) memory: it walks the Gram
    matrix in blocks of rows and steps one Gegenbauer recurrence through
    every degree up to ``max(degrees)``.  The basis is degenerate when
    degree 0, the constant, is not kept.
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
        super().__init__(expanded, None, degenerate=0 not in self.degrees, **kw)

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


# rows per block in SpectralBasis.summary: a block's features stay a few MB
_SUMMARY_BLOCK = 4096
# rows per block in SphereZonalBasis.summary: a block of the Gram matrix and
# the recurrence's terms stay in cache (256 rows ran 2.3x slower at n = 1000)
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
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")

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
    """v(rho) = sum_k (lambda_k / (lambda_k + rho^2))^2 at every rho of ``rhos``."""
    mod = moderate(eigenvalues, np.asarray(rhos, dtype=float)[:, None])
    return (mod * mod).sum(axis=1)


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
    so that the products remain orthonormal.
    """
    if d < 1 or K < 1:
        raise ValueError("d and K must be positive")
    if not factor.degenerate:
        raise ValueError("factor basis must be degenerate (centered)")
    values = np.concatenate(([1.0], factor.eigenvalues))
    if np.any(np.diff(values) > 1e-12 * values[0]):
        raise ValueError("constant-mode eigenvalue must dominate the factor")
    if d == 1:
        idx = np.arange(1, min(K, factor.truncation) + 1)[:, None]
    else:
        import heapq

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
        # multiply the coordinates' rows in order, as a column-by-column
        # product would; a constant row multiplies by exactly 1.  The indices
        # are in range: mode "clip" only skips the buffered copy of "raise"
        out, rows = np.empty((m, n)), np.empty((m, n))
        for j in range(d):
            np.take(table[:, j], modes[:, j], axis=0, out=rows if j else out, mode="clip")
            if j:
                out *= rows
        return out.T

    sup = None
    if factor.sup_norms is not None:
        per_mode = np.concatenate(([1.0], factor.sup_norms))
        sup = np.prod(per_mode[idx], axis=1)
    null_id = factor.null_id
    if null_id == "uniform-cube-1":
        null_id = "uniform-cube-%d" % d
    elif null_id:
        null_id = "%s^%d" % (null_id, d)
    return _PrefixBasis(
        lam, prefix_fn,
        null_id=null_id,
        degenerate=True,
        sup_norms=sup,
        meta={"tensor_indices": idx},
    )


def harmonic_dimension(d: int, k: int) -> int:
    """Dimension N(d, k) of degree-k spherical harmonics on S^{d-1}."""
    if k == 0:
        return 1
    return round((2 * k + d - 2) / (d - 2) * special.comb(k + d - 3, k, exact=True))


def sphere_surface_area(d: int) -> float:
    """Surface area of the unit sphere S^{d-1} in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def sphere_zonal_spectrum(profile, d: int, degree_max: int, *,
                          quad_points: Optional[int] = None,
                          include_degree_zero: bool = False) -> SphereZonalBasis:
    """Funk-Hecke eigenvalues of a zonal kernel g(<x, y>) on S^{d-1}.

    Degree-k eigenvalues come from Gauss-Jacobi quadrature of g against
    normalized Gegenbauer polynomials under weight (1-t^2)^{(d-3)/2}; the
    degree-0 (constant) block is dropped unless requested, which makes the
    basis degenerate under the uniform null.  The eigenvalues must agree
    with those of a rule twice as fine to 1e-10 of the largest.
    """
    if d < 3:
        raise ValueError("ambient dimension must be at least 3")
    if degree_max < 0:
        raise ValueError("degree_max must be nonnegative")
    q = quad_points or max(2 * degree_max + 32, 64)
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
    alpha = (d - 3) / 2.0
    t, w = special.roots_jacobi(q, alpha, alpha)
    wg = w * np.asarray(profile(t), dtype=float)
    ratio = math.gamma(d / 2.0) / (math.sqrt(math.pi) * math.gamma((d - 1) / 2.0))
    lam = np.empty(degree_max + 1)
    for k, ck in _normalized_gegenbauer(t, (d - 2) / 2.0, degree_max):
        lam[k] = ratio * float(wg @ ck)
    return lam


# ---------------------------------------------------------------------------
# reference bases


def cosine_basis(K: int) -> SpectralBasis:
    """Reference basis under Uniform[0,1]: lambda_k = (k pi)^-2, sqrt(2) cos(k pi x)."""
    k = np.arange(1, K + 1, dtype=float)
    lam = 1.0 / (k * math.pi) ** 2
    return _PrefixBasis(
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
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        hjson = json.dumps(header).encode()
        fh.write(struct.pack("<I", len(hjson)))
        fh.write(hjson)
        for arr in arrays:
            a = np.ascontiguousarray(arr, dtype="<f8")
            fh.write(struct.pack("<I", a.ndim))
            fh.write(struct.pack("<%dq" % a.ndim, *a.shape))
            fh.write(a.tobytes())


def load_spectrum(path) -> SpectralBasis:
    """Load a basis saved by :func:`save_spectrum`.

    The basis derives its decay exponent and degeneracy from the stored
    eigenpairs; the header's copies are written for older readers only.  A
    Nystrom file whose header has no "center" entry (written before the
    header recorded centering) loads with the uncentered kernel.
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
            lam = read_array()
            nodes = read_array()
            weights = read_array()
            phi_nodes = read_array()
            return NystromBasis(
                lam, resolve_kernel(header["kernel_id"]), Quadrature(nodes, weights),
                phi_nodes, center=header.get("center", False),
                null_id=header["null_id"], kernel_id=header["kernel_id"])
        if header["basis_type"] == "zonal":
            lam = read_array()
            degrees = read_array().astype(int)
            return SphereZonalBasis(lam, degrees, header["d"], null_id=header["null_id"],
                                    meta={"kernel_id": header["kernel_id"]})
    raise ValueError("unknown basis type in spectrum cache")
