"""First-principles statistics that the benchmark checks gofkit's outputs against.

Nothing here calls gofkit. Eigenfunctions are written out explicitly:
``sqrt(2) cos(k pi x)`` for the cosine basis (and, as products, for its
tensor powers), and Legendre polynomials of the Gram matrix for zonal
kernels on the 2-sphere.
"""
from __future__ import annotations

import math

import numpy as np


class Summary:
    """Per-eigenvalue sums that every spectral statistic is a function of.

    ``mean_sq[k]`` is the squared sample mean of eigenfunction group k,
    ``diag_mean[k]`` the sample mean of its squares, and ``mult[k]`` the
    number of eigenfunctions sharing eigenvalue ``lam[k]``.
    """

    def __init__(self, lam, mean_sq, diag_mean, mult, n):
        self.lam = np.asarray(lam, float)
        self.mean_sq = np.asarray(mean_sq, float)
        self.diag_mean = np.asarray(diag_mean, float)
        self.mult = np.asarray(mult, float)
        self.n = n

    def mmd_vstat(self) -> float:
        return float(np.sum(self.lam * self.mean_sq))

    def studentized(self, rho: float) -> float:
        w = self.lam / (self.lam + rho * rho)
        v = float(np.sum(self.mult * w * w))
        num = self.n * float(np.sum(w * self.mean_sq)) - float(np.sum(w * self.diag_mean))
        return num / math.sqrt(2.0 * v)

    def adaptive(self, rho_star: float, m_star: int) -> float:
        return max(self.studentized(rho_star * 2.0 ** i) for i in range(m_star + 1))


def _from_features(phi: np.ndarray, lam: np.ndarray) -> Summary:
    m = phi.mean(axis=0)
    return Summary(lam, m * m, (phi * phi).mean(axis=0), np.ones(lam.size), phi.shape[0])


def cosine_summary(x: np.ndarray, K: int) -> Summary:
    """Summary of points in [0,1] under lambda_k = (k pi)^-2, sqrt(2) cos(k pi x)."""
    k = np.arange(1, K + 1, dtype=float)
    phi = math.sqrt(2.0) * np.cos(math.pi * np.outer(np.ravel(x), k))
    return _from_features(phi, 1.0 / (k * math.pi) ** 2)


def tensor_summary(X: np.ndarray, modes: np.ndarray) -> Summary:
    """Summary under products of cosine eigenfunctions, one mode index per coordinate.

    Mode 0 is the constant function with eigenvalue 1; mode k >= 1 is
    sqrt(2) cos(k pi x) with eigenvalue (k pi)^-2.
    """
    X = np.asarray(X, float)
    modes = np.asarray(modes, int)
    phi = np.ones((X.shape[0], modes.shape[0]))
    lam = np.ones(modes.shape[0])
    for j in range(modes.shape[1]):
        k = modes[:, j]
        active = k > 0
        phi[:, active] *= math.sqrt(2.0) * np.cos(math.pi * np.outer(X[:, j], k[active]))
        lam[active] /= (k[active] * math.pi) ** 2
    return _from_features(phi, lam)


def legendre_gram_sums(X: np.ndarray, degrees) -> dict:
    """sum_{i,j} P_k(<x_i, x_j>) for each degree k, by the three-term recurrence."""
    X = np.asarray(X, float)
    t = np.clip(X @ X.T, -1.0, 1.0)
    wanted = set(int(k) for k in degrees)
    out = {}
    prev, cur = np.ones_like(t), t
    for k in range(max(wanted) + 1):
        if k == 0:
            p = prev
        elif k == 1:
            p = cur
        else:
            prev, cur = cur, ((2 * k - 1) * t * cur - (k - 1) * prev) / k
            p = cur
        if k in wanted:
            out[k] = float(p.sum())
    return out


def sphere2_summary(gram_sums: dict, n: int, degrees, degree_eigenvalues) -> Summary:
    """Summary of n points on S^2 under a zonal kernel, from Legendre Gram sums.

    Degree k carries 2k+1 harmonics; by the addition theorem their summed
    squared means are (2k+1) n^-2 sum_{i,j} P_k(<x_i, x_j>).
    """
    mult = np.array([2 * int(k) + 1 for k in degrees], float)
    mean_sq = np.array([gram_sums[int(k)] for k in degrees]) * mult / (n * n)
    return Summary(degree_eigenvalues, mean_sq, mult, mult, n)


def close(got: float, want: float, rtol: float = 1e-8) -> bool:
    """Relative agreement, with an absolute floor of rtol for values near zero."""
    return math.isfinite(got) and abs(got - want) <= rtol * max(abs(want), 1.0)
