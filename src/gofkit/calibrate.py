"""Null-distribution quantiles and p-values for the three tests.

The MMD null sum_k lambda_k Z_k^2 is drawn with one variate per distinct
eigenvalue: lambda * chi^2_m for a value shared by m eigenfunctions.  The
draws go through one buffer of at most ``_CHISQ_BYTES``, so the working
memory of a calibration does not grow with the spectrum; blocks of
``_CHISQ_CHUNK`` rows fix only the order in which the random stream is read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Optional

import numpy as np

# default Monte-Carlo sizes: chi-square-mixture draws (mmd) and null
# replications of the statistic (adaptive)
CHISQ_REPS = 100_000
EMPIRICAL_REPS = 200
# chi-square-mixture rows per block.  It fixes only the stream order: each
# block reads all its normals, then all its tied chi-square variates, so a
# change here changes the replicates.  Memory is bounded by _CHISQ_BYTES
_CHISQ_CHUNK = 8192
# bytes of the one buffer a block's variates are drawn and reduced through
_CHISQ_BYTES = 1 << 20


@dataclass(frozen=True)
class NullCalibration:
    """A calibrated rejection threshold plus enough state for p-values.

    For Monte-Carlo methods the replicate statistics are kept so that
    p-values are tail fractions consistent with the stored quantile.
    ``kind``, ``n`` and ``spectrum`` say what the null was made for; the
    calibrators below leave them unset, ``embedding.null_calibration`` sets them.
    """

    method: str  # chisq-mixture-mc | normal | empirical-mc | theory-loglog
    alpha: float
    quantile: float
    reps: Optional[int]
    seed: Optional[int]
    kind: Optional[str] = None
    n: Optional[int] = None  # None when the null does not depend on n
    spectrum: Optional[str] = None  # sha256 of the eigenvalues, little-endian f8
    replicates: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.method.endswith("-mc") and (self.reps is None or self.reps < 100):
            raise ValueError("Monte-Carlo calibration requires reps >= 100")

    def p_value(self, statistic: float) -> Optional[float]:
        """Upper-tail p-value; None when the method admits none."""
        if self.method == "normal":
            return normal_cdf(-statistic)
        if self.replicates is not None:
            # plain tail fraction: exactly consistent with the stored
            # ceil((1-alpha) reps) order-statistic threshold
            return float(np.sum(self.replicates >= statistic)) / self.replicates.size
        return None


def order_stat_quantile(values: np.ndarray, alpha: float) -> float:
    """Order statistic at 1-based index ceil((1-alpha) * len(values)), found
    by selection rather than a full sort."""
    values = np.asarray(values, dtype=float)
    idx = min(math.ceil((1.0 - alpha) * values.size), values.size)
    return float(np.partition(values, idx - 1)[idx - 1])


def normal_cdf(x: float) -> float:
    """Phi(x) of the standard normal.  Through erfc, not the 1 + erf of
    ``NormalDist.cdf``, so the lower tail keeps its relative accuracy: an
    upper-tail p-value Phi(-z) is good to ~1e-14 relative out to z = 37,
    where 1 + erf rounds to 0 from z = 8.4."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(alpha: float) -> float:
    """z_{1-alpha} of the standard normal (Wichura's AS241 rational approximation)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return NormalDist().inv_cdf(1.0 - alpha)


def normal_calibration(alpha: float) -> NullCalibration:
    return NullCalibration(method="normal", alpha=alpha,
                           quantile=normal_quantile(alpha), reps=None, seed=None)


def chisq_mix_quantile(eigenvalues, alpha: float, reps: int = CHISQ_REPS,
                       seed: Optional[int] = None) -> NullCalibration:
    """Empirical (1-alpha) quantile of W = sum_k lambda_k Z_k^2 over MC draws.

    The simulation is truncated at the given spectrum.  Each block draws the
    simple eigenvalues' squared normals first, in spectrum order, so an
    all-distinct spectrum gives the replicates of one normal per eigenfunction.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if not np.all(lam > 0):
        raise ValueError("eigenvalues must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if reps < 100:
        raise ValueError("reps must be at least 100")
    values, counts = np.unique(lam, return_counts=True)
    simple = lam[counts[np.searchsorted(values, lam)] == 1]
    tied, dof = values[counts > 1], counts[counts > 1]
    # sub-blocks of a power of two rows: they tile each block, and every row
    # falls in the same place of BLAS gemv's row groups as in one
    # whole-block product, so the replicates keep their bits
    fit = _CHISQ_BYTES // (8 * max(simple.size, tied.size, 1))
    rows = min(1 << max(fit.bit_length() - 1, 4), _CHISQ_CHUNK)
    z = np.empty((rows, simple.size))
    rng = np.random.default_rng(seed)
    draws = np.empty(reps)
    for start in range(0, reps, _CHISQ_CHUNK):
        subs = [(a, min(a + rows, reps))
                for a in range(start, min(start + _CHISQ_CHUNK, reps), rows)]
        for a, b in subs:
            zs = rng.standard_normal(out=z[:b - a])
            np.dot(np.square(zs, out=zs), simple, out=draws[a:b])
        for a, b in subs if tied.size else ():
            draws[a:b] += rng.chisquare(dof, (b - a, dof.size)) @ tied
    return NullCalibration(
        method="chisq-mixture-mc", alpha=alpha,
        quantile=order_stat_quantile(draws, alpha),
        reps=reps, seed=seed, replicates=draws)


def empirical_null_quantile(statistic: Callable, null_sampler: Callable,
                            n: int, alpha: float, reps: int = EMPIRICAL_REPS,
                            seed: Optional[int] = None) -> NullCalibration:
    """Sample (1-alpha) quantile of ``statistic`` over null replications.

    Replicate RNG streams are spawned from a SeedSequence keyed by
    (seed, replicate index), so aggregation is order-independent.
    """
    if reps < 100:
        raise ValueError("reps must be at least 100")
    children = np.random.SeedSequence(seed).spawn(reps)
    stats = np.empty(reps)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        stats[i] = statistic(null_sampler(n, rng))
    return NullCalibration(
        method="empirical-mc", alpha=alpha,
        quantile=order_stat_quantile(stats, alpha),
        reps=reps, seed=seed, replicates=stats)
