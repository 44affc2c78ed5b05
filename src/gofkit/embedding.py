"""Test statistics: MMD, moderated MMD, studentization and the adaptive maximum."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import calibrate as cal
from . import dists
from .spectrum import (
    ModeratedSpectrum,
    SampleSummary,
    SpectralBasis,
    moderate,
    moderated_variance,
)

GRAM_SIZE_LIMIT = 4096


@dataclass(frozen=True)
class Sample:
    """An ordered batch of observations; rows are points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("sample must contain at least one point")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_csv(cls, path) -> "Sample":
        pts = np.loadtxt(path, delimiter=",", ndmin=2)
        return cls(pts)


@dataclass(frozen=True)
class RhoGrid:
    """Dyadic moderation grid rho_*, 2 rho_*, ..., 2^{m_*} rho_*."""

    rho_star: float
    m_star: int
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.rho_star <= 0:
            raise ValueError("rho_star must be positive")
        if self.m_star < 0:
            raise ValueError("m_star must be nonnegative")
        values = self.rho_star * np.exp2(np.arange(self.m_star + 1))
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class TestReport:
    __test__ = False  # keep pytest from collecting this as a test class

    kind: str
    statistic: float
    threshold: float
    reject: bool
    p_value: Optional[float]
    alpha: float
    calibration_method: str
    calibration_reps: Optional[int]
    calibration_seed: Optional[int]
    parameters: dict

    def __post_init__(self):
        if self.reject != (self.statistic > self.threshold):
            raise ValueError("decision inconsistent with threshold")
        if self.p_value is not None and (self.p_value <= self.alpha) != self.reject:
            raise ValueError("p-value inconsistent with decision")

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "reject": self.reject,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "calibration": {
                "method": self.calibration_method,
                "reps": self.calibration_reps,
                "seed": self.calibration_seed,
            },
            "parameters": {
                k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.parameters.items()
            },
        }
        return out

    def to_text(self) -> str:
        lines = [
            "kind: %s" % self.kind,
            "statistic: %.10g" % self.statistic,
            "threshold: %.10g" % self.threshold,
            "p_value: %s" % ("n/a" if self.p_value is None else "%.6g" % self.p_value),
            "reject: %s" % self.reject,
            "alpha: %g" % self.alpha,
            "calibration: %s (reps=%s, seed=%s)"
            % (self.calibration_method, self.calibration_reps, self.calibration_seed),
        ]
        for k, v in sorted(self.parameters.items()):
            lines.append("%s: %s" % (k, v))
        return "\n".join(lines)


class AdaptiveStat(NamedTuple):
    value: float
    argmax_rho: float


# ---------------------------------------------------------------------------
# statistics: each public function summarises its sample and applies a
# summary formula below; m3d and adaptive share one, vectorised over rho


def mmd_vstat(basis: SpectralBasis, sample: Sample) -> float:
    """Empirical squared MMD, sum_k lambda_k (mean_i phi_k(X_i))^2."""
    return _mmd_from_summary(basis, basis.summary(sample.points))


def _mmd_from_summary(basis: SpectralBasis, s: SampleSummary) -> float:
    if not basis.degenerate:
        raise ValueError("MMD requires a degenerate (centered) basis")
    return float(np.sum(s.group_eigenvalues * s.mean_sq))


def eta_sq(ms: ModeratedSpectrum, sample: Sample) -> float:
    """Empirical squared moderated MMD."""
    s = ms.basis.summary(sample.points)
    return float(np.sum(moderate(s.group_eigenvalues, ms.rho) * s.mean_sq))


def eta_sq_gram(ms: ModeratedSpectrum, sample: Sample,
                limit: int = GRAM_SIZE_LIMIT) -> float:
    """Gram-form n^-2 sum_{i,j} K~_rho(X_i, X_j); equals :func:`eta_sq`."""
    if sample.n > limit:
        raise ValueError("sample exceeds the Gram-size limit (%d)" % limit)
    weights = ms.moderated_eigenvalues
    gram = ms.basis.kernel_matrix(sample.points, weights=weights)
    return float(gram.sum()) / (sample.n ** 2)


def diag_term(ms: ModeratedSpectrum, sample: Sample) -> float:
    """n^-1 sum_i K~_rho(X_i, X_i)."""
    weights = ms.moderated_eigenvalues
    return float(ms.basis.kernel_diag(sample.points, weights=weights).mean())


def studentized_stat(ms: ModeratedSpectrum, sample: Sample) -> float:
    """(2 v)^{-1/2} (n eta^2 - diag term); asymptotically N(0,1) under the null."""
    return float(_studentized(ms.basis, ms.basis.summary(sample.points), [ms.rho])[0])


def _studentized(basis: SpectralBasis, s: SampleSummary, rhos) -> np.ndarray:
    """The studentized statistic at every rho of ``rhos``, in one pass: row r
    of each (rho, eigenvalue) array below belongs to ``rhos[r]``.  v(rho)
    runs over every eigenvalue of the basis, not over the summary's groups."""
    rhos = np.asarray(rhos, dtype=float)
    if np.any(rhos < 0):
        raise ValueError("rho must be nonnegative")
    v = moderated_variance(basis.eigenvalues, rhos)
    if np.any(v <= 0):
        raise ValueError("effective variance must be positive")
    w = moderate(s.group_eigenvalues, rhos[:, None])
    num = s.n * (w * s.mean_sq).sum(axis=1) - (w * s.diag_mean).sum(axis=1)
    return num / np.sqrt(2.0 * v)


def _check_decay(s: float) -> None:
    if not s > 0.5:  # NaN fails too
        raise ValueError("decay exponent s must exceed 1/2, got %r (a spectrum "
                         "with K < 8 eigenvalues has no fitted s)" % s)


def rho_schedule(n: int, s: float, theta: float = 0.0, c: float = 1.0) -> float:
    """Rate-optimal moderation c n^{-2 s (theta+1) / (4 s + theta + 1)}."""
    if n < 2:
        raise ValueError("n must be at least 2")
    _check_decay(s)
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if c <= 0:
        raise ValueError("c must be positive")
    return c * n ** (-2.0 * s * (theta + 1.0) / (4.0 * s + theta + 1.0))


def adaptive_grid(n: int, s: float) -> RhoGrid:
    """Dyadic grid from rho_* = (sqrt(log log n)/n)^{2s} up past the target scale."""
    if n < 16:
        raise ValueError("adaptive grid requires n >= 16")
    _check_decay(s)
    root = math.sqrt(math.log(math.log(n))) / n
    rho_star = root ** (2.0 * s)
    top = root ** (2.0 * s / (4.0 * s + 1.0))
    m_star = math.ceil(math.log2(top / rho_star))
    return RhoGrid(rho_star=rho_star, m_star=m_star)


def theory_threshold(n: int) -> float:
    """sqrt(3 log log n), the theoretical adaptive rejection threshold."""
    if n < 16:
        raise ValueError("requires n >= 16")
    return math.sqrt(3.0 * math.log(math.log(n)))


def adaptive_stat(basis: SpectralBasis, grid: RhoGrid, sample: Sample) -> AdaptiveStat:
    """Maximum of the studentized statistic over the moderation grid."""
    return _adaptive(basis, grid, basis.summary(sample.points))


def _adaptive(basis: SpectralBasis, grid: RhoGrid, s: SampleSummary) -> AdaptiveStat:
    # argmax takes the first maximiser, so a tie goes to the lowest rho
    t = _studentized(basis, s, grid.values)
    i = int(np.argmax(t))
    return AdaptiveStat(value=float(t[i]), argmax_rho=float(grid.values[i]))


# ---------------------------------------------------------------------------
# dispatch: the one place that knows each test's statistic and null.  Callees
# are looked up at call time, so patching e.g. ``cal.chisq_mix_quantile``
# reaches every caller.


def statistic(kind: str, basis: SpectralBasis, summary: SampleSummary, *,
              rho: Optional[float] = None, grid: Optional[RhoGrid] = None) -> float:
    """n MMD^2 (mmd), the studentized moderated MMD at ``rho`` (m3d) or its
    maximum over ``grid`` (adaptive), all read from one ``basis.summary``."""
    if kind == "mmd":
        return summary.n * _mmd_from_summary(basis, summary)
    if kind == "m3d":
        return float(_studentized(basis, summary, [rho])[0])
    if kind == "adaptive":
        return _adaptive(basis, grid, summary).value
    raise ValueError("unknown test kind: %r" % kind)


def null_calibration(kind: str, basis: SpectralBasis, n: Optional[int], alpha: float, *,
                     reps: Optional[int] = None, seed: Optional[int] = None,
                     grid: Optional[RhoGrid] = None,
                     theory: bool = False) -> cal.NullCalibration:
    """Null calibration of test ``kind`` at sample size ``n``: chi-square-
    mixture MC for mmd (independent of n), the normal quantile for m3d, and
    empirical MC over null samples for adaptive (or, with ``theory``, the
    sqrt(3 log log n) threshold).  ``reps=None`` takes the calibrator's
    default; Monte-Carlo needs a seed."""
    if kind not in ("mmd", "m3d", "adaptive"):
        raise ValueError("unknown test kind: %r" % kind)
    if theory:
        if kind != "adaptive":
            raise ValueError("theory calibration applies to the adaptive test")
        return cal.NullCalibration(method="theory-loglog", alpha=alpha,
                                   quantile=theory_threshold(n), reps=None, seed=None)
    if kind == "m3d":
        if reps is not None:
            raise ValueError("m3d is calibrated by the normal quantile; a "
                             "Monte-Carlo rep count applies to mmd and adaptive")
        return cal.normal_calibration(alpha)
    if seed is None:
        raise ValueError("Monte-Carlo calibration requires a seed (--seed)")
    if kind == "mmd":
        return cal.chisq_mix_quantile(
            basis.eigenvalues, alpha,
            reps=cal.CHISQ_REPS if reps is None else reps, seed=seed)
    if grid is None:
        grid = adaptive_grid(n, basis.decay_exponent)
    return cal.empirical_null_quantile(
        lambda x: statistic("adaptive", basis, basis.summary(x), grid=grid),
        dists.null_sampler(basis.null_id),
        n, alpha, reps=cal.EMPIRICAL_REPS if reps is None else reps, seed=seed)


# ---------------------------------------------------------------------------
# test runner


def run_test(kind: str, basis: SpectralBasis, sample: Sample, alpha: float, *,
             rho: Optional[float] = None,
             theta: Optional[float] = None,
             grid: Optional[RhoGrid] = None,
             calibration=None,
             calibrate_reps: Optional[int] = None,
             seed: Optional[int] = None,
             threshold: str = "mc") -> TestReport:
    """Run one goodness-of-fit test and assemble its report.

    m3d takes ``rho`` or derives it from ``theta`` by :func:`rho_schedule`;
    adaptive takes ``grid`` or uses :func:`adaptive_grid`.  ``calibration``
    may be a precomputed NullCalibration; otherwise :func:`null_calibration`
    builds one from ``calibrate_reps`` and ``seed`` (``threshold='theory'``
    selects the adaptive test's theory threshold, ``'mc'`` the default).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if threshold not in ("mc", "theory"):
        raise ValueError("threshold must be 'mc' or 'theory', got %r" % threshold)
    n = sample.n
    params: dict = {"K": basis.truncation, "alpha": alpha}
    if kind == "m3d":
        if rho is None:
            if theta is None:
                raise ValueError("m3d requires rho (or theta for the schedule)")
            rho = rho_schedule(n, basis.decay_exponent, theta)
        params["rho"] = rho
    summary = basis.summary(sample.points)
    if kind == "adaptive":
        if grid is None:
            grid = adaptive_grid(n, basis.decay_exponent)
        best = _adaptive(basis, grid, summary)
        stat = best.value
        params.update(rho_star=grid.rho_star, m_star=grid.m_star,
                      argmax_rho=best.argmax_rho, theory_threshold=theory_threshold(n))
    else:
        stat = statistic(kind, basis, summary, rho=rho)
    if calibration is None:
        calibration = null_calibration(kind, basis, n, alpha, reps=calibrate_reps,
                                       seed=seed, grid=grid,
                                       theory=threshold == "theory")
    thr = calibration.quantile
    return TestReport(
        kind=kind,
        statistic=float(stat),
        threshold=float(thr),
        reject=bool(stat > thr),
        p_value=calibration.p_value(stat),
        alpha=alpha,
        calibration_method=calibration.method,
        calibration_reps=calibration.reps,
        calibration_seed=calibration.seed,
        parameters=params,
    )
