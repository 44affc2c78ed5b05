"""Test statistics: MMD, moderated MMD, studentization and the adaptive maximum."""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
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
# grid statistics within this relative distance of the adaptive maximum tie
# with it: at small rho every moderated weight rounds to 1, and the
# statistics there differ only in their last bits
_ARGMAX_RTOL = 1e-12


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
    values: np.ndarray = field(init=False, compare=False)

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
    calibration: cal.NullCalibration = field(compare=False, repr=False)
    parameters: dict

    def __post_init__(self):
        if self.reject != (self.statistic > self.threshold):
            raise ValueError("decision inconsistent with threshold")
        if self.p_value is not None and (self.p_value <= self.alpha) != self.reject:
            raise ValueError("p-value inconsistent with decision")

    def to_dict(self) -> dict:
        c = self.calibration
        return {
            "kind": self.kind,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "reject": self.reject,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "calibration": {"method": c.method, "reps": c.reps, "seed": c.seed},
            "parameters": {
                k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.parameters.items()
            },
        }

    def to_text(self) -> str:
        c = self.calibration
        lines = [
            "kind: %s" % self.kind,
            "statistic: %.10g" % self.statistic,
            "threshold: %.10g" % self.threshold,
            "p_value: %s" % ("n/a" if self.p_value is None else "%.6g" % self.p_value),
            "reject: %s" % self.reject,
            "alpha: %g" % self.alpha,
            "calibration: %s (reps=%s, seed=%s)" % (c.method, c.reps, c.seed),
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


def studentized_stat(ms: ModeratedSpectrum, sample: Sample) -> float:
    """(2 v)^{-1/2} (n eta^2 - diag term); asymptotically N(0,1) under the null."""
    return float(_studentized(ms.basis, ms.basis.summary(sample.points), [ms.rho])[0])


def _studentized(basis: SpectralBasis, s: SampleSummary, rhos) -> np.ndarray:
    """The studentized statistic at every rho of ``rhos``, in one pass: row r
    of each (rho, eigenvalue) array below belongs to ``rhos[r]``.  v(rho)
    runs over every eigenvalue of the basis, not over the summary's groups."""
    rhos = np.asarray(rhos, dtype=float)
    if not np.all((rhos >= 0) & np.isfinite(rhos)):  # NaN fails too
        raise ValueError("rho must be finite and nonnegative")
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
    if not 0.0 <= theta < math.inf:  # NaN fails too
        raise ValueError("theta must be finite and nonnegative")
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
    # a tie goes to the lowest rho: the first grid value whose statistic is
    # within _ARGMAX_RTOL of the maximum, so that round-off along a flat
    # stretch of the grid does not move the reported argmax
    t = _studentized(basis, s, grid.values)
    value = t.max()
    i = int(np.argmax(t >= value - _ARGMAX_RTOL * abs(value)))
    return AdaptiveStat(value=float(value), argmax_rho=float(grid.values[i]))


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


def null_key(kind: str, n: Optional[int]) -> tuple:
    """What the null of test ``kind`` at sample size ``n`` depends on besides
    the spectrum and alpha: n MMD^2 tends to sum_k lambda_k Z_k^2 and the
    studentized statistic to N(0,1) whatever n is, while the adaptive
    maximum's grid and threshold move with n."""
    if kind not in ("mmd", "m3d", "adaptive"):
        raise ValueError("unknown test kind: %r" % kind)
    return kind, (n if kind == "adaptive" else None)


def spectrum_digest(basis: SpectralBasis) -> str:
    """sha256 of the basis's eigenvalues as little-endian float64."""
    lam = np.ascontiguousarray(basis.eigenvalues, dtype="<f8")
    return hashlib.sha256(lam.tobytes()).hexdigest()


def moderation(kind: str, basis: SpectralBasis, n: int, *, rho: Optional[float] = None,
               theta: Optional[float] = None) -> tuple:
    """(rho, grid) of test ``kind`` at sample size ``n``: m3d takes ``rho`` or
    :func:`rho_schedule` at ``theta``, adaptive :func:`adaptive_grid`."""
    if kind != "m3d":
        if rho is not None or theta is not None:
            raise ValueError("%s takes no rho or theta; they set the moderation of m3d"
                             % kind)
        return None, adaptive_grid(n, basis.decay_exponent) if kind == "adaptive" else None
    if rho is not None and theta is not None:
        raise ValueError("m3d takes rho or theta, not both")
    if rho is None and theta is None:
        raise ValueError("m3d requires rho (or theta for the schedule)")
    return rho if theta is None else rho_schedule(n, basis.decay_exponent, theta), None


def null_calibration(kind: str, basis: SpectralBasis, n: Optional[int], alpha: float, *,
                     calibrate: Optional[str] = None, reps: Optional[int] = None,
                     seed: Optional[int] = None) -> cal.NullCalibration:
    """Null calibration of test ``kind`` at sample size ``n``, stamped with its
    :func:`null_key` and :func:`spectrum_digest`.  ``calibrate=None`` takes the
    kind's method: "mc" (chi-square-mixture MC for mmd, empirical MC over null
    samples for adaptive) or "normal" (m3d); "theory" is adaptive's sqrt(3 log
    log n).  ``reps=None`` takes the calibrator's default; MC needs a seed."""
    kind, key_n = null_key(kind, n)
    if calibrate not in (None, "mc", "normal", "theory"):
        raise ValueError("unknown --calibrate mode %r" % calibrate)
    if calibrate == "theory":
        if kind != "adaptive":
            raise ValueError("theory calibration applies to the adaptive test")
        c = cal.NullCalibration(method="theory-loglog", alpha=alpha,
                                quantile=theory_threshold(n), reps=None, seed=None)
    elif kind == "m3d":
        if calibrate == "mc" or reps is not None:
            raise ValueError("m3d is calibrated by the normal quantile; Monte-Carlo "
                             "calibration and its rep count apply to mmd and adaptive")
        c = cal.normal_calibration(alpha)
    elif calibrate == "normal":
        raise ValueError("normal calibration applies to the m3d test")
    elif seed is None:
        raise ValueError("Monte-Carlo calibration requires a seed (--seed)")
    elif kind == "mmd":
        c = cal.chisq_mix_quantile(
            basis.eigenvalues, alpha,
            reps=cal.CHISQ_REPS if reps is None else reps, seed=seed)
    else:
        grid = moderation(kind, basis, n)[1]
        c = cal.empirical_null_quantile(
            lambda x: statistic("adaptive", basis, basis.summary(x), grid=grid),
            dists.null_sampler(basis.null_id),
            n, alpha, reps=cal.EMPIRICAL_REPS if reps is None else reps, seed=seed)
    return replace(c, kind=kind, n=key_n, spectrum=spectrum_digest(basis))


# ---------------------------------------------------------------------------
# test runner


def run_test(kind: str, basis: SpectralBasis, sample: Sample, alpha: float, *,
             rho: Optional[float] = None, theta: Optional[float] = None,
             calibration: Optional[cal.NullCalibration] = None,
             calibrate: Optional[str] = None, reps: Optional[int] = None,
             seed: Optional[int] = None) -> TestReport:
    """Run one goodness-of-fit test and assemble its report.

    ``rho`` and ``theta`` go to :func:`moderation`.  ``calibration`` is a
    :func:`null_calibration` made for this kind, n, alpha and spectrum
    (ValueError otherwise); without one, ``calibrate``, ``reps`` and ``seed``
    go to ``null_calibration``, called once every other argument is checked.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    n = sample.n
    rho, grid = moderation(kind, basis, n, rho=rho, theta=theta)
    if calibration is None:
        calibration = null_calibration(kind, basis, n, alpha, calibrate=calibrate,
                                       reps=reps, seed=seed)
    elif (calibrate, reps, seed) != (None, None, None):
        raise ValueError("calibration (--calibration) and calibrate, reps or seed "
                         "(--calibrate, --seed) exclude each other")
    want = dict(zip(("kind", "n"), null_key(kind, n)), alpha=alpha,
                spectrum=spectrum_digest(basis))
    diff = ["%s %s (calibration) != %s (test)" % (k, getattr(calibration, k), v)
            for k, v in want.items() if getattr(calibration, k) != v]
    if diff:
        raise ValueError("the calibration was made for another test: " + "; ".join(diff))
    params: dict = {"K": basis.truncation, "alpha": alpha}
    if rho is not None:
        params["rho"] = rho
    summary = basis.summary(sample.points)
    if kind == "adaptive":
        best = _adaptive(basis, grid, summary)
        stat = best.value
        params.update(rho_star=grid.rho_star, m_star=grid.m_star,
                      argmax_rho=best.argmax_rho, theory_threshold=theory_threshold(n))
    else:
        stat = statistic(kind, basis, summary, rho=rho)
    thr = calibration.quantile
    return TestReport(
        kind=kind,
        statistic=float(stat),
        threshold=float(thr),
        reject=bool(stat > thr),
        p_value=calibration.p_value(stat),
        alpha=alpha,
        calibration=calibration,
        parameters=params,
    )
