"""Replication harness: level checks, power curves and detection-boundary probes."""
from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from . import calibrate as cal
from . import dists
from .embedding import moderation, null_calibration, null_key, rho_schedule, statistic
from .spectrum import SpectralBasis

CSV_HEADER = ["test", "n", "dim", "alternative", "replicate", "reject",
              "statistic", "threshold", "seed"]


@dataclass
class ExperimentPlan:
    """Full factorial power experiment over tests x sample sizes x alternatives."""

    basis: SpectralBasis
    alternatives: dict  # label -> AlternativeSpec
    tests: Sequence[str]
    n_list: Sequence[int]
    reps: int = 100
    alpha: float = 0.05
    seed: int = 0
    mmd_calibration_reps: int = cal.CHISQ_REPS
    adaptive_calibration_reps: int = cal.EMPIRICAL_REPS
    theta: float = 0.0

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("replication count must be at least 1")
        if "adaptive" in self.tests and min(self.n_list) < 16:
            raise ValueError("adaptive test requires n >= 16")
        for kind in self.tests:
            if kind not in ("mmd", "m3d", "adaptive"):
                raise ValueError("unknown test kind: %r" % kind)


@dataclass(frozen=True)
class PowerRow:
    test: str
    n: int
    dim: int
    alternative: str
    replicate: int
    reject: bool
    statistic: float
    threshold: float
    seed: int


@dataclass
class PowerTable:
    rows: List[PowerRow] = field(default_factory=list)

    def rejection_rate(self, test: str, n: int, alternative: str) -> float:
        flags = [r.reject for r in self.rows
                 if r.test == test and r.n == n and r.alternative == alternative]
        if not flags:
            raise KeyError("no rows for (%s, %d, %s)" % (test, n, alternative))
        return float(np.mean(flags))

    def aggregate(self) -> List[dict]:
        """Per-cell rejection rates in deterministic (test, n, alternative) order."""
        cells = {}
        for r in self.rows:
            cells.setdefault((r.test, r.n, r.alternative), []).append(r.reject)
        out = []
        for (test, n, alt), flags in sorted(cells.items()):
            out.append({"test": test, "n": n, "alternative": alt,
                        "reps": len(flags), "reject_rate": float(np.mean(flags)),
                        "accept_error": 1.0 - float(np.mean(flags))})
        return out

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in self.rows:
            writer.writerow([r.test, r.n, r.dim, r.alternative, r.replicate,
                             int(r.reject), repr(r.statistic), repr(r.threshold),
                             r.seed])
        return buf.getvalue()


def _replicate_seed(master: int, *indices: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master, spawn_key=tuple(indices))


def _calibration(cache: dict, master: int, kind: str, basis: SpectralBasis,
                 n: int, alpha: float, reps: Optional[int]) -> cal.NullCalibration:
    """The calibration of ``kind`` at ``n``, made once per :func:`null_key` in
    ``cache``, seeded from spawn key (0,) if its null is free of n, else (1, n)."""
    key = null_key(kind, n)
    if key not in cache:
        spawn = (0,) if key[1] is None else (1, key[1])
        seed = int(_replicate_seed(master, *spawn).generate_state(1)[0])
        cache[key] = null_calibration(kind, basis, n, alpha, reps=reps, seed=seed)
    return cache[key]


def run_plan(plan: ExperimentPlan) -> PowerTable:
    """Execute the full factorial; deterministic given the plan's master seed.

    Each replicate is drawn from spawn key (2, 0, n, alternative, rep) and
    summarised once, and every test reads that one summary, so the tests'
    rows are paired (common random numbers).  Rows come out in (test, n,
    alternative, rep) order.  Each calibration is computed once per
    :func:`null_key`, however many n share it.
    """
    basis = plan.basis
    alt_labels = sorted(plan.alternatives)
    reps = {"mmd": plan.mmd_calibration_reps,
            "adaptive": plan.adaptive_calibration_reps}
    calibrations = {}
    rows = [[] for _ in plan.tests]
    for n_idx, n in enumerate(plan.n_list):
        tests = []  # (kind, rho, grid, threshold) per test at this n
        for kind in plan.tests:
            rho, grid = moderation(kind, basis, n,
                                   theta=plan.theta if kind == "m3d" else None)
            thr = _calibration(calibrations, plan.seed, kind, basis, n, plan.alpha,
                               reps.get(kind)).quantile
            tests.append((kind, rho, grid, thr))
        for a_idx, label in enumerate(alt_labels):
            spec = plan.alternatives[label]
            for rep in range(plan.reps):
                ss = _replicate_seed(plan.seed, 2, 0, n_idx, a_idx, rep)
                rep_seed = int(ss.generate_state(1)[0])
                summary = basis.summary(dists.sample(spec, n, seed=ss))
                for out, (kind, rho, grid, thr) in zip(rows, tests):
                    stat = statistic(kind, basis, summary, rho=rho, grid=grid)
                    out.append(PowerRow(
                        test=kind, n=n, dim=spec.dim, alternative=label,
                        replicate=rep, reject=bool(stat > thr),
                        statistic=float(stat), threshold=float(thr),
                        seed=rep_seed))
    return PowerTable([row for out in rows for row in out])


# ---------------------------------------------------------------------------
# detection-boundary probes


def boundary_probe(basis: SpectralBasis, kind: str, s: float, theta: float,
                   n_list: Sequence[int],
                   deltas: Union[Sequence[float], Callable[[int], Sequence[float]]],
                   reps: int, seed: int, *, alpha: float = 0.05,
                   alt_mode: str = "multi",
                   mmd_calibration_reps: int = cal.CHISQ_REPS) -> List[dict]:
    """Power of ``kind`` against least-favorable alternatives on a (n, delta) grid.

    ``deltas`` may be a fixed separation list or a callable n -> list.
    Returns rows of {"n", "delta", "power"}.  Sizes that share a
    :func:`null_key` share one calibration, as in :func:`run_plan`.
    """
    if kind not in ("mmd", "m3d"):
        raise ValueError("boundary probe supports 'mmd' and 'm3d'")
    calibrations = {}
    rows = []
    for n_idx, n in enumerate(n_list):
        thr = _calibration(calibrations, seed, kind, basis, n, alpha,
                           mmd_calibration_reps if kind == "mmd" else None).quantile
        dgrid = deltas(n) if callable(deltas) else deltas
        rho = rho_schedule(n, s, theta) if kind == "m3d" else None
        for d_idx, delta in enumerate(dgrid):
            rejects = 0
            for rep in range(reps):
                ss = _replicate_seed(seed, 3, n_idx, d_idx, rep)
                if delta == 0.0:
                    sampler = dists.null_sampler(basis.null_id)
                    x = sampler(n, np.random.default_rng(ss))
                else:
                    alt = dists.least_favorable(basis, n, s, theta, delta,
                                                seed=ss, mode=alt_mode)
                    x = dists.sample(alt, n, seed=ss.spawn(1)[0])
                rejects += statistic(kind, basis, basis.summary(x), rho=rho) > thr
            rows.append({"n": n, "delta": float(delta), "power": rejects / reps})
    return rows


def fit_boundary(rows: Sequence[dict], target_power: float = 0.5) -> dict:
    """Per-n boundary (smallest delta with power >= target, log-interpolated)
    and the log-log slope of the boundary against n."""
    by_n = {}
    for r in rows:
        by_n.setdefault(r["n"], []).append((r["delta"], r["power"]))
    boundaries = {}
    for n, pts in by_n.items():
        pts.sort()
        deltas = np.array([p[0] for p in pts])
        powers = np.array([p[1] for p in pts])
        idx = np.flatnonzero(powers >= target_power)
        if idx.size == 0 or np.all(powers >= target_power):
            continue
        hi = idx[0]
        if hi == 0:
            boundaries[n] = deltas[0]
            continue
        lo = hi - 1
        # linear interpolation of power in log delta
        frac = (target_power - powers[lo]) / (powers[hi] - powers[lo])
        boundaries[n] = math.exp(
            math.log(deltas[lo]) + frac * (math.log(deltas[hi]) - math.log(deltas[lo])))
    if len(boundaries) < 2:
        raise ValueError("not enough crossings to fit a boundary slope")
    ns = np.array(sorted(boundaries))
    bs = np.array([boundaries[n] for n in ns])
    slope = float(np.polyfit(np.log(ns), np.log(bs), 1)[0])
    return {"boundaries": boundaries, "slope": slope}


# ---------------------------------------------------------------------------
# emission

_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render acceptance-error-versus-n curves from the accompanying power CSV.\"\"\"
import csv
import sys
from collections import defaultdict

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "power.csv"
cells = defaultdict(list)
with open(path) as fh:
    for row in csv.DictReader(fh):
        cells[(row["alternative"], row["test"], int(row["n"]))].append(int(row["reject"]))

alts = sorted({k[0] for k in cells})
fig, axes = plt.subplots(1, len(alts), figsize=(5 * len(alts), 4), squeeze=False)
for ax, alt in zip(axes[0], alts):
    tests = sorted({k[1] for k in cells if k[0] == alt})
    for test in tests:
        ns = sorted({k[2] for k in cells if k[:2] == (alt, test)})
        err = [1.0 - sum(cells[(alt, test, n)]) / len(cells[(alt, test, n)]) for n in ns]
        ax.plot(ns, err, marker="o", label=test)
    ax.set_xlabel("Sample size (n)")
    ax.set_ylabel("P(accepting H0 when false)")
    ax.set_title(alt)
    ax.set_ylim(0, 1)
    ax.legend()
fig.tight_layout()
fig.savefig("power_curves.png", dpi=150)
print("wrote power_curves.png")
"""


def emit(table: PowerTable, out_dir: str) -> dict:
    """Write the power CSV and a self-contained plot script; returns the paths."""
    if not table.rows:
        raise ValueError("power table is empty")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "power.csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write(table.to_csv_text())
    agg_path = os.path.join(out_dir, "power_aggregate.csv")
    with open(agg_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["test", "n", "alternative", "reps", "reject_rate",
                         "accept_error"])
        for cell in table.aggregate():
            writer.writerow([cell["test"], cell["n"], cell["alternative"],
                             cell["reps"], repr(cell["reject_rate"]),
                             repr(cell["accept_error"])])
    script_path = os.path.join(out_dir, "plot_power.py")
    with open(script_path, "w") as fh:
        fh.write(_PLOT_SCRIPT)
    return {"csv": csv_path, "aggregate": agg_path, "plot_script": script_path}
