"""The four workloads: inputs made from the seed, set-up, one cycle of client
calls into gofkit, and the checks on each call's outputs.

A workload is a closed loop with one client: each call starts when the
previous one has returned. A cycle is the fixed list of calls that the loop
repeats; every repeat of a cycle does the same work. Inputs (CSV files,
alternative specs, plans, the seeds gofkit gets) come from the workload seed
only, so one seed always gives the same inputs.

This module imports gofkit only inside methods: the parent process uses it to
write input files before any gofkit import is timed.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
from pathlib import Path
from statistics import NormalDist

import numpy as np

import reference

ALPHA = 0.05


class CheckFailed(Exception):
    """An output of the program is wrong."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def derive_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclasses.dataclass
class Op:
    """One client call. ``fn`` returns (decisions made, payload for the check)."""

    label: str
    fn: object


def strict_json(text: str):
    """Parse JSON that must not contain NaN or infinities."""
    def reject(token):
        raise CheckFailed("non-standard JSON constant %s" % token)
    return json.loads(text, parse_constant=reject)


def _write_csv(path: Path, X: np.ndarray) -> None:
    np.savetxt(path, X, delimiter=",", fmt="%.17g")


class Workload:
    name = ""
    # CPU seconds of one cycle on the host the benchmark was sized on (two
    # shared vCPUs of a Xeon); fixes how many cycles a run of --seconds times
    CYCLE_S: float

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self._setups = 0

    @classmethod
    def make_inputs(cls, workdir: Path, seed: int) -> None:
        """Write input files; runs before any timing, in the parent process."""

    def setup(self) -> None:
        """What a user pays before the first decision: basis or decompose."""
        raise NotImplementedError

    @classmethod
    def repeats(cls, seconds: float) -> int:
        """Timed cycles in a run: a function of --seconds only, never of the
        speed of the host, so every run and every commit times the same calls."""
        return max(3, round(seconds / cls.CYCLE_S))

    def cycle(self) -> list:
        raise NotImplementedError

    def check(self, payload) -> None:
        raise NotImplementedError

    def reference_checks(self) -> list:
        """(label, passed) for public statistics against a first-principles value."""
        raise NotImplementedError

    @staticmethod
    def file_bytes(payload) -> int:
        """Bytes of calibration files a call wrote."""
        return 0

    def _fresh_cache_dir(self) -> None:
        self._setups += 1
        cache = self.workdir / ("cache-%d-%d" % (os.getpid(), self._setups))
        os.environ["GOFKIT_CACHE_DIR"] = str(cache)


# ---------------------------------------------------------------------------
# batch workloads: many replicates per client call


class PowerTensor5(Workload):
    """The ``gofkit reproduce fig1 --scale desk`` plan at a fifth of its size,
    one (test, n) cell per call.

    The desk plan runs 100 replicates per cell and 100,000 chi-square draws
    per mmd calibration; here both are divided by five, so that a cycle fits
    several times into a run. Every cell computes its own calibration, so
    issuing the cells one by one does the same work as one ``run_plan``.
    """

    name = "power-tensor5"
    CYCLE_S = 2.0
    TESTS = ("mmd", "m3d")
    N_LIST = (200, 400, 600, 800, 1000)
    REPS = 20
    CALIBRATION_REPS = 20_000

    def setup(self):
        from gofkit import cosine_basis, tensor_product_basis
        self.basis = tensor_product_basis(cosine_basis(32), 5, 256)

    def cycle(self):
        from gofkit import bench, dists
        mixture = dists.make_gaussian_mixture_spec(5, seed=self.seed, uniform_weight=0.9)
        plan = bench.ExperimentPlan(
            basis=self.basis, alternatives={"gaussian-mixture": mixture},
            tests=list(self.TESTS), n_list=list(self.N_LIST), reps=self.REPS,
            alpha=ALPHA, seed=derive_seed(self.seed, 0),
            mmd_calibration_reps=self.CALIBRATION_REPS)
        ops = []
        for kind in self.TESTS:
            for n in self.N_LIST:
                cell = dataclasses.replace(plan, tests=[kind], n_list=[n])
                out_dir = self.workdir / ("emit-%s-%d" % (kind, n))
                ops.append(Op("%s n=%d" % (kind, n), lambda cell=cell, out_dir=out_dir:
                              self._run_cell(cell, out_dir)))
        return ops

    @staticmethod
    def _run_cell(cell, out_dir):
        from gofkit import bench
        table = bench.run_plan(cell)
        paths = bench.emit(table, str(out_dir))
        return len(table.rows), {"cell": cell, "rows": table.rows, "paths": paths}

    def check(self, payload):
        cell, rows = payload["cell"], payload["rows"]
        kind, n = cell.tests[0], cell.n_list[0]
        expect(len(rows) == cell.reps, "expected %d rows, got %d" % (cell.reps, len(rows)))
        for r in rows:
            expect(r.test == kind and r.n == n and r.dim == 5, "row labels wrong")
            expect(math.isfinite(r.statistic) and math.isfinite(r.threshold),
                   "non-finite statistic or threshold")
            expect(r.reject == (r.statistic > r.threshold), "reject != statistic > threshold")
        thresholds = {r.threshold for r in rows}
        expect(len(thresholds) == 1, "threshold differs within one cell")
        thr = thresholds.pop()
        if kind == "m3d":
            expect(reference.close(thr, NormalDist().inv_cdf(1.0 - ALPHA), 1e-12),
                   "m3d threshold is not z_0.95")
        else:
            expect(thr > 0.0, "mmd threshold must be positive")
        with open(payload["paths"]["csv"]) as fh:
            expect(sum(1 for _ in fh) == cell.reps + 1, "power.csv row count wrong")

    def reference_checks(self):
        from gofkit import ModeratedSpectrum, Sample, mmd_vstat, studentized_stat
        X = np.random.default_rng(derive_seed(self.seed, 99)).random((400, 5)) ** 1.3
        ref = reference.tensor_summary(X, self.basis.meta["tensor_indices"])
        sample = Sample(X)
        out = [("tensor mmd_vstat", reference.close(
            400 * mmd_vstat(self.basis, sample), 400 * ref.mmd_vstat()))]
        for rho in (1e-4, 1e-2):
            got = studentized_stat(ModeratedSpectrum(self.basis, rho), sample)
            out.append(("tensor studentized rho=%g" % rho,
                        reference.close(got, ref.studentized(rho))))
        return out


class ProbeCosine1d(Workload):
    """The acceptance criterion-8 probe shape, one (test, n) per call.

    m3d runs against multi-frequency least-favorable alternatives on a grid
    of seven separations, mmd against a single frequency at delta = n^-1/2.
    Five replicates per point, where criterion 8 uses 200, and a quarter of
    the default chi-square draws per mmd calibration, so that a cycle fits
    several times into a run.
    """

    name = "probe-cosine1d"
    CYCLE_S = 2.0
    N_LIST = (250, 500, 1000, 2000)
    GAPS = np.exp2(np.arange(0.0, 3.5, 0.5))
    REPS = 5
    CALIBRATION_REPS = 25_000

    def setup(self):
        from gofkit import cosine_basis
        self.basis = cosine_basis(128)

    def cycle(self):
        ops = []
        m3d_seed, mmd_seed = derive_seed(self.seed, 0), derive_seed(self.seed, 1)
        for n in self.N_LIST:
            deltas = [float(g) * n ** -0.8 for g in self.GAPS]
            ops.append(Op("m3d n=%d" % n, lambda n=n, deltas=deltas: self._probe(
                "m3d", n, deltas, seed=m3d_seed)))
        for n in self.N_LIST:
            ops.append(Op("mmd n=%d" % n, lambda n=n: self._probe(
                "mmd", n, [n ** -0.5], seed=mmd_seed, alt_mode="single",
                mmd_calibration_reps=self.CALIBRATION_REPS)))
        return ops

    def _probe(self, kind, n, deltas, **kw):
        from gofkit import bench
        rows = bench.boundary_probe(self.basis, kind, 1.0, 0.0, [n], deltas,
                                    reps=self.REPS, **kw)
        return len(deltas) * self.REPS, {"n": n, "deltas": deltas, "rows": rows}

    def check(self, payload):
        rows, deltas, n = payload["rows"], payload["deltas"], payload["n"]
        expect(len(rows) == len(deltas), "one row per separation expected")
        for row, delta in zip(rows, deltas):
            expect(row["n"] == n and row["delta"] == delta, "row labels wrong")
            hits = row["power"] * self.REPS
            expect(0.0 <= row["power"] <= 1.0 and abs(hits - round(hits)) < 1e-9,
                   "power is not a rejection fraction")

    def reference_checks(self):
        from gofkit import ModeratedSpectrum, Sample, mmd_vstat, studentized_stat
        x = np.random.default_rng(derive_seed(self.seed, 99)).beta(2.0, 2.5, 1000)
        ref = reference.cosine_summary(x, self.basis.truncation)
        sample = Sample(x)
        out = [("cosine mmd_vstat", reference.close(
            1000 * mmd_vstat(self.basis, sample), 1000 * ref.mmd_vstat()))]
        for rho in (1e-4, 1e-2):
            got = studentized_stat(ModeratedSpectrum(self.basis, rho), sample)
            out.append(("cosine studentized rho=%g" % rho,
                        reference.close(got, ref.studentized(rho))))
        return out


# ---------------------------------------------------------------------------
# decision workloads: one gofkit CLI call per client call, in process


class _Decide(Workload):
    """CLI decisions on a stored spectrum; stdout is the decision report."""

    DECOMPOSE = ()

    def setup(self):
        from gofkit import cli
        self._fresh_cache_dir()
        self.spec = self.workdir / ("spectrum-%d.spec" % os.getpid())
        status = cli.main(["decompose", *self.DECOMPOSE, "--out", str(self.spec), "--quiet"])
        if status != 0:
            raise RuntimeError("gofkit decompose exited with %d" % status)
        self._reference = {}

    def _cli(self, argv, decides=True):
        from gofkit import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
        return int(decides), {"argv": argv, "status": status,
                              "stdout": out.getvalue(), "stderr": err.getvalue()}

    def _test(self, kind, data, *flags):
        return lambda: self._cli(["test", "--kind", kind, "--spectrum", str(self.spec),
                                  "--data", str(data), "--quiet", *flags])

    def _reference_summary(self, data: str, K: int):
        raise NotImplementedError

    def check(self, payload):
        argv, status = payload["argv"], payload["status"]
        expect(status == 0, "exit status %d: %s" % (status, payload["stderr"].strip()))
        if argv[0] == "calibrate":
            self._check_calibration_file(argv[argv.index("--out") + 1])
            return
        lines = payload["stdout"].strip().splitlines()
        expect(len(lines) == 1, "expected one JSON line on stdout")
        report = strict_json(lines[0])
        stat, thr = report["statistic"], report["threshold"]
        expect(isinstance(stat, float) and isinstance(thr, float), "statistic not a number")
        expect(report["reject"] == (stat > thr), "reject != statistic > threshold")
        p = report["p_value"]
        expect(p is None or 0.0 <= p <= 1.0, "p-value outside [0, 1]")
        params = report["parameters"]
        ref = self._reference_summary(argv[argv.index("--data") + 1], params["K"])
        kind = report["kind"]
        if kind == "m3d":
            want = ref.studentized(params["rho"])
        elif kind == "mmd":
            want = ref.n * ref.mmd_vstat()
        else:
            want = ref.adaptive(params["rho_star"], params["m_star"])
        expect(reference.close(stat, want), "%s statistic %r != reference %r" % (kind, stat, want))
        if "--calibration" in argv:
            with open(argv[argv.index("--calibration") + 1]) as fh:
                expect(thr == strict_json(fh.read())["quantile"],
                       "threshold differs from the calibration file")

    @staticmethod
    def _check_calibration_file(path):
        with open(path) as fh:
            cal = strict_json(fh.read())
        reps = cal["replicates"]
        expect(cal["method"] == "chisq-mixture-mc" and len(reps) == cal["reps"],
               "calibration file does not hold its replicates")
        order = sorted(reps)[math.ceil((1.0 - cal["alpha"]) * len(reps)) - 1]
        expect(cal["quantile"] == order, "quantile is not the (1-alpha) order statistic")

    @staticmethod
    def file_bytes(payload) -> int:
        argv = payload["argv"]
        if argv[0] != "calibrate" or payload["status"] != 0:
            return 0
        return os.path.getsize(argv[argv.index("--out") + 1])


class DecideCube(_Decide):
    """Decisions on [0,1] with a centered cosine-ref Nystrom spectrum.

    Three kinds at n = 5 x 10^4 (the n x 512 kernel matrix, 205 MB, is twice
    the last-level cache, so Nystrom features are memory-bound), the adaptive
    test with empirical-MC calibration (100 null replicates) at n = 500, and
    a calibration file written once per cycle and read by the next decision.
    """

    name = "decide-cube"
    CYCLE_S = 4.0
    DECOMPOSE = ("--kernel", "cosine-ref", "--null", "uniform-cube-1",
                 "--trunc", "64", "--nodes", "512", "--center")
    BIG, SMALL = 50_000, 500

    @classmethod
    def make_inputs(cls, workdir, seed):
        rng = np.random.default_rng(derive_seed(seed, 1))
        _write_csv(workdir / ("null-%d.csv" % cls.BIG), rng.random((cls.BIG, 1)))
        for size in (cls.BIG, cls.SMALL):
            # 5 % of the points from Beta(2, 5): far enough from uniform to reject
            alt = np.where(rng.random(size) < 0.05, rng.beta(2.0, 5.0, size), rng.random(size))
            _write_csv(workdir / ("alt-%d.csv" % size), alt[:, None])

    def cycle(self):
        big = {k: self.workdir / ("%s-%d.csv" % (k, self.BIG)) for k in ("null", "alt")}
        small = self.workdir / ("alt-%d.csv" % self.SMALL)
        cal = self.workdir / "mmd.cal"
        seed = lambda k: str(derive_seed(self.seed, k))
        return [
            Op("m3d n=5e4", self._test("m3d", big["null"], "--theta", "0")),
            Op("mmd n=5e4", self._test("mmd", big["alt"], "--seed", seed(0))),
            Op("adaptive theory n=5e4", self._test("adaptive", big["null"],
                                                   "--calibrate", "theory")),
            Op("adaptive mc n=500", self._test("adaptive", small, "--calibrate", "mc:100",
                                               "--seed", seed(1))),
            Op("calibrate mmd", lambda: self._cli(
                ["calibrate", "--kind", "mmd", "--spectrum", str(self.spec),
                 "--n", str(self.BIG), "--seed", seed(2), "--out", str(cal), "--quiet"],
                decides=False)),
            Op("mmd calibrated n=5e4", self._test("mmd", big["alt"], "--calibration", str(cal))),
        ]

    def _reference_summary(self, data, K):
        if (data, K) not in self._reference:
            self._reference[data, K] = reference.cosine_summary(
                np.loadtxt(data, delimiter=","), K)
        return self._reference[data, K]

    def reference_checks(self):
        from gofkit import ModeratedSpectrum, Sample, load_spectrum, mmd_vstat, studentized_stat
        basis = load_spectrum(str(self.spec))
        x = np.random.default_rng(derive_seed(self.seed, 99)).beta(2.0, 2.5, 2000)
        ref = reference.cosine_summary(x, basis.truncation)
        sample = Sample(x)
        out = [("nystrom mmd_vstat", reference.close(
            2000 * mmd_vstat(basis, sample), 2000 * ref.mmd_vstat()))]
        for rho in (1e-4, 1e-2):
            got = studentized_stat(ModeratedSpectrum(basis, rho), sample)
            out.append(("nystrom studentized rho=%g" % rho,
                        reference.close(got, ref.studentized(rho))))
        return out


class DecideSphere(_Decide):
    """Decisions on S^2 with a Gaussian zonal kernel: the only path through
    ``SphereZonalBasis.summary`` and its n x n Gram matrix. Three decisions
    at n = 1000 for two at n = 2000, so the median sits on the smaller size
    and the slowest decisions on the larger."""

    name = "decide-sphere"
    CYCLE_S = 4.7
    DECOMPOSE = ("--kernel", "gaussian-sphere:1.0", "--null", "uniform-sphere-3",
                 "--trunc", "20", "--nodes", "96")
    SIZES = (1000, 2000)

    @classmethod
    def make_inputs(cls, workdir, seed):
        rng = np.random.default_rng(derive_seed(seed, 2))
        for size in cls.SIZES:
            for label, shift in (("null", 0.0), ("alt", 0.3)):
                g = rng.standard_normal((size, 3))
                g[:, 2] += shift
                _write_csv(workdir / ("%s-%d.csv" % (label, size)),
                           g / np.linalg.norm(g, axis=1, keepdims=True))

    def cycle(self):
        path = lambda label, size: self.workdir / ("%s-%d.csv" % (label, size))
        return [
            Op("m3d n=1000", self._test("m3d", path("null", 1000), "--theta", "0")),
            Op("adaptive n=1000", self._test("adaptive", path("alt", 1000),
                                             "--calibrate", "theory")),
            Op("adaptive n=1000", self._test("adaptive", path("null", 1000),
                                             "--calibrate", "theory")),
            Op("m3d n=2000", self._test("m3d", path("alt", 2000), "--theta", "0")),
            Op("adaptive n=2000", self._test("adaptive", path("null", 2000),
                                             "--calibrate", "theory")),
        ]

    def _basis(self):
        from gofkit import load_spectrum
        return load_spectrum(str(self.spec))

    def _reference_summary(self, data, K):
        if data not in self._reference:
            basis = self._basis()
            X = np.loadtxt(data, delimiter=",")
            sums = reference.legendre_gram_sums(X, basis.degrees)
            self._reference[data] = reference.sphere2_summary(
                sums, X.shape[0], basis.degrees, basis.degree_eigenvalues)
        return self._reference[data]

    def reference_checks(self):
        from gofkit import ModeratedSpectrum, Sample, mmd_vstat, studentized_stat
        basis = self._basis()
        g = np.random.default_rng(derive_seed(self.seed, 99)).standard_normal((500, 3))
        g[:, 0] += 0.5
        X = g / np.linalg.norm(g, axis=1, keepdims=True)
        ref = reference.sphere2_summary(reference.legendre_gram_sums(X, basis.degrees),
                                        500, basis.degrees, basis.degree_eigenvalues)
        sample = Sample(X)
        out = [("zonal mmd_vstat", reference.close(
            500 * mmd_vstat(basis, sample), 500 * ref.mmd_vstat()))]
        for rho in (1e-3, 1e-1):
            got = studentized_stat(ModeratedSpectrum(basis, rho), sample)
            out.append(("zonal studentized rho=%g" % rho,
                        reference.close(got, ref.studentized(rho))))
        return out


WORKLOADS = {w.name: w for w in (PowerTensor5, ProbeCosine1d, DecideCube, DecideSphere)}
