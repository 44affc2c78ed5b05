"""One statistic and one null calibration per test kind, shared by every caller."""
import json

import numpy as np
import pytest

from gofkit import bench, dists
from gofkit import calibrate as cal
from gofkit import cli
from gofkit.bench import ExperimentPlan, boundary_probe, run_plan
from gofkit.dists import AlternativeSpec
from gofkit.embedding import (
    Sample,
    adaptive_grid,
    adaptive_stat,
    null_calibration,
    rho_schedule,
    run_test,
    statistic,
)
from gofkit.spectrum import cosine_basis, load_spectrum

N = 40
ALPHA = 0.05
MASTER = 6
REPS = {"mmd": 500, "m3d": None, "adaptive": 100}


@pytest.fixture(scope="module")
def centered_spec(tmp_path_factory):
    d = tmp_path_factory.mktemp("dispatch")
    spec = d / "cos.spec"
    assert cli.main(["decompose", "--kernel", "cosine-ref", "--null", "uniform-cube-1",
                     "--trunc", "16", "--nodes", "128", "--center",
                     "--out", str(spec), "--quiet"]) == 0
    return spec


def _calibration_seed(kind):
    # the plan's calibration seed: spawn key (0,) for mmd, (1, n) for adaptive
    key = (1, N) if kind == "adaptive" else (0,)
    return int(np.random.SeedSequence(MASTER, spawn_key=key).generate_state(1)[0])


@pytest.fixture()
def made(monkeypatch):
    """Every NullCalibration the three calibrators return, in call order."""
    out = []
    for name in ("chisq_mix_quantile", "normal_calibration", "empirical_null_quantile"):
        real = getattr(cal, name)

        def spy(*args, _real=real, **kwargs):
            c = _real(*args, **kwargs)
            out.append(c)
            return c

        monkeypatch.setattr(cal, name, spy)
    return out


@pytest.mark.parametrize("kind", ["mmd", "m3d", "adaptive"])
def test_every_caller_gets_the_same_threshold(kind, centered_spec, tmp_path, made):
    basis = load_spectrum(centered_spec)
    seed = _calibration_seed(kind)
    reps = REPS[kind]
    if kind == "mmd":
        direct = cal.chisq_mix_quantile(basis.eigenvalues, ALPHA, reps=reps, seed=seed)
    elif kind == "m3d":
        direct = cal.normal_calibration(ALPHA)
    else:
        grid = adaptive_grid(N, basis.decay_exponent)
        direct = cal.empirical_null_quantile(
            lambda smp: adaptive_stat(basis, grid, smp).value,
            lambda size, rng: Sample(rng.random((size, 1))),
            N, ALPHA, reps=reps, seed=seed)
    want = direct.quantile

    assert null_calibration(kind, basis, N, ALPHA, reps=reps, seed=seed).quantile == want
    x = np.random.default_rng(1).random(N)
    moderation = {"theta": 0.0} if kind == "m3d" else {}
    report = run_test(kind, basis, Sample(x), ALPHA, **moderation,
                      calibration=null_calibration(kind, basis, N, ALPHA, reps=reps,
                                                   seed=seed))
    assert report.threshold == want

    plan = ExperimentPlan(
        basis=basis, alternatives={"null": AlternativeSpec("uniform-cube", 1, {})},
        tests=[kind], n_list=[N], reps=2, alpha=ALPHA, seed=MASTER,
        mmd_calibration_reps=REPS["mmd"], adaptive_calibration_reps=REPS["adaptive"])
    assert {row.threshold for row in run_plan(plan).rows} == {want}

    if kind != "adaptive":
        del made[:]
        boundary_probe(basis, kind, 1.0, 0.0, [N], [0.0], reps=1, seed=MASTER,
                       mmd_calibration_reps=REPS["mmd"])
        assert [c.quantile for c in made] == [want]

    out = tmp_path / "c.cal"
    argv = ["calibrate", "--kind", kind, "--spectrum", str(centered_spec),
            "--n", str(N), "--alpha", str(ALPHA), "--seed", str(seed),
            "--out", str(out), "--quiet"]
    assert cli.main(argv + (["--reps", str(reps)] if reps else [])) == 0
    assert json.loads(out.read_text())["quantile"] == want


def test_one_chisq_calibration_per_plan_and_per_probe(made):
    basis = cosine_basis(16)
    plan = ExperimentPlan(
        basis=basis, alternatives={"null": AlternativeSpec("uniform-cube", 1, {})},
        tests=["mmd"], n_list=[20, 30, 40], reps=2, seed=1, mmd_calibration_reps=500)
    table = run_plan(plan)
    assert len(made) == 1
    assert len({row.threshold for row in table.rows}) == 1
    del made[:]
    boundary_probe(basis, "mmd", 1.0, 0.0, [20, 40], [0.0], reps=2, seed=1,
                   mmd_calibration_reps=500)
    assert len(made) == 1


def test_statistic_and_calibration_reject_bad_requests(centered_spec, tmp_path, capsys):
    basis = cosine_basis(16)
    sample = Sample(np.full(20, 0.5))
    with pytest.raises(ValueError, match="kind"):
        statistic("ks", basis, basis.summary(sample.points))
    with pytest.raises(ValueError, match="kind"):
        null_calibration("ks", basis, 20, ALPHA, seed=1)
    for kind in ("mmd", "m3d"):
        with pytest.raises(ValueError, match="adaptive"):
            null_calibration(kind, basis, 20, ALPHA, seed=1, calibrate="theory")
    with pytest.raises(ValueError, match="seed"):
        null_calibration("adaptive", basis, 20, ALPHA)
    with pytest.raises(ValueError, match="normal quantile"):
        null_calibration("m3d", basis, 20, ALPHA, reps=500, seed=1)

    data = tmp_path / "x.csv"
    np.savetxt(data, sample.points, delimiter=",")
    for typo, err in (("thoery", "unknown --calibrate mode"), ("MC", "unknown --calibrate mode"),
                      ("", "unknown --calibrate mode"), ("normal", "applies to the m3d test")):
        assert cli.main(["test", "--kind", "adaptive", "--spectrum", str(centered_spec),
                         "--data", str(data), "--seed", "1", "--calibrate", typo]) == 1
        assert err in capsys.readouterr().err


# ---------------------------------------------------------------------------
# paired replicates: one draw and one summary per (n, alternative, rep)

ALTS = {"null": AlternativeSpec("uniform-cube", 1, {}),
        "claw": AlternativeSpec("marron-wand:asymmetric-claw", 1, {})}
N_LIST = [20, 30]


def _paired_plan(tests, **kw):
    return ExperimentPlan(basis=cosine_basis(16), alternatives=ALTS, tests=tests,
                          n_list=N_LIST, reps=3, seed=MASTER, mmd_calibration_reps=500,
                          adaptive_calibration_reps=100, **kw)


def test_run_plan_draws_and_summarises_each_replicate_once(monkeypatch):
    plan = _paired_plan(["mmd", "m3d", "adaptive"])
    fixed = cal.normal_calibration(ALPHA)
    monkeypatch.setattr(bench, "null_calibration", lambda *a, **kw: fixed)
    calls = {"summary": 0, "sample": 0}
    summary, sample = plan.basis.summary, dists.sample

    def count(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(plan.basis, "summary", count("summary", summary))
    monkeypatch.setattr(dists, "sample", count("sample", sample))
    table = run_plan(plan)
    draws = len(N_LIST) * len(ALTS) * plan.reps
    assert calls == {"summary": draws, "sample": draws}
    assert len(table.rows) == 3 * draws


def test_run_plan_rows_read_the_replicate_summary():
    plan = _paired_plan(["mmd", "m3d", "adaptive"])
    table = run_plan(plan)
    basis, s = plan.basis, plan.basis.decay_exponent
    want_order = [(kind, n, alt, rep) for kind in plan.tests for n in N_LIST
                  for alt in sorted(ALTS) for rep in range(plan.reps)]
    assert [(r.test, r.n, r.alternative, r.replicate) for r in table.rows] == want_order
    for r in table.rows:
        key = (2, 0, N_LIST.index(r.n), sorted(ALTS).index(r.alternative), r.replicate)
        ss = np.random.SeedSequence(MASTER, spawn_key=key)
        assert r.seed == int(ss.generate_state(1)[0])
        summary = basis.summary(dists.sample(ALTS[r.alternative], r.n, seed=ss))
        want = statistic(r.test, basis, summary, rho=rho_schedule(r.n, s, 0.0),
                         grid=adaptive_grid(r.n, s))
        assert r.statistic == want


@pytest.mark.parametrize("tests", [["mmd", "m3d", "adaptive"], ["adaptive", "mmd", "m3d"],
                                   ["m3d", "adaptive", "mmd"]])
def test_first_test_rows_equal_a_single_test_plan(tests):
    paired = run_plan(_paired_plan(tests)).rows
    single = run_plan(_paired_plan(tests[:1])).rows
    assert paired[:len(single)] == single
