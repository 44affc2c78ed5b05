"""Tests for the replication harness."""
import csv
import io

import numpy as np
import pytest

from gofkit import dists
from gofkit.bench import (
    CSV_HEADER,
    ExperimentPlan,
    PowerRow,
    PowerTable,
    boundary_probe,
    emit,
    fit_boundary,
    run_plan,
)
from gofkit.spectrum import cosine_basis


def from_csv_text(text: str) -> PowerTable:
    """Parse the CSV that ``PowerTable.to_csv_text`` writes."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_HEADER:
        raise ValueError("unexpected power-table CSV header")
    return PowerTable([PowerRow(test=t, n=int(n), dim=int(d), alternative=a,
                                replicate=int(rep), reject=bool(int(rej)),
                                statistic=float(s), threshold=float(thr), seed=int(sd))
                       for t, n, d, a, rep, rej, s, thr, sd in reader])


def _null_spec(d=1):
    return dists.AlternativeSpec("uniform-cube", d, {})


def _small_plan(**overrides):
    kwargs = dict(
        basis=cosine_basis(32),
        alternatives={"null": _null_spec(),
                      "claw": dists.AlternativeSpec(
                          "marron-wand:asymmetric-claw", 1, {})},
        tests=["mmd", "m3d"],
        n_list=[100, 200],
        reps=10,
        seed=4,
        mmd_calibration_reps=1000,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def test_plan_validation():
    with pytest.raises(ValueError, match="replication"):
        _small_plan(reps=0)
    with pytest.raises(ValueError, match="n >= 16"):
        _small_plan(tests=["adaptive"], n_list=[8, 200])
    with pytest.raises(ValueError, match="unknown test"):
        _small_plan(tests=["ks"])


def test_run_plan_row_count_and_shape():
    plan = _small_plan()
    table = run_plan(plan)
    assert len(table.rows) == 2 * 2 * 2 * 10
    for row in table.rows:
        assert row.test in ("mmd", "m3d")
        assert row.dim == 1
        assert isinstance(row.reject, bool)


def test_run_plan_deterministic():
    plan = _small_plan()
    a = run_plan(plan)
    b = run_plan(plan)
    assert a.to_csv_text() == b.to_csv_text()


def test_level_under_null():
    # alternative = null itself: rejection rate 0.05 +- 0.03 over 500 runs
    plan = _small_plan(alternatives={"null": _null_spec()}, tests=["m3d"],
                       n_list=[200], reps=500)
    table = run_plan(plan)
    assert abs(table.rejection_rate("m3d", 200, "null") - 0.05) <= 0.03


def test_aggregate_matches_mean_flags():
    table = run_plan(_small_plan())
    for cell in table.aggregate():
        manual = np.mean([r.reject for r in table.rows
                          if (r.test, r.n, r.alternative)
                          == (cell["test"], cell["n"], cell["alternative"])])
        assert abs(cell["reject_rate"] - manual) < 1e-12
        assert abs(cell["accept_error"] - (1.0 - manual)) < 1e-12
        assert 0.0 <= cell["reject_rate"] <= 1.0


def test_csv_roundtrip():
    table = run_plan(_small_plan(reps=5))
    text = table.to_csv_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    back = from_csv_text(text)
    assert back == table


def test_csv_rejects_foreign_header():
    with pytest.raises(ValueError, match="header"):
        from_csv_text("a,b,c\n1,2,3\n")


def test_emit_writes_files(tmp_path):
    table = run_plan(_small_plan(reps=5))
    paths = emit(table, str(tmp_path / "out"))
    csv_text = open(paths["csv"]).read()
    assert from_csv_text(csv_text) == table
    agg = open(paths["aggregate"]).read().splitlines()
    assert agg[0].startswith("test,n,alternative")
    script = open(paths["plot_script"]).read()
    assert "matplotlib" in script and "power_curves.png" in script


def test_emit_empty_table_errors(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        emit(PowerTable(), str(tmp_path))


def test_boundary_probe_null_delta():
    basis = cosine_basis(64)
    rows = boundary_probe(basis, "m3d", 1.0, 0.0, [250], [0.0],
                          reps=200, seed=3)
    assert len(rows) == 1
    assert abs(rows[0]["power"] - 0.05) <= 0.04


def test_boundary_probe_monotone_in_delta():
    basis = cosine_basis(64)
    rows = boundary_probe(basis, "m3d", 1.0, 0.0, [400],
                          [0.005, 0.08], reps=60, seed=5)
    assert rows[0]["power"] < rows[1]["power"]


def test_boundary_probe_rejects_adaptive():
    with pytest.raises(ValueError, match="probe"):
        boundary_probe(cosine_basis(16), "adaptive", 1.0, 0.0, [100], [0.01],
                       reps=1, seed=0)


def test_fit_boundary_synthetic():
    rows = []
    # boundary exactly at delta = n^{-0.5}: power ramps across it
    for n in (100, 400, 1600):
        b = n ** -0.5
        for mult, power in ((0.25, 0.1), (0.5, 0.3), (1.0, 0.5),
                            (2.0, 0.8), (4.0, 1.0)):
            rows.append({"n": n, "delta": mult * b, "power": power})
    fit = fit_boundary(rows)
    assert fit["slope"] == pytest.approx(-0.5, abs=1e-6)
    for n in (100, 400, 1600):
        assert fit["boundaries"][n] == pytest.approx(n ** -0.5, rel=1e-9)


def test_fit_boundary_needs_crossings():
    rows = [{"n": 100, "delta": 0.1, "power": 1.0},
            {"n": 200, "delta": 0.1, "power": 1.0}]
    with pytest.raises(ValueError, match="crossings"):
        fit_boundary(rows)
