"""End-to-end tests of the command-line interface."""
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gofkit import calibrate as cal
from gofkit import cli
from gofkit.embedding import null_calibration
from gofkit.spectrum import load_spectrum


@pytest.fixture()
def spectrum_file(tmp_path):
    out = tmp_path / "cosine.spec"
    status = cli.main(["decompose", "--kernel", "cosine-ref", "--null",
                       "uniform-cube-1", "--trunc", "32", "--nodes", "256",
                       "--out", str(out), "--quiet"])
    assert status == 0
    return out


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "x.csv"
    rng = np.random.default_rng(0)
    np.savetxt(path, rng.random((200, 1)), delimiter=",")
    return path


def test_help_all_subcommands(capsys):
    for args in (["--help"], ["decompose", "--help"], ["test", "--help"],
                 ["calibrate", "--help"], ["power", "--help"],
                 ["reproduce", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out


def test_import_leaves_scipy_integrate_unloaded(spectrum_file, data_file, tmp_path):
    # scipy.integrate alone loads some 300 modules and 25 MB into every run,
    # scipy.special 0.27 s of CPU and 25 MB; gofkit imports neither, and scipy
    # serves only as the tests' reference
    sphere_spec, sphere_data = tmp_path / "s2.spec", tmp_path / "s2.csv"
    x = np.random.default_rng(0).standard_normal((200, 3))
    np.savetxt(sphere_data, x / np.linalg.norm(x, axis=1, keepdims=True), delimiter=",")
    cube = ["--spectrum", str(spectrum_file), "--data", str(data_file), "--quiet"]
    runs = [
        ["decompose", "--kernel", "gaussian-sphere:1.0", "--null", "uniform-sphere-3",
         "--trunc", "8", "--nodes", "64", "--out", str(sphere_spec), "--quiet"],
        ["decompose", "--kernel", "gaussian-sphere:1.0", "--null", "uniform-sphere-5",
         "--trunc", "6", "--nodes", "64", "--out", str(tmp_path / "s4.spec"), "--quiet"],
        ["test", "--kind", "mmd", "--seed", "1", "--calibrate", "mc:1000", *cube],
        ["test", "--kind", "m3d", "--theta", "0", *cube],
        ["test", "--kind", "adaptive", "--calibrate", "theory", *cube],
        ["test", "--kind", "m3d", "--theta", "0", "--spectrum", str(sphere_spec),
         "--data", str(sphere_data), "--quiet"],
        ["calibrate", "--kind", "mmd", "--spectrum", str(spectrum_file), "--n", "200",
         "--reps", "1000", "--seed", "1", "--out", str(tmp_path / "c.cal"), "--quiet"],
    ]
    code = ("import json, sys\n"
            "def scipy(): return [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
            "from gofkit import cli\n"
            "seen = [scipy()]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    seen.append([cli.main(argv), scipy()])\n"
            "print(json.dumps(seen))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == [[]] + [[0, []]] * len(runs)


# gofkit.__all__ as of 0.19.0, when every name in it was imported eagerly
_ALL = """AdaptiveStat AlternativeSpec DecompositionError ModeratedSpectrum NullCalibration
NystromBasis Quadrature RhoGrid Sample SampleSummary SpectralBasis SphereZonalBasis
TestReport adaptive_grid adaptive_stat chisq_mix_quantile cosine_basis density
effective_variance empirical_null_quantile estimate_decay_exponent eta_sq eta_sq_gram
gauss_legendre_01 least_favorable load_spectrum mmd_vstat normal_calibration
normal_quantile null_calibration null_sampler nystrom_decompose rho_schedule run_test
sample save_spectrum sphere_zonal_spectrum studentized_stat tensor_product_basis
theory_threshold""".split()


def test_decisions_load_neither_the_harness_nor_the_alternatives(spectrum_file, data_file,
                                                                 tmp_path):
    # a fresh process: decompose, test and calibrate import neither gofkit.bench
    # nor gofkit.dists, and the package still exports the alternatives' names
    cube = ["--spectrum", str(spectrum_file), "--data", str(data_file), "--quiet"]
    runs = [
        ["decompose", "--kernel", "cosine-ref", "--null", "uniform-cube-1", "--trunc", "16",
         "--nodes", "64", "--out", str(tmp_path / "c.spec"), "--quiet"],
        ["decompose", "--kernel", "gaussian:0.2", "--null", "uniform-cube-1", "--trunc", "8",
         "--nodes", "64", "--center", "--out", str(tmp_path / "g.spec"), "--quiet"],
        ["decompose", "--kernel", "gaussian-sphere:1.0", "--null", "uniform-sphere-3",
         "--trunc", "8", "--nodes", "64", "--out", str(tmp_path / "s2.spec"), "--quiet"],
        ["test", "--kind", "mmd", "--seed", "1", "--calibrate", "mc:500", *cube],
        ["test", "--kind", "m3d", "--theta", "0", *cube],
        ["test", "--kind", "adaptive", "--seed", "1", "--calibrate", "mc:100", *cube],
        ["test", "--kind", "m3d", "--theta", "0", "--spectrum", str(tmp_path / "g.spec"),
         "--data", str(data_file), "--quiet"],
        ["calibrate", "--kind", "mmd", "--spectrum", str(spectrum_file), "--n", "200",
         "--reps", "500", "--seed", "1", "--out", str(tmp_path / "c.cal"), "--quiet"],
        ["test", "--kind", "mmd", "--calibration", str(tmp_path / "c.cal"), *cube],
    ]
    code = ("import json, sys\n"
            "from gofkit import cli\n"
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "loaded = sorted(m for m in ('gofkit.bench', 'gofkit.dists') if m in sys.modules)\n"
            "import gofkit\n"
            "names = [gofkit.sample.__name__, gofkit.AlternativeSpec.__name__]\n"
            "star = {}\n"
            "exec('from gofkit import *', star)\n"
            "print(json.dumps([codes, loaded, names, sorted(set(star) - {'__builtins__'}),\n"
            "                  gofkit.__all__]))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    codes, loaded, names, star, exported = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * len(runs)
    assert loaded == []
    assert names == ["sample", "AlternativeSpec"]
    assert star == exported == _ALL


def test_unknown_subcommand_exits_1(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_decompose_is_deterministic(tmp_path, capsys):
    args = ["decompose", "--kernel", "cosine-ref", "--null", "uniform-cube-1",
            "--trunc", "16", "--nodes", "128"]
    outs = [tmp_path / "a.spec", tmp_path / "b.spec"]
    for out in outs:
        assert cli.main(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == "wrote %s (K=16)\n" % out
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_decompose_sphere(tmp_path):
    out = tmp_path / "sph.spec"
    assert cli.main(["decompose", "--kernel", "gaussian-sphere:1.0", "--null",
                     "uniform-sphere-3", "--trunc", "8", "--nodes", "64",
                     "--out", str(out), "--quiet"]) == 0
    from gofkit.spectrum import load_spectrum
    basis = load_spectrum(out)
    assert basis.null_id == "uniform-sphere-3"


def test_decompose_unknown_kernel_exits_1(tmp_path, capsys):
    assert cli.main(["decompose", "--kernel", "mystery", "--null",
                     "uniform-cube-1", "--trunc", "4", "--nodes", "64",
                     "--out", str(tmp_path / "x.spec")]) == 1
    assert "kernel" in capsys.readouterr().err


@pytest.mark.parametrize("kernel", ["cosine-ref:0", "cosine-ref:-3"])
def test_decompose_cosine_ref_without_terms_exits_1(tmp_path, capsys, kernel):
    assert cli.main(["decompose", "--kernel", kernel, "--null", "uniform-cube-1",
                     "--trunc", "4", "--nodes", "64",
                     "--out", str(tmp_path / "x.spec")]) == 1
    assert "cosine-ref needs at least one term" in capsys.readouterr().err


@pytest.mark.parametrize("kernel, null", [
    ("gaussian:nan", "uniform-cube-1"),
    ("gaussian:inf", "uniform-cube-1"),
    ("gaussian:1e300", "uniform-cube-1"),  # 2 bw^2 overflows
    ("gaussian-sphere:nan", "uniform-sphere-3"),
    ("cosine-ref:abc", "uniform-cube-1"),
    ("cosine-ref:2.5", "uniform-cube-1"),
])
def test_decompose_rejects_a_malformed_kernel_id(tmp_path, capsys, kernel, null):
    out = tmp_path / "x.spec"
    assert cli.main(["decompose", "--kernel", kernel, "--null", null, "--trunc", "4",
                     "--nodes", "64", "--out", str(out)]) == 1
    assert "kernel id %r" % kernel in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_decompose_refuses_a_non_finite_gram(tmp_path, capsys):
    # the bandwidth squared underflows to 0, so the diagonal is 0/0
    out = tmp_path / "x.spec"
    assert cli.main(["decompose", "--kernel", "gaussian:1e-200", "--null",
                     "uniform-cube-1", "--trunc", "4", "--nodes", "64",
                     "--out", str(out)]) == 1
    assert "'gaussian:1e-200' has a non-finite Gram matrix" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("null, message", [
    ("uniform-sphere-x", "unknown null id"),
    ("uniform-cube-3", "unsupported null id for decompose"),
])
def test_decompose_null_id_is_parsed_once(tmp_path, capsys, null, message):
    assert cli.main(["decompose", "--kernel", "gaussian-sphere:1.0", "--null", null,
                     "--trunc", "4", "--nodes", "64",
                     "--out", str(tmp_path / "x.spec")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("nodes, kernel, null", [
    ("0", "cosine-ref", "uniform-cube-1"),
    ("-4", "cosine-ref", "uniform-cube-1"),
    ("0", "gaussian-sphere:1.0", "uniform-sphere-3"),
], ids=["0", "-4", "sphere-0"])
def test_decompose_needs_a_quadrature_node(tmp_path, capsys, nodes, kernel, null):
    out = tmp_path / "x.spec"
    assert cli.main(["decompose", "--kernel", kernel, "--null", null,
                     "--trunc", "4", "--nodes", nodes, "--out", str(out)]) == 1
    assert ("error: the quadrature needs a positive node count, got %s\n" % nodes
            == capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("kind, n", [("mmd", "0"), ("mmd", "-5"), ("m3d", "0"),
                                     ("adaptive", "0")])
def test_calibrate_needs_a_positive_n(spectrum_file, tmp_path, capsys, kind, n):
    out = tmp_path / "c.cal"
    assert cli.main(["calibrate", "--kind", kind, "--spectrum", str(spectrum_file),
                     "--n", n, "--seed", "1", "--out", str(out), "--quiet"]) == 1
    assert "n must be a positive sample size, got %s" % n in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_an_empty_data_file_prints_one_error_line(spectrum_file, tmp_path, text):
    # numpy's loadtxt warns of the missing data, with its source line, before
    # the sample is refused; a subprocess shows stderr as a user sees it
    data = tmp_path / "empty.csv"
    data.write_text(text)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-m", "gofkit.cli", "test", "--kind", "m3d",
                           "--theta", "0", "--spectrum", str(spectrum_file),
                           "--data", str(data)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "error: sample must contain at least one point\n"


@pytest.mark.parametrize("kernel", ["linear", "constant"])
def test_decompose_refuses_a_cube_kernel_that_has_no_test(tmp_path, capsys, kernel):
    # centred, linear keeps one eigenpair and constant none, so neither
    # supports the three tests, and neither is a kernel id
    out = tmp_path / "x.spec"
    assert cli.main(["decompose", "--kernel", kernel, "--null", "uniform-cube-1",
                     "--trunc", "1", "--nodes", "64", "--out", str(out)]) == 1
    assert "%r" % kernel in capsys.readouterr().err
    assert not out.exists()


def test_decompose_rank_deficient_exits_2(tmp_path, capsys):
    assert cli.main(["decompose", "--kernel", "gaussian:1000", "--null",
                     "uniform-cube-1", "--trunc", "4", "--nodes", "64",
                     "--out", str(tmp_path / "x.spec")]) == 2
    assert "numeric floor" in capsys.readouterr().err


@pytest.mark.parametrize("nodes, status", [("20", 2), ("24", 0)])
def test_decompose_zonal_convergence_bound(tmp_path, capsys, nodes, status):
    # a narrow S^2 profile on a coarse rule: at 20 nodes the eigenvalues move
    # by 1.7e-8 of the largest when the rule is doubled, at 24 by 7.4e-13,
    # either side of the 1e-10 bound
    out = tmp_path / "x.spec"
    assert cli.main(["decompose", "--kernel", "gaussian-sphere:0.1", "--null",
                     "uniform-sphere-3", "--trunc", "12", "--nodes", nodes,
                     "--out", str(out), "--quiet"]) == status
    assert ("non-convergence" in capsys.readouterr().err) == (status == 2)
    assert out.exists() == (status == 0)


def test_decompose_refuses_center_on_a_sphere(tmp_path, capsys):
    # a zonal basis always drops degree 0, so --center changed no byte of the
    # file; the cube's cosine-ref still takes it
    out = tmp_path / "s2.spec"
    assert cli.main(["decompose", "--kernel", "gaussian-sphere:1.0", "--null",
                     "uniform-sphere-3", "--trunc", "20", "--nodes", "96", "--center",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: --center does not apply on a sphere: a "
                                       "zonal basis always drops degree 0\n")
    assert not out.exists()


def test_test_happy_path_m3d(spectrum_file, data_file, capsys):
    status = cli.main(["test", "--kind", "m3d", "--spectrum",
                       str(spectrum_file), "--data", str(data_file),
                       "--alpha", "0.05", "--rho", "0.063", "--seed", "7"])
    assert status == 0
    out = capsys.readouterr().out
    record = json.loads(out.strip().splitlines()[-1])
    assert record["kind"] == "m3d"
    assert record["parameters"]["rho"] == pytest.approx(0.063)
    assert "statistic:" in out


def test_test_missing_seed_exits_1(spectrum_file, data_file, capsys):
    status = cli.main(["test", "--kind", "mmd", "--spectrum",
                       str(spectrum_file), "--data", str(data_file)])
    assert status == 1
    assert "--seed" in capsys.readouterr().err


def test_test_machine_output_deterministic(spectrum_file, data_file, capsys):
    args = ["test", "--kind", "mmd", "--spectrum", str(spectrum_file),
            "--data", str(data_file), "--seed", "5",
            "--calibrate", "mc:2000", "--quiet"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    assert capsys.readouterr().out == first


def test_test_theory_threshold(spectrum_file, data_file, capsys):
    status = cli.main(["test", "--kind", "adaptive", "--spectrum",
                       str(spectrum_file), "--data", str(data_file),
                       "--calibrate", "theory", "--quiet"])
    assert status == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["calibration"]["method"] == "theory-loglog"


def test_test_corrupt_spectrum_exits_1(tmp_path, data_file, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_bytes(b"GOFKIT-SPEC v0\nnope")
    assert cli.main(["test", "--kind", "m3d", "--spectrum", str(bad),
                     "--data", str(data_file), "--rho", "0.1"]) == 1
    assert "GOFKIT-SPEC" in capsys.readouterr().err


def test_calibrate_file_roundtrip(spectrum_file, data_file, tmp_path, capsys):
    cal_file = tmp_path / "mmd.cal"
    assert cli.main(["calibrate", "--kind", "mmd", "--spectrum",
                     str(spectrum_file), "--n", "200", "--reps", "2000",
                     "--seed", "9", "--out", str(cal_file), "--quiet"]) == 0
    stored = json.loads(cal_file.read_text())
    assert stored["method"] == "chisq-mixture-mc"
    assert len(stored["replicates"]) == 2000
    assert cli.main(["test", "--kind", "mmd", "--spectrum", str(spectrum_file),
                     "--data", str(data_file), "--calibration", str(cal_file),
                     "--quiet"]) == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["threshold"] == pytest.approx(stored["quantile"])


@pytest.mark.parametrize("kind, reps", [("mmd", 100), ("mmd", 8192), ("mmd", 8193),
                                        ("m3d", None)])
def test_calibration_file_is_the_json_of_its_fields(spectrum_file, tmp_path, kind, reps):
    # the file is written in pieces; together they must be the one-shot
    # encoding of the fields, replicates last, whatever the block boundaries
    out = tmp_path / "c.json"
    args = ["calibrate", "--kind", kind, "--spectrum", str(spectrum_file), "--n", "200",
            "--seed", "4", "--out", str(out), "--quiet"]
    assert cli.main(args + (["--reps", str(reps)] if reps else [])) == 0
    fields = json.loads(out.read_text())
    assert list(fields) == ["method", "alpha", "quantile", "reps", "seed", "kind", "n",
                            "spectrum", "replicates"]
    assert out.read_text() == json.dumps(fields) + "\n"
    assert (fields["replicates"] is None) == (reps is None)


@pytest.mark.parametrize("command", [
    ["decompose", "--kernel", "cosine-ref", "--null", "uniform-cube-1",
     "--trunc", "16", "--nodes", "128"],
    ["calibrate", "--kind", "mmd", "--n", "200", "--reps", "500", "--seed", "4"],
], ids=["decompose", "calibrate"])
def test_a_failed_replace_keeps_the_old_file(spectrum_file, tmp_path, capsys,
                                             monkeypatch, command):
    out = tmp_path / "out.bin"
    out.write_bytes(b"old contents")
    before = sorted(os.listdir(tmp_path))

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    if command[0] == "calibrate":
        command = command + ["--spectrum", str(spectrum_file)]
    assert cli.main(command + ["--out", str(out), "--quiet"]) == 2
    assert "replace refused" in capsys.readouterr().err
    assert out.read_bytes() == b"old contents"
    assert sorted(os.listdir(tmp_path)) == before


def test_calibrate_requires_seed(spectrum_file, tmp_path, capsys):
    assert cli.main(["calibrate", "--kind", "adaptive", "--spectrum",
                     str(spectrum_file), "--n", "200",
                     "--out", str(tmp_path / "a.cal")]) == 1
    assert "--seed" in capsys.readouterr().err


def test_calibrate_m3d_refuses_reps(spectrum_file, tmp_path, capsys):
    out = tmp_path / "m3d.cal"
    assert cli.main(["calibrate", "--kind", "m3d", "--spectrum", str(spectrum_file),
                     "--n", "200", "--reps", "500", "--seed", "3",
                     "--out", str(out)]) == 1
    assert "normal quantile" in capsys.readouterr().err
    assert not out.exists()


def test_power_plan_and_alt_flag(spectrum_file, tmp_path, capsys):
    plan = {
        "basis": {"type": "cosine", "K": 32},
        "alternatives": {
            "claw": {"family": "marron-wand:asymmetric-claw", "dim": 1},
            "skew": {"family": "marron-wand:skewed-unimodal", "dim": 1}},
        "tests": ["m3d"],
        "n": [100],
        "reps": 5,
        "seed": 2,
    }
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    out_dir = tmp_path / "pow"
    assert cli.main(["power", "--plan", str(plan_file), "--out", str(out_dir),
                     "--quiet"]) == 0
    csv_lines = (out_dir / "power.csv").read_text().splitlines()
    alts = {line.split(",")[3] for line in csv_lines[1:]}
    assert alts == {"claw", "skew"}


def test_power_plan_missing_seed_exits_1(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({
        "basis": {"type": "cosine", "K": 16},
        "alternatives": {"u": {"family": "uniform-cube", "dim": 1}},
        "tests": ["m3d"], "n": [50], "reps": 5}))
    assert cli.main(["power", "--plan", str(plan_file),
                     "--out", str(tmp_path / "o")]) == 1
    assert "--seed" in capsys.readouterr().err


_PLAN = {"basis": {"type": "cosine", "K": 16},
         "alternatives": {"u": {"family": "uniform-cube", "dim": 1}},
         "tests": ["m3d"], "n": [50], "reps": 5, "seed": 2}


@pytest.mark.parametrize("text, message", [
    ([1, 2], "plan file %s does not hold a JSON object"),
    ({k: v for k, v in _PLAN.items() if k != "alternatives"},
     "plan file %s has no 'alternatives' field"),
    ({**_PLAN, "basis": [16]}, "plan file %s: 'basis' must be a JSON object, not list"),
    ({**_PLAN, "alternatives": {"u": 5}},
     "plan file %s: alternative 'u' must be a JSON object, not int"),
], ids=["plan-list", "plan-without-alternatives", "plan-list-basis", "plan-int-alternative"])
def test_a_json_input_that_is_not_its_object_exits_1(tmp_path, capsys, text, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(text))
    assert cli.main(["power", "--plan", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % (message % path))
    assert not (tmp_path / "o").exists()


_TINY_SPHERE = {"type": "sphere", "profile": "gaussian-sphere:1.0", "d": 3,
                "degree_max": 2}
_TINY_TENSOR = {"type": "tensor-cosine", "factor_K": 4, "d": 2, "K": 8}
_BAD_COUNTS = {
    "n": {**_PLAN, "n": [50.7]},
    "reps": {**_PLAN, "reps": 2.9},
    "seed": {**_PLAN, "seed": True},
    "calibration.mmd_reps": {**_PLAN, "calibration": {"mmd_reps": "500"}},
    "calibration.adaptive_reps": {**_PLAN, "calibration": {"adaptive_reps": 20.5}},
    "basis.K": {**_PLAN, "basis": {"type": "cosine", "K": 16.5}},
    "basis.factor_K": {**_PLAN, "basis": {**_TINY_TENSOR, "factor_K": 4.5}},
    "basis.d": {**_PLAN, "basis": {**_TINY_TENSOR, "d": "2"}},
    "basis.degree_max": {**_PLAN, "basis": {**_TINY_SPHERE, "degree_max": 2.5}},
    "alternatives.u.dim": {**_PLAN, "alternatives": {"u": {"family": "uniform-cube",
                                                            "dim": 1.5}}},
}


@pytest.mark.parametrize("field", list(_BAD_COUNTS))
def test_a_plan_count_that_is_not_a_whole_number_exits_1(tmp_path, capsys, field):
    # a fraction, a boolean or a string was cut to an int and the plan ran
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(_BAD_COUNTS[field]))
    assert cli.main(["power", "--plan", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: plan file %s: %r must be a whole number, got " % (path,
                                                                                    field))
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, plan", [
    ("alpha", {**_PLAN, "alpha": "0.1"}),
    ("alpha", {**_PLAN, "alpha": True}),
    ("calibration.theta", {**_PLAN, "calibration": {"theta": True}}),
    ("calibration.theta", {**_PLAN, "calibration": {"theta": "0.5"}}),
], ids=["alpha-string", "alpha-boolean", "theta-boolean", "theta-string"])
def test_a_plan_real_that_is_not_a_number_exits_1(tmp_path, capsys, field, plan):
    # float() read "0.1" as 0.1 and true as 1, and the study ran
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert cli.main(["power", "--plan", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: plan file %s: %r must be a number, got " % (path, field))
    assert not (tmp_path / "o").exists()


def test_a_plan_count_may_carry_an_exponent(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({**_PLAN, "n": [5e1], "reps": 2e0}))
    assert cli.main(["power", "--plan", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
    rows = (tmp_path / "o" / "power.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(row.split(",")[1] == "50" for row in rows)


@pytest.fixture()
def centered_file(tmp_path):
    out = tmp_path / "centered.spec"
    assert cli.main(["decompose", "--kernel", "cosine-ref", "--null",
                     "uniform-cube-1", "--trunc", "16", "--nodes", "128",
                     "--center", "--out", str(out), "--quiet"]) == 0
    return out


@pytest.mark.parametrize("flag", [["--workers", "2"], ["--grid", "auto"], ["--seed", "5"],
                                  ["--no-cache"], ["--config", "cfg.json"],
                                  ["--alt", "skew=marron-wand:skewed-unimodal:dim=1"]])
def test_removed_flags_exit_1(centered_file, data_file, tmp_path, flag, capsys):
    # decompose draws nothing, so it takes no seed; it keeps no cache either.
    # A plan file alone states a power study's alternatives
    if flag[0] in ("--seed", "--no-cache"):
        argv = ["decompose", "--kernel", "cosine-ref", "--null", "uniform-cube-1",
                "--trunc", "16", "--nodes", "128", "--out", str(tmp_path / "s.spec")]
    elif flag[0] == "--alt":
        argv = ["power", "--plan", "plan.json", "--out", str(tmp_path / "o")]
    else:
        argv = ["test", "--kind", "m3d", "--spectrum", str(centered_file),
                "--data", str(data_file), "--rho", "0.1"]
    assert cli.main(argv + flag) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("kernel, null, trunc", [
    ("cosine-ref", "uniform-cube-1", "16"),
    ("gaussian-sphere:1.0", "uniform-sphere-3", "8"),
])
def test_truncated_spectrum_cache_is_one_clean_error(tmp_path, data_file,
                                                     capsys, kernel, null, trunc):
    from gofkit.spectrum import _MAGIC, load_spectrum
    full = tmp_path / "full.spec"
    center = ["--center"] if null == "uniform-cube-1" else []
    assert cli.main(["decompose", "--kernel", kernel, "--null", null, "--trunc", trunc,
                     "--nodes", "128", *center, "--out", str(full), "--quiet"]) == 0
    data = full.read_bytes()
    load_spectrum(full)
    head = len(_MAGIC) + 4 + int.from_bytes(data[len(_MAGIC):len(_MAGIC) + 4], "little")
    # inside: the header length, the header, an array's ndim, its shape, the
    # first array's values, the middle of the file, the last value
    cuts = [len(_MAGIC) + 2, head - 5, head + 2, head + 7, head + 20,
            len(data) // 2, len(data) - 1]
    for cut in cuts:
        short = tmp_path / ("cut%d.spec" % cut)
        short.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated spectrum cache"):
            load_spectrum(short)
        assert cli.main(["test", "--kind", "m3d", "--spectrum", str(short),
                         "--data", str(data_file), "--rho", "0.1"]) == 1
        captured = capsys.readouterr()
        assert "truncated spectrum cache" in captured.err and captured.out == ""


@pytest.mark.parametrize("kind", ["mmd", "m3d", "adaptive"])
@pytest.mark.parametrize("rows, match", [
    (np.full((20, 3), 0.5), "columns"),
    (np.r_[np.linspace(0.0, 1.0, 19), 7.0][:, None], "outside"),
    (np.r_[np.linspace(0.0, 1.0, 19), np.nan][:, None], "non-finite"),
])
def test_cube_inputs_outside_the_method_exit_1(centered_file, tmp_path, capsys,
                                                kind, rows, match):
    data = tmp_path / "bad.csv"
    np.savetxt(data, rows, delimiter=",")
    theta = ["--theta", "0"] if kind == "m3d" else []
    assert cli.main(["test", "--kind", kind, "--spectrum", str(centered_file),
                     "--data", str(data), *theta, "--seed", "1",
                     "--calibrate", {"mmd": "mc", "m3d": "normal",
                                     "adaptive": "theory"}[kind]]) == 1
    captured = capsys.readouterr()
    assert match in captured.err and captured.out == ""


@pytest.mark.parametrize("kind, flags", [
    ("m3d", ["--theta", "0"]),
    ("adaptive", ["--calibrate", "theory"]),
])
def test_short_spectrum_has_no_schedule(tmp_path, data_file, capsys,
                                        kind, flags):
    # a fitted spectrum: the closed-form cosine-ref basis knows s = 1 at any K
    spec = tmp_path / "k4.spec"
    assert cli.main(["decompose", "--kernel", "gaussian:0.2", "--null",
                     "uniform-cube-1", "--trunc", "4", "--nodes", "128",
                     "--center", "--out", str(spec), "--quiet"]) == 0
    assert cli.main(["test", "--kind", kind, "--spectrum", str(spec),
                     "--data", str(data_file), *flags]) == 1
    assert "K < 8" in capsys.readouterr().err


def _edit_header(path, edit):
    """Rewrite the header of a spectrum file as ``edit(header)`` leaves it."""
    import struct

    from gofkit.spectrum import _MAGIC
    data = path.read_bytes()
    hlen = struct.unpack("<I", data[len(_MAGIC):len(_MAGIC) + 4])[0]
    start = len(_MAGIC) + 4
    header = json.loads(data[start:start + hlen])
    edit(header)
    raw = json.dumps(header).encode()
    path.write_bytes(data[:len(_MAGIC)] + struct.pack("<I", len(raw)) + raw
                     + data[start + hlen:])


def _drop_header_key(path, key):
    """Rewrite a spectrum file as one written before its header had ``key``."""
    _edit_header(path, lambda header: header.pop(key))


def test_spectrum_header_cannot_overrule_the_eigenpairs(tmp_path, data_file,
                                                        capsys):
    from gofkit.embedding import rho_schedule
    from gofkit.spectrum import load_spectrum
    centered, spec = tmp_path / "c.spec", tmp_path / "g.spec"
    for out, flags in ((centered, ["--center"]), (spec, [])):
        assert cli.main(["decompose", "--kernel", "gaussian:0.2", "--null", "uniform-cube-1",
                         "--trunc", "10", "--nodes", "128", "--out", str(out),
                         "--quiet", *flags]) == 0
    fitted = load_spectrum(centered).decay_exponent

    def m3d_rho():
        assert cli.main(["test", "--kind", "m3d", "--theta", "0", "--spectrum", str(centered),
                         "--data", str(data_file), "--quiet"]) == 0
        return json.loads(capsys.readouterr().out)["parameters"]["rho"]

    rho = m3d_rho()
    assert rho == rho_schedule(200, fitted, 0.0)
    _edit_header(centered, lambda header: header.update(decay_exponent=5.0))
    assert m3d_rho() == rho != rho_schedule(200, 5.0, 0.0)
    # an uncentered kernel leaves the basis nondegenerate, whatever the header says
    _edit_header(spec, lambda header: header.update(degenerate=True, decay_exponent=5.0))
    for kind, flags, name in (("mmd", ["--seed", "1"], "MMD"),
                              ("m3d", ["--theta", "0"], "m3d")):
        assert cli.main(["test", "--kind", kind, "--spectrum", str(spec),
                         "--data", str(data_file), *flags]) == 1
        captured = capsys.readouterr()
        assert "%s requires a degenerate" % name in captured.err and captured.out == ""


@pytest.mark.filterwarnings("ignore:super-polynomial decay")
def test_centered_gaussian_spectrum_reloads_centered(tmp_path, capsys):
    from gofkit.spectrum import load_spectrum
    out = tmp_path / "g.spec"
    assert cli.main(["decompose", "--kernel", "gaussian:0.1", "--null", "uniform-cube-1",
                     "--trunc", "16", "--nodes", "256", "--center", "--out", str(out),
                     "--quiet"]) == 0
    basis = load_spectrum(out)
    assert basis.center
    assert np.abs(basis.features(basis.quad.nodes) - basis.phi_nodes).max() < 1e-9
    data = tmp_path / "u.csv"
    np.savetxt(data, np.random.default_rng(3).random((1000, 1)), delimiter=",")
    assert cli.main(["test", "--kind", "m3d", "--theta", "0", "--spectrum", str(out),
                     "--data", str(data), "--quiet"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["statistic"]) < 5.0

    # a file written before the header recorded centering is refused
    _drop_header_key(out, "center")
    with pytest.raises(ValueError, match="rerun `gofkit decompose`"):
        load_spectrum(out)
    assert cli.main(["test", "--kind", "m3d", "--theta", "0", "--spectrum", str(out),
                     "--data", str(data), "--quiet"]) == 1
    captured = capsys.readouterr()
    assert "rerun `gofkit decompose`" in captured.err and captured.out == ""


@pytest.mark.parametrize("mode", ["mc", "mc:500"])
def test_m3d_rejects_monte_carlo_calibration(centered_file, data_file, capsys, mode):
    assert cli.main(["test", "--kind", "m3d", "--spectrum", str(centered_file),
                     "--data", str(data_file), "--theta", "1", "--seed", "1",
                     "--calibrate", mode]) == 1
    captured = capsys.readouterr()
    assert "normal quantile" in captured.err and captured.out == ""


@pytest.mark.parametrize("kind, mode, message", [
    ("adaptive", "theory:abc", "--calibrate theory takes no argument"),
    ("m3d", "normal:7", "--calibrate normal takes no argument"),
    ("mmd", "mc:abc", "--calibrate mc:REPS"),
    ("mmd", "mc:", "--calibrate mc:REPS"),
    ("adaptive", "mc:1e3", "--calibrate mc:REPS"),
], ids=["theory-arg", "normal-arg", "mc-word", "mc-empty", "mc-float"])
def test_calibrate_mode_refuses_a_bad_argument(centered_file, data_file, capsys, kind,
                                               mode, message):
    assert cli.main(["test", "--kind", kind, "--spectrum", str(centered_file),
                     "--data", str(data_file), "--theta", "0", "--seed", "1",
                     "--calibrate", mode]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("kind, flags", [
    ("adaptive", ["--calibrate", "theory", "--rho", "0.5", "--theta", "3"]),
    ("adaptive", ["--calibrate", "theory", "--theta", "0"]),
    ("mmd", ["--seed", "1", "--rho", "0.5"]),
    ("mmd", ["--seed", "1", "--calibrate", "mc:100", "--theta", "0"]),
])
def test_mmd_and_adaptive_refuse_rho_and_theta(centered_file, data_file, capsys,
                                               kind, flags):
    assert cli.main(["test", "--kind", kind, "--spectrum", str(centered_file),
                     "--data", str(data_file), *flags]) == 1
    captured = capsys.readouterr()
    assert "%s takes no rho or theta" % kind in captured.err and captured.out == ""


def test_m3d_refuses_rho_and_theta(centered_file, data_file, capsys):
    assert cli.main(["test", "--kind", "m3d", "--spectrum", str(centered_file),
                     "--data", str(data_file), "--rho", "0.1", "--theta", "0"]) == 1
    captured = capsys.readouterr()
    assert "rho or theta, not both" in captured.err and captured.out == ""


@pytest.mark.parametrize("kind, flags", [
    ("adaptive", ["--calibrate", "mc:400", "--seed", "1", "--rho", "0.5"]),
    ("mmd", ["--seed", "1", "--theta", "0"]),
])
def test_a_refused_moderation_draws_no_null(centered_file, data_file, capsys, monkeypatch,
                                            kind, flags):
    def drawn(*args, **kwargs):
        raise AssertionError("a Monte-Carlo null was drawn before the refusal")

    for name in ("empirical_null_quantile", "chisq_mix_quantile"):
        monkeypatch.setattr(cal, name, drawn)
    assert cli.main(["test", "--kind", kind, "--spectrum", str(centered_file),
                     "--data", str(data_file), *flags]) == 1
    captured = capsys.readouterr()
    assert "%s takes no rho or theta" % kind in captured.err and captured.out == ""


@pytest.mark.parametrize("flag, value", [("--theta", "nan"), ("--rho", "nan"),
                                         ("--theta", "inf"), ("--rho", "inf")])
def test_m3d_refuses_a_non_finite_rho_or_theta(centered_file, data_file, capsys,
                                               flag, value):
    assert cli.main(["test", "--kind", "m3d", "--spectrum", str(centered_file),
                     "--data", str(data_file), flag, value]) == 1
    captured = capsys.readouterr()
    assert "%s must be finite" % flag[2:] in captured.err and captured.out == ""


def test_calibration_file_has_no_truncation_bias(centered_file, data_file, tmp_path,
                                                 capsys):
    out = tmp_path / "mmd.cal"
    assert cli.main(["calibrate", "--kind", "mmd", "--spectrum", str(centered_file),
                     "--n", "200", "--reps", "500", "--seed", "3", "--out", str(out),
                     "--quiet"]) == 0
    record = json.loads(out.read_text())
    assert "truncation_bias" not in record
    # files written by earlier releases carry the key and still load
    record["truncation_bias"] = 0.0
    out.write_text(json.dumps(record))
    assert cli.main(["test", "--kind", "mmd", "--spectrum", str(centered_file),
                     "--data", str(data_file), "--calibration", str(out), "--quiet"]) == 0
    assert json.loads(capsys.readouterr().out)["threshold"] == record["quantile"]


# ---------------------------------------------------------------------------
# a calibration file records the kind, n, alpha and spectrum it was made for


def _calibrate(spec, out, kind, n=200, alpha=0.05):
    argv = ["calibrate", "--kind", kind, "--spectrum", str(spec), "--n", str(n),
            "--alpha", str(alpha), "--seed", "3", "--out", str(out), "--quiet"]
    assert cli.main(argv + ([] if kind == "m3d" else ["--reps", "100"])) == 0
    return out


def _test_with(spec, data, cal_file, kind, *flags):
    return cli.main(["test", "--kind", kind, "--spectrum", str(spec), "--data", str(data),
                     "--calibration", str(cal_file), "--quiet", *flags])


def test_an_mmd_calibration_cannot_decide_an_m3d_test(centered_file, data_file, tmp_path,
                                                       capsys):
    cal_file = _calibrate(centered_file, tmp_path / "mmd.cal", "mmd")
    assert _test_with(centered_file, data_file, cal_file, "m3d", "--theta", "0") == 1
    captured = capsys.readouterr()
    assert "kind mmd (calibration) != m3d (test)" in captured.err and captured.out == ""


def test_a_calibration_keeps_its_alpha(centered_file, data_file, tmp_path, capsys):
    cal_file = _calibrate(centered_file, tmp_path / "mmd.cal", "mmd", alpha=0.05)
    assert _test_with(centered_file, data_file, cal_file, "mmd", "--alpha", "0.01") == 1
    captured = capsys.readouterr()
    assert "alpha 0.05 (calibration) != 0.01 (test)" in captured.err and captured.out == ""


def test_an_adaptive_calibration_keeps_its_n(centered_file, data_file, tmp_path, capsys):
    # the adaptive null moves with n; data_file holds 200 points
    cal_file = _calibrate(centered_file, tmp_path / "adaptive.cal", "adaptive", n=100)
    assert _test_with(centered_file, data_file, cal_file, "adaptive") == 1
    captured = capsys.readouterr()
    assert "n 100 (calibration) != 200 (test)" in captured.err and captured.out == ""


def test_a_calibration_keeps_its_spectrum(centered_file, data_file, tmp_path, capsys):
    wide = tmp_path / "k64.spec"
    assert cli.main(["decompose", "--kernel", "cosine-ref", "--null", "uniform-cube-1",
                     "--trunc", "64", "--nodes", "256", "--center", "--out", str(wide),
                     "--quiet"]) == 0
    cal_file = _calibrate(wide, tmp_path / "mmd.cal", "mmd")
    assert _test_with(centered_file, data_file, cal_file, "mmd") == 1
    captured = capsys.readouterr()
    made_for = json.loads(cal_file.read_text())["spectrum"]
    assert "spectrum %s (calibration) != " % made_for in captured.err
    assert captured.out == ""


def test_a_calibration_file_from_before_0_9_is_refused(centered_file, data_file, tmp_path,
                                                       capsys):
    cal_file = _calibrate(centered_file, tmp_path / "mmd.cal", "mmd")
    record = json.loads(cal_file.read_text())
    for key in ("kind", "n", "spectrum"):
        del record[key]
    cal_file.write_text(json.dumps(record))
    assert _test_with(centered_file, data_file, cal_file, "mmd") == 1
    assert "rerun `gofkit calibrate`" in capsys.readouterr().err


def test_calibration_file_and_calibrate_mode_exclude_each_other(centered_file, data_file,
                                                                tmp_path, capsys):
    cal_file = _calibrate(centered_file, tmp_path / "adaptive.cal", "adaptive")
    assert _test_with(centered_file, data_file, cal_file, "adaptive",
                      "--calibrate", "theory") == 1
    assert "exclude each other" in capsys.readouterr().err


def test_calibration_file_and_seed_exclude_each_other(centered_file, data_file, tmp_path,
                                                      capsys):
    cal_file = _calibrate(centered_file, tmp_path / "mmd.cal", "mmd")
    assert _test_with(centered_file, data_file, cal_file, "mmd", "--seed", "3") == 1
    captured = capsys.readouterr()
    assert "exclude each other" in captured.err and captured.out == ""


@pytest.mark.parametrize("edit, message", [
    (lambda r: r.update(replicates=r["replicates"][:500]),
     "'replicates' holds 500 values but 'reps' is 1000"),
    (lambda r: r["replicates"].__setitem__(7, float("nan")),
     "'replicates' holds a non-finite value"),
    (lambda r: r.update(quantile=0.0), "'quantile' 0.0 is not the ceil((1-alpha) reps)"),
], ids=["cut-replicates", "nan-replicate", "edited-quantile"])
def test_a_corrupted_calibration_file_is_refused(centered_file, data_file, tmp_path,
                                                 capsys, edit, message):
    cal_file = tmp_path / "mmd.cal"
    assert cli.main(["calibrate", "--kind", "mmd", "--spectrum", str(centered_file),
                     "--n", "200", "--reps", "1000", "--seed", "3",
                     "--out", str(cal_file), "--quiet"]) == 0
    record = json.loads(cal_file.read_text())
    edit(record)
    cal_file.write_text(json.dumps(record))
    assert _test_with(centered_file, data_file, cal_file, "mmd") == 1
    captured = capsys.readouterr()
    assert "calibration file %s: %s" % (cal_file, message) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("edit, message", [
    (lambda r: [1, 2], " does not hold a JSON object"),
    (lambda r: {**r, "reps": "200"}, ": 'reps' must be a number or null, not str"),
    (lambda r: {**r, "alpha": "0.05"}, ": 'alpha' must be a number, not str"),
    (lambda r: {**r, "method": 5}, ": 'method' must be a string, not int"),
    (lambda r: {**r, "replicates": {"a": 1}}, ": 'replicates' must be an array or null, not dict"),
    (lambda r: {k: v for k, v in r.items() if k != "seed"}, " has no 'seed' field"),
], ids=["not-an-object", "string-reps", "string-alpha", "number-method", "object-replicates",
        "no-seed"])
def test_a_malformed_calibration_file_is_one_error_line(centered_file, data_file, tmp_path,
                                                        capsys, edit, message):
    cal_file = _calibrate(centered_file, tmp_path / "mmd.cal", "mmd")
    cal_file.write_text(json.dumps(edit(json.loads(cal_file.read_text()))))
    assert _test_with(centered_file, data_file, cal_file, "mmd") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: calibration file %s%s\n" % (cal_file, message)
    assert captured.out == ""


def test_a_spectrum_file_whose_header_is_not_an_object_is_refused(centered_file, data_file,
                                                                  capsys):
    import struct

    from gofkit.spectrum import _MAGIC
    data = centered_file.read_bytes()
    hlen = struct.unpack("<I", data[len(_MAGIC):len(_MAGIC) + 4])[0]
    centered_file.write_bytes(data[:len(_MAGIC)] + struct.pack("<I", 2) + b"[]"
                              + data[len(_MAGIC) + 4 + hlen:])
    assert cli.main(["test", "--kind", "m3d", "--spectrum", str(centered_file),
                     "--data", str(data_file), "--theta", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: spectrum file %s: its header is not a JSON object\n"
                            % centered_file)
    assert captured.out == ""


@pytest.mark.parametrize("alpha", ["1.5", "0"])
def test_calibrate_refuses_alpha_before_drawing(centered_file, tmp_path, capsys,
                                                monkeypatch, alpha):
    def drawn(*args, **kwargs):
        raise AssertionError("a null was drawn before alpha was checked")

    monkeypatch.setattr(cal, "empirical_null_quantile", drawn)
    out = tmp_path / "adaptive.cal"
    assert cli.main(["calibrate", "--kind", "adaptive", "--spectrum", str(centered_file),
                     "--n", "200", "--alpha", alpha, "--seed", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "alpha must lie in (0, 1)" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.fixture()
def uncentered_file(tmp_path):
    out = tmp_path / "g.spec"
    assert cli.main(["decompose", "--kernel", "gaussian:0.2", "--null", "uniform-cube-1",
                     "--trunc", "16", "--nodes", "256", "--out", str(out), "--quiet"]) == 0
    return out


@pytest.mark.parametrize("kind, flags, name", [
    ("mmd", ["--seed", "1"], "MMD"), ("m3d", ["--theta", "0"], "m3d"),
    ("adaptive", ["--calibrate", "theory"], "adaptive"), ("adaptive", ["--seed", "1"],
                                                          "adaptive"),
], ids=["mmd", "m3d", "adaptive-theory", "adaptive-mc"])
def test_every_test_refuses_an_uncentered_basis(uncentered_file, data_file, tmp_path, capsys,
                                               monkeypatch, kind, flags, name):
    # an uncentered eigenfunction's squared sample mean does not tend to 0
    # under the null, so the statistic grows like n and every test rejects
    def drawn(*args, **kwargs):
        raise AssertionError("a null was drawn or a sample summarised")

    for owner, attr in ((cal, "chisq_mix_quantile"), (cal, "empirical_null_quantile"),
                        (type(load_spectrum(uncentered_file)), "summary")):
        monkeypatch.setattr(owner, attr, drawn)
    message = "error: %s requires a degenerate (centered) basis\n" % name
    assert cli.main(["test", "--kind", kind, "--spectrum", str(uncentered_file),
                     "--data", str(data_file), *flags]) == 1
    assert capsys.readouterr() == ("", message)
    out = tmp_path / "c.cal"
    assert cli.main(["calibrate", "--kind", kind, "--spectrum", str(uncentered_file),
                     "--n", "200", "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", message)
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--seed", "1"], "exclude each other"), (["--calibrate", "mc"], "exclude each other"),
    (["--alpha", "1.5"], "alpha must lie in (0, 1)"),
    (["--rho", "0.1"], "mmd takes no rho or theta"),
], ids=["seed", "calibrate", "alpha", "rho"])
def test_a_refused_request_opens_no_calibration_file(centered_file, data_file, tmp_path,
                                                     capsys, flags, message):
    # the file does not exist, so reading it would report that instead
    missing = tmp_path / "missing.cal"
    assert _test_with(centered_file, data_file, missing, "mmd", *flags) == 1
    captured = capsys.readouterr()
    assert message in captured.err and "missing.cal" not in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_run_test_reads_a_calibration_path(centered_file, data_file, tmp_path):
    from gofkit.embedding import Sample, run_test
    basis, sample = load_spectrum(centered_file), Sample.from_csv(data_file)
    for kind, flags in (("mmd", {}), ("m3d", {"theta": 0.0}), ("adaptive", {})):
        path = _calibrate(centered_file, tmp_path / ("%s.cal" % kind), kind)
        got = run_test(kind, basis, sample, 0.05, calibration=path, **flags)
        want = run_test(kind, basis, sample, 0.05, calibration=cal.read_calibration(path),
                        **flags)
        assert got == want and got.to_dict() == want.to_dict()
        a, b = got.calibration, want.calibration
        assert dataclasses.replace(a, replicates=None) == dataclasses.replace(b, replicates=None)
        assert (a.replicates is None and b.replicates is None
                or a.replicates.tobytes() == b.replicates.tobytes())


def _mmd_file(spec, path, reps=1000):
    assert cli.main(["calibrate", "--kind", "mmd", "--spectrum", str(spec), "--n", "200",
                     "--reps", str(reps), "--seed", "3", "--out", str(path), "--quiet"]) == 0
    return path


@pytest.mark.parametrize("layout", ["writer", "json.dump"])
def test_a_calibration_file_streams_its_replicates_bit_for_bit(centered_file, tmp_path,
                                                                monkeypatch, layout):
    # the writer's chunks and a json.dump of the same record (CI's cut-file
    # check writes one) are read straight into float64, without json.load
    cal_file = _mmd_file(centered_file, tmp_path / "mmd.cal")
    want = null_calibration("mmd", load_spectrum(centered_file), 200, 0.05, reps=1000,
                            seed=3)
    if layout == "json.dump":
        record = json.loads(cal_file.read_text())
        with open(cal_file, "w") as fh:
            json.dump(record, fh)

    def refuse(fh):
        raise AssertionError("json.load read the replicates")

    monkeypatch.setattr(cli.json, "load", refuse)
    got = cal.read_calibration(cal_file)
    assert got.replicates.dtype == np.float64
    assert got.replicates.tobytes() == want.replicates.tobytes()
    assert dataclasses.replace(got, replicates=None) == dataclasses.replace(want,
                                                                             replicates=None)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
       size=st.integers(1, 10_000))
def test_the_fast_read_keeps_every_bit(tmp_path_factory, values, size):
    # -0.0, subnormals, 1e+16 and the largest floats take every form a
    # float repr has; past some 3000 values the text crosses read blocks
    path = tmp_path_factory.mktemp("bits") / "c.cal"
    values = np.resize(values, size)
    c = cal.NullCalibration(method="normal", alpha=0.05, quantile=0.0, reps=values.size,
                            seed=None, replicates=values)
    with open(path, "wb") as fh:
        fh.writelines(cal.calibration_file_chunks(c))
    assert cal._record_in_writer_layout(path)["replicates"].tobytes() == values.tobytes()


def test_reading_a_100k_replicate_file_holds_one_float64_copy(centered_file, tmp_path):
    # 100 000 replicates are 0.8 MB as float64; json.load held the 2 MB text
    # and 100 000 Python floats beside them, a 5.3 MB peak
    cal_file = _mmd_file(centered_file, tmp_path / "mmd.cal", reps=100_000)
    tracemalloc.start()
    try:
        got = cal.read_calibration(cal_file)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.replicates.size == 100_000
    assert peak <= 2e6


def _json_error(text):
    with pytest.raises(json.JSONDecodeError) as info:
        json.loads(text)
    return str(info.value)


# each edit takes the file out of the writer's layout, so json.load reads it
# and it is refused with the message it always had
@pytest.mark.parametrize("edit, message", [
    (lambda t: t.rpartition(", ")[0] + "]}\n",
     "'replicates' holds 999 values but 'reps' is 1000"),
    (lambda t: t.replace("]}", ", 1.5]}"), "'replicates' holds 1001 values but 'reps' is 1000"),
    (lambda t: t.replace("]}", ", ]}"), _json_error),
    (lambda t: t.replace("[", "[NaN, ").replace('"reps": 1000', '"reps": 1001'),
     "'replicates' holds a non-finite value"),
    (lambda t: t.replace("]}", ", Infinity]}").replace('"reps": 1000', '"reps": 1001'),
     "'replicates' holds a non-finite value"),
    (lambda t: t.replace("]}", ', "x"]}').replace('"reps": 1000', '"reps": 1001'),
     "could not convert string to float: 'x'"),
    (lambda t: t.replace("]}", ", abc]}"), _json_error),
    (lambda t: json.dumps({"replicates": json.loads(t)["replicates"][1:],
                           **{k: v for k, v in json.loads(t).items() if k != "replicates"}}),
     "'replicates' holds 999 values but 'reps' is 1000"),
], ids=["missing-value", "extra-value", "trailing-comma", "nan", "infinity",
        "string-token", "bare-word", "replicates-first-cut"])
def test_a_file_outside_the_writer_layout_keeps_its_message(centered_file, data_file,
                                                            tmp_path, capsys, edit,
                                                            message):
    cal_file = _mmd_file(centered_file, tmp_path / "mmd.cal")
    text = edit(cal_file.read_text())
    cal_file.write_text(text)
    if callable(message):
        message = message(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the refusal is its one error line, no warning
        assert _test_with(centered_file, data_file, cal_file, "mmd") == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("token", ["+1.5", ".5", "1.", "01.5", "-0", "7", "1E5", "1.5e",
                                   "1.2.3", "1e5e3", " 1.5", ""])
def test_other_number_text_leaves_the_fast_read(centered_file, tmp_path, token):
    # reps counts the appended token, so only the token decides: the fast
    # read gives json.load's value for the text JSON reads ("-0" and "7" are
    # integers there, "-0" a +0.0 in float64) and leaves the rest to json.load
    cal_file = _mmd_file(centered_file, tmp_path / "mmd.cal")
    cal_file.write_text(cal_file.read_text().replace("]}", ", %s]}" % token)
                        .replace('"reps": 1000', '"reps": 1001'))
    got = cal._record_in_writer_layout(cal_file)
    if token in ("-0", "7", "1E5", " 1.5"):
        with open(cal_file) as fh:
            want = np.asarray(json.load(fh)["replicates"], float)
        assert got["replicates"].tobytes() == want.tobytes()
    else:
        assert got is None


@pytest.fixture(scope="module")
def roundtrip_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("roundtrip")
    assert cli.main(["decompose", "--kernel", "cosine-ref", "--null", "uniform-cube-1",
                     "--trunc", "16", "--nodes", "128", "--center",
                     "--out", str(d / "s.spec"), "--quiet"]) == 0
    return d


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(["mmd", "m3d", "adaptive"]), n=st.integers(16, 64),
       alpha=st.sampled_from([0.01, 0.05, 0.1, 0.5]))
def test_a_calibration_file_reads_back_as_its_record(roundtrip_dir, kind, n, alpha):
    spec = roundtrip_dir / "s.spec"
    got = cal.read_calibration(_calibrate(spec, roundtrip_dir / "c.cal", kind, n, alpha))
    want = null_calibration(kind, load_spectrum(spec), n, alpha,
                            reps=None if kind == "m3d" else 100, seed=3)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "replicates" and b is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        else:
            assert type(a) is type(b) and a == b, f.name


def test_both_sphere_kernel_readers_share_one_parser(tmp_path, capsys):
    assert cli.main(["decompose", "--kernel", "gaussian:0.5", "--null", "uniform-sphere-3",
                     "--trunc", "4", "--nodes", "64", "--out", str(tmp_path / "s.spec")]) == 1
    decompose_err = capsys.readouterr().err
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "basis": {"type": "sphere", "profile": "gaussian:0.5", "d": 3},
        "alternatives": {"null": {"family": "uniform-sphere", "dim": 3}},
        "tests": ["m3d"], "n": [50], "reps": 2, "seed": 1}))
    assert cli.main(["power", "--plan", str(plan), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == decompose_err
    assert "sphere nulls need a zonal kernel (gaussian-sphere:S2)" in decompose_err


def test_version_matches_pyproject():
    import pathlib

    import gofkit
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert gofkit.__version__ == tomllib.load(fh)["project"]["version"]


@pytest.mark.parametrize("edit", [
    lambda r: r.update(replicates=[{}] * len(r["replicates"])),
    lambda r: r["replicates"].__setitem__(7, 10 ** 400),
], ids=["object-replicates", "huge-integer-replicate"])
def test_replicates_that_are_not_floats_exit_1(centered_file, data_file, tmp_path, capsys,
                                               edit):
    cal_file = _calibrate(centered_file, tmp_path / "mmd.cal", "mmd")
    record = json.loads(cal_file.read_text())
    edit(record)
    cal_file.write_text(json.dumps(record))
    assert _test_with(centered_file, data_file, cal_file, "mmd") == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: calibration file %s: 'replicates' must hold numbers "
                            "that fit a float\n" % cal_file)
    assert captured.out == ""


@pytest.mark.parametrize("basis, field", [
    ({"type": "tensor-cosine", "K": 16}, "d"),
    ({"type": "spectrum"}, "path"),
    ({"type": "sphere", "d": 3}, "profile"),
    ({"type": "sphere", "profile": "gaussian-sphere:1.0"}, "d"),
])
def test_a_plan_basis_names_its_missing_field(tmp_path, capsys, basis, field):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({**_PLAN, "basis": basis}))
    assert cli.main(["power", "--plan", str(plan), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr() == ("", "error: plan file %s: basis type %r has no %r "
                                       "field\n" % (plan, basis["type"], field))
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# cosine-ref spectra in closed form


@pytest.fixture(scope="module")
def closed_form_inputs(tmp_path_factory):
    """A decompose of centered cosine-ref at K = 64 on 512 nodes, and 500
    points on [0,1] written with every bit."""
    root = tmp_path_factory.mktemp("closed-form")
    spec, data = root / "cube.spec", root / "x.csv"
    assert cli.main(["decompose", "--kernel", "cosine-ref", "--null", "uniform-cube-1",
                     "--trunc", "64", "--nodes", "512", "--center", "--out", str(spec),
                     "--quiet"]) == 0
    rng = np.random.default_rng(21)
    x = np.where(rng.random(500) < 0.2, rng.beta(2.0, 5.0, 500), rng.random(500))
    np.savetxt(data, x[:, None], delimiter=",", fmt="%.17g")
    return spec, data


@pytest.mark.parametrize("kind, flags, options", [
    ("mmd", ["--seed", "4"], {"seed": 4}),
    ("m3d", ["--theta", "0"], {"theta": 0.0}),
    ("adaptive", ["--calibrate", "theory"], {"calibrate": "theory"}),
    ("adaptive", ["--calibrate", "mc:100", "--seed", "4"],
     {"calibrate": "mc", "reps": 100, "seed": 4}),
], ids=["mmd", "m3d", "adaptive-theory", "adaptive-mc"])
def test_a_cosine_ref_file_decides_as_cosine_basis(closed_form_inputs, capsys, kind, flags,
                                                   options):
    from gofkit.embedding import Sample, run_test
    from gofkit.spectrum import CosineBasis, cosine_basis
    spec, data = closed_form_inputs
    assert type(load_spectrum(spec)) is CosineBasis
    capsys.readouterr()
    assert cli.main(["test", "--kind", kind, "--spectrum", str(spec), "--data", str(data),
                     "--quiet", *flags]) == 0
    report = run_test(kind, cosine_basis(64), Sample.from_csv(data), 0.05, **options)
    want = json.dumps(report.to_dict(), sort_keys=True, allow_nan=False)
    assert capsys.readouterr().out == want + "\n"


def test_cosine_ref_decompose_is_the_same_centered_or_not(closed_form_inputs, tmp_path):
    plain = tmp_path / "plain.spec"
    assert cli.main(["decompose", "--kernel", "cosine-ref", "--null", "uniform-cube-1",
                     "--trunc", "64", "--nodes", "512", "--out", str(plain),
                     "--quiet"]) == 0
    assert plain.read_bytes() == closed_form_inputs[0].read_bytes()


def test_a_flipped_eigenvalue_byte_refuses_the_cosine_file(closed_form_inputs, tmp_path,
                                                           capsys):
    data = bytearray(closed_form_inputs[0].read_bytes())
    data[-3] ^= 0x01  # in the last eigenvalue
    flipped = tmp_path / "flipped.spec"
    flipped.write_bytes(bytes(data))
    assert cli.main(["test", "--kind", "m3d", "--theta", "0", "--spectrum", str(flipped),
                     "--data", str(closed_form_inputs[1])]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: spectrum file %s: its eigenvalues are not those of the "
                            "closed form (k pi)^-2, k = 1..K, of cosine-ref\n" % flipped)
    assert captured.out == ""


@pytest.mark.parametrize("kernel, trunc, nodes, message", [
    ("cosine-ref:200", "300", "512", "K = 300 exceeds the 200 terms of kernel "
                                     "'cosine-ref:200'"),
    ("cosine-ref", "64", "64", "off orthonormal, or off mean 0, by 0.393 on the 64-node rule"),
    ("cosine-ref", "65", "64", "K must satisfy 1 <= K <= node count"),
], ids=["trunc-above-terms", "too-few-nodes", "trunc-above-nodes"])
def test_cosine_ref_decompose_refuses_what_it_cannot_write(tmp_path, capsys, kernel, trunc,
                                                           nodes, message):
    out = tmp_path / "x.spec"
    assert cli.main(["decompose", "--kernel", kernel, "--null", "uniform-cube-1",
                     "--trunc", trunc, "--nodes", nodes, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out.exists()


def test_a_nystrom_cosine_ref_file_still_loads_as_nystrom(closed_form_inputs, tmp_path,
                                                          capsys):
    from gofkit.embedding import Sample, run_test
    from gofkit.kernels import cosine_reference_kernel
    from gofkit.spectrum import (NystromBasis, gauss_legendre_01, nystrom_decompose,
                                 save_spectrum)
    basis = nystrom_decompose(cosine_reference_kernel(), gauss_legendre_01(128), 16,
                              null_id="uniform-cube-1", kernel_id="cosine-ref", center=True)
    spec, data = tmp_path / "nystrom.spec", closed_form_inputs[1]
    save_spectrum(basis, spec)
    loaded = load_spectrum(spec)
    assert type(loaded) is NystromBasis
    assert loaded.eigenvalues.tobytes() == basis.eigenvalues.tobytes()
    assert loaded.phi_nodes.tobytes() == basis.phi_nodes.tobytes()
    assert cli.main(["test", "--kind", "m3d", "--theta", "0", "--spectrum", str(spec),
                     "--data", str(data), "--quiet"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = run_test("m3d", basis, Sample.from_csv(data), 0.05, theta=0.0).to_dict()
    assert got["reject"] == want["reject"]
    assert got["parameters"] == want["parameters"]
    for key in ("statistic", "threshold", "p_value"):
        assert abs(got[key] - want[key]) <= 1e-12 * abs(want[key]), key
