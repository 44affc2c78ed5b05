"""End-to-end tests of the command-line interface."""
import dataclasses
import json
import os
import subprocess
import sys

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
    # scipy.special 0.27 s of CPU and 25 MB; no command needs either, and only
    # the vMF and Watson densities import scipy
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
    ("linear:3", "uniform-cube-1"),
    ("constant:1", "uniform-cube-1"),
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


def test_decompose_rank_deficient_exits_2(tmp_path, capsys):
    assert cli.main(["decompose", "--kernel", "constant", "--null",
                     "uniform-cube-1", "--trunc", "4", "--nodes", "64",
                     "--out", str(tmp_path / "x.spec")]) == 2
    assert "numeric floor" in capsys.readouterr().err


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
            "claw": {"family": "marron-wand:asymmetric-claw", "dim": 1}},
        "tests": ["m3d"],
        "n": [100],
        "reps": 5,
        "seed": 2,
    }
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    out_dir = tmp_path / "pow"
    assert cli.main(["power", "--plan", str(plan_file), "--out", str(out_dir),
                     "--alt", "skew=marron-wand:skewed-unimodal:dim=1",
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


def test_config_file_supplies_defaults(spectrum_file, data_file, tmp_path,
                                       capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rho": 0.1, "alpha": 0.1}))
    assert cli.main(["test", "--kind", "m3d", "--spectrum", str(spectrum_file),
                     "--data", str(data_file), "--config", str(cfg),
                     "--quiet"]) == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["alpha"] == pytest.approx(0.1)
    assert record["parameters"]["rho"] == pytest.approx(0.1)


def test_a_config_file_does_not_reach_the_next_call(spectrum_file, data_file, tmp_path,
                                                   capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.1}))
    argv = ["test", "--kind", "m3d", "--spectrum", str(spectrum_file),
            "--data", str(data_file), "--rho", "0.1", "--quiet"]
    assert cli.main(argv + ["--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == 0.1
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == 0.05


@pytest.fixture()
def centered_file(tmp_path):
    out = tmp_path / "centered.spec"
    assert cli.main(["decompose", "--kernel", "cosine-ref", "--null",
                     "uniform-cube-1", "--trunc", "16", "--nodes", "128",
                     "--center", "--out", str(out), "--quiet"]) == 0
    return out


@pytest.mark.parametrize("flag", [["--workers", "2"], ["--grid", "auto"], ["--seed", "5"],
                                  ["--no-cache"]])
def test_removed_flags_exit_1(centered_file, data_file, tmp_path, flag, capsys):
    # decompose draws nothing, so it takes no seed; it keeps no cache either
    if flag[0] in ("--seed", "--no-cache"):
        argv = ["decompose", "--kernel", "cosine-ref", "--null", "uniform-cube-1",
                "--trunc", "16", "--nodes", "128", "--out", str(tmp_path / "s.spec")]
    else:
        argv = ["test", "--kind", "m3d", "--spectrum", str(centered_file),
                "--data", str(data_file), "--rho", "0.1"]
    assert cli.main(argv + flag) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_decompose_reads_a_config_that_sets_a_seed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "quiet": True}))
    out = tmp_path / "s.spec"
    assert cli.main(["decompose", "--kernel", "cosine-ref", "--null", "uniform-cube-1",
                     "--trunc", "16", "--nodes", "128", "--out", str(out),
                     "--config", str(cfg)]) == 0
    assert out.stat().st_size > 0 and capsys.readouterr().out == ""


@pytest.mark.parametrize("kernel, null, trunc", [
    ("cosine-ref", "uniform-cube-1", "16"),
    ("gaussian-sphere:1.0", "uniform-sphere-3", "8"),
])
def test_truncated_spectrum_cache_is_one_clean_error(tmp_path, data_file,
                                                     capsys, kernel, null, trunc):
    from gofkit.spectrum import _MAGIC, load_spectrum
    full = tmp_path / "full.spec"
    assert cli.main(["decompose", "--kernel", kernel, "--null", null, "--trunc", trunc,
                     "--nodes", "128", "--center", "--out", str(full), "--quiet"]) == 0
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
    spec = tmp_path / "k4.spec"
    assert cli.main(["decompose", "--kernel", "cosine-ref", "--null",
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
    spec = tmp_path / "g.spec"
    assert cli.main(["decompose", "--kernel", "gaussian:0.2", "--null", "uniform-cube-1",
                     "--trunc", "10", "--nodes", "128", "--out", str(spec),
                     "--quiet"]) == 0
    fitted = load_spectrum(spec).decay_exponent

    def m3d_rho():
        assert cli.main(["test", "--kind", "m3d", "--theta", "0", "--spectrum", str(spec),
                         "--data", str(data_file), "--quiet"]) == 0
        return json.loads(capsys.readouterr().out)["parameters"]["rho"]

    rho = m3d_rho()
    assert rho == rho_schedule(200, fitted, 0.0)
    # an uncentered kernel leaves the basis nondegenerate, whatever the header says
    _edit_header(spec, lambda header: header.update(degenerate=True, decay_exponent=5.0))
    assert cli.main(["test", "--kind", "mmd", "--spectrum", str(spec),
                     "--data", str(data_file), "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert "MMD requires a degenerate" in captured.err and captured.out == ""
    assert m3d_rho() == rho != rho_schedule(200, 5.0, 0.0)


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
    got = cli._calibration_from_file(_calibrate(spec, roundtrip_dir / "c.cal", kind, n, alpha))
    want = null_calibration(kind, load_spectrum(spec), n, alpha,
                            reps=None if kind == "m3d" else 100, seed=3)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "replicates" and b is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        else:
            assert type(a) is type(b) and a == b, f.name


def test_both_sphere_kernel_readers_share_one_parser(tmp_path, capsys):
    assert cli.main(["decompose", "--kernel", "linear", "--null", "uniform-sphere-3",
                     "--trunc", "4", "--nodes", "64", "--out", str(tmp_path / "s.spec")]) == 1
    decompose_err = capsys.readouterr().err
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "basis": {"type": "sphere", "profile": "linear", "d": 3},
        "alternatives": {"null": {"family": "uniform-sphere", "dim": 3}},
        "tests": ["m3d"], "n": [50], "reps": 2, "seed": 1}))
    assert cli.main(["power", "--plan", str(plan), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == decompose_err
    assert "gaussian-sphere:S2 or constant" in decompose_err


def test_version_matches_pyproject():
    import pathlib

    import gofkit
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert gofkit.__version__ == tomllib.load(fh)["project"]["version"]
