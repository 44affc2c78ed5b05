"""Golden outputs: `gofkit test` reports, a calibration file and fig1 rows.

`reject`, the calibration and every key must match exactly, and every
number within 1e-12 relative.  A change that means to move one of these
outputs updates its pin in the same diff and says so in CHANGES.md.

- S^2 reports: the values 0.11.0 wrote, when the Funk-Hecke quadrature
  became a Gauss rule built from the Gegenbauer recurrence.  Its
  eigenvalues sit within round-off of the Bessel closed form, where the
  earlier rule's weights left the smallest kept degrees up to 2 % high.
  That moved the fitted decay exponent from 6.7414 to 6.7477, hence m3d's
  rho and the adaptive grid: its top point m_star went from 111 to 112,
  which doubled the largest rho and raised the adaptive statistic from
  1.9945 to 2.3644, so `adaptive-theory` now rejects.  The mmd statistic
  and threshold moved by about 1e-12 relative.
- Cube reports and the `calibrate` quantile on a centered cosine-ref
  spectrum: the values 0.7.0 wrote.  Its eigenvalues are all distinct, so
  the chi-square draws of 0.8.0 are bit-identical.  0.9.0 added the keys
  `kind`, `n` and `spectrum` to the calibration file and left its quantile
  as it was; the spectrum digest is checked against the loaded spectrum
  rather than pinned, since it covers the eigenvalues' last bits.  Since
  0.19.0 `decompose` writes that spectrum in closed form; the pins hold
  for it unedited, and a Nystrom file of the same spectrum still meets them.
- `reproduce fig1 --scale desk --seed 1` rows, from `golden/`: written by
  0.8.0; the m3d rows are those of 0.7.0.
"""
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from gofkit import cli, load_spectrum
from gofkit.embedding import spectrum_digest

_RTOL = 1e-12
_FIG1 = Path(__file__).parent / "golden" / "fig1_desk_seed1.csv"

# extra `gofkit test` flags by case
_FLAGS = {
    "mmd": ["--kind", "mmd", "--seed", "3"],
    "m3d": ["--kind", "m3d", "--theta", "0"],
    "adaptive-theory": ["--kind", "adaptive", "--calibrate", "theory"],
    "adaptive-mc": ["--kind", "adaptive", "--calibrate", "mc:100", "--seed", "3"],
}

# gofkit test JSON on the S^2 sample below, by case
_SPHERE_PINS = {
    "mmd": {
        "alpha": 0.05,
        "calibration": {"method": "chisq-mixture-mc", "reps": 100000, "seed": 3},
        "kind": "mmd",
        "p_value": 0.00243,
        "parameters": {"K": 224, "alpha": 0.05},
        "reject": True,
        "statistic": 2.323084053038123,
        "threshold": 1.435696426357237,
    },
    "m3d": {
        "alpha": 0.05,
        "calibration": {"method": "normal", "reps": None, "seed": None},
        "kind": "m3d",
        "p_value": 0.02758859767890009,
        "parameters": {"K": 224, "alpha": 0.05, "rho": 0.04997202162958658},
        "reject": True,
        "statistic": 1.9174782988306918,
        "threshold": 1.6448536269514722,
    },
    "adaptive-theory": {
        "alpha": 0.05,
        "calibration": {"method": "theory-loglog", "reps": None, "seed": None},
        "kind": "adaptive",
        "p_value": None,
        "parameters": {"K": 224, "alpha": 0.05, "argmax_rho": 0.11423431413692092,
                       "m_star": 112, "rho_star": 2.2000728627283414e-35,
                       "theory_threshold": 2.3410911978823457},
        "reject": True,
        "statistic": 2.3644479457096166,
        "threshold": 2.3410911978823457,
    },
    "adaptive-mc": {
        "alpha": 0.05,
        "calibration": {"method": "empirical-mc", "reps": 100, "seed": 3},
        "kind": "adaptive",
        "p_value": 0.06,
        "parameters": {"K": 224, "alpha": 0.05, "argmax_rho": 0.11423431413692092,
                       "m_star": 112, "rho_star": 2.2000728627283414e-35,
                       "theory_threshold": 2.3410911978823457},
        "reject": False,
        "statistic": 2.3644479457096166,
        "threshold": 2.403876254401114,
    },
}

# gofkit test JSON on the [0,1] sample below, by case
_CUBE_PINS = {
    "mmd": {
        "alpha": 0.05,
        "calibration": {"method": "chisq-mixture-mc", "reps": 100000, "seed": 3},
        "kind": "mmd",
        "p_value": 0.03161,
        "parameters": {"K": 64, "alpha": 0.05},
        "reject": True,
        "statistic": 0.5395084665975862,
        "threshold": 0.4621277422924189,
    },
    "m3d": {
        "alpha": 0.05,
        "calibration": {"method": "normal", "reps": None, "seed": None},
        "kind": "m3d",
        "p_value": 0.04569796707605245,
        "parameters": {"K": 64, "alpha": 0.05, "rho": 0.0832553207401871},
        "reject": True,
        "statistic": 1.688079681926274,
        "threshold": 1.6448536269514722,
    },
    "adaptive-theory": {
        "alpha": 0.05,
        "calibration": {"method": "theory-loglog", "reps": None, "seed": None},
        "kind": "adaptive",
        "p_value": None,
        "parameters": {"K": 64, "alpha": 0.05, "argmax_rho": 0.11972789309280206,
                       "m_star": 14, "rho_star": 7.3076106624024695e-06,
                       "theory_threshold": 2.3410911978823457},
        "reject": False,
        "statistic": 1.8620055122302155,
        "threshold": 2.3410911978823457,
    },
    "adaptive-mc": {
        "alpha": 0.05,
        "calibration": {"method": "empirical-mc", "reps": 100, "seed": 3},
        "kind": "adaptive",
        "p_value": 0.16,
        "parameters": {"K": 64, "alpha": 0.05, "argmax_rho": 0.11972789309280206,
                       "m_star": 14, "rho_star": 7.3076106624024695e-06,
                       "theory_threshold": 2.3410911978823457},
        "reject": False,
        "statistic": 1.8620055122302155,
        "threshold": 2.9588625647143485,
    },
}

# `gofkit calibrate --kind mmd --n 500 --seed 3` on the cube spectrum
_CUBE_CALIBRATION_PIN = {"method": "chisq-mixture-mc", "alpha": 0.05,
                         "quantile": 0.4621277422924189, "reps": 100000, "seed": 3,
                         "kind": "mmd", "n": None}


@pytest.fixture(scope="module")
def sphere_inputs(tmp_path_factory):
    """The decide-sphere spectrum (gaussian-sphere:1.0, degrees up to 20) and
    500 points on S^2 tilted toward the north pole."""
    root = tmp_path_factory.mktemp("golden")
    spec, data = root / "sphere.spec", root / "x.csv"
    assert cli.main(["decompose", "--kernel", "gaussian-sphere:1.0", "--null",
                     "uniform-sphere-3", "--trunc", "20", "--nodes", "96",
                     "--out", str(spec), "--quiet"]) == 0
    g = np.random.default_rng(13).standard_normal((500, 3))
    g[:, 2] += 0.1
    np.savetxt(data, g / np.linalg.norm(g, axis=1, keepdims=True), delimiter=",",
               fmt="%.17g")
    return spec, data


@pytest.fixture(scope="module")
def cube_inputs(tmp_path_factory):
    """The decide-cube spectrum (centered cosine-ref, K = 64, 512 nodes) and
    500 points on [0,1], a fifth of them from Beta(2, 5)."""
    root = tmp_path_factory.mktemp("golden")
    spec, data = root / "cube.spec", root / "x.csv"
    assert cli.main(["decompose", "--kernel", "cosine-ref", "--null",
                     "uniform-cube-1", "--trunc", "64", "--nodes", "512",
                     "--center", "--out", str(spec), "--quiet"]) == 0
    rng = np.random.default_rng(13)
    alt = rng.random(500) < 0.2
    x = np.where(alt, rng.beta(2.0, 5.0, 500), rng.random(500))
    np.savetxt(data, x[:, None], delimiter=",", fmt="%.17g")
    return spec, data


def _assert_matches(got, want, path="report"):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_matches(got[key], want[key], "%s.%s" % (path, key))
    elif isinstance(want, float):
        assert isinstance(got, float), (path, got)
        assert abs(got - want) <= _RTOL * abs(want), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def _report(inputs, capsys, case):
    spec, data = inputs
    capsys.readouterr()
    assert cli.main(["test", "--spectrum", str(spec), "--data", str(data),
                     "--quiet"] + _FLAGS[case]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("case", sorted(_SPHERE_PINS))
def test_sphere_test_report_matches_its_pin(sphere_inputs, capsys, case):
    _assert_matches(_report(sphere_inputs, capsys, case), _SPHERE_PINS[case])


@pytest.mark.parametrize("case", sorted(_CUBE_PINS))
def test_cube_test_report_matches_its_pin(cube_inputs, capsys, case):
    _assert_matches(_report(cube_inputs, capsys, case), _CUBE_PINS[case])


@pytest.mark.parametrize("case", sorted(_CUBE_PINS))
def test_a_nystrom_cube_file_still_matches_the_cube_pins(cube_inputs, tmp_path, capsys,
                                                         case):
    # the file `decompose` wrote for this spectrum before it used the closed form
    from gofkit.kernels import cosine_reference_kernel
    from gofkit.spectrum import gauss_legendre_01, nystrom_decompose, save_spectrum
    spec = tmp_path / "nystrom.spec"
    save_spectrum(nystrom_decompose(cosine_reference_kernel(), gauss_legendre_01(512), 64,
                                    null_id="uniform-cube-1", kernel_id="cosine-ref",
                                    center=True), spec)
    got = _report((spec, cube_inputs[1]), capsys, case)
    _assert_matches(got, _CUBE_PINS[case])


def test_cube_calibration_file_matches_its_pin(cube_inputs, tmp_path):
    out = tmp_path / "mmd.json"
    assert cli.main(["calibrate", "--kind", "mmd", "--spectrum", str(cube_inputs[0]),
                     "--n", "500", "--seed", "3", "--out", str(out), "--quiet"]) == 0
    got = json.loads(out.read_text())
    assert len(got.pop("replicates")) == 100000
    assert got.pop("spectrum") == spectrum_digest(load_spectrum(cube_inputs[0]))
    _assert_matches(got, _CUBE_CALIBRATION_PIN, "calibration")


def test_reproduce_fig1_rows_match_their_pin(tmp_path):
    assert cli.main(["reproduce", "fig1", "--scale", "desk", "--seed", "1",
                     "--out", str(tmp_path), "--quiet"]) == 0
    with open(tmp_path / "power.csv", newline="") as fh:
        got = list(csv.DictReader(fh))
    with open(_FIG1, newline="") as fh:
        want = list(csv.DictReader(fh))
    assert len(got) == len(want) == 1000
    for i, (g, w) in enumerate(zip(got, want)):
        numbers = ("statistic", "threshold")
        assert ({k: v for k, v in g.items() if k not in numbers}
                == {k: v for k, v in w.items() if k not in numbers}), i
        for key in numbers:
            _assert_matches(float(g[key]), float(w[key]), "row %d.%s" % (i, key))
