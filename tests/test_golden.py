"""Golden `gofkit test` reports on an S^2 spectrum.

The pinned numbers are those gofkit 0.6.0 wrote, when the zonal summary
still walked the Gram matrix; the summary from explicit spherical harmonics
must reproduce them.  `reject` and the calibration must match exactly, and
every number within 1e-12 relative.  A change that means to move one of
these outputs updates its pin in the same diff and says so in CHANGES.md.
"""
import json

import numpy as np
import pytest

from gofkit import cli

_RTOL = 1e-12

# gofkit test JSON on the sample below, by case: (extra flags, report)
_PINS = {
    "mmd": (["--kind", "mmd", "--seed", "3"], {
        "alpha": 0.05,
        "calibration": {"method": "chisq-mixture-mc", "reps": 100000, "seed": 3},
        "kind": "mmd",
        "p_value": 0.00231,
        "parameters": {"K": 224, "alpha": 0.05},
        "reject": True,
        "statistic": 2.3230840530400756,
        "threshold": 1.441759873705637,
    }),
    "m3d": (["--kind", "m3d", "--theta", "0"], {
        "alpha": 0.05,
        "calibration": {"method": "normal", "reps": None, "seed": None},
        "kind": "m3d",
        "p_value": 0.02758634124575521,
        "parameters": {"K": 224, "alpha": 0.05, "rho": 0.04997699723845825},
        "reject": True,
        "statistic": 1.9175138552050774,
        "threshold": 1.6448536269514722,
    }),
    "adaptive-theory": (["--kind", "adaptive", "--calibrate", "theory"], {
        "alpha": 0.05,
        "calibration": {"method": "theory-loglog", "reps": None, "seed": None},
        "kind": "adaptive",
        "p_value": None,
        "parameters": {"K": 224, "alpha": 0.05, "argmax_rho": 0.0615137941477083,
                       "m_star": 111, "rho_star": 2.3694251628388744e-35,
                       "theory_threshold": 2.3410911978823457},
        "reject": False,
        "statistic": 1.9945218770872395,
        "threshold": 2.3410911978823457,
    }),
    "adaptive-mc": (["--kind", "adaptive", "--calibrate", "mc:100", "--seed", "3"], {
        "alpha": 0.05,
        "calibration": {"method": "empirical-mc", "reps": 100, "seed": 3},
        "kind": "adaptive",
        "p_value": 0.13,
        "parameters": {"K": 224, "alpha": 0.05, "argmax_rho": 0.0615137941477083,
                       "m_star": 111, "rho_star": 2.3694251628388744e-35,
                       "theory_threshold": 2.3410911978823457},
        "reject": False,
        "statistic": 1.9945218770872395,
        "threshold": 2.401246852925752,
    }),
}


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


@pytest.mark.parametrize("case", sorted(_PINS))
def test_sphere_test_report_matches_its_pin(sphere_inputs, capsys, case):
    spec, data = sphere_inputs
    flags, want = _PINS[case]
    capsys.readouterr()
    assert cli.main(["test", "--spectrum", str(spec), "--data", str(data),
                     "--quiet"] + flags) == 0
    _assert_matches(json.loads(capsys.readouterr().out), want)
