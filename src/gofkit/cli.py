"""Command-line entry point: decompose | test | calibrate | power | reproduce."""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import calibrate as cal, kernels
from .embedding import Sample, null_calibration, run_test
from .spectrum import (
    DecompositionError,
    cosine_basis,
    cosine_decompose,
    gauss_legendre_01,
    load_spectrum,
    nystrom_decompose,
    parse_null_id,
    save_spectrum,
    sphere_zonal_spectrum,
    tensor_product_basis,
    write_atomic,
)

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _common_flags(p, seed=True):
    if seed:
        p.add_argument("--seed", type=int, default=None,
                       help="master seed; required on all Monte-Carlo paths")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the human-readable report; keep JSON/CSV")


def build_parser() -> _Parser:
    parser = _Parser(prog="gofkit",
                     description="Kernel-embedding goodness-of-fit tests")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="compute and store a kernel spectrum")
    p.add_argument("--kernel", required=True,
                   help="kernel id (cosine-ref[:terms] or gaussian:BW on the cube; "
                        "gaussian-sphere:S2 on spheres)")
    p.add_argument("--null", required=True,
                   help="null id: uniform-cube-1 or uniform-sphere-D")
    p.add_argument("--trunc", type=int, required=True,
                   help="truncation K (max sphere degree for zonal kernels)")
    p.add_argument("--nodes", type=int, required=True,
                   help="quadrature node count")
    p.add_argument("--out", required=True, help="spectrum file output path")
    p.add_argument("--center", action="store_true",
                   help="center the kernel to make the basis degenerate")
    _common_flags(p, seed=False)  # decompose draws nothing

    p = sub.add_parser("test", help="run one goodness-of-fit test on a CSV sample")
    p.add_argument("--kind", required=True, choices=["mmd", "m3d", "adaptive"])
    p.add_argument("--spectrum", required=True, help="spectrum file from decompose")
    p.add_argument("--data", required=True,
                   help="CSV sample: one row per observation, columns = coordinates")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--rho", type=float, default=None,
                   help="moderation parameter (m3d)")
    p.add_argument("--theta", type=float, default=None,
                   help="derive rho from the rate-optimal schedule (m3d)")
    p.add_argument("--calibrate", default=None,
                   help="mc:REPS | theory | normal (default per kind)")
    p.add_argument("--calibration", default=None,
                   help="load a calibration file written by `gofkit calibrate`")
    _common_flags(p)

    p = sub.add_parser("calibrate", help="precompute a null calibration file")
    p.add_argument("--kind", required=True, choices=["mmd", "m3d", "adaptive"])
    p.add_argument("--spectrum", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--out", required=True)
    _common_flags(p)

    p = sub.add_parser("power", help="run a power experiment from a plan file")
    p.add_argument("--plan", required=True, help="JSON plan file")
    p.add_argument("--out", required=True, help="output directory")
    _common_flags(p)

    p = sub.add_parser("reproduce",
                       help="rerun a named simulation study end to end")
    p.add_argument("target", choices=["fig1"])
    p.add_argument("--scale", default="desk", choices=["desk", "full"])
    p.add_argument("--out", default=None,
                   help="output directory (default reproduce-<target>)")
    _common_flags(p)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser every ``main`` call shares: building one costs about 1 ms,
    as much as a quarter of a small decision.  Parsing leaves it unchanged."""
    return build_parser()


# ---------------------------------------------------------------------------
# helpers


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _read_json_object(path) -> dict:
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError("plan file %s does not hold a JSON object" % path)
    return d


def _whole(value, plan: str, field: str) -> int:
    """A count read from a plan file: a JSON number with no fractional part,
    so 1e5 reads as 100000; ValueError, naming the file and the field, for a
    fraction, a boolean or a string."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError("plan file %s: %r must be a whole number, got %s"
                     % (plan, field, json.dumps(value)))


def _number(value, plan: str, field: str) -> float:
    """A JSON number read from a plan file; ValueError, naming the file and
    the field, for a boolean, a string or anything else."""
    if type(value) in (int, float):
        return float(value)
    raise ValueError("plan file %s: %r must be a number, got %s"
                     % (plan, field, json.dumps(value)))


def _build_spectrum(args):
    null = args.null
    family, d = parse_null_id(null)
    if family == "uniform-sphere":
        if args.center:
            raise ValueError("--center does not apply on a sphere: a zonal basis "
                             "always drops degree 0")
        profile = kernels.zonal_profile(args.kernel)
        basis = sphere_zonal_spectrum(profile, d, args.trunc, quad_points=args.nodes)
        basis.meta["kernel_id"] = args.kernel
        return basis
    if d == 1:
        if kernels.parse_kernel_id(args.kernel)[0] == "cosine-ref":
            # centered or not
            return cosine_decompose(gauss_legendre_01(args.nodes), args.trunc, args.kernel)
        kernel = kernels.resolve_kernel(args.kernel)
        return nystrom_decompose(kernel, gauss_legendre_01(args.nodes), args.trunc,
                                 null_id=null, kernel_id=args.kernel, center=args.center)
    raise ValueError("unsupported null id for decompose: %r "
                     "(use uniform-cube-1 or uniform-sphere-D)" % null)


def _basis_from_config(cfg: dict, plan: str):
    kind = cfg.get("type", "cosine")

    def need(name):
        if name not in cfg:
            raise ValueError("plan file %s: basis type %r has no %r field" % (plan, kind, name))
        return cfg[name]

    def count(name, default=None):
        value = need(name) if default is None else cfg.get(name, default)
        return _whole(value, plan, "basis." + name)

    if kind == "cosine":
        return cosine_basis(count("K", 64))
    if kind == "tensor-cosine":
        factor = cosine_basis(count("factor_K", 32))
        return tensor_product_basis(factor, count("d"), count("K", 256))
    if kind == "spectrum":
        return load_spectrum(need("path"))
    if kind == "sphere":
        profile = kernels.zonal_profile(need("profile"))
        return sphere_zonal_spectrum(profile, count("d"), count("degree_max", 10))
    raise ValueError("unknown basis type %r in plan" % kind)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_decompose(args) -> int:
    basis = _build_spectrum(args)
    save_spectrum(basis, args.out)
    _say(args, "wrote %s (K=%d)" % (args.out, basis.truncation))
    return 0


def _cmd_test(args) -> int:
    basis = load_spectrum(args.spectrum)
    sample = Sample.from_csv(args.data)
    calibrate, reps = args.calibrate, None
    mode, sep, arg = (calibrate or "").partition(":")
    if sep:  # only mc takes an argument, its replicate count
        if mode != "mc":
            raise ValueError("--calibrate %s takes no argument, got %r" % (mode, calibrate))
        if not arg.isdigit():
            raise ValueError("--calibrate mc:REPS needs a whole number of "
                             "replicates, got %r" % calibrate)
        calibrate, reps = mode, int(arg)
    report = run_test(args.kind, basis, sample, args.alpha, rho=args.rho, theta=args.theta,
                      calibration=args.calibration, calibrate=calibrate, reps=reps,
                      seed=args.seed)
    _say(args, report.to_text())
    print(json.dumps(report.to_dict(), sort_keys=True, allow_nan=False))
    return 0


def _cmd_calibrate(args) -> int:
    basis = load_spectrum(args.spectrum)
    c = null_calibration(args.kind, basis, args.n, args.alpha,
                         reps=args.reps, seed=args.seed)
    write_atomic(args.out, cal.calibration_file_chunks(c))
    _say(args, "method: %s\nquantile: %.10g\nwrote %s"
         % (c.method, c.quantile, args.out))
    return 0


def _run_and_emit(plan, out_dir: str, args) -> int:
    from . import bench

    table = bench.run_plan(plan)
    paths = bench.emit(table, out_dir)
    for cell in table.aggregate():
        _say(args, "%(test)s n=%(n)d %(alternative)s: "
             "reject_rate=%(reject_rate).3f" % cell)
    print(json.dumps(paths, sort_keys=True))
    return 0


def _cmd_power(args) -> int:
    from . import bench, dists

    cfg = _read_json_object(args.plan)
    for name in ("alternatives", "tests", "n"):
        if name not in cfg:
            raise ValueError("plan file %s has no %r field" % (args.plan, name))
    for name in ("basis", "alternatives", "calibration"):
        if not isinstance(cfg.get(name, {}), dict):
            raise ValueError("plan file %s: %r must be a JSON object, not %s"
                             % (args.plan, name, type(cfg[name]).__name__))
    basis = _basis_from_config(cfg.get("basis", {}), args.plan)
    alts = {}
    for label, alt in cfg["alternatives"].items():
        if not isinstance(alt, dict):
            raise ValueError("plan file %s: alternative %r must be a JSON object, not %s"
                             % (args.plan, label, type(alt).__name__))
        if "dim" in alt:
            alt = {**alt, "dim": _whole(alt["dim"], args.plan, "alternatives.%s.dim" % label)}
        alts[label] = dists.spec_from_config(alt, basis=basis)
    calib = cfg.get("calibration", {})
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ValueError("--seed is required (or a 'seed' field in the plan)")
    plan = bench.ExperimentPlan(
        basis=basis, alternatives=alts,
        tests=list(cfg["tests"]), n_list=[_whole(n, args.plan, "n") for n in cfg["n"]],
        reps=_whole(cfg.get("reps", 100), args.plan, "reps"),
        alpha=_number(cfg.get("alpha", 0.05), args.plan, "alpha"),
        seed=_whole(seed, args.plan, "seed"),
        mmd_calibration_reps=_whole(calib.get("mmd_reps", cal.CHISQ_REPS), args.plan,
                                    "calibration.mmd_reps"),
        adaptive_calibration_reps=_whole(calib.get("adaptive_reps", cal.EMPIRICAL_REPS),
                                         args.plan, "calibration.adaptive_reps"),
        theta=_number(calib.get("theta", 0.0), args.plan, "calibration.theta"))
    return _run_and_emit(plan, args.out, args)


def _cmd_reproduce(args) -> int:
    from . import bench, dists

    seed = args.seed
    if seed is None:
        raise ValueError("--seed is required for the reproduction run")
    d = 5 if args.scale == "desk" else 100
    out_dir = args.out or ("reproduce-%s" % args.target)
    basis = tensor_product_basis(cosine_basis(32), d, 256)
    mixture = dists.make_gaussian_mixture_spec(d, seed=seed, uniform_weight=0.9)
    plan = bench.ExperimentPlan(
        basis=basis,
        alternatives={"gaussian-mixture": mixture},
        tests=["mmd", "m3d"],
        n_list=[200, 400, 600, 800, 1000],
        reps=100, alpha=0.05, seed=seed)
    return _run_and_emit(plan, out_dir, args)


_COMMANDS = {
    "decompose": _cmd_decompose,
    "test": _cmd_test,
    "calibrate": _cmd_calibrate,
    "power": _cmd_power,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (DecompositionError, RuntimeError, ArithmeticError, OSError) as exc:
        print("runtime error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
