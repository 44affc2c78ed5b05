"""Command-line entry point: decompose | test | calibrate | power | reproduce."""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import bench, calibrate as cal, dists, kernels
from .embedding import Sample, null_calibration, run_test
from .spectrum import (
    DecompositionError,
    cosine_basis,
    gauss_legendre_01,
    load_spectrum,
    nystrom_decompose,
    parse_null_id,
    save_spectrum,
    sphere_zonal_spectrum,
    tensor_product_basis,
    write_atomic,
)

class CliError(Exception):
    """Validation failure; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _common_flags(p, seed=True):
    if seed:
        p.add_argument("--seed", type=int, default=None,
                       help="master seed; required on all Monte-Carlo paths")
    p.add_argument("--config", default=None,
                   help="JSON file of flag defaults; explicit flags override")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the human-readable report; keep JSON/CSV")


def build_parser() -> _Parser:
    parser = _Parser(prog="gofkit",
                     description="Kernel-embedding goodness-of-fit tests")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="compute and store a kernel spectrum")
    p.add_argument("--kernel", required=True,
                   help="kernel id (cosine-ref[:terms], gaussian:BW, linear, "
                        "constant; gaussian-sphere:S2 or constant on spheres)")
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
    p.add_argument("--alt", action="append", default=[],
                   metavar="LABEL=FAMILY:key=val,...",
                   help="add an alternative on top of the plan "
                        "(vector values use semicolons)")
    _common_flags(p)

    p = sub.add_parser("reproduce",
                       help="rerun a named simulation study end to end")
    p.add_argument("target", choices=["fig1"])
    p.add_argument("--scale", default="desk", choices=["desk", "full"])
    p.add_argument("--out", default=None,
                   help="output directory (default reproduce-<target>)")
    _common_flags(p)
    parser.subcommand_parsers = dict(sub.choices)
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


def _build_spectrum(args):
    null = args.null
    family, d = parse_null_id(null)
    if family == "uniform-sphere":
        profile = kernels.zonal_profile(args.kernel)
        basis = sphere_zonal_spectrum(profile, d, args.trunc,
                                      quad_points=args.nodes,
                                      include_degree_zero=not args.center
                                      and args.kernel.startswith("constant"))
        basis.meta["kernel_id"] = args.kernel
        return basis
    if d == 1:
        return nystrom_decompose(kernels.resolve_kernel(args.kernel),
                                 gauss_legendre_01(args.nodes), args.trunc,
                                 null_id=null, kernel_id=args.kernel,
                                 center=args.center)
    raise CliError("unsupported null id for decompose: %r "
                   "(use uniform-cube-1 or uniform-sphere-D)" % null)


def _basis_from_config(cfg: dict):
    kind = cfg.get("type", "cosine")
    if kind == "cosine":
        return cosine_basis(int(cfg.get("K", 64)))
    if kind == "tensor-cosine":
        factor = cosine_basis(int(cfg.get("factor_K", 32)))
        return tensor_product_basis(factor, int(cfg["d"]), int(cfg.get("K", 256)))
    if kind == "spectrum":
        return load_spectrum(cfg["path"])
    if kind == "sphere":
        profile = kernels.zonal_profile(cfg["profile"])
        return sphere_zonal_spectrum(profile, int(cfg["d"]),
                                     int(cfg.get("degree_max", 10)))
    raise CliError("unknown basis type %r in plan" % kind)


def _calibration_file_chunks(c: cal.NullCalibration):
    """The calibration file's JSON text, in pieces: the record's fields in order.

    The C encoder writes the replicates 8192 at a time, so neither all of
    them as Python floats nor the whole text is ever held at once.
    """
    head = json.dumps({f.name: None if f.name == "replicates" else getattr(c, f.name)
                       for f in dataclasses.fields(c)})
    if c.replicates is None:
        yield (head + "\n").encode()
        return
    yield (head[:-len("null}")] + "[").encode()  # "replicates" is the last field
    for i in range(0, c.replicates.size, 8192):
        block = json.dumps(c.replicates[i:i + 8192].tolist())[1:-1]
        yield ((", " if i else "") + block).encode()
    yield b"]}\n"


def _calibration_from_file(path) -> cal.NullCalibration:
    with open(path) as fh:
        d = json.load(fh)
    if not {"kind", "n", "spectrum"} <= d.keys():
        raise CliError("calibration file %s does not record the kind, n and spectrum "
                       "it was made for (written before gofkit 0.9.0); rerun "
                       "`gofkit calibrate`" % path)
    fields = {f.name: d[f.name] for f in dataclasses.fields(cal.NullCalibration)
              if f.name in d}  # ignores keys of earlier releases, e.g. truncation_bias
    if fields.get("replicates") is not None:
        fields["replicates"] = np.asarray(fields["replicates"], float)
    c = cal.NullCalibration(**fields)
    values = c.replicates
    if values is not None or c.method.endswith("-mc"):
        count = 0 if values is None else values.size
        if count != c.reps:
            raise CliError("calibration file %s: 'replicates' holds %d values but "
                           "'reps' is %s" % (path, count, c.reps))
        if not np.all(np.isfinite(values)):
            raise CliError("calibration file %s: 'replicates' holds a non-finite "
                           "value" % path)
        if c.quantile != cal.order_stat_quantile(values, c.alpha):
            raise CliError("calibration file %s: 'quantile' %r is not the "
                           "ceil((1-alpha) reps) order statistic of its replicates"
                           % (path, c.quantile))
    return c


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
            raise CliError("--calibrate %s takes no argument, got %r" % (mode, calibrate))
        if not arg.isdigit():
            raise CliError("--calibrate mc:REPS needs a whole number of "
                           "replicates, got %r" % calibrate)
        calibrate, reps = mode, int(arg)
    calibration = (None if args.calibration is None
                   else _calibration_from_file(args.calibration))
    report = run_test(args.kind, basis, sample, args.alpha, rho=args.rho, theta=args.theta,
                      calibration=calibration, calibrate=calibrate, reps=reps,
                      seed=args.seed)
    _say(args, report.to_text())
    print(json.dumps(report.to_dict(), sort_keys=True, allow_nan=False))
    return 0


def _cmd_calibrate(args) -> int:
    basis = load_spectrum(args.spectrum)
    c = null_calibration(args.kind, basis, args.n, args.alpha,
                         reps=args.reps, seed=args.seed)
    write_atomic(args.out, _calibration_file_chunks(c))
    _say(args, "method: %s\nquantile: %.10g\nwrote %s"
         % (c.method, c.quantile, args.out))
    return 0


def _plan_from_config(cfg: dict, seed_override=None) -> bench.ExperimentPlan:
    basis = _basis_from_config(cfg.get("basis", {}))
    alts = {}
    for label, alt_cfg in cfg["alternatives"].items():
        alts[label] = dists.spec_from_config(alt_cfg, basis=basis)
    calib = cfg.get("calibration", {})
    seed = seed_override if seed_override is not None else cfg.get("seed")
    if seed is None:
        raise CliError("--seed is required (or a 'seed' field in the plan)")
    return bench.ExperimentPlan(
        basis=basis, alternatives=alts,
        tests=list(cfg["tests"]), n_list=[int(n) for n in cfg["n"]],
        reps=int(cfg.get("reps", 100)), alpha=float(cfg.get("alpha", 0.05)),
        seed=int(seed),
        mmd_calibration_reps=int(calib.get("mmd_reps", cal.CHISQ_REPS)),
        adaptive_calibration_reps=int(calib.get("adaptive_reps", cal.EMPIRICAL_REPS)),
        theta=float(calib.get("theta", 0.0)))


def _run_and_emit(plan: bench.ExperimentPlan, out_dir: str, args) -> int:
    table = bench.run_plan(plan)
    paths = bench.emit(table, out_dir)
    for cell in table.aggregate():
        _say(args, "%(test)s n=%(n)d %(alternative)s: "
             "reject_rate=%(reject_rate).3f" % cell)
    print(json.dumps(paths, sort_keys=True))
    return 0


def _cmd_power(args) -> int:
    with open(args.plan) as fh:
        cfg = json.load(fh)
    plan = _plan_from_config(cfg, seed_override=args.seed)
    for entry in args.alt:
        label, eq, flag = entry.partition("=")
        if not eq:
            raise CliError("--alt expects LABEL=FAMILY:key=val,...")
        plan.alternatives[label] = dists.alt_from_flag(flag, basis=plan.basis)
    return _run_and_emit(plan, args.out, args)


def _cmd_reproduce(args) -> int:
    seed = args.seed
    if seed is None:
        raise CliError("--seed is required for the reproduction run")
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
        if args.config:
            with open(args.config) as fh:
                defaults = json.load(fh)
            # subparsers keep their own defaults, so overlay the config onto
            # each of them before reparsing; explicit flags still win.  The
            # overlay goes on a parser of its own so no later call sees it.
            parser = build_parser()
            for sub in parser.subcommand_parsers.values():
                sub.set_defaults(**defaults)
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (DecompositionError, RuntimeError, ArithmeticError, OSError) as exc:
        print("runtime error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
