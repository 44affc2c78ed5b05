#!/usr/bin/env python3
"""gofkit benchmark: one workload run, printed as metrics with their units.

Usage, from the root of a gofkit source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json and ``--trace
1`` the per-layer ones. The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Runs leave a result
file (manifest, metrics, per-call timings, spans) in ``.perfbench/results``.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# Every run must end within 180 s; leave room for start-up and clean-up.
DEADLINE_S = 170.0
# Set-up is timed in this many fresh processes; the median is reported.
SETUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: timings are CPU seconds of one thread, which time the
# hypervisor steals from a shared VM does not inflate.
THREADS = 1

# glibc malloc adapts its mmap and trim thresholds to the sizes a process has
# freed so far; until they settle, numpy temporaries cost page faults (on the
# probe, 555k minor faults and 15 % of CPU time over four cycles, falling
# cycle by cycle). Fixed thresholds make a run's cost independent of that
# history: blocks under 32 MiB come from the heap, which keeps up to 256 MiB.
ALLOCATOR_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "268435456"}

# numpy and glibc read these at start-up, here and in every worker
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)
os.environ.update(ALLOCATOR_ENV)

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (after the thread pinning above)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def cpu_caches() -> list:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    out = []
    for index in sorted(base.glob("index*")):
        read = lambda name: (index / name).read_text().strip()
        try:
            out.append({"level": int(read("level")), "type": read("type"),
                        "size": read("size"), "shared_cpu_list": read("shared_cpu_list")})
        except OSError:
            continue
    return out


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gofkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def manifest(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "gofkit_source_sha256": source_digest(),
        "nproc": NPROC, "cpu": cpu_model(), "caches": cpu_caches(),
        "env": {var: os.environ[var] for var in THREAD_VARS + tuple(ALLOCATOR_ENV)},
    }


class Runner:
    def __init__(self, args, workdir: Path, results: Path):
        self.args = args
        self.workdir = workdir
        self.results = results
        self.started = time.monotonic()
        self.tag = "%s-trace%d-seed%d-%d" % (args.workload, args.trace, args.seed,
                                             time.time_ns())

    def worker(self, mode: str, index: int) -> dict:
        """Run perfbench/worker.py in a fresh process; returns its result and set-up time."""
        cfg_path = self.workdir / ("worker-%d.json" % index)
        result_path = self.workdir / ("result-%d.json" % index)
        cfg = {"root": str(ROOT), "workload": self.args.workload, "seed": self.args.seed,
               "seconds": self.args.seconds, "trace": self.args.trace, "mode": mode,
               "workdir": str(self.workdir), "result_path": str(result_path),
               "spans_path": str(self.results / (self.tag + "-spans.json"))}
        cfg_path.write_text(json.dumps(cfg))
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the %s process" % mode)
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(cfg_path)],
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("%s process exceeded the time limit" % mode) from None
        if proc.returncode != 0:
            raise BenchError("%s process exited with %d:\n%s"
                             % (mode, proc.returncode, proc.stderr[-4000:]))
        return json.loads(result_path.read_text())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args) -> dict:
    if not (ROOT / "BENCHMARK.json").is_file():
        raise BenchError("no BENCHMARK.json at %s" % ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "gofkit" / "__init__.py").is_file():
        raise BenchError("no gofkit sources under %s" % (ROOT / "src"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = ROOT / ".perfbench" / ("run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(args, workdir, results)
        workloads.WORKLOADS[args.workload].make_inputs(workdir, args.seed)
        info = manifest(args)
        if args.trace:
            out = runner.worker("run", 0)
            measured = out["metrics"]
        else:
            setups = [runner.worker("setup", i) for i in range(1, SETUP_SAMPLES)]
            out = runner.worker("run", 0)
            runs = setups + [out]
            setup_times = [r["setup_cpu_s"] for r in runs]
            measured = dict(out["metrics"], setup_s=statistics.median(setup_times))
            out["setup_samples_s"] = setup_times
        info["versions"] = out["versions"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            raise BenchError("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    out["manifest"] = info
    report(args, out, metrics)
    (results / (runner.tag + ".json")).write_text(json.dumps(dict(out, metrics=metrics)))
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def report(args, out, metrics) -> None:
    """Human-readable lines ahead of the result line."""
    print("manifest %s" % json.dumps(out["manifest"], sort_keys=True))
    layers = json.loads((HERE / "layers.json").read_text()) if args.trace else {}
    for name, m in metrics.items():
        line = "%-36s %14.6g %s" % (name, m["value"], m["unit"])
        if args.trace:
            if name not in layers:
                raise BenchError("layers.json has no entry for %s" % name)
            line += "  (moves %s on %s)" % (layers[name]["moves"],
                                           ", ".join(layers[name]["on"]) or "-")
        print(line)
    if not args.trace:
        print("  %d decisions per cycle, each call timed at its fastest of %d cycles%s; "
              "tail is the %.2f quantile; set-ups: %s CPU s" % (
                  out["decisions"], out["cycles"],
                  "" if out["cycles"] == out["repeats"] else
                  " (safety stop: %d were asked for)" % out["repeats"],
                  out["tail_share"], ", ".join("%.3f" % s for s in out["setup_samples_s"])))
        if args.workload in ("power-tensor5", "probe-cosine1d"):
            print("  replicates_per_s = decisions_per_s: each replicate is one decision")
    else:
        print("  traced pass %.3f s, untraced pass %.3f s"
              % (out["traced_wall_s"], out["untraced_wall_s"]))
    print("%-36s %14.6g (%d of %d failed)" % (
        "fail_frac", out["failed"] / out["attempted"], out["failed"], out["attempted"]))
    for err in out["errors"][:10]:
        print("  FAILED %s" % err.strip().replace("\n", "\n    "))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
