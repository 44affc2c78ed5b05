"""One workload run in a fresh process: set-up, then the timed or traced loop.

Usage: python3 perfbench/worker.py CONFIG.json

The config names the workload, seed, seconds, trace flag, mode ("setup" or
"run"), work directory and result path; run.py writes it. The result is a
JSON file. Its ``setup_cpu_s`` is this process's CPU time at the end of
set-up.
"""
from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Instrumentation, Tracer, layer_metrics

# Safety stop well inside the 180 s a run may take; a run stopped by it
# times fewer cycles than asked for and says so.
MAX_LOOP_SECONDS = 100.0


def run_op(op, index=0) -> dict:
    """One call, timed in CPU seconds of this process."""
    cpu = time.process_time()
    try:
        decisions, payload = op.fn()
        error = None
    except Exception:  # the loop must go on; the failure is counted and reported
        decisions, payload, error = 0, None, traceback.format_exc(limit=3)
    return {"label": op.label, "index": index, "latency": time.process_time() - cpu,
            "decisions": decisions, "payload": payload, "error": error}


def run_cycles(wl, repeats: int):
    """``repeats`` cycles of the same calls; returns the records and the
    number of cycles run, fewer than ``repeats`` only at the safety stop."""
    records = []
    start = time.perf_counter()
    for cycle in range(repeats):
        records += [run_op(op, i) for i, op in enumerate(wl.cycle())]
        if time.perf_counter() - start > MAX_LOOP_SECONDS:
            return records, cycle + 1
    return records, repeats


def check_records(wl, records) -> list:
    """Check every call's outputs; returns one error string per failed call."""
    errors = []
    for rec in records:
        problem = rec["error"]
        if problem is None:
            try:
                wl.check(rec["payload"])
            except workloads.CheckFailed as exc:
                problem = "check failed: %s" % exc
            except Exception:  # a crash in a check counts as a failed check
                problem = "check crashed: %s" % traceback.format_exc(limit=3)
        if problem is not None:
            errors.append("%s: %s" % (rec["label"], problem))
    return errors


def tally(wl, records) -> dict:
    errors = check_records(wl, records)
    refs = wl.reference_checks()
    errors += ["reference %s: mismatch" % label for label, ok in refs if not ok]
    return {"attempted": len(records) + len(refs), "failed": len(errors), "errors": errors}


def best_times(records) -> dict:
    """CPU seconds of each call of the cycle at its fastest repeat, with the
    decisions it makes: {index: (seconds, decisions, label)}.

    Every repeat of a call does the same work, and other tenants of a shared
    host only ever add time to it, so the fastest repeat is the steadiest
    estimate of the call's own cost. Calls that raised are left out; calls
    whose outputs fail a check still count, and the run as a whole is then
    reported as incorrect.
    """
    best = {}
    for rec in records:
        if rec["error"] is not None:
            continue
        old = best.get(rec["index"])
        if old is None or rec["latency"] < old[0]:
            best[rec["index"]] = (rec["latency"], rec["decisions"], rec["label"])
    return best


def decision_latencies(best) -> list:
    """One latency per decision of one cycle.

    A decide call makes one decision, timed directly. A bench call makes many
    whose own times are not visible from outside, so each gets the call's
    time per decision.
    """
    out = []
    for seconds, decisions, _ in best.values():
        if decisions:
            out += [seconds / decisions] * decisions
    return out


def tail(latencies):
    """Highest percentile with at least ten decisions beyond it, as (value, share).

    When that percentile would not lie above the median (fewer than 21
    decisions) the cycle is too short to show a tail, and the slowest
    decision is reported with share 1.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], (n - 10) / n
    return ordered[-1], 1.0


def timed(wl, seconds):
    repeats = wl.repeats(seconds)
    records, cycles = run_cycles(wl, repeats)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts = tally(wl, records)
    best = best_times(records)
    lat = decision_latencies(best)
    if not lat:
        raise RuntimeError("no call made a decision: %s" % counts["errors"][:3])
    tail_s, tail_share = tail(lat)
    return dict(counts, cycles=cycles, repeats=repeats, decisions=len(lat),
                tail_share=tail_share,
                calls=[{"label": r["label"], "latency": r["latency"],
                        "decisions": r["decisions"]} for r in records],
                metrics={"decisions_per_s": len(lat) / sum(b[0] for b in best.values()),
                         "decision_p50_s": statistics.median(lat),
                         "decision_tail_s": tail_s,
                         "peak_rss_mb": peak_rss_mb})


def traced(wl, spans_path: Path):
    """Set-up and one cycle, each step run once plain and once traced.

    The two runs of a step alternate in order from step to step, so drift
    in the machine's speed and warm caches fall on both sides alike. The
    traced runs give the per-layer metrics; their total over the plain
    runs' total is the tracing overhead.
    """
    wl.setup()
    records = [run_op(op) for op in wl.cycle()]  # warm-up
    tracer = Tracer()
    inst = Instrumentation(tracer)
    walls = {False: 0.0, True: 0.0}
    spanned = []
    steps = [None] + wl.cycle()  # None stands for the set-up
    for i, op in enumerate(steps):
        for trace in ((False, True) if i % 2 == 0 else (True, False)):
            if trace:
                inst.install()
            start = time.perf_counter()
            try:
                rec = wl.setup() if op is None else run_op(op)
            finally:
                walls[trace] += time.perf_counter() - start
                if trace:
                    inst.remove()
            if op is not None:
                records.append(rec)
                if trace:
                    spanned.append(rec)
    file_bytes = sum(wl.file_bytes(r["payload"]) for r in spanned if r["error"] is None)
    metrics = layer_metrics(tracer, walls[True], walls[False], file_bytes)
    spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                      "spans": tracer.spans, "counts": tracer.counts}))
    return dict(tally(wl, records), metrics=metrics,
                untraced_wall_s=walls[False], traced_wall_s=walls[True])


def main(argv) -> int:
    cfg = json.loads(Path(argv[1]).read_text())
    sys.path.insert(0, str(Path(cfg["root"]) / "src"))
    wl = workloads.WORKLOADS[cfg["workload"]](Path(cfg["workdir"]), cfg["seed"])
    if cfg["mode"] == "setup" or not cfg["trace"]:
        wl.setup()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {"setup_cpu_s": usage.ru_utime + usage.ru_stime}
    import gofkit
    import numpy
    import scipy
    result["versions"] = {"gofkit": gofkit.__version__, "numpy": numpy.__version__,
                          "scipy": scipy.__version__, "python": sys.version.split()[0]}
    if cfg["mode"] == "run":
        if cfg["trace"]:
            result.update(traced(wl, Path(cfg["spans_path"])))
        else:
            result.update(timed(wl, cfg["seconds"]))
    Path(cfg["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
