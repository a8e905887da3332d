"""tmzv benchmark: one workload, measured for a fixed time, answers checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Every round of the workload runs in a
fresh interpreter (see child.py); one caller in one thread sends each
operation after the previous one has returned (a closed loop).  Rounds
repeat until --seconds of measuring have passed (at least MIN_ROUNDS).
With --trace 0 it reports the end-to-end metrics; with --trace 1 a
separate traced run reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from child import REF_PROBE_S  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

MIN_ROUNDS = 3
SETUP_SAMPLES = 25       # cold starts whose median is setup_s
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
    ("retained_blocks", "blocks"), ("op_p50_ms", "ms"), ("op_p95_ms", "ms"),
)


class ChildError(RuntimeError):
    pass


def child_env():
    """A fixed environment: hash seed 0 and a bytecode cache private to the
    benchmark, as for an installed package."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": os.path.join(OUT, "pycache"),
    }


def spawn(workload, seed, mode, trace=0, spans_path="-"):
    cmd = [sys.executable, "-s", os.path.join(HERE, "child.py"), workload,
           str(seed), mode, str(trace), spans_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildError("%s round of %s timed out" % (mode, workload))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError("%s round of %s failed:\n%s"
                         % (mode, workload, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, pct):
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(math.ceil(pct / 100.0 * len(xs)) - 1, 0)]


def _strip_timings(x):
    """Drop the *_s timing fields of report JSON before comparing rounds."""
    if isinstance(x, dict):
        return {k: _strip_timings(v) for k, v in x.items()
                if not k.endswith("_s")}
    if isinstance(x, list):
        return [_strip_timings(v) for v in x]
    if isinstance(x, str) and x.startswith("{"):
        return _strip_timings(json.loads(x))
    return x


def is_error(out):
    return isinstance(out, dict) and "error" in out


def run(workload, seed, seconds, trace):
    ops = inputs.operations(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    spawn(workload, seed, "setup")  # fills the bytecode cache

    rounds, measured = [], 0.0
    while len(rounds) < MIN_ROUNDS or measured < seconds:
        spans_path = "-"
        if trace and not rounds:
            spans_path = os.path.join(
                OUT, "spans-%s-seed%d.tsv" % (workload, seed))
        t = time.monotonic()
        rounds.append(spawn(workload, seed, "check" if not rounds else "round",
                            trace, spans_path))
        measured += time.monotonic() - t - rounds[-1].get("check_s", 0.0)
    setups = [{k: r[k] for k in ("setup_s", "setup_plain_s")} for r in rounds]
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, "setup"))

    # --- the clock has stopped: check every answer ---
    correct, failed, notes, unchecked = True, 0, [], []
    first = rounds[0]
    material = iter(first.get("material", []))
    for op, out in zip(ops, first["outputs"]):
        mat = next(material) if op[0] in ("inversion", "oracle-log") else None
        if is_error(out):
            failed += 1
            notes.append("failed: %r raised %s" % (op, out["error"]))
            continue
        try:
            why = checks.check(op, out, mat, unchecked)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            why = "unreadable answer: %s: %s" % (type(exc).__name__, exc)
        if why:
            correct = False
            notes.append("wrong: %r: %s" % (op, why))
    reference = [_strip_timings(o) for o in first["outputs"]]
    for k, r in enumerate(rounds[1:], start=2):
        for op, out, want in zip(ops, r["outputs"], reference):
            if is_error(out):
                failed += 1
            elif _strip_timings(out) != want:
                correct = False
                notes.append("wrong: round %d differs from round 1 on %r"
                             % (k, op))
    attempted = len(rounds) * len(ops)
    notes += ["unchecked: " + u for u in unchecked]
    notes.append("parts of answers the checks could not reach: %d"
                 % len(unchecked))

    if trace:
        layers = [r["layers"] for r in rounds]
        metrics = {}
        for name, unit in LAYER_METRICS:
            vals = [lay[name] for lay in layers]
            if unit == "count" and len(set(vals)) > 1:
                notes.append("count %s differs between rounds: %r"
                             % (name, vals))
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
    else:
        # each operation's time is its median over the rounds: single
        # operations hit by a burst of machine noise do not move the figures
        op_ms = [1000.0 * statistics.median(times)
                 for times in zip(*(r["op_s"] for r in rounds))]
        values = {
            "setup_s": statistics.median(x["setup_s"] for x in setups),
            "wall_s": sum(op_ms) / 1000.0,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "retained_blocks": statistics.median(
                r["retained_blocks"] for r in rounds),
            "op_p50_ms": percentile(op_ms, 50),
            "op_p95_ms": percentile(op_ms, 95),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        beyond = sum(1 for x in op_ms if x > values["op_p95_ms"])
        notes.append("operations per round: %d (%d beyond p95), each timed "
                     "as its median over %d rounds; cold starts: %d"
                     % (len(op_ms), beyond, len(rounds), len(setups)))
        notes.append(
            "plain seconds: wall %.4g s, setup %.4g s; median speed probe "
            "%.4g ms (reference %.4g ms)" % (
                sum(statistics.median(t) for t in
                    zip(*(r["op_plain_s"] for r in rounds))),
                statistics.median(x["setup_plain_s"] for x in setups),
                1000 * statistics.median(r["probe_s"] for r in rounds),
                1000 * REF_PROBE_S))

    for line in notes:
        print(line)
    print("workload %s, seed %d, rounds %d, trace %d"
          % (workload, seed, len(rounds), trace))
    for name, m in metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print("attempted %d, failed %d" % (attempted, failed))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (workload, seed, trace)), "w") as fh:
        json.dump({"result": result, "setup_samples": setups, "rounds": [
            {k: v for k, v in r.items() if k not in ("outputs", "material")}
            for r in rounds]}, fh)
    print(json.dumps(result))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tmzv", "__init__.py")):
        print("no tmzv sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    try:
        return run(args.workload, args.seed, args.seconds, args.trace)
    except ChildError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
