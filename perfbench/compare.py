"""Two sets of runs of the same code, compared against BENCHMARK.json.

    python3 perfbench/compare.py [--load saved.json]

Each set runs every workload once per seed, untraced (set 1 with seeds
100-109, set 2 with seeds 200-209), then once traced with seed 1.  For
every end-to-end metric it prints each set's median and quartile spread,
(Q3 - Q1) / median, and the change of the second median against the
first.  The sets agree when every spread, setup_s included, is within the
metric's bound, the second median is not worse than the first by more
than the bound, every answer was correct and the share of failed
operations is the same in both sets.  Runs are saved to
.perfbench_out/compare-*.json; --load prints the tables of a saved file
again.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETS = (1, 2)
SEEDS_PER_SET = 10
TRACE_SEED = 1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("run failed: %s\n%s" % (" ".join(cmd),
                                                  proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Relative change of second against first, positive when worse."""
    change = (second - first) / first
    return change if better == "lower" else -change


def report(spec, runs):
    """Markdown tables; returns True when the sets agree within bounds."""
    ok = True
    sets = SETS
    for w in spec["workloads"]:
        name = w["name"]
        mine = [r for r in runs if r["workload"] == name and not r["trace"]]
        if not mine:
            continue
        print("\n#### %s\n" % name)
        print("| metric | bound | " + " | ".join(
            "set %d median | set %d spread" % (s, s) for s in sets)
            + " | change | verdict |")
        print("|---|---|" + "---|---|" * len(sets) + "---|---|")
        for m in spec["end_to_end"]:
            cols, medians, verdict = [], [], "ok"
            for s in sets:
                vals = [r["result"]["metrics"][m["name"]]["value"]
                        for r in mine if r["set"] == s]
                sp = spread(vals)
                medians.append(statistics.median(vals))
                cols.append("%.6g %s | %.3f" % (medians[-1], m["unit"], sp))
                if sp > m["bound"]:
                    verdict = "spread over bound"
            change = worse_by(medians[0], medians[1], m["better"])
            if change > m["bound"]:
                verdict = "median worse than bound"
            ok = ok and verdict == "ok"
            print("| %s | %.2f | %s | %+.3f | %s |" % (
                m["name"], m["bound"], " | ".join(cols), change, verdict))
        shares = []
        for s in sets:
            att = sum(r["result"]["attempted"] for r in mine if r["set"] == s)
            fail = sum(r["result"]["failed"] for r in mine if r["set"] == s)
            shares.append((fail, att))
        same = len({f / a for f, a in shares}) == 1
        ok = ok and same and all(r["result"]["correct"] for r in mine)
        print("\nfailed/attempted per set: %s (%s); all correct: %s" % (
            ", ".join("%d/%d" % fa for fa in shares),
            "same share" if same else "SHARES DIFFER",
            all(r["result"]["correct"] for r in mine)))
        traced = [r for r in runs if r["workload"] == name and r["trace"]]
        for r in traced:
            lm = r["result"]["metrics"]
            base = statistics.median(
                x["result"]["metrics"]["wall_s"]["value"]
                for x in mine if x["set"] == r["set"])
            print("set %d traced run: trace.wall_s %.3f s, tracing overhead "
                  "%.3f s over the set's untraced median wall_s" % (
                      r["set"], lm["trace.wall_s"]["value"],
                      lm["trace.wall_s"]["value"] - base))
        if len(traced) > 1:
            counts = [{k: v["value"] for k, v in r["result"]["metrics"].items()
                       if v["unit"] == "count"} for r in traced]
            print("traced counts identical between sets: %s"
                  % all(c == counts[0] for c in counts))
    print("\nverdict: %s" % ("the sets agree within the bounds" if ok
                             else "the sets do NOT agree within the bounds"))
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--load", default=None,
                    help="print the tables of a saved compare-*.json")
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.load:
        with open(args.load) as fh:
            runs = json.load(fh)
        return 0 if report(spec, runs) else 1
    names = [w["name"] for w in spec["workloads"]]
    runs = []
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "compare-%d.json" % int(time.time()))
    for s in SETS:
        for k in range(SEEDS_PER_SET):
            seed = 100 * s + k
            for name in names:
                res = one_run(name, seed, spec["run_seconds"], 0)
                runs.append({"set": s, "workload": name, "seed": seed,
                             "trace": 0, "result": res})
                print("set %d seed %d %s: %s" % (s, seed, name, json.dumps(
                    {k: round(v["value"], 6)
                     for k, v in res["metrics"].items()})), flush=True)
                with open(path, "w") as fh:
                    json.dump(runs, fh)
        # the traced runs of both sets use one seed, so their counts must
        # be identical
        for name in names:
            res = one_run(name, TRACE_SEED, spec["run_seconds"], 1)
            runs.append({"set": s, "workload": name, "seed": TRACE_SEED,
                         "trace": 1, "result": res})
            with open(path, "w") as fh:
                json.dump(runs, fh)
    print("runs saved to %s" % path)
    return 0 if report(spec, runs) else 1


if __name__ == "__main__":
    sys.exit(main())
