"""Record one point of the benchmark trajectory as a BENCH_<n>.json file.

    python3 tools/bench_record.py --out BENCH_<n>.json

Run from anywhere inside a checkout; it needs only the standard library,
`perfbench/` and `src/tmzv`.  It records:

- for each benchmark workload, the median of each end-to-end metric over
  RUNS untraced `perfbench/run.py` runs (seeds 1 .. RUNS, SECONDS each)
  and the per-layer metrics of one traced run (seed 1);
- the Tier-1 suite: tests passed and failed, and its wall time;
- for each `tmzv verify` suite at its defaults, the sum of its reports'
  `elapsed_s`, its verdict and the wall time of the command;
- the source size: the line count of each `src/tmzv/*.py` file and their
  total;
- the start-up cost, `import_s`: the median wall time of IMPORT_RUNS fresh
  `python -c "import tmzv.cli"` runs minus that of as many `python -c pass`
  runs, taken in turn, with bytecode from the benchmark's private cache;
- the git commit, the Python version and the core count.

Every figure comes from one sitting on one machine, so points taken on
different machines or in different sittings compare only roughly; the
benchmark's times are in reference seconds (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = 3
SECONDS = 5
IMPORT_RUNS = 7


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def bench_run(workload, seed, seconds, trace):
    """The result object of one perfbench/run.py run."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (" ".join(cmd),
                                               proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_workload(workload):
    results = [bench_run(workload, seed, SECONDS, 0)
               for seed in range(1, RUNS + 1)]
    traced = bench_run(workload, 1, SECONDS, 1)
    names = results[0]["metrics"]
    return {
        "seeds": list(range(1, RUNS + 1)),
        "seconds": SECONDS,
        "correct": all(r["correct"] for r in results + [traced]),
        "failed": sum(r["failed"] for r in results + [traced]),
        "end_to_end": {m: statistics.median(r["metrics"][m]["value"]
                                            for r in results)
                       for m in names},
        "layers": {m: v["value"] for m, v in traced["metrics"].items()},
    }


def record_tier1():
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=_env(), capture_output=True, text=True)
    wall = time.monotonic() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (\w+)", tail)}
    return {"passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("errors", 0)
            + counts.get("error", 0),
            "wall_s": round(wall, 2), "summary": tail}


def record_verify():
    sys.path.insert(0, SRC)
    from tmzv.cli import SUITES

    out = {}
    for suite in SUITES:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "tmzv.cli", "verify", suite,
             "--format", "json"],
            cwd=ROOT, env=_env(), capture_output=True, text=True)
        wall = time.monotonic() - t0
        d = json.loads(proc.stdout)
        out[suite] = {
            "elapsed_s": round(sum(r["elapsed_s"] for r in d["reports"]), 3),
            "wall_s": round(wall, 3), "pass": d["pass"],
            "exit": proc.returncode}
    return out


def record_src_lines():
    pkg = os.path.join(SRC, "tmzv")
    files = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                files[name] = fh.read().count(b"\n")
    return {"files": files, "total": sum(files.values())}


def record_import_s():
    env = _env()
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".perfbench_out",
                                              "pycache")

    def wall(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                       check=True)
        return time.perf_counter() - t0

    wall("import tmzv.cli")  # fills the bytecode cache
    runs = [(wall("pass"), wall("import tmzv.cli"))
            for _ in range(IMPORT_RUNS)]
    return round(statistics.median(b for _, b in runs)
                 - statistics.median(a for a, _ in runs), 4)


def git_sha():
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = {}
    for w in spec["workloads"]:
        print("workload", w["name"], file=sys.stderr)
        workloads[w["name"]] = record_workload(w["name"])
    print("verify suites", file=sys.stderr)
    verify = record_verify()
    print("tier-1", file=sys.stderr)
    tier1 = record_tier1()
    point = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "workloads": workloads,
        "verify": verify,
        "tier1": tier1,
        "src_lines": record_src_lines(),
        "import_s": record_import_s(),
    }
    with open(args.out, "w") as fh:
        json.dump(point, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
