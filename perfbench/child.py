"""One round of a workload in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed> <mode> <trace> <spans-file>

mode is "setup" (set up and stop), "round" (set up, run every operation,
report) or "check" (a round that also returns the program's intermediate
series for the independent checks).  With trace 1 the layer entry points
are wrapped and their spans written to spans-file (unless it is "-").
Prints one JSON object.  The clock for setup_s starts just before tmzv is
first imported; everything the workload then asks of the program goes
through its public API or tmzv.cli.main.

Times are reported twice: in plain seconds, and in reference seconds, the
plain time scaled by REF_PROBE_S over the time a fixed probe took next to
it (see probe_s).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import ref  # noqa: E402

# A shared 2-core VM (Intel Xeon, 2.1 GHz) was seen to change speed by up
# to 1.8x for seconds to minutes at a time, so plain seconds from runs
# minutes apart differ by more than any useful bound.  A probe of fixed pure-Python work
# (the benchmark's own reference arithmetic, which never touches tmzv) is
# timed before the first operation, then before an operation whenever
# PROBE_EVERY_S has passed since the last probe, and after the last one.
# An operation's reference time is its plain time times REF_PROBE_S over
# the mean of the probes around it: seconds at the speed at which the
# probe takes REF_PROBE_S.
PROBE_EVERY_S = 0.05
REF_PROBE_S = 4e-4
_PROBE_A = [1, 2] * 100
_PROBE_B = [2, 1] * 100


def probe_s() -> float:
    """Median time of three runs of the probe work, with the collector off
    so that the size of the program's heap does not bill the probe."""
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t = time.perf_counter()
            ref.mzv_closed(3, (1, 2), 60)
            ref.kronecker_mul(3, _PROBE_A, _PROBE_B)
            times.append(time.perf_counter() - t)
    finally:
        gc.enable()
    return sorted(times)[1]


def _field(q: int):
    from tmzv.scalars import field
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m = 0
    while p**m < q:
        m += 1
    return field(p, m)


def _shape(q, s, model):
    from tmzv.motive import at_shape, star_shape
    return (star_shape if model == "star" else at_shape)(_field(q), s)


def setup(ops):
    """Import the program and build the workload's fields, shapes and
    places; a long-lived caller configures its places once and keeps them."""
    import tmzv.cli  # noqa: F401
    import tmzv.vadic  # noqa: F401
    import tmzv.zeta  # noqa: F401
    from tmzv.scalars import APoly
    from tmzv.vadic import NuPlace

    state = {"fields": {}, "shapes": {}, "places": {}}
    for op in ops:
        state["fields"].setdefault(op[1], _field(op[1]))
        if op[0] == "inversion":
            state["shapes"][(op[1], op[2])] = _shape(op[1], op[2], "at")
        elif op[0] == "oracle-log":
            state["shapes"][(op[1], op[2])] = _shape(op[1], op[2], op[3])
        elif op[0] == "zeta_nu":
            state["places"][(op[1], op[2])] = NuPlace(
                APoly(state["fields"][op[1]], op[2]))
    return state


def _cli(argv):
    from tmzv import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": buf.getvalue()}


def run_op(op, state):
    from tmzv import vadic, zeta
    from tmzv.scalars import APoly
    kind = op[0]
    if kind == "mzv-cli":
        q, s, prec = op[1:]
        return _cli(["mzv", "--q", str(q), "--s", ",".join(map(str, s)),
                     "--prec", str(prec), "--format", "json"])
    if kind == "oracle-log":
        q, s, model, nmax, window = op[1:]
        return _cli(["verify", "oracle-log", "--q", str(q), "--s",
                     ",".join(map(str, s)), "--model", model, "--nmax",
                     str(nmax), "--prec", str(window), "--format", "json"])
    if kind == "inversion":
        q, s, t_order, prec = op[1:]
        return zeta.inversion_check(state["shapes"][(q, s)], n_terms=t_order,
                                    prec=prec)
    fs = state["fields"][op[1]]
    if kind == "mzv":
        q, s, prec = op[1:]
        return zeta.mzv(fs, s, prec=prec).value
    if kind == "polylog":
        q, s, u, prec = op[1:]
        arg = APoly.one(fs) if u == 0 else APoly.theta(fs)
        return zeta.polylog(fs, (s,), [arg], prec=prec)
    if kind == "zeta_nu":
        q, nu, K = op[1:]
        return vadic.zeta_nu(fs, (1,), state["places"][(q, nu)], K=K)[0]
    raise ValueError("unknown operation %r" % (kind,))


def run_ops(ops, state, tracer, op_s, speed):
    """Run every operation in order (one caller, closed loop).  op_s[k] is
    operation k's plain time, speed[k] the mean of the probes taken just
    before and just after it.  Returns the results; a failed operation is
    counted, not fatal."""
    results = []
    op_ix = tracer.ix["op"] if tracer is not None else 0
    probes = []  # (index of the next operation, probe time)
    last = None
    for k, op in enumerate(ops):
        if last is None or time.perf_counter() - last >= PROBE_EVERY_S:
            probes.append((k, probe_s()))
            last = time.perf_counter()
        t = time.perf_counter()
        if tracer is not None:
            span = tracer.begin(op_ix)
        try:
            results.append(run_op(op, state))
        except Exception as exc:
            results.append({"error": type(exc).__name__,
                            "message": str(exc)[:200]})
        if tracer is not None:
            tracer.finish(op_ix, span)
        op_s[k] = time.perf_counter() - t
    probes.append((len(ops), probe_s()))
    for (k0, c0), (k1, c1) in zip(probes, probes[1:]):
        for k in range(k0, k1):
            speed[k] = (c0 + c1) / 2
    return results


def peak_rss_kb() -> int:
    """This process's peak resident set size.  VmHWM belongs to the current
    address space; getrusage's ru_maxrss would also carry the parent's
    resident size at the fork that started this interpreter."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _plain(x):
    """JSON-ready form of an operation's result (after the clock stops)."""
    if isinstance(x, dict) and "rc" in x:
        return x
    if hasattr(x, "to_dict"):
        return x.to_dict()
    return json.loads(json.dumps(x, default=str))


def check_material(ops, state):
    """The program's intermediate series that the independent checks
    recompose: deformed rows for inclusion-exclusion, and the closed-form
    logarithm and exponential coefficients for log-oracle."""
    from tmzv import motive, tmodule, zeta
    out = []
    for op in ops:
        if op[0] == "inversion":
            q, s, t_order, prec = op[1:]
            row = zeta.deformed_row(state["shapes"][(q, s)], n_terms=t_order,
                                    prec=prec + 2)
            out.append({
                kind: {"%d,%d" % k: [c.to_dict() for c in v.coeffs]
                       for k, v in table.items()}
                for kind, table in (("L", row.L), ("Lstar", row.Lstar))})
        elif op[0] == "oracle-log":
            q, s, model, nmax, window = op[1:]
            shape = state["shapes"][(q, s)]
            E = motive.tmodule_of(shape).with_laurent(window)
            P = [tmodule.log_coeff_matrix(shape, n, E.scalars)
                 for n in range(nmax + 1)]
            Q = [E.exp_coeff(j) for j in range(nmax + 1)]
            out.append({
                name: [[[x.to_dict() for x in row] for row in M] for M in Ms]
                for name, Ms in (("P", P), ("Q", Q))})
    return out


def main(argv):
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    trace, spans_path = argv[4] == "1", argv[5]
    ops = inputs.operations(workload, seed)

    probe_before = probe_s()  # also fills the probe's own caches
    t0 = time.perf_counter()
    state = setup(ops)
    setup_s = time.perf_counter() - t0
    setup_times = {
        "setup_s": setup_s * REF_PROBE_S / ((probe_before + probe_s()) / 2),
        "setup_plain_s": setup_s}
    if mode == "setup":
        print(json.dumps(setup_times))
        return 0

    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    # operation times and the peak RSS go into arrays allocated before the
    # first block count, so the count sees only the program's own
    # allocations (and the one string the answers leave as)
    op_s = array("d", bytes(8 * len(ops)))
    speed = array("d", bytes(8 * len(ops)))
    peak_kb = array("d", [0.0])
    gc.collect()
    blocks_before = sys.getallocatedblocks()
    results = run_ops(ops, state, tracer, op_s, speed)
    peak_kb[0] = peak_rss_kb()

    if tracer is not None:
        tracer.uninstall()
    outputs = json.dumps([r if isinstance(r, dict) and "error" in r
                          else _plain(r) for r in results])
    del results
    gc.collect()
    retained_blocks = sys.getallocatedblocks() - blocks_before

    op_ref_s = [t * REF_PROBE_S / c for t, c in zip(op_s, speed)]
    report = dict(setup_times)
    report.update({
        "op_s": op_ref_s,
        "op_plain_s": list(op_s),
        "probe_s": statistics.median(speed),
        "peak_rss_mb": peak_kb[0] / 1024.0,
        "retained_blocks": retained_blocks,
        "outputs": json.loads(outputs),
    })
    if tracer is not None:
        # self times in reference seconds at the round's median speed
        report["layers"] = tracer.metrics(
            sum(op_ref_s), REF_PROBE_S / report["probe_s"])
        if spans_path != "-":
            tracer.write(spans_path)
    if mode == "check":
        t = time.perf_counter()
        report["material"] = check_material(ops, state)
        report["check_s"] = time.perf_counter() - t
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
