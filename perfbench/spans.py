"""Spans and counts around tmzv's layer entry points, installed from the
benchmark's own files.

Each wrapped call records a span (name, start, end, parent span) in
memory; counts are exact.  A layer's self time is its spans' duration minus
the time covered by their direct child spans.  Wrappers replace module and
class attributes, so calls that look the name up at call time (all of
tmzv's internal calls to these entry points do) are traced.
"""

from __future__ import annotations

import importlib
import time
from array import array


def _products(args, result):
    return len(args[1]) * len(args[2])


def _result_coeffs(args, result):
    return len(result.coeffs)


# (layer name, module, class or None, attribute, (work name, work counter))
ENTRY_POINTS = (
    ("scalars.conv", "tmzv.scalars", "FieldSpec", "conv",
     ("products", _products)),
    ("scalars.laurent_mul", "tmzv.scalars", "PrecisionLaurent", "__mul__",
     None),
    ("scalars.frobenius", "tmzv.scalars", "PrecisionLaurent", "frobenius",
     ("coeffs", _result_coeffs)),
    ("scalars.laurent_inv", "tmzv.scalars", "PrecisionLaurent", "inv",
     ("coeffs", _result_coeffs)),
    ("scalars.apoly_divmod", "tmzv.scalars", "APoly", "__divmod__", None),
    ("tlayer.tate_mul", "tmzv.tlayer", "TateTrunc", "__mul__", None),
    ("tlayer.jet_mul", "tmzv.tlayer", "LocalJet", "__mul__", None),
    ("tmodule.log_coeff_matrix", "tmzv.tmodule", None, "log_coeff_matrix",
     None),
    ("tmodule.log_coeff_recursive", "tmzv.tmodule", "TModule",
     "log_coeff_recursive", None),
    ("tmodule.exp_coeff", "tmzv.tmodule", "TModule", "exp_coeff", None),
    ("motive.tmodule_of", "tmzv.motive", None, "tmodule_of", None),
    ("zeta.power_sum", "tmzv.zeta", None, "power_sum", None),
    ("zeta.mzv", "tmzv.zeta", None, "mzv", None),
    ("zeta.lseries", "tmzv.zeta", None, "lseries_raw", None),
    ("vadic.zeta_nu", "tmzv.vadic", None, "zeta_nu", None),
    ("checks", "tmzv.zeta", None, "inversion_check", None),
    ("checks", "tmzv.tmodule", None, "log_oracle_check", None),
    ("cli.main", "tmzv.cli", None, "main", None),
)

# per-layer metrics reported by a traced run, with their units
LAYER_METRICS = (
    ("scalars.conv.calls", "count"), ("scalars.conv.products", "count"),
    ("scalars.conv.self_s", "s"),
    ("scalars.laurent_mul.calls", "count"), ("scalars.laurent_mul.self_s", "s"),
    ("scalars.frobenius.calls", "count"), ("scalars.frobenius.coeffs", "count"),
    ("scalars.frobenius.self_s", "s"),
    ("scalars.laurent_inv.calls", "count"), ("scalars.laurent_inv.coeffs", "count"),
    ("scalars.laurent_inv.self_s", "s"),
    ("scalars.apoly_divmod.calls", "count"), ("scalars.apoly_divmod.self_s", "s"),
    ("tlayer.tate_mul.calls", "count"), ("tlayer.tate_mul.self_s", "s"),
    ("tlayer.jet_mul.calls", "count"), ("tlayer.jet_mul.self_s", "s"),
    ("tmodule.log_coeff_matrix.calls", "count"),
    ("tmodule.log_coeff_matrix.self_s", "s"),
    ("tmodule.log_coeff_recursive.calls", "count"),
    ("tmodule.log_coeff_recursive.self_s", "s"),
    ("tmodule.exp_coeff.calls", "count"), ("tmodule.exp_coeff.self_s", "s"),
    ("motive.tmodule_of.calls", "count"), ("motive.tmodule_of.self_s", "s"),
    ("zeta.power_sum.calls", "count"), ("zeta.power_sum.self_s", "s"),
    ("zeta.mzv.self_s", "s"),
    ("zeta.lseries.calls", "count"), ("zeta.lseries.self_s", "s"),
    ("vadic.zeta_nu.calls", "count"), ("vadic.zeta_nu.self_s", "s"),
    ("checks.self_s", "s"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"),
)


class Tracer:
    """Span recorder.  Span i has name names[name_ix[i]], interval
    [start[i], end[i]] and parent span parent[i] (-1 at top level)."""

    def __init__(self):
        self.names = ["op"] + sorted({e[0] for e in ENTRY_POINTS})
        self.name_ix = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.child_time = []   # per open span: time covered by its children
        self.open = []         # indices of open spans
        self.ix = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.work = {}
        self._restore = []

    def begin(self, ix: int) -> int:
        i = len(self.start)
        self.name_ix.append(ix)
        self.parent.append(self.open[-1] if self.open else -1)
        self.end.append(0.0)
        self.open.append(i)
        self.child_time.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def finish(self, ix: int, i: int):
        t = time.perf_counter()
        self.end[i] = t
        dur = t - self.start[i]
        self.open.pop()
        inner = self.child_time.pop()
        if self.child_time:
            self.child_time[-1] += dur
        self.calls[ix] += 1
        self.self_s[ix] += dur - inner

    def _wrap(self, name, fn, work):
        tracer = self
        ix = self.ix[name]
        if work is None:
            def traced(*args, **kwargs):
                i = tracer.begin(ix)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.finish(ix, i)
        else:
            key, counter = work
            wkey = name + "." + key

            def traced(*args, **kwargs):
                i = tracer.begin(ix)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.finish(ix, i)
                tracer.work[wkey] = tracer.work.get(wkey, 0) + counter(
                    args, result)
                return result
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, module, cls, attr, work in ENTRY_POINTS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            fn = owner.__dict__[attr] if cls is not None else getattr(owner, attr)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, work))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def metrics(self, wall_s: float, scale: float) -> dict:
        """The per-layer metrics; self times are multiplied by scale."""
        out = {}
        for metric, _unit in LAYER_METRICS:
            layer, _, field = metric.rpartition(".")
            if metric == "trace.wall_s":
                out[metric] = wall_s
            elif field == "calls":
                out[metric] = self.calls[self.ix[layer]]
            elif field == "self_s":
                out[metric] = self.self_s[self.ix[layer]] * scale
            else:
                out[metric] = self.work.get(metric, 0)
        return out

    def write(self, path):
        """Spans as tab-separated lines: index, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write("%d\t%s\t%.7f\t%.7f\t%d\n" % (
                    i, self.names[self.name_ix[i]], self.start[i] - t0,
                    self.end[i] - t0, self.parent[i]))
