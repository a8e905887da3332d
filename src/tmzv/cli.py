"""Command-line front end: compute values, run identity suites, dump objects.

Verbs:
  mzv     -- evaluate a (star) multiple zeta value and print leading digits
  verify  -- run a named identity suite and emit a JSON/text report
  dump    -- serialize a motive, t-module, special point, or series value

Exit codes: 0 all passed; 1 mathematical failure; 2 usage or resource error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .scalars import MAX_Q, APoly, FieldSpec, PrecisionError, \
    PrecisionLaurent, RatFunc, field, field_size_error
from .tlayer import TPoly
from . import tmodule, vadic, zeta

REPORT_VERSION = 3


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def _field_for_q(q: int, modulus=None) -> FieldSpec:
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    if q > MAX_Q:
        raise field_size_error(q)
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m = 1
    while p ** m < q:
        m += 1
    if p ** m != q:
        raise ValueError("q = %d is not a prime power" % q)
    return field(p, m, tuple(modulus) if modulus else None)


def _parse_tuple(text: str):
    try:
        s = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError("expected a comma-separated integer tuple, got %r"
                         % text)
    if not s or any(x < 1 for x in s):
        raise ValueError("index entries must be positive integers")
    return s


def _positive_int(text: str):
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % text)
    return n


def _parse_coeffs(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError("expected comma-separated coefficients, got %r"
                         % text)


def _leaf(x):
    """Plain data for a value json cannot write itself: a Fraction as an int
    or "a/b", a series as its dict, anything else as its str."""
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, PrecisionLaurent):
        return x.to_dict()
    return str(x)


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, default=_leaf, sort_keys=True,
                         separators=(",", ":")))
    else:
        _emit_text(payload)


def _emit_text(payload: dict):
    if "reports" in payload:
        for rep in payload["reports"]:
            status = "PASS" if rep.get("pass") else "FAIL"
            extra = rep.get("resource_error")
            if extra:
                status = "ERROR"
            print("%-40s %s" % (rep["name"], status))
            if extra:
                print("  resource error: %s" % extra)
        print("overall: %s" % ("PASS" if payload.get("pass") else "FAIL"))
    else:
        # each value as plain data by the leaf rule: the JSON that _emit
        # writes for it, read back
        for k, v in payload.items():
            print("%s: %s" % (k, json.loads(json.dumps(v, default=_leaf))))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _ser_field(fs: FieldSpec):
    return {"p": fs.p, "m": fs.m, "modulus": list(fs.modulus)}


def _ser(x):
    if isinstance(x, APoly):
        return {"type": "apoly", "coeffs": x.fs.row_digits(x.coeffs)}
    if isinstance(x, RatFunc):
        return {"type": "ratfunc", "num": _ser(x.num), "den": _ser(x.den)}
    if isinstance(x, TPoly):
        return {"type": "tpoly", "coeffs": [_ser(c) for c in x.coeffs]}
    if isinstance(x, PrecisionLaurent):
        d = x.to_dict()
        d["type"] = "laurent"
        return d
    raise TypeError("cannot serialize %r" % type(x).__name__)


def dump_object(obj: str, fs: FieldSpec, s, model: str, star: bool,
                prec: int) -> dict:
    """The JSON form of a dump object, one of DUMPS, at s over fs."""
    from .motive import build_motive, special_point, tmodule_of

    out = {"object": obj, "field": _ser_field(fs), "s": list(s)}
    if obj == "series":
        out["star"] = star
        out["value"] = _ser(zeta.mzv(fs, s, star=star, prec=prec).value)
        return out
    shape = _shape(fs, s, model)
    out["model"] = shape.model
    if obj == "motive":
        # each entry X is stored as X^(1) and written as its -1 twist
        out["phi"] = [[{"type": "twisted", "twist": -1, "base": _ser(e)}
                       for e in row] for row in build_motive(shape)]
    elif obj == "tmodule":
        E = tmodule_of(shape)
        out["dtheta"] = [[_ser(e) for e in row] for row in E.dtheta]
        out["taus"] = [[[_ser(e) for e in row] for row in M]
                       for M in E.taus]
    else:
        v = special_point(shape)
        out["point"] = [_ser(x) for x in v]
        out["negated_point"] = [_ser(-x) for x in v]
        out["sign_note"] = ("point is delta_1 of the sigma-reduced motive "
                            "generator; displays often list its negative")
    return out


# ---------------------------------------------------------------------------
# option tables
# ---------------------------------------------------------------------------


def _shape(fs, s, model):
    # motive imports zeta, so it loads only when a shape is asked for
    from .motive import at_shape, star_shape

    return (star_shape if model == "star" else at_shape)(fs, s)


def _name(head, r, index=True):
    """An item name: "<head> q=<q>", then " s=<s>" when index."""
    return "%s q=%d" % (head, r["fs"].q) + (
        " s=" + ",".join(map(str, r["s"])) if index else "")


# item builders: a run (a dict of option values, with its field as "fs")
# to its list of (name, zero-argument callable) pairs


def _carlitz(r):
    return [(_name("carlitz", r, False),
             lambda: zeta.carlitz_check(r["fs"], prec=r["prec"]))]


def _at90(r):
    return [(_name("depth-one", r, False) + " n=%d" % n,
             lambda n=n: zeta.depth_one_check(r["fs"], n, prec=r["prec"]))
            for n in (1, 2, 3, 4)]


def _stark(head, model):
    """The builder of a Stark-unit suite: star or cpy."""
    return lambda r: [(_name(head, r), lambda: zeta.stark_unit_check(
        _shape(r["fs"], r["s"], model), prec=r["prec"]))]


def _cm(r):
    return [(_name("cm", r),
             lambda: zeta.cm_check(r["fs"], r["s"], prec=r["prec"]))]


def _strange(r):
    return [(_name("strange", r, False),
             lambda: zeta.strange_formula_check(r["fs"], prec=r["prec"]))]


def _trivialization(r):
    shape = _shape(r["fs"], r["s"], r["model"])
    # the default is a pair: the trivialization's precision, the inversion's
    N, prec = r["prec"] if isinstance(r["prec"], tuple) else (r["prec"],) * 2
    return [(_name("trivialization " + r["model"], r),
             lambda: zeta.trivialization_check(shape, M=r["t_order"], N=N)),
            (_name("inversion " + r["model"], r),
             lambda: zeta.inversion_check(
                 shape, n_terms=max(r["t_order"], 12), prec=prec))]


def _vadic(r):
    fs, nu = r["fs"], r["nu"]
    if not all(0 <= c < fs.q for c in nu):
        raise ValueError("--nu: coefficients must be field codes in "
                         "[0, %d), got %s" % (fs.q, ",".join(map(str, nu))))
    place = vadic.NuPlace(APoly(fs, nu))
    return [(_name("vadic", r), lambda: vadic.zeta_nu_check(
        fs, r["s"], place, K=r["nu_prec"]))]


def _periods(r):
    fs, s, prec = r["fs"], r["s"], r["prec"]
    return [(_name("periods " + model, r),
             lambda model=model: tmodule.period_check(_shape(fs, s, model),
                                                      prec=prec))
            for model in ("star", "at")] + [
        (_name("periods depth-one", r, False),
         lambda: tmodule.depth_one_period_check(fs, 1, prec=prec))]


def _oracle_log(r):
    shape = _shape(r["fs"], r["s"], r["model"])
    return [(_name("oracle-log " + r["model"], r), lambda:
             tmodule.log_oracle_check(shape, nmax=r["nmax"],
                                      window=r["prec"]))]


_FIELD = {"q": 2, "modulus": None}

# suite -> (the options it reads, with their defaults; its default runs;
# its item builder).  A suite makes its default runs when none of the
# options they set is given; given alone, such an option makes one run,
# with the defaults for the others.
SUITES = {
    "carlitz": (dict(_FIELD, prec=60), [{"q": q} for q in (2, 3, 4)],
                _carlitz),
    "at90": (dict(_FIELD, prec=40), [], _at90),
    "star": (dict(_FIELD, s=None, prec=40), [{"s": (3, 1)}, {"s": (2, 1, 1)}],
             _stark("star", "star")),
    "cpy": (dict(_FIELD, s=(1, 2), prec=30), [], _stark("cpy", "at")),
    "cm": (dict(_FIELD, s=(1, 1), prec=30), [], _cm),
    "strange": (dict(_FIELD, prec=40), [{"q": q} for q in (2, 3)], _strange),
    "trivialization": (
        dict(_FIELD, s=(3, 1), model="star", t_order=20, prec=(30, 40)),
        [dict(q=3, s=(2, 4), model="at"), dict(q=2, s=(3, 1), model="star")],
        _trivialization),
    "vadic": (dict(_FIELD, s=None, nu=(1, 1), nu_prec=8),
              [{"s": (2, 1)}, {"s": (3, 1)}], _vadic),
    "periods": (dict(_FIELD, s=(1, 2), prec=30), [], _periods),
    "oracle-log": (
        dict(_FIELD, s=(3, 1), model="star", nmax=8, prec=60),
        [dict(q=2, s=s, model="star") for s in ((1,), (4,), (3, 1), (2, 1, 1))]
        + [dict(q=2, s=(1, 2), model="at"), dict(q=3, s=(2, 4), model="at")],
        _oracle_log),
}

# the options of mzv and of each dump object, with their defaults
_MZV = dict(_FIELD, s=None, star=False, prec=20)
_SHAPE_DUMP = dict(_FIELD, s=(1, 3), model="star")
DUMPS = {"motive": _SHAPE_DUMP, "tmodule": _SHAPE_DUMP, "point": _SHAPE_DUMP,
         "series": dict(_FIELD, s=(1, 3), star=False, prec=20)}

# the options checked against a table; --format is read by every verb
_OPTIONS = ("q", "modulus", "s", "model", "star", "prec", "t_order", "nu",
            "nu_prec", "nmax")


def _resolve(label, options, cases, args):
    """The runs of a verb: dicts of the table's options, given values over
    defaults, each with its field as "fs".  An option the table does not
    list, or --modulus without --q, is a usage error."""
    given = {k: v for k, v in vars(args).items()
             if k in _OPTIONS and v is not None and v is not False}
    for k in given:
        if k not in options:
            raise ValueError("--%s: %s reads only %s" % (
                k.replace("_", "-"), label,
                ", ".join("--" + o.replace("_", "-") for o in options)))
    if "modulus" in given and "q" not in given:
        raise ValueError("--modulus needs --q")
    run = dict(options, **given)
    runs = ([dict(run, **case) for case in cases]
            if cases and given.keys().isdisjoint(cases[0]) else [run])
    for r in runs:
        r["fs"] = _field_for_q(r["q"], r["modulus"])
        r["modulus"] = r["fs"].modulus
    return runs


def _config(options, cases, runs):
    """Each option the suite read, with the value it ran; an option that
    its default runs set, and the modulus of their fields, as a list with
    one entry per run."""
    several = set(cases[0]) if len(runs) > 1 else set()
    if "q" in several:
        several.add("modulus")
    return {k: [r[k] for r in runs] if k in several else runs[0][k]
            for k in options}


# errors that mean "this input needs more than the run can give": exit 2
RESOURCE_ERRORS = (PrecisionError, MemoryError, RecursionError)


def _run_item(name, fn):
    t0 = time.monotonic()
    try:
        rep = fn()
    except RESOURCE_ERRORS as exc:
        rep = {"pass": False, "resource_error": str(exc) or
               type(exc).__name__}
    rep = dict(rep)
    rep["name"] = name
    rep.setdefault("anchor", rep.get("identity", name))
    rep["elapsed_s"] = round(time.monotonic() - t0, 3)
    return rep


def run_verify(args) -> int:
    options, cases, build = SUITES[args.suite]
    runs = _resolve("verify " + args.suite, options, cases, args)
    items = [item for r in runs for item in build(r)]
    reports = [_run_item(name, fn) for name, fn in items]
    reports.sort(key=lambda r: r["name"])
    payload = {
        "report_v": REPORT_VERSION,
        "suite": args.suite,
        "config": _config(options, cases, runs),
        "reports": reports,
        "pass": all(r.get("pass") for r in reports),
    }
    _emit(payload, args.format)
    if any("resource_error" in r for r in reports):
        return 2
    return 0 if payload["pass"] else 1


# ---------------------------------------------------------------------------
# mzv / dump verbs
# ---------------------------------------------------------------------------


def run_mzv(args) -> int:
    [r] = _resolve("mzv", _MZV, (), args)
    val = zeta.mzv(r["fs"], r["s"], star=r["star"], prec=r["prec"])
    payload = {
        "q": r["fs"].q,
        "s": list(r["s"]),
        "star": r["star"],
        "prec": r["prec"],
        "valuation": val.value.v,
        "value": val.value.to_dict(),
        "leading": repr(val.value),
    }
    _emit(payload, args.format)
    return 0


def run_dump(args) -> int:
    [r] = _resolve("dump " + args.object, DUMPS[args.object], (), args)
    _emit(dump_object(args.object, r["fs"], r["s"], r.get("model"),
                      r.get("star"), r.get("prec")), args.format)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_common(p, formats=("json", "text"), default="text", need_s=False):
    p.add_argument("--q", type=int, help="field size (prime power)")
    p.add_argument("--modulus", type=_parse_coeffs, default=None,
                   help="F_p-coefficients of the extension modulus")
    p.add_argument("--s", type=_parse_tuple, default=None, required=need_s,
                   help="comma-separated index tuple")
    p.add_argument("--prec", type=_positive_int, default=None,
                   help="target residual valuation")
    p.add_argument("--format", choices=formats, default=default)


def _mzv_options(p):
    _add_common(p, need_s=True)
    p.add_argument("--star", action="store_true",
                   help="weak-inequality (star) variant")


def _verify_options(p):
    p.add_argument("suite", choices=SUITES)
    _add_common(p)
    p.add_argument("--model", choices=("at", "star"), default=None)
    p.add_argument("--t-order", dest="t_order", type=_positive_int,
                   help="t-truncation order for series identities")
    p.add_argument("--nu", type=_parse_coeffs,
                   help="coefficients of the finite place, low to high")
    p.add_argument("--nu-prec", dest="nu_prec", type=_positive_int)
    p.add_argument("--nmax", type=_positive_int,
                   help="logarithm coefficients checked per shape")


def _dump_options(p):
    p.add_argument("object", choices=DUMPS)
    _add_common(p, formats=("json",), default="json")
    p.add_argument("--model", choices=("at", "star"), default=None)
    p.add_argument("--star", action="store_true",
                   help="series only: star variant")


# verb -> (its help, the builder of its options, its runner)
VERBS = {
    "mzv": ("evaluate a (star) multiple zeta value", _mzv_options, run_mzv),
    "verify": ("run an identity suite", _verify_options, run_verify),
    "dump": ("serialize an object as JSON", _dump_options, run_dump),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every verb; when argv's first word names a verb, only
    that verb's subparser gets its options, as argparse reads no other."""
    ap = argparse.ArgumentParser(
        prog="tmzv",
        description="multiple zeta values over F_q[theta] via t-modules")
    sub = ap.add_subparsers(dest="verb", required=True)
    only = argv[0] if argv and argv[0] in VERBS else None
    for verb, (text, options, fn) in VERBS.items():
        p = sub.add_parser(verb, help=text)
        if only in (None, verb):
            options(p)
            p.set_defaults(fn=fn)
    return ap


def _fail(message) -> int:
    """Exit code 2, with message as one line on stderr when it can be
    written; a closed stderr goes to devnull, like a closed stdout."""
    try:
        print(message, file=sys.stderr)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return 2


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail("output closed by the reader")
    except ValueError as exc:
        return _fail(exc)
    except RESOURCE_ERRORS as exc:
        return _fail(str(exc) or type(exc).__name__)


if __name__ == "__main__":
    sys.exit(main())
