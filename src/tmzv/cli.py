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

from .scalars import APoly, FieldSpec, PrecisionError, PrecisionLaurent, \
    RatFunc, field
from .tlayer import TPoly

REPORT_VERSION = 2

SUITES = ("carlitz", "at90", "star", "cpy", "cm", "strange",
          "trivialization", "vadic", "periods", "oracle-log")


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def _field_for_q(q: int, modulus=None) -> FieldSpec:
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    p = None
    for cand in range(2, q + 1):
        if q % cand == 0:
            p = cand
            break
    m = 0
    n = q
    while n % p == 0:
        n //= p
        m += 1
    if n != 1:
        raise ValueError("q = %d is not a prime power" % q)
    return field(p, m, tuple(modulus) if modulus else None)


def _arg_field(args) -> FieldSpec:
    """The field of --q and --modulus; F_2 when --q is not given."""
    return _field_for_q(2 if args.q is None else args.q, args.modulus)


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
    from .motive import at_shape, build_motive, special_point, star_shape, \
        tmodule_of
    from .zeta import mzv

    out = {"object": obj, "field": _ser_field(fs)}
    if obj == "series":
        val = mzv(fs, s, star=star, prec=prec)
        out["s"] = list(s)
        out["star"] = star
        out["value"] = _ser(val.value)
        return out
    shape = star_shape(fs, s) if model == "star" else at_shape(fs, s)
    out["s"] = list(s)
    out["model"] = shape.model
    if obj == "motive":
        # each entry X is stored as X^(1) and written as its -1 twist
        out["phi"] = [[{"type": "twisted", "twist": -1, "base": _ser(e)}
                       for e in row] for row in build_motive(shape).phi]
    elif obj == "tmodule":
        E = tmodule_of(shape)
        out["dtheta"] = [[_ser(e) for e in row] for row in E.dtheta]
        out["taus"] = [[[_ser(e) for e in row] for row in M]
                       for M in E.taus]
    elif obj == "point":
        v = special_point(shape)
        out["point"] = [_ser(x) for x in v]
        out["negated_point"] = [_ser(-x) for x in v]
        out["sign_note"] = ("point is delta_1 of the sigma-reduced motive "
                            "generator; displays often list its negative")
    else:
        raise ValueError("unknown dump object %r" % obj)
    return out


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_items(suite: str, args):
    """List of (name, zero-argument callable) pairs for a suite."""
    from .motive import at_shape, star_shape
    from .tmodule import depth_one_period_check, log_oracle_check, \
        period_check
    from .vadic import NuPlace, zeta_nu_check
    from .zeta import carlitz_check, cm_check, depth_one_check, \
        inversion_check, stark_unit_check, strange_formula_check, \
        trivialization_check

    prec = args.prec
    if args.s and suite in ("carlitz", "at90", "strange"):
        raise ValueError("--s: verify %s takes no index" % suite)
    items = []
    if suite == "carlitz":
        qs = [2, 3, 4] if args.q is None else [args.q]
        for q in qs:
            fs = _field_for_q(q, args.modulus)
            items.append(("carlitz q=%d" % q,
                          lambda fs=fs: carlitz_check(fs, prec=prec or 60)))
    elif suite == "at90":
        fs = _arg_field(args)
        for n in (1, 2, 3, 4):
            items.append(("depth-one q=%d n=%d" % (fs.q, n),
                          lambda fs=fs, n=n:
                          depth_one_check(fs, n, prec=prec or 40)))
    elif suite == "star":
        fs = _arg_field(args)
        shapes = [args.s] if args.s else [(3, 1), (2, 1, 1)]
        for s in shapes:
            items.append(("star q=%d s=%s" % (fs.q, ",".join(map(str, s))),
                          lambda fs=fs, s=s: stark_unit_check(
                              star_shape(fs, s), prec=prec or 40)))
    elif suite == "cpy":
        fs = _arg_field(args)
        s = args.s or (1, 2)
        items.append(("cpy q=%d s=%s" % (fs.q, ",".join(map(str, s))),
                      lambda: stark_unit_check(at_shape(fs, s),
                                               prec=prec or 30)))
    elif suite == "cm":
        fs = _arg_field(args)
        s = args.s or (1, 1)
        items.append(("cm q=%d s=%s" % (fs.q, ",".join(map(str, s))),
                      lambda: cm_check(fs, s, prec=prec or 30)))
    elif suite == "strange":
        qs = [2, 3] if args.q is None else [args.q]
        for q in qs:
            fs = _field_for_q(q, args.modulus)
            items.append(("strange q=%d" % q,
                          lambda fs=fs:
                          strange_formula_check(fs, prec=prec or 40)))
    elif suite == "trivialization":
        cases = []
        if args.q is not None or args.s:
            fs = _arg_field(args)
            s = args.s or (3, 1)
            model = args.model or "star"
            cases.append((fs, s, model))
        else:
            cases = [(_field_for_q(3), (2, 4), "at"),
                     (_field_for_q(2), (3, 1), "star")]
        for fs, s, model in cases:
            shape = (star_shape(fs, s) if model == "star"
                     else at_shape(fs, s))
            items.append(
                ("trivialization %s q=%d s=%s"
                 % (model, fs.q, ",".join(map(str, s))),
                 lambda shape=shape: trivialization_check(
                     shape, M=args.t_order, N=prec or 30)))
            items.append(
                ("inversion %s q=%d s=%s"
                 % (model, fs.q, ",".join(map(str, s))),
                 lambda shape=shape: inversion_check(
                     shape, n_terms=max(args.t_order, 12),
                     prec=prec or 40)))
    elif suite == "vadic":
        fs = _arg_field(args)
        nu = args.nu or (1, 1)
        if not all(0 <= c < fs.q for c in nu):
            raise ValueError("--nu: coefficients must be field codes in "
                             "[0, %d), got %s" % (fs.q, ",".join(map(str, nu))))
        place = NuPlace(APoly(fs, nu))
        indices = [args.s] if args.s else [(2, 1), (3, 1)]
        for idx in indices:
            items.append(
                ("vadic q=%d s=%s" % (fs.q, ",".join(map(str, idx))),
                 lambda idx=idx: zeta_nu_check(fs, idx, place,
                                               K=args.nu_prec)))
    elif suite == "periods":
        fs = _arg_field(args)
        s = args.s or (1, 2)
        items.append(("periods star q=%d s=%s"
                      % (fs.q, ",".join(map(str, s))),
                      lambda: period_check(star_shape(fs, s),
                                           prec=prec or 30)))
        items.append(("periods at q=%d s=%s"
                      % (fs.q, ",".join(map(str, s))),
                      lambda: period_check(at_shape(fs, s),
                                           prec=prec or 30)))
        items.append(("periods depth-one q=%d" % fs.q,
                      lambda: depth_one_period_check(fs, 1,
                                                     prec=prec or 30)))
    elif suite == "oracle-log":
        cases = []
        if args.q is not None or args.s:
            fs = _arg_field(args)
            s = args.s or (3, 1)
            cases.append((fs, s, args.model or "star"))
        else:
            fs2 = _field_for_q(2)
            cases = [(fs2, (1,), "star"), (fs2, (4,), "star"),
                     (fs2, (3, 1), "star"), (fs2, (2, 1, 1), "star"),
                     (fs2, (1, 2), "at"), (_field_for_q(3), (2, 4), "at")]
        for fs, s, model in cases:
            shape = (star_shape(fs, s) if model == "star"
                     else at_shape(fs, s))
            items.append(
                ("oracle-log %s q=%d s=%s"
                 % (model, fs.q, ",".join(map(str, s))),
                 lambda shape=shape: log_oracle_check(
                     shape, nmax=args.nmax, window=prec or 60)))
    else:
        raise ValueError("unknown suite %r" % suite)
    return items


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
    try:
        items = _suite_items(args.suite, args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    reports = [_run_item(name, fn) for name, fn in items]
    reports.sort(key=lambda r: r["name"])
    payload = {
        "report_v": REPORT_VERSION,
        "suite": args.suite,
        "config": {
            "q": args.q,
            "s": list(args.s) if args.s else None,
            "prec": args.prec,
            "t_order": args.t_order,
            "nu_prec": args.nu_prec,
            "nu": list(args.nu) if args.nu else None,
            "nmax": args.nmax,
        },
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
    from .zeta import mzv

    fs = _arg_field(args)
    val = mzv(fs, args.s, star=args.star, prec=args.prec or 20)
    payload = {
        "q": fs.q,
        "s": list(args.s),
        "star": args.star,
        "prec": args.prec or 20,
        "valuation": val.value.v,
        "value": val.value.to_dict(),
        "leading": repr(val.value),
    }
    _emit(payload, args.format)
    return 0


def run_dump(args) -> int:
    fs = _arg_field(args)
    try:
        payload = dump_object(args.object, fs, args.s or (1, 3),
                              args.model or "star", args.star,
                              args.prec or 20)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _emit(payload, args.format)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_common(p, formats=("json", "text"), default="text", need_s=False):
    p.add_argument("--q", type=int, default=None,
                   help="field size (prime power)")
    p.add_argument("--modulus", type=_parse_coeffs, default=None,
                   help="F_p-coefficients of the extension modulus")
    p.add_argument("--s", type=_parse_tuple, default=None, required=need_s,
                   help="comma-separated index tuple")
    p.add_argument("--prec", type=_positive_int, default=None,
                   help="target residual valuation")
    p.add_argument("--format", choices=formats, default=default)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tmzv",
        description="multiple zeta values over F_q[theta] via t-modules")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("mzv", help="evaluate a (star) multiple zeta value")
    _add_common(p, need_s=True)
    p.add_argument("--star", action="store_true",
                   help="weak-inequality (star) variant")
    p.set_defaults(fn=run_mzv)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("suite", choices=SUITES)
    _add_common(p)
    p.add_argument("--model", choices=("at", "star"), default=None)
    p.add_argument("--t-order", dest="t_order", type=_positive_int,
                   default=20,
                   help="t-truncation order for series identities")
    p.add_argument("--nu", type=_parse_coeffs, default=None,
                   help="coefficients of the finite place, low to high "
                        "(default 1,1: theta + 1)")
    p.add_argument("--nu-prec", dest="nu_prec", type=_positive_int,
                   default=8)
    p.add_argument("--nmax", type=_positive_int, default=8,
                   help="logarithm coefficients checked per shape")
    p.set_defaults(fn=run_verify)

    p = sub.add_parser("dump", help="serialize an object as JSON")
    p.add_argument("object", choices=("motive", "tmodule", "point", "series"))
    _add_common(p, formats=("json",), default="json")
    p.add_argument("--model", choices=("at", "star"), default=None)
    p.add_argument("--star", action="store_true",
                   help="series only: star variant")
    p.set_defaults(fn=run_dump)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("output closed by the reader", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except RESOURCE_ERRORS as exc:
        print(str(exc) or type(exc).__name__, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
