"""Command-line interface: verbs, report format, exit codes, round trips."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tmzv.cli
import tmzv.tmodule
import tmzv.vadic
import tmzv.zeta
from reference import emit as reference_emit
from tmzv.cli import REPORT_VERSION, main
from tmzv.motive import MotiveShape, special_point, star_shape, tmodule_of
from tmzv.scalars import APoly, FieldSpec, PrecisionLaurent, field
from tmzv.vadic import NuPlace, zeta_nu


def run(capsys, *args):
    try:
        rc = main(list(args))
    except SystemExit as e:  # argparse errors
        rc = e.code
    out = capsys.readouterr().out
    return rc, out


class TestMZVVerb:
    def test_text_output(self, capsys):
        rc, out = run(capsys, "mzv", "--q", "2", "--s", "1,2", "--prec", "20")
        assert rc == 0
        assert "valuation: 2" in out

    def test_json_output(self, capsys):
        rc, out = run(capsys, "mzv", "--q", "3", "--s", "2", "--prec", "15",
                      "--format", "json")
        assert rc == 0
        d = json.loads(out)
        assert d["s"] == [2] and d["value"]["N"] == 15


def help_text(parse, argv):
    """What parse(argv) prints for --help, with its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue()


class TestParser:
    @pytest.mark.parametrize("verb", ["mzv", "verify", "dump"])
    def test_verb_help_matches_full_parser(self, verb):
        # main builds only the named verb's options; its help is that verb's
        # subparser's in the parser of every verb
        full = tmzv.cli.build_parser()
        want = help_text(full.parse_args, [verb, "--help"])
        assert help_text(main, [verb, "--help"]) == want
        assert want[0] == 0 and "--format" in want[1]

    def test_top_help_lists_every_verb(self, capsys):
        rc, text = help_text(main, ["--help"])
        assert rc == 0
        for verb in ("mzv", "verify", "dump"):
            assert verb in text and tmzv.cli.VERBS[verb][0] in text
        assert run(capsys, "nosuch", "--q", "2")[0] == 2


class TestExitCodes:
    def test_unknown_suite_is_usage_error(self, capsys):
        rc, _ = run(capsys, "verify", "nosuch")
        assert rc == 2

    def test_bad_tuple_is_usage_error(self, capsys):
        rc, _ = run(capsys, "mzv", "--q", "2", "--s", "0,1")
        assert rc == 2

    def test_nonprimepower_field_is_usage_error(self, capsys):
        rc, _ = run(capsys, "mzv", "--q", "6", "--s", "1")
        assert rc == 2

    # once a TypeError traceback from zeta.mzv(fs, None, ...)
    def test_mzv_without_an_index_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mzv", "--q", "3"])
        assert exc.value.code == 2
        cap = capsys.readouterr()
        assert cap.out == "" and "Traceback" not in cap.err
        assert cap.err.splitlines()[-1].endswith(
            "the following arguments are required: --s")

    # --q 0 was once read as "not given": mzv and dump answered for F_2 and
    # verify carlitz ran its default fields
    @pytest.mark.parametrize("verb", [["mzv", "--s", "1"], ["verify", "carlitz"],
                                      ["dump", "point"]])
    @pytest.mark.parametrize("q", ["0", "1", "-3"])
    def test_field_size_below_two_is_usage_error(self, capsys, verb, q):
        assert main([*verb, "--q", q]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == "q must be a prime power >= 2\n"

    @pytest.mark.parametrize("verb", [["mzv", "--s", "1"], ["verify", "carlitz"]])
    @pytest.mark.parametrize("prec", ["-5", "0"])
    def test_nonpositive_prec_is_usage_error(self, capsys, verb, prec):
        with pytest.raises(SystemExit) as exc:
            main([*verb, "--q", "2", "--prec", prec])
        assert exc.value.code == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.splitlines()[-1].endswith(
            "--prec: expected a positive integer, got %r" % prec)

    # argparse drops a ValueError's text: these once printed "invalid
    # _parse_tuple value: '0'" and "invalid _parse_coeffs value: 'a'"
    @pytest.mark.parametrize("argv,message", [
        (["mzv", "--q", "2", "--s", "0"],
         "--s: index entries must be positive integers"),
        (["mzv", "--q", "2", "--s", "1,x"],
         "--s: expected a comma-separated integer tuple, got '1,x'"),
        (["verify", "vadic", "--nu", "a"],
         "--nu: expected comma-separated coefficients, got 'a'"),
        (["mzv", "--q", "4", "--s", "1", "--modulus", "1,,1"],
         "--modulus: expected comma-separated coefficients, got '1,,1'")])
    def test_tuple_option_errors_name_the_fault(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.splitlines()[-1].endswith(message)

    # each once exited 0 with an empty or vacuous report, or exit 2 labelled
    # as a resource error
    @pytest.mark.parametrize("suite,flag", [("oracle-log", "--nmax"),
                                            ("vadic", "--nu-prec"),
                                            ("trivialization", "--t-order")])
    @pytest.mark.parametrize("value", ["-3", "-1", "0", "two"])
    def test_nonpositive_verify_sizes_are_usage_errors(self, capsys, suite,
                                                       flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, flag, value])
        assert exc.value.code == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.splitlines()[-1].endswith(
            "%s: expected a positive integer, got %r" % (flag, value))

    # these suites take no index; --s was once echoed in config and ignored,
    # and the default checks ran and passed
    @pytest.mark.parametrize("suite", ["carlitz", "at90", "strange"])
    @pytest.mark.parametrize("s", ["5", "3,1"])
    def test_index_on_an_index_free_suite_is_usage_error(self, capsys, suite,
                                                         s):
        assert main(["verify", suite, "--s", s, "--format", "json"]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == ("--s: verify %s reads only --q, --modulus, --prec\n"
                           % suite)

    # a coefficient outside [0, q) is no field element; reducing it mod q
    # ran a different place (nu = theta for --q 4 --nu 4,1)
    @pytest.mark.parametrize("q,nu", [("4", "4,1"), ("2", "3,1"), ("3", "-1,1")])
    def test_nu_coefficient_outside_the_field_is_usage_error(self, capsys, q,
                                                             nu):
        assert main(["verify", "vadic", "--q", q, "--nu=" + nu, "--s", "1"]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == ("--nu: coefficients must be field codes in [0, %s), "
                           "got %s\n" % (q, nu))

    def test_nu_at_an_extension_field_answers(self, capsys):
        rc, out = run(capsys, "verify", "vadic", "--q", "4", "--nu", "3,1",
                      "--s", "1", "--format", "json")
        assert rc == 0
        d = json.loads(out)
        assert d["config"]["nu"] == [3, 1]
        assert d["reports"][0]["nu"] == [3, 1]

    def test_default_vadic_reports_run_the_series(self, capsys):
        # the default place must not kill the special points outright: at
        # nu = theta^2 + theta + 1 over F_2 both read "terms": [0, 0]
        rc, out = run(capsys, "verify", "vadic", "--format", "json")
        assert rc == 0
        reports = json.loads(out)["reports"]
        assert len(reports) == 2
        assert all(r["nu"] == [1, 1] and r["terms"][0] > 0 for r in reports)

    def test_default_vadic_reports_compare_nonzero_values(self, capsys):
        # at nu = theta + 1 over F_2, s = (1) and (1, 3) are both O(nu^8),
        # so a suite of them would compare zero with zero
        rc, out = run(capsys, "verify", "vadic", "--format", "json")
        assert rc == 0
        for r in json.loads(out)["reports"]:
            assert any(r["value"]["digits"]), r["name"]

    @pytest.mark.parametrize("error", [
        tmzv.cli.PrecisionError("shells did not certify precision 20"),
        MemoryError(), RecursionError("maximum recursion depth exceeded")])
    @pytest.mark.parametrize("verb,target", [
        (["mzv", "--s", "1"], (tmzv.zeta, "mzv")),
        (["dump", "series", "--s", "1"], (tmzv.cli, "dump_object"))])
    def test_resource_errors_exit_2_with_one_line(self, capsys, monkeypatch,
                                                  verb, target, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(*target, fail)
        assert main([*verb, "--q", "2"]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == (str(error) or type(error).__name__) + "\n"


# the options each verify suite reads (README, "CLI"), independent of the
# table in cli.py
READS = {
    "carlitz": {"q", "modulus", "prec"},
    "at90": {"q", "modulus", "prec"},
    "star": {"q", "modulus", "s", "prec"},
    "cpy": {"q", "modulus", "s", "prec"},
    "cm": {"q", "modulus", "s", "prec"},
    "strange": {"q", "modulus", "prec"},
    "trivialization": {"q", "modulus", "s", "model", "t_order", "prec"},
    "vadic": {"q", "modulus", "s", "nu", "nu_prec"},
    "periods": {"q", "modulus", "s", "prec"},
    "oracle-log": {"q", "modulus", "s", "model", "nmax", "prec"},
}

# each option with a value no suite has as its default, and that value as
# config reports it
GIVEN = {
    "q": (["--q", "3"], 3),
    "modulus": (["--q", "9", "--modulus", "2,2,1"], [2, 2, 1]),
    "s": (["--s", "2,1"], [2, 1]),
    "model": (["--model", "at"], "at"),
    "prec": (["--prec", "17"], 17),
    "t_order": (["--t-order", "5"], 5),
    "nu": (["--nu", "1,1,1"], [1, 1, 1]),
    "nu_prec": (["--nu-prec", "3"], 3),
    "nmax": (["--nmax", "3"], 3),
}

CHECKS = [(tmzv.zeta, name) for name in (
    "carlitz_check", "depth_one_check", "stark_unit_check", "cm_check",
    "strange_formula_check", "trivialization_check", "inversion_check")] + [
    (tmzv.tmodule, "period_check"), (tmzv.tmodule, "depth_one_period_check"),
    (tmzv.tmodule, "log_oracle_check"), (tmzv.vadic, "zeta_nu_check")]


def _describe(x):
    """A call argument as plain data: fields, shapes and places by what
    defines them."""
    if isinstance(x, FieldSpec):
        return ("field", x.q, x.modulus)
    if isinstance(x, MotiveShape):
        return ("shape", _describe(x.fs), x.s, x.model)
    if isinstance(x, NuPlace):
        return ("place", _describe(x.nu.fs), x.nu.coeffs)
    return x


@pytest.fixture
def stub_checks(monkeypatch):
    """Replace every check a suite runs by one that records its call and
    passes; the list of calls is returned."""
    calls = []
    for module, name in CHECKS:
        def record(*args, name=name, **kwargs):
            calls.append((name, tuple(map(_describe, args)),
                          tuple(sorted(kwargs.items()))))
            return {"pass": True}
        monkeypatch.setattr(module, name, record)
    return calls


def run_stubbed(capsys, calls, *argv):
    """(exit code, stdout, stderr, the set of check calls) of one run."""
    calls.clear()
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    cap = capsys.readouterr()
    return rc, cap.out, cap.err, set(calls)


class TestOptionTable:
    # every (suite, option) pair: an option the suite reads changes the
    # checks it calls and is reported in config with the given value; any
    # other option exits 2 with one line naming the options the suite reads
    @pytest.mark.parametrize("suite", sorted(READS))
    def test_every_option_is_read_or_rejected(self, capsys, stub_checks,
                                              suite):
        rc, out, _, default_calls = run_stubbed(
            capsys, stub_checks, "verify", suite, "--format", "json")
        assert rc == 0 and default_calls
        assert set(json.loads(out)["config"]) == READS[suite]
        for option, (argv, value) in GIVEN.items():
            rc, out, err, calls = run_stubbed(
                capsys, stub_checks, "verify", suite, *argv, "--format",
                "json")
            if option in READS[suite]:
                assert rc == 0, (suite, option, err)
                config = json.loads(out)["config"]
                assert config[option] == value, (suite, option)
                assert calls and calls != default_calls, (suite, option)
            else:
                assert (rc, out) == (2, ""), (suite, option)
                flag = "--" + option.replace("_", "-")
                head, _, listed = err.partition(" reads only ")
                assert head == "%s: verify %s" % (flag, suite)
                assert listed.endswith("\n") and listed.count("\n") == 1
                assert set(listed.strip().split(", ")) == {
                    "--" + o.replace("_", "-") for o in READS[suite]}

    @pytest.mark.parametrize("suite", ["trivialization", "oracle-log"])
    @pytest.mark.parametrize("argv,case", [
        (["--q", "3"], "star q=3 s=3,1"), (["--s", "2,1"], "star q=2 s=2,1"),
        (["--model", "at"], "at q=2 s=3,1")])
    def test_one_case_option_makes_one_run(self, capsys, stub_checks, suite,
                                           argv, case):
        # --model alone once ran the mixed default cases
        rc, out, _, _ = run_stubbed(capsys, stub_checks, "verify", suite,
                                    *argv, "--format", "json")
        assert rc == 0
        names = sorted(r["name"] for r in json.loads(out)["reports"])
        heads = (["inversion", "trivialization"] if suite == "trivialization"
                 else ["oracle-log"])
        assert names == ["%s %s" % (h, case) for h in heads]

    def test_default_runs_report_one_entry_each(self, capsys, stub_checks):
        rc, out, _, _ = run_stubbed(capsys, stub_checks, "verify",
                                    "trivialization", "--format", "json")
        assert rc == 0
        assert json.loads(out)["config"] == {
            "q": [3, 2], "modulus": [[0, 1], [0, 1]], "s": [[2, 4], [3, 1]],
            "model": ["at", "star"], "t_order": 20, "prec": [30, 40]}

    # carlitz and strange once applied the modulus to every default field,
    # and oracle-log and trivialization ignored it
    @pytest.mark.parametrize("argv", [
        ["verify", suite] for suite in sorted(READS)] + [
        ["mzv", "--s", "1"], ["dump", "point"], ["dump", "series"]])
    def test_modulus_without_q_is_usage_error(self, capsys, argv):
        assert main([*argv, "--modulus", "1,1,1"]) == 2
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err == "--modulus needs --q\n"

    @pytest.mark.parametrize("obj,argv", [
        (obj, argv) for obj in ("motive", "tmodule", "point")
        for argv in (["--star"], ["--prec", "3"])] + [
        ("series", ["--model", "at"])])
    def test_dump_option_the_object_does_not_read(self, capsys, obj, argv):
        assert main(["dump", obj, *argv]) == 2
        cap = capsys.readouterr()
        reads = ("--q, --modulus, --s, --star, --prec" if obj == "series"
                 else "--q, --modulus, --s, --model")
        assert cap.out == ""
        assert cap.err == "%s: dump %s reads only %s\n" % (argv[0], obj, reads)


class TestVerify:
    def test_carlitz_report(self, capsys):
        rc, out = run(capsys, "verify", "carlitz", "--prec", "25",
                      "--format", "json")
        assert rc == 0
        d = json.loads(out)
        assert d["report_v"] == REPORT_VERSION
        assert d["pass"] and d["suite"] == "carlitz"
        assert all("identity" in r and "elapsed_s" in r for r in d["reports"])

    def test_report_deterministic_modulo_timing(self, capsys):
        outs = []
        for _ in range(2):
            _, out = run(capsys, "verify", "carlitz", "--prec", "20",
                         "--format", "json")
            d = json.loads(out)
            for r in d["reports"]:
                r.pop("elapsed_s")
            outs.append(json.dumps(d, sort_keys=True))
        assert outs[0] == outs[1]


def without_timing(x):
    """A report with every field named *_s (a time in seconds) dropped."""
    if isinstance(x, dict):
        return {k: without_timing(v) for k, v in x.items() if not k.endswith("_s")}
    if isinstance(x, list):
        return [without_timing(v) for v in x]
    return x


with open(os.path.join(os.path.dirname(__file__), "data",
                       "golden_reports.json")) as _f:
    GOLDEN = json.load(_f)


class TestGoldenReports:
    # the deformed-row suites at their defaults, against stored reports with
    # the timing fields dropped; a change that moves any residual, pass flag
    # or count must regenerate tests/data/verify_<suite>.json and say so
    @pytest.mark.parametrize("suite", ["trivialization", "star", "carlitz"])
    def test_report_matches_stored(self, capsys, suite):
        rc, out = run(capsys, "verify", suite, "--format", "json")
        assert rc == 0
        path = os.path.join(os.path.dirname(__file__), "data",
                            "verify_%s.json" % suite)
        with open(path) as f:
            want = json.load(f)
        assert without_timing(json.loads(out)) == want

    # the suites and dumps on the motive-to-logarithm path, and the nu-adic
    # series diagnostics, stored from the separate Stark, nu-adic and
    # motive-entry builders that the shared ones replaced
    @pytest.mark.parametrize("case", sorted(GOLDEN["cli"]))
    def test_cli_output_matches_stored(self, capsys, case):
        want = GOLDEN["cli"][case]
        rc, out = run(capsys, *want["args"])
        assert rc == 0
        assert without_timing(json.loads(out)) == want["output"]

    @pytest.mark.parametrize("case", sorted(GOLDEN["zeta_nu"]))
    def test_zeta_nu_matches_stored(self, case):
        want = GOLDEN["zeta_nu"][case]
        fs = tmzv.cli._field_for_q(want["q"])
        value, diag = zeta_nu(fs, want["s"], NuPlace(APoly(fs, tuple(want["nu"]))),
                              K=want.get("K", 8))
        assert diag == want["diagnostics"]
        assert value.to_dict() == want["value"]


class TestExtensionFields:
    # stored outputs of the table-based arithmetic the present one replaced
    @pytest.mark.parametrize("q", [4, 8, 9, 25])
    @pytest.mark.parametrize("star", [False, True], ids=["strict", "star"])
    def test_mzv_matches_stored(self, capsys, q, star):
        args = ["mzv", "--q", str(q), "--s", "1,2", "--prec", "200",
                "--format", "json"] + (["--star"] if star else [])
        rc, out = run(capsys, *args)
        assert rc == 0
        path = os.path.join(os.path.dirname(__file__), "data",
                            "mzv_extension_fields.json")
        with open(path) as f:
            want = json.load(f)["q=%d s=1,2%s" % (q, " star" if star else "")]
        assert without_timing(json.loads(out)) == want

    @pytest.mark.parametrize("q", [9, 25])
    def test_series_dump_round_trip(self, capsys, q):
        rc, out = run(capsys, "dump", "series", "--q", str(q), "--s", "1,2",
                      "--prec", "60", "--format", "json")
        assert rc == 0
        d = json.loads(out)
        value = PrecisionLaurent.from_dict(d["value"])
        assert value == tmzv.zeta.mzv(value.fs, (1, 2), prec=60).value
        assert dict(value.to_dict(), type="laurent") == d["value"]


class TestLargeFields:
    # deg l_2 = q + q^2 > 5000, so to precision 5000 zeta(1) is
    # 1 + sum over monics of degree 1 = 1 - 1/(theta^q - theta)
    #   = 1 - sum_{j >= 0} theta^(-q - j(q - 1))
    @pytest.mark.parametrize("q,pm", [(4093, (4093,)), (4096, (2, 12))])
    def test_mzv_at_the_largest_fields(self, capsys, q, pm):
        start = time.perf_counter()
        rc, out = run(capsys, "mzv", "--q", str(q), "--s", "1", "--prec",
                      "5000", "--format", "json")
        assert time.perf_counter() - start < 5
        assert rc == 0
        fs = field(*pm)
        coeffs = [0] * 5000
        coeffs[0] = fs.one
        for n in range(q, 5000, q - 1):
            coeffs[n] = fs.neg(fs.one)
        want = PrecisionLaurent(fs, 0, coeffs, N=5000)
        assert json.loads(out)["value"] == want.to_dict()

    def test_field_above_the_limit_is_usage_error(self, capsys):
        rc = main(["mzv", "--q", "8192", "--s", "1"])
        assert rc == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.count("\n") == 1 and "4096" in cap.err

    @pytest.mark.parametrize("argv", [["mzv", "--s", "1"], ["verify", "carlitz"]])
    def test_large_prime_is_rejected_before_it_is_factored(self, capsys, argv):
        # 100000007 is prime: trial division up to it runs for many seconds
        start = time.perf_counter()
        rc = main(argv + ["--q", "100000007"])
        assert time.perf_counter() - start < 1
        assert rc == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.count("\n") == 1 and "4096" in cap.err


class TestDump:
    @pytest.mark.parametrize("obj,extra", [
        ("motive", ["--model", "at", "--q", "3", "--s", "2,4"]),
        ("tmodule", ["--model", "star", "--q", "2", "--s", "3,1"]),
        ("point", ["--model", "star", "--q", "2", "--s", "2,1,1"]),
    ])
    def test_round_trip(self, capsys, obj, extra):
        rc, out = run(capsys, "dump", obj, "--format", "json", *extra)
        assert rc == 0
        rc2, out2 = run(capsys, "dump", obj, "--format", "json", *extra)
        assert out == out2

    def test_json_is_the_only_format(self, capsys):
        rc, out = run(capsys, "dump", "point", "--format", "text")
        assert rc == 2 and out == ""
        # the README example, with and without --format json
        example = ["dump", "point", "--model", "star", "--q", "2", "--s", "3,1"]
        rc, out = run(capsys, *example)
        rc_json, out_json = run(capsys, *example, "--format", "json")
        assert rc == rc_json == 0 and out == out_json
        assert json.loads(out)["object"] == "point"

    def test_star_point_is_negated_unit_vector(self, capsys):
        rc, out = run(capsys, "dump", "point", "--model", "star", "--q", "2",
                      "--s", "3,1", "--format", "json")
        d = json.loads(out)
        fs = field(2)
        v = special_point(star_shape(fs, (3, 1)))
        neg = [-x for x in v]
        assert len(d["negated_point"]) == len(neg) == 5
        assert neg[-1].num.coeffs == (1,)


class TestClosedOutput:
    def test_reader_closed_before_output_exits_2_without_traceback(self):
        src = str(pathlib.Path(tmzv.cli.__file__).resolve().parents[1])
        read, write = os.pipe()
        os.close(read)  # the reader is gone before anything is written
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "tmzv.cli", "verify", "carlitz",
                 "--format", "json"],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=src))
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    # with stderr on the same closed pipe, the message about the closed
    # output failed in turn, and the run exited 1, "a check failed"
    def test_stderr_on_the_closed_pipe_too_exits_2(self):
        src = str(pathlib.Path(tmzv.cli.__file__).resolve().parents[1])
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "tmzv.cli", "verify", "carlitz",
                 "--format", "json"],
                stdout=write, stderr=write, timeout=120,
                env=dict(os.environ, PYTHONPATH=src))
        finally:
            os.close(write)
        assert proc.returncode == 2


class TestHashSeed:
    # bytes hashes are salted per process (PYTHONHASHSEED) and tuples of
    # ints are not: no answer may depend on an order that a series' hash sets
    @pytest.mark.parametrize("argv", [
        ["mzv", "--q", "3", "--s", "1,2", "--prec", "200", "--format", "json"],
        ["verify", "vadic", "--format", "json"]])
    def test_answers_do_not_depend_on_the_hash_seed(self, argv):
        src = str(pathlib.Path(tmzv.cli.__file__).resolve().parents[1])
        outs = [subprocess.run(
            [sys.executable, "-m", "tmzv.cli", *argv], capture_output=True,
            text=True, timeout=120, check=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
            for seed in ("0", "1")]
        first, second = (without_timing(json.loads(out)) for out in outs)
        assert first == second


class TestEmitter:
    # json's encoder with the leaf rule writes the same bytes as the Python
    # walk of tests/reference.py, on one payload fed to both
    @staticmethod
    def assert_emits_as_reference(capsys, monkeypatch, *args):
        payloads = []
        emit = tmzv.cli._emit

        def spy(payload, fmt):
            payloads.append((payload, fmt))
            emit(payload, fmt)

        monkeypatch.setattr(tmzv.cli, "_emit", spy)
        assert main(list(args)) == 0
        got = capsys.readouterr().out
        [(payload, fmt)] = payloads
        reference_emit(payload, fmt)
        assert got == capsys.readouterr().out

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    @pytest.mark.parametrize("star", [False, True], ids=["strict", "star"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_mzv(self, capsys, monkeypatch, q, star, fmt):
        self.assert_emits_as_reference(
            capsys, monkeypatch, "mzv", "--q", str(q), "--s", "1,2",
            "--prec", "300", "--format", fmt, *(["--star"] if star else []))

    @pytest.mark.parametrize("obj", ["motive", "tmodule", "point", "series"])
    def test_dump(self, capsys, monkeypatch, obj):
        # each object with the options it reads
        self.assert_emits_as_reference(
            capsys, monkeypatch, "dump", obj, "--q", "4", "--s", "2,1",
            *(["--prec", "40"] if obj == "series" else ["--model", "at"]))

    @pytest.mark.parametrize("case", sorted(GOLDEN["cli"]))
    def test_golden_cases(self, capsys, monkeypatch, case):
        self.assert_emits_as_reference(capsys, monkeypatch,
                                       *GOLDEN["cli"][case]["args"])

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_every_leaf_rule(self, capsys, fmt):
        fs = field(3, 2)
        payload = {"b": (Fraction(3, 4), Fraction(-6, 3), None, True, 1.5),
                   "a": {"poly": APoly(fs, (1, 7)),
                         "series": PrecisionLaurent(fs, 2, [5, 0, 8], N=6)},
                   "s": "θ·η"}
        tmzv.cli._emit(payload, fmt)
        got = capsys.readouterr().out
        reference_emit(payload, fmt)
        assert got == capsys.readouterr().out


INDICES = ["1", "2", "4", "1,2", "3,1", "2,1,1", "", "0", "-1", "1,,2", "a",
           "1,0", "2.5", ",1"]


@st.composite
def argvs(draw):
    """mzv or dump argv, each option present or absent, some malformed."""
    verb = draw(st.sampled_from(["mzv", "dump"]))
    argv = [verb]
    if verb == "dump":
        argv.append(draw(st.sampled_from(["motive", "tmodule", "point",
                                          "series"])))
    options = [("--q", st.sampled_from(["-1", "0", "1", "2", "3", "4", "6",
                                        "9"])),
               ("--s", st.sampled_from(INDICES)),
               ("--prec", st.integers(-1, 30).map(str)),
               ("--format", st.sampled_from(["json", "text"]))]
    if verb == "dump":
        options.append(("--model", st.sampled_from(["at", "star"])))
    for flag, values in options:
        if draw(st.booleans()):
            argv.append(flag + "=" + draw(values))
    if draw(st.booleans()):
        argv.append("--star")
    return argv


def _ints(lo, hi):
    return [str(n) for n in range(lo, hi + 1)]


# the values of each verify option, well-formed ones first (hypothesis
# draws early entries more often), all small
VERIFY_VALUES = {
    "q": _ints(2, 5) + ["-1", "0", "1", "6"],
    "modulus": ["1,1,1", "0", "a"],
    "s": ["1", "2", "4", "1,2", "3,1", "2,1,1", "", "0", "1,,2", "a", ",1"],
    "model": ["at", "star", "a"],
    "nu": ["0,1", "1,1", "2,1", "1,0,1", "1,1,1", "2,0,1", "", "a", "1",
           "-1,1"],
    "prec": _ints(1, 10) + ["-1", "0", "a"],
    "t_order": _ints(1, 10) + ["-1", "0", "a"],
    "nmax": _ints(1, 3) + ["-1", "0", "a"],
    "nu_prec": _ints(1, 3) + ["-1", "0", "a"],
}
# options whose defaults are larger than the values drawn above
SIZES = ("prec", "t_order", "nmax", "nu_prec")


@st.composite
def verify_argvs(draw):
    """verify argv: a suite of cli.SUITES with the options it reads.  Each
    size option the suite reads is given, any other but --modulus half the
    time; one time in ten, --modulus or an option the suite does not read
    is added."""
    suite = draw(st.sampled_from(sorted(tmzv.cli.SUITES)))
    reads = tmzv.cli.SUITES[suite][0]

    def option(name):
        return "--%s=%s" % (name.replace("_", "-"),
                            draw(st.sampled_from(VERIFY_VALUES[name])))

    argv = ["verify", suite] + [
        option(name) for name in VERIFY_VALUES
        if name in reads and name != "modulus"
        and (name in SIZES or draw(st.booleans()))]
    rare = [name for name in VERIFY_VALUES
            if name == "modulus" or name not in reads]
    if draw(st.sampled_from([False] * 9 + [True])):
        argv.append(option(draw(st.sampled_from(rare))))
    if draw(st.booleans()):
        argv.append("--format=" + draw(st.sampled_from(["json", "text"])))
    return argv


def run_quiet(argv):
    """main's exit code on argv and what it wrote to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse errors
            rc = exc.code
    return rc, err.getvalue()


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None)
    @example(["mzv", "--q=3"])
    @given(argvs())
    def test_no_traceback(self, argv):
        rc, err = run_quiet(argv)
        assert rc in (0, 2), argv
        assert "Traceback" not in err

    @settings(max_examples=100, deadline=None)
    @example(["verify", "vadic", "--q=5", "--s=2,1,1", "--nu-prec=2"])
    @given(verify_argvs())
    def test_verify_no_traceback(self, argv):
        # an answer (0), a failed check (1) or a usage error (2), in
        # bounded time
        t0 = time.monotonic()
        rc, err = run_quiet(argv)
        assert time.monotonic() - t0 < 5, argv
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in err
