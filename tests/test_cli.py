import argparse
import contextlib
import io
import json
import subprocess
import sys

import pytest

from biquadric import classifier, cli
from biquadric.bipoly import act
from conftest import FIXTURES, benchmark_workloads

CMD = [sys.executable, "-m", "biquadric.cli"]

# Two A3 points at the default cutoff.
TWO_A3 = "x0^2*y1^2 + x1^2*y2^2 + x0*x1*y0^2"


# Input nested deeper than the interpreter's recursion limit.
NESTED_PARENTHESES = "(" * 5000 + "x0^2*y0^2" + ")" * 5000
NESTED_MAP = '{"a":' * 20000
NESTED_ARRAY = "[" * 100000


def run_cli(*args, stdin=None):
    return subprocess.run(
        CMD + list(args), input=stdin, capture_output=True, text=True, timeout=120
    )


class TestClassify:
    def test_text_report(self):
        out = run_cli("classify", FIXTURES["cone_point"])
        assert out.returncode == 0
        assert out.stdout.splitlines()[0] == "class: Unstable"
        assert "certificate weight: -4,4;-10,5,5" in out.stdout

    def test_json_report(self):
        out = run_cli("classify", "--json", FIXTURES["two_ruled"])
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["class"] == "StrictlySemistable"
        assert doc["certificate"]["claimed_mu_sign"] == "Zero"
        assert doc["stratum"]["stratum"] == "Gamma2"
        assert doc["stratum"]["coordinate"] == ["1", "1"]

    def test_byte_identical_determinism(self):
        args = ("classify", "--json", "--trials", "5", "--seed", "7",
                FIXTURES["split_cylinder"])
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_coefficient_map_input_equivalent(self):
        text_out = run_cli("classify", "--json", FIXTURES["plane_factor"])
        doc = json.loads(text_out.stdout)
        map_out = run_cli("classify", "--json", json.dumps(doc["input"]))
        assert map_out.stdout == text_out.stdout


class TestCertificatePipeline:
    def test_round_trip_verifies(self):
        report = run_cli("classify", "--json", FIXTURES["cone_point"]).stdout
        out = run_cli("verify-cert", "--stdin", "--json", stdin=report)
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["verified"] is True and doc["mu"] == 2

    def test_section_point_over_another_field_verifies(self):
        # its A2 point and the contracted section it lies on come out over
        # two different presentations of Q(sqrt(2))
        form = ("(x1^2 - 2*x0*x1 - x0^2)*(y1^2 - 2*y0^2) + (x1^2 + 2*x0*x1 - x0^2)*y0*y2"
                " - (x0^2 + x1^2)*y1*y2")
        report = run_cli("classify", "--json", form).stdout
        doc = json.loads(report)
        assert doc["class"] == "StrictlySemistable"
        violated = [r["clause"] for r in doc["condition_report"] if r["violated"]]
        assert violated == ["NonA1OnContractedSection"]
        assert doc["certificate"]["weight"] == "-1,1;-2,0,2"
        assert run_cli("verify-cert", "--stdin", stdin=report).returncode == 0

    def test_tampered_certificate_rejected(self):
        report = json.loads(run_cli("classify", "--json", FIXTURES["cone_point"]).stdout)
        report["certificate"]["weight"] = "-1,1;-1,0,1"
        out = run_cli("verify-cert", "--stdin", stdin=json.dumps(report))
        assert out.returncode == 3

    def test_file_input(self, tmp_path):
        report = run_cli("classify", "--json", FIXTURES["two_ruled"]).stdout
        path = tmp_path / "report.json"
        path.write_text(report)
        out = run_cli("verify-cert", str(path))
        assert out.returncode == 0 and "verified: True" in out.stdout

    def test_trivial_weight_rejected(self):
        # mu is 0 for the trivial weight, so a Zero claim would hold for any f
        report = json.loads(run_cli("classify", "--json", FIXTURES["two_ruled"]).stdout)
        report["certificate"]["weight"] = "0,0;0,0,0"
        out = run_cli("verify-cert", "--stdin", stdin=json.dumps(report))
        assert out.returncode == 3 and "verified: False" in out.stdout

    def test_one_move_per_call(self, monkeypatch):
        # the printed mu and the verdict read one moved form
        report = run_cli("classify", "--json", FIXTURES["cone_point"]).stdout
        moves = []

        def counted_act(g, form):
            moves.append(g)
            return act(g, form)

        monkeypatch.setattr(cli, "act", counted_act)
        monkeypatch.setattr(classifier, "act", counted_act)
        monkeypatch.setattr(sys, "stdin", io.StringIO(report))
        code, out, _err = run_in_process("verify-cert", "--stdin", "--json")
        assert code == 0 and json.loads(out)["verified"] is True
        assert len(moves) == 1

    def test_stable_report_has_no_certificate(self):
        report = run_cli("classify", "--json", FIXTURES["stable_higher_sing"]).stdout
        out = run_cli("verify-cert", "--stdin", stdin=report)
        assert out.returncode == 3


class TestMuAndLimit:
    def test_mu_value(self):
        out = run_cli("mu", "--weight=-1,1;-1,0,1", "x1^2*y2^2")
        assert out.returncode == 0 and out.stdout.strip() == "4"

    def test_limit_poly(self):
        out = run_cli("limit", "--weight=0,0;-1,0,1", "--json",
                      FIXTURES["constant_tangent"])
        doc = json.loads(out.stdout)
        assert doc["kind"] == "BiPoly"
        assert doc["value"]

    def test_limit_does_not_exist(self):
        out = run_cli("limit", "--weight=-1,1;-1,0,1", "x0^2*y0^2")
        assert out.returncode == 0 and "DoesNotExist" in out.stdout


class TestOtherSubcommands:
    def test_msets(self):
        out = run_cli("msets", "--weight=0,0;-1,0,1", "--json")
        doc = json.loads(out.stdout)
        assert len(doc["m_oplus"]) == 12
        assert set(doc["m_plus"]) <= set(doc["m_oplus"])

    def test_factor(self):
        out = run_cli("factor", "--json", FIXTURES["split_cylinder"])
        doc = json.loads(out.stdout)
        assert sorted(tuple(e["bidegree"]) for e in doc["factors"]) == [
            [0, 2], [1, 0], [1, 0]
        ] or sorted(tuple(e["bidegree"]) for e in doc["factors"]) == [
            (0, 2), (1, 0), (1, 0)
        ]

    def test_fibres(self):
        out = run_cli("fibres", "--json",
                      "x0^2*y0^2 + x0*x1*y1^2 + x1^2*y2^2")
        doc = json.loads(out.stdout)
        assert any(c != "0" for c in doc["discriminant"])

    def test_singular_locus(self):
        out = run_cli("singular-locus", "--json", FIXTURES["singular_section"])
        doc = json.loads(out.stdout)
        assert doc["smooth"] is False
        assert any(c["kind"] == "HorizontalSection" for c in doc["curves"])

    def test_moving_vertex_curve(self):
        # det M(x) vanishes identically and the fibre vertex moves with x, so
        # the vertices sweep a curve of singular points
        out = run_cli("singular-locus", "--json", "--cutoff", "3",
                      "(x0*y0 + x1*y1)^2 - x0*x1*y2^2")
        assert out.returncode == 0
        assert json.loads(out.stdout)["curves"] == [{
            "kind": "PlaneCurveImage",
            "description": "image of the fibre-vertex section x -> ker M(x)",
        }]

    def test_lowest_cutoff_accepted(self):
        out = run_cli("singular-locus", "--cutoff=2", TWO_A3)
        assert out.returncode == 0
        assert out.stdout.startswith("smooth: False")

    def test_boundary(self):
        out = run_cli("boundary", FIXTURES["non_a1_double_fibre"])
        assert out.returncode == 0
        assert out.stdout.strip() == "Gamma3 at [1:1]"


class TestExitCodes:
    def test_parse_error(self):
        assert run_cli("classify", "x0^2*(y0").returncode == 2

    def test_bad_weight(self):
        assert run_cli("mu", "--weight=1,2,3", "x0^2*y0^2").returncode == 2

    def test_precondition_violation(self):
        # boundary requires a strictly semistable input
        assert run_cli("boundary", FIXTURES["stable_higher_sing"]).returncode == 3

    def test_zero_polynomial(self):
        # the zero polynomial has no bidegree, as text or as a map
        assert run_cli("classify", "{}").returncode == 2
        zeros = ("0*x0^2*y0^2", "x0^2*y0^2 - x0^2*y0^2", "{}", '{"2,0;2,0,0": "0"}')
        for command in (("classify",), ("fibres",), ("factor",), ("singular-locus",),
                        ("boundary",), ("mu", "--weight=-1,1;-1,0,1")):
            for text in zeros:
                code, out, err = run_in_process(*command, text)
                assert (code, out) == (2, ""), (command, text)
                assert err == "parse error: the zero polynomial has no bidegree\n"
        cert = {"frame": {"g2": [["1", "0"], ["0", "1"]], "g3": [["1", "0", "0"], ["0", "1", "0"],
                                                                ["0", "0", "1"]]},
                "weight": "-1,1;-1,0,1", "claimed_mu_sign": "Zero"}
        out = run_cli("verify-cert", "--stdin", stdin=json.dumps({"input": {}, "certificate": cert}))
        assert out.returncode == 2 and "zero polynomial" in out.stderr

    def test_map_coefficients_are_strings_or_integers(self, monkeypatch):
        # JSON true would read as 1 and 0.1 as the binary float nearest 1/10
        cert = {"frame": {"g2": [["1", "0"], ["0", "1"]], "g3": [["1", "0", "0"], ["0", "1", "0"],
                                                                ["0", "0", "1"]]},
                "weight": "-1,1;-1,0,1", "claimed_mu_sign": "Zero"}
        for value in ("true", "false", "0.1", "1.0", "1e400"):
            text = '{"2,0;2,0,0": %s}' % value
            for command in (("classify",), ("fibres",), ("factor",), ("singular-locus",),
                            ("boundary",), ("mu", "--weight=-1,1;-1,0,1")):
                code, out, err = run_in_process(*command, text)
                assert (code, out) == (2, ""), (command, text)
                assert err.startswith("parse error: malformed coefficient map"), err
        for data in ({"2,0;2,0,0": True}, {"2,0;2,0,0": 0.5}, {"2,0;2,0,0": "abc"}, {"2,0": "1"}):
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"input": data, "certificate": cert})))
            code, out, err = run_in_process("verify-cert", "--stdin")
            assert (code, out) == (2, ""), data
            assert err.startswith("parse error: malformed coefficient map"), err
        code, out, _ = run_in_process("classify", "--json", '{"2,0;2,0,0": "1/10", "0,2;0,0,2": 3}')
        assert code == 0
        assert json.loads(out)["input"] == {"0,2;0,0,2": "3", "2,0;2,0,0": "1/10"}

    def test_missing_subcommand(self):
        assert run_cli().returncode == 2

    def test_unary_minus_after_binary_operator(self):
        out = run_cli("classify", "x0^2*y0^2 + -1*x1^2*y1^2 - -x0*x1*y2^2")
        assert out.returncode == 0
        assert out.stdout.splitlines()[0] == "class: StrictlySemistable"

    def test_internal_error_exits_3(self, monkeypatch, capsys):
        from biquadric import cli

        def fail(_f):
            raise RuntimeError("unhandled factor bidegrees: [(0, 2), (2, 0)]")

        monkeypatch.setattr(cli, "classify", fail)
        assert cli.run(["classify", "--json", "x0^2*y0^2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("precondition violation: ")
        assert "unhandled factor bidegrees" in err

    @pytest.mark.parametrize("args, stdin, code, err", [
        (("verify-cert", "--stdin"), {"frame": {"g2": [["1", "0"], ["0", "1"]]},
                                      "weight": "-1,1;-1,0,1", "claimed_mu_sign": "Zero"}, 3, "'g3'"),
        (("verify-cert", "--stdin"), {"weight": "-1,1;-1,0,1", "claimed_mu_sign": "Zero"}, 3, "'frame'"),
        (("classify", '{"2,0;2,0,0": null}'), None, 2, "malformed coefficient map"),
        (("classify", '{"2,0;2,0,0": [1]}'), None, 2, "malformed coefficient map"),
        (("verify-cert", "{missing}"), None, 2, "cannot read"),
        (("classify", "1/0*x0^2*y0^2"), None, 2, "zero denominator"),
        (("classify", '{"2,0;2,0,0": "1/0"}'), None, 2, "malformed coefficient map"),
        (("classify", '{"2,0;2,0,0": 1e400}'), None, 2, "malformed coefficient map"),
        (("verify-cert", "--stdin"), {"frame": {"g2": [["1/0", "0"], ["0", "1"]],
                                                "g3": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
                                      "weight": "-1,1;-1,0,1", "claimed_mu_sign": "Zero"}, 3, "Fraction(1, 0)"),
        (("singular-locus", "--cutoff=1", TWO_A3), None, 2, "--cutoff must be at least 2"),
        (("singular-locus", "--cutoff=0", TWO_A3), None, 2, "--cutoff must be at least 2"),
        (("singular-locus", "--cutoff=-3", TWO_A3), None, 2, "--cutoff must be at least 2"),
        (("classify", "--trials", "-1", TWO_A3), None, 2, "--trials must be at least 0"),
        (("classify", "(x0+x1+y0+y1+y2)^20"), None, 2, "product of total degree 20"),
        (("mu", "--weight=-1,1;-1,0,1", "x0*y0"), None, 2, "does not match bidegree (2, 2)"),
        (("classify", "x0*y0"), None, 2, "does not match bidegree (2, 2)"),
        (("mu", "--weight=-1,1;-1,0,1", '{"2,0;2,0,0": "1e3000000"}'), None, 2,
         "exponent forms such as '1e3000000'"),
        (("verify-cert", "--stdin"), {"frame": {"g2": [["1e9", "0"], ["0", "1"]],
                                                "g3": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
                                      "weight": "-1,1;-1,0,1", "claimed_mu_sign": "Zero"}, 2, "exponent"),
        (("classify", "3^30000000*x0^2*y0^2"), None, 2,
         "the power at position 2 would have more than"),
        (("classify", "2^14000*2^14000*x0^2*y0^2"), None, 2, "a coefficient has more than"),
        (("mu", "--weight=-1,1;-1,0,1", "(2^14000*x0^2)*(2^14000*y0^2)"), None, 2,
         "a coefficient has more than"),
        (("classify", NESTED_PARENTHESES), None, 2, "parentheses nested too deeply at position"),
        (("classify", NESTED_MAP), None, 2, "JSON nested too deeply"),
        (("verify-cert", "--stdin"), NESTED_ARRAY, 2, "JSON nested too deeply"),
    ], ids=["cert-without-g3", "cert-without-frame", "null-coefficient",
            "list-coefficient", "missing-cert-file", "zero-denominator-text",
            "zero-denominator-map", "overflowing-coefficient", "cert-zero-denominator",
            "cutoff-1", "cutoff-0", "cutoff-negative", "trials-negative",
            "degree-above-four", "mu-bidegree-1-1", "classify-bidegree-1-1",
            "exponent-coefficient", "cert-exponent-entry", "power-beyond-digit-limit",
            "product-beyond-digit-limit", "mu-product-beyond-digit-limit",
            "nested-parentheses", "nested-map", "nested-certificate"])
    def test_malformed_input_keeps_exit_code(self, tmp_path, args, stdin, code, err):
        args = [a.replace("{missing}", str(tmp_path / "missing.json")) for a in args]
        if isinstance(stdin, dict):  # a certificate; a string is the raw stdin
            stdin = json.dumps({"input": {"2,0;2,0,0": "1"}, "certificate": stdin})
        out = run_cli(*args, stdin=stdin)
        assert out.returncode == code
        assert "Traceback" not in out.stderr
        assert err in out.stderr


def run_in_process(*args):
    """(exit code, stdout, stderr) of one in-process ``cli.run`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(args))
    return code, out.getvalue(), err.getvalue()


class TestNestedInput:
    """Nesting deeper than the parser or the JSON decoder can follow is a
    parse error, in-process too, where the stack is already deeper."""

    @pytest.mark.parametrize("depth", [300, 5000])
    def test_nested_parentheses(self, depth):
        code, out, err = run_in_process("classify", "(" * depth + "x0^2*y0^2" + ")" * depth)
        assert (code, out) == (2, ""), err
        assert err.startswith("parse error: parentheses nested too deeply at position "), err

    def test_nested_json(self, monkeypatch):
        code, out, err = run_in_process("classify", NESTED_MAP)
        assert (code, out) == (2, "") and err.startswith("parse error: JSON nested too deeply"), err
        monkeypatch.setattr(sys, "stdin", io.StringIO(NESTED_ARRAY))
        code, out, err = run_in_process("verify-cert", "--stdin")
        assert (code, out) == (2, "") and err.startswith("parse error: JSON nested too deeply"), err

    def test_moderate_nesting_parses(self):
        code, out, _ = run_in_process("classify", "(" * 100 + "x0^2*y0^2" + ")" * 100)
        assert code == 0 and out.startswith("class: Unstable")


class TestParserReuse:
    """The argument parser is built once per process and parsing leaves it
    as it was, so every call behaves as a call in a fresh process."""

    def test_built_once_for_fifty_calls(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        for k in range(50):
            assert run_in_process("mu", f"--weight=-1,1;-{k},0,{k}", "x1^2*y2^2")[0] == 0
        assert built.count("biquadric") == 1

    def test_argument_error_leaves_no_trace(self):
        bad = ("singular-locus", "--cutoff=x", TWO_A3)
        good = ("singular-locus", "--cutoff=3", TWO_A3)
        alone = []
        for args in (bad, good):
            cli._parser.cache_clear()
            alone.append(run_in_process(*args))
        cli._parser.cache_clear()
        assert [run_in_process(*bad), run_in_process(*good)] == alone
        assert alone[0][0] == 2 and "invalid int value" in alone[0][2]
        assert alone[1][0] == 0

    def test_help_exits_zero(self):
        for _ in range(2):
            code, out, _err = run_in_process("--help")
            assert code == 0 and out.startswith("usage: biquadric")


def _pool_single_terms():
    """The benchmark's sparse-pool forms that are one term with a negative
    coefficient, as texts: "-2*x1^2*y0*y2" and the like."""
    workloads = benchmark_workloads()
    texts = (workloads.format_poly(workloads.pool_form(i)) for i in range(workloads.SPARSE_POOL))
    return sorted({t for t in texts if t.startswith("-") and " " not in t})


class TestLeadingMinus:
    """-h is the only single-dash option, so any other argument that starts
    with a single - is read as an operand, as it is after "--"."""

    COMMANDS = [("classify",), ("classify", "--json"), ("singular-locus", "--cutoff=3"),
                ("fibres",), ("factor",), ("boundary",), ("mu", "--weight=-1,1;-1,0,1"),
                ("limit", "--weight", "-1,1;-1,0,1")]

    def test_single_term_pool_forms(self):
        texts = _pool_single_terms()
        assert len(texts) >= 8
        for text in texts:
            assert run_in_process("classify", text)[1].startswith("class: Unstable\n")
            for command in self.COMMANDS:
                got = run_in_process(*command, text)
                assert got == run_in_process(*command, "--", text), (command, text)
                assert got[0] in (0, 3) and "Traceback" not in got[2]

    @pytest.mark.parametrize("text", ["-x0^", "-x0^2*y0", "-{}", "-1/0*x0^2*y0^2",
                                      "-x0^2*y0^2*z", "-0*x0^2*y0^2", "-x0^2*y0^2 +"])
    def test_malformed_text_keeps_exit_code(self, text):
        for command in self.COMMANDS:
            got = run_in_process(*command, text)
            assert got == run_in_process(*command, "--", text)
            assert got[0] == 2 and got[2].startswith("parse error: ")

    def test_options_stay_options(self):
        code, out, _err = run_in_process("classify", "-h")
        assert code == 0 and out.startswith("usage: biquadric classify")
        assert run_in_process("classify", "--jsn", "x0^2*y0^2")[0] == 2
        assert run_in_process("classify", "--json", "-x0^2*y0^2", "--trials", "2") == \
            run_in_process("classify", "--json", "--trials", "2", "--", "-x0^2*y0^2")
