"""CLI: subcommands, exit codes, determinism of machine reports."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dgreg import cli
from dgreg.catalog import document_text
from dgreg.cli import main
from dgreg.fields import GF, QQ
from dgreg.windows import GradedWindow
from test_textformat import _documents, _literal

LAMBDA_DOC = document_text("square-zero")
POLY1_DOC = document_text("polynomial", d=1)
POLY2_DOC = document_text("polynomial", d=2)

BAD_DOC = """\
algebra Bad over Q window 0..4
basis 0: one
basis 1: x
basis 2: y
basis 3: z
unit one
mul one one = one
mul one x = x
mul x one = x
mul one y = y
mul y one = y
mul one z = z
mul z one = z
mul x x = y
mul x y = z
diff x = y
"""

ZERO_MOD_DOC = LAMBDA_DOC + """
module zero over Lambda side left window 0..4
"""


@pytest.fixture
def lam_file(tmp_path):
    p = tmp_path / "lambda.dg"
    p.write_text(LAMBDA_DOC)
    return str(p)


def test_validate_ok_and_exit_zero(lam_file, capsys):
    assert main(["validate", lam_file]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_validate_violation_exit_one(tmp_path, capsys):
    p = tmp_path / "bad.dg"
    p.write_text(BAD_DOC)
    assert main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert "leibniz" in out


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.dg")]) == 2
    p = tmp_path / "syntax.dg"
    p.write_text("algebra ???\n")
    assert main(["validate", str(p)]) == 2
    assert main(["not-a-command"]) == 2
    wide = tmp_path / "wide.dg"
    wide.write_text("algebra A over Q window 0..600\n")
    assert main(["validate", str(wide)]) == 2
    outside = tmp_path / "outside.dg"
    outside.write_text(
        "algebra A over Q window 0..4\nbasis 0: one\nbasis 1: t\nunit one\n"
        "mul one t = t\nmul t one = t\n"
        "module M over A side left window 0..2\nbasis 5: m\n"
    )
    assert main(["validate", str(outside)]) == 2
    assert "line 8" in capsys.readouterr().err
    p2 = tmp_path / "p2.dg"
    p2.write_text(POLY2_DOC)
    # a parameter label must be an algebra basis label
    assert main(["e2", str(p2), "--module", "free", "--params", "zz"]) == 2
    # a modulus that is not prime
    assert main(["check-regularity", "--p", "4"]) == 2
    assert main(["catalog", "--family", "polynomial", "--p", "4"]) == 2
    # a stage budget below 1 would read an empty ledger as complete
    assert main(["extreg", str(p2), "--module", "k", "--stages", "0"]) == 2
    assert main(["duality-check", str(p2), "--module", "k", "--stages", "-1"]) == 2
    assert main(["local-duality", str(p2), "--module", "k", "--stages", "-1"]) == 2
    assert main(["check-regularity", "--stages", "0"]) == 2
    # a module without a left action, and a window too narrow to certify H
    odd = tmp_path / "odd.dg"
    odd.write_text(POLY2_DOC + "\nmodule R over Poly2 side right window 0..4\nbasis 0: r\n"
                   "\nmodule W over Poly2 side left window 0..0\nbasis 0: w\n")
    needs_left = ["resolve", "extreg", "koszul", "cmreg", "gamma", "duality-check",
                  "local-duality", "check-regularity"]
    capsys.readouterr()
    for cmd in needs_left + ["e2"]:
        assert main([cmd, str(odd), "--module", "R"]) == 2, cmd
        assert capsys.readouterr().err == "error: R has no left structure\n"
    for cmd in needs_left:
        assert main([cmd, str(odd), "--module", "W"]) == 2, cmd
        assert capsys.readouterr().err == "error: window 0..0 cannot certify any cohomology\n"
    # a differential that does not square to zero: exit 1 stays for the
    # commands that validate first and report the violation
    bad = tmp_path / "bad.dg"
    bad.write_text(LAMBDA_DOC + "\nmodule B over Lambda side left window 0..4\n"
                   "basis 0: x\nbasis 1: y\nbasis 2: z\nact one x = x\nact one y = y\n"
                   "act one z = z\ndiff x = y\ndiff y = z\n")
    for cmd in needs_left + ["e2"]:
        assert main([cmd, str(bad), "--module", "B"]) == 2, cmd
        assert capsys.readouterr().err == "error: d^2 != 0: a coboundary lies outside the cocycles\n"
    for argv in (["cohomology", str(bad), "--module", "B"], ["validate", str(bad)]):
        assert main(argv) == 1, argv
        assert "d-squared" in capsys.readouterr().out
    # a lookup that finds nothing says what is missing, unquoted
    alg = tmp_path / "alg.dg"
    alg.write_text("algebra A over Q window 0..2\nbasis 0: one\nunit one\nmul one one = one\n")
    empty = tmp_path / "empty.dg"
    empty.write_text("")
    for argv, err in [
        (["resolve", str(alg)], "document holds no module"),
        (["resolve", str(alg), "--module", "nope"], "no module named 'nope'"),
        (["dualizing", str(empty)], "document holds no algebra"),
        (["cohomology", str(alg), "--algebra", "nope"], "no algebra named 'nope'"),
    ]:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {err}\n"
    # catalog algebras are connected: a window must start at degree 0
    assert main(["catalog", "--family", "square-zero", "--window=-3..4"]) == 2
    assert capsys.readouterr() == (
        "", "error: catalog algebras are connected: window starts at -3, not 0\n")


def test_a_coefficient_with_no_image_in_fp_exits_two(tmp_path, capsys):
    # 1/7 has no image in F_7: a usage error with its line and column, not a traceback
    doc = tmp_path / "f7.dg"
    doc.write_text("algebra A over F7 window 0..4\nbasis 0: one\nbasis 2: t\nunit one\n"
                   "mul one one = one\nmul one t = 1/7*t\nmul t one = t\n")
    assert main(["validate", str(doc)]) == 2
    assert capsys.readouterr().err == "error: line 6, column 13: bad coefficient '1/7'\n"
    p2 = tmp_path / "p2f7.dg"
    assert main(["catalog", "--family", "polynomial", "--param", "2", "--p", "7"]) == 0
    p2.write_text(capsys.readouterr().out)
    assert main(["e2", str(p2), "--module", "free", "--params", "1/7*t1"]) == 2
    assert capsys.readouterr().err == "error: bad parameter '1/7*t1': bad coefficient '1/7'\n"


def test_numbers_outside_the_grammar_exit_two(tmp_path, capsys):
    # a decimal, and a window in non-ASCII digits, are usage errors
    doc = tmp_path / "decimal.dg"
    doc.write_text("algebra A over Q window 0..4\nbasis 0: one\nbasis 2: t\nunit one\n"
                   "mul one one = one\nmul one t = 1.5*t\nmul t one = t\n")
    assert main(["validate", str(doc)]) == 2
    assert capsys.readouterr().err == "error: line 6, column 13: bad coefficient '1.5'\n"
    doc.write_text("algebra A over Q window 0..\u0662\nbasis 0: one\nunit one\n", encoding="utf-8")
    assert main(["validate", str(doc)]) == 2
    assert capsys.readouterr().err == "error: line 1, column 25: bad window '0..\u0662' (expected LO..HI)\n"
    p2 = tmp_path / "p2.dg"
    assert main(["catalog", "--family", "polynomial", "--param", "2"]) == 0
    p2.write_text(capsys.readouterr().out)
    assert main(["e2", str(p2), "--module", "free", "--params", "0.5*t1"]) == 2
    assert capsys.readouterr().err == "error: bad parameter '0.5*t1': bad coefficient '0.5'\n"


def test_integer_options_follow_the_document_grammar(lam_file, capsys):
    # an option's integers are the document's: -?[0-9]+ in ASCII, so no
    # underscore, sign, space or non-ASCII digit
    assert main(["catalog", "--family", "square-zero", "--window", "0..16"]) == 0
    capsys.readouterr()
    for window in ("0..1_6", "0..١٦", " 0 .. 16 ", "+0..16", "0..+16"):
        assert main(["catalog", "--family", "square-zero", "--window", window]) == 2, window
        assert capsys.readouterr() == ("", f"error: bad window {window!r}\n")
    for argv in (["catalog", "--family", "polynomial", "--param", "1_0"],
                 ["catalog", "--family", "polynomial", "--param", "+2"],
                 ["catalog", "--family", "polynomial", "--p", "٧"],
                 ["check-regularity", lam_file, "--module", "k", "--p", " 7"],
                 ["resolve", lam_file, "--module", "k", "--stages", "+2"],
                 ["resolve", lam_file, "--module", "k", "--stages", "٢"],
                 ["resolve", lam_file, "--module", "k", "--stages", "1_0"],
                 ["resolve", lam_file, "--module", "k", "--stages", "9" * 5000]):
        assert main(argv) == 2, argv
        assert f"invalid int value: {argv[-1]!r}" in capsys.readouterr().err


def test_a_modulus_of_zero_exits_two(tmp_path, capsys):
    # F_0 is no field: --p 0 and a document over F0 are refused as --p 4
    # is, not read as Q
    refused = "modulus 0 is not a prime below 2**31\n"
    for argv in (["catalog", "--family", "square-zero", "--p", "0"], ["check-regularity", "--p", "0"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", "error: " + refused)
    doc = tmp_path / "f0.dg"
    doc.write_text(LAMBDA_DOC.replace("over Q", "over F0", 1))
    assert main(["validate", str(doc)]) == 2
    assert capsys.readouterr() == ("", "error: line 1, column 21: " + refused)


def test_check_regularity_refuses_an_option_its_mode_does_not_read(lam_file, capsys):
    # a document names its own field, and the catalog sweep picks its own
    # modules: --p with a FILE and --module without one were ignored
    no_p = "error: --p applies to the catalog sweep only: a document names its own field\n"
    no_module = "error: --module needs a FILE: the catalog sweep picks its own modules\n"
    for p in ("4", "0", "7", "2"):
        assert main(["check-regularity", lam_file, "--module", "k", "--p", p]) == 2, p
        assert capsys.readouterr() == ("", no_p)
    for argv in (["--module", "nope"], ["--module", "k"], ["--module", "k", "--p", "7"]):
        assert main(["check-regularity"] + argv) == 2, argv
        assert capsys.readouterr() == ("", no_module)
    assert main(["check-regularity", lam_file, "--module", "k", "--stages", "2"]) == 0


def test_a_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    doc = tmp_path / "latin1.dg"
    doc.write_bytes(b"algebra A over Q window 0..2\nbasis 0: one\xff\nunit one\n")
    assert main(["validate", str(doc)]) == 2
    assert capsys.readouterr().err == f"error: {doc}: byte 41 is not UTF-8 text\n"


def test_resolve_square_zero_six_stages(lam_file, capsys):
    assert main(["resolve", lam_file, "--module", "k", "--stages", "6"]) == 0
    out = capsys.readouterr().out
    assert "6 generators" in out
    assert out.count("degree 0") == 6
    assert "minimal: True" in out


def test_extreg_exit_codes(tmp_path, capsys):
    lam = tmp_path / "l.dg"
    lam.write_text(ZERO_MOD_DOC)
    assert main(["extreg", str(lam), "--module", "zero"]) == 0
    out = capsys.readouterr().out
    assert "-inf" in out
    assert main(["extreg", str(lam), "--module", "k"]) == 0
    out = capsys.readouterr().out
    assert "= 0" in out


def test_koszul(lam_file, capsys):
    assert main(["koszul", lam_file, "--algebra", "Lambda"]) == 0
    assert "Koszul" in capsys.readouterr().out


def test_cmreg_and_gamma(tmp_path, capsys):
    p = tmp_path / "p2.dg"
    p.write_text(POLY2_DOC)
    assert main(["cmreg", str(p), "--module", "free"]) == 0
    assert "= -1" in capsys.readouterr().out
    assert main(["cmreg", str(p), "--module", "k", "--regime", "poly"]) == 0
    assert "= 0" in capsys.readouterr().out
    assert main(["gamma", str(p), "--module", "k"]) == 0
    assert "degree 0: 1" in capsys.readouterr().out


def test_cmreg_regime_mismatch_exits_three(lam_file):
    assert main(["cmreg", lam_file, "--module", "k", "--regime", "poly"]) == 3


def test_dualizing_poly1_shows_twist(tmp_path, capsys):
    p = tmp_path / "p1.dg"
    p.write_text(POLY1_DOC)
    assert main(["dualizing", str(p)]) == 0
    out = capsys.readouterr().out
    assert "actr e0 t1 = -1*e1" in out
    assert "act t1 e0 = e1" in out


def test_duality_checks(lam_file, capsys):
    assert main(["duality-check", lam_file, "--module", "k"]) == 0
    assert "holds" in capsys.readouterr().out
    assert main(["local-duality", lam_file, "--module", "k"]) == 0
    assert "holds" in capsys.readouterr().out


def test_parser_is_built_once_and_checks_are_looked_up_when_they_run(lam_file, monkeypatch, capsys):
    import dgreg.cli as cli

    assert main(["local-duality", lam_file, "--module", "k"]) == 0
    # a wrapper installed after the first call, as bench/tracer.py does,
    # sees the next one; the parser built on the first call is reused
    seen, real = [], cli.local_duality_check

    def spy(M, regime, **kw):
        seen.append(M.name)
        return real(M, regime, **kw)

    def no_rebuild():
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(cli, "local_duality_check", spy)
    monkeypatch.setattr(cli, "build_parser", no_rebuild)
    assert main(["local-duality", lam_file, "--module", "k"]) == 0
    assert main(["duality-check", lam_file, "--module", "k"]) == 0
    assert seen == ["k"]
    assert "local duality on k: holds" in capsys.readouterr().out


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # bench/tracer.py wraps these names only in a traced benchmark run, so
    # a renamed function would otherwise go unnoticed by the test suite
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("dgreg_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for name, modname, attr, *_ in tracer.TARGETS:
        module = importlib.import_module(modname)
        owner, _, leaf = attr.rpartition(".")
        namespace = vars(getattr(module, owner)) if owner else vars(module)
        assert callable(namespace.get(leaf)), (name, modname, attr)


def test_e2_page(tmp_path, capsys):
    p = tmp_path / "p2.dg"
    p.write_text(POLY2_DOC)
    assert main(["e2", str(p), "--module", "free", "--params", "t1"]) == 0
    out = capsys.readouterr().out
    assert "(l=1, s=-2): 1" in out
    assert "CMreg bound from page: -1" in out


def test_check_regularity_sweep(capsys):
    code = main(["check-regularity"])
    assert code in (0, 3)  # indeterminates allowed, violations are not
    out = capsys.readouterr().out
    assert "violated" not in out


def test_catalog_command(capsys):
    assert main(["catalog", "--family", "polynomial", "--param", "2"]) == 0
    out = capsys.readouterr().out
    assert "algebra Poly2 over Q window 0..16 truncated" in out
    assert main(["catalog", "--family", "square-zero", "--p", "7"]) == 0
    assert "over F7" in capsys.readouterr().out


def test_machine_report_determinism(tmp_path, lam_file):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["resolve", lam_file, "--module", "k", "--stages", "4", "--out", str(out1)]) == 0
    assert main(["resolve", lam_file, "--module", "k", "--stages", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["command"] == "resolve"
    assert payload["status"] == "ok"
    assert len(payload["resolution"]["generators"]) == 4


def test_machine_report_shapes(tmp_path, lam_file):
    out = tmp_path / "r.json"
    main(["cohomology", lam_file, "--algebra", "Lambda", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["cohomology"]["dims"] == {"0": 1, "1": 1}
    assert payload["cohomology"]["certified"] == {"lo": None, "hi": None}


def test_cohomology_of_invalid_presentation_exits_one(tmp_path, capsys):
    p = tmp_path / "bad.dg"
    p.write_text(BAD_DOC + "\nmodule k over Bad side left window 0..4\nbasis 0: k0\nact one k0 = k0\n")
    assert main(["cohomology", str(p), "--algebra", "Bad"]) == 1
    assert "not a valid presentation" in capsys.readouterr().out


# The CLI contract: for each call the argv (temp dir masked), exit code,
# stdout, stderr and --out bytes. Calls argparse itself rejects record
# only their exit code, because Python versions wrap the usage line
# differently.
PINNED_CLI_SHA256 = "57fdb46e492b8eb0573166b6ea46b526c654930231e098ba06e63686c4ad97d4"


def _pinned_cli_calls(tmp_path):
    from dgreg.fields import GF
    from dgreg.windows import GradedWindow

    odd = ("\nmodule R over Poly2 side right window 0..4\nbasis 0: r\n"
           "\nmodule W over Poly2 side left window 0..0\nbasis 0: w\n")
    small = GradedWindow(0, 6)
    docs = {
        "lam": LAMBDA_DOC,
        "lam7": document_text("square-zero", field=GF(7), window=small),
        "poly1": document_text("polynomial", d=1, window=small),
        "poly1_7": document_text("polynomial", field=GF(7), d=1, window=small),
        "poly2": document_text("polynomial", d=2, window=small) + odd,
        "ext3_7": document_text("exterior", field=GF(7), d=3, window=small),
        "bad": BAD_DOC,
    }
    paths = {}
    for name, text in docs.items():
        paths[name] = str(tmp_path / f"{name}.dg")
        (tmp_path / f"{name}.dg").write_text(text)
    calls = [["catalog", "--family", fam] + extra
             for fam in ("square-zero", "polynomial", "exterior", "ground-field")
             for extra in ([], ["--p", "7", "--param", "3", "--window", "0..9"])]
    calls += [["catalog", "--family", "exterior", "--param", "2"],
              ["catalog", "--family", "polynomial", "--window", "9..3"],
              ["catalog", "--family", "polynomial", "--window", "x"],
              ["catalog", "--family", "nope"],
              ["check-regularity", "--p", "7", "--stages", "2"],
              ["check-regularity", "--stages", "2"],
              ["check-regularity", "--p", "4"]]
    for name in ("lam", "lam7", "poly1", "poly1_7", "poly2", "ext3_7", "bad"):
        f = paths[name]
        calls += [["validate", f], ["validate", f, "--name", "k"], ["validate", f, "--name", "nope"],
                  ["dualizing", f], ["dualizing", f, "--algebra", "nope"],
                  ["dualizing", f, "--regime", "finite"], ["dualizing", f, "--regime", "poly"],
                  ["cohomology", f], ["koszul", f], ["koszul", f, "--algebra", "nope"],
                  ["e2", f], ["e2", f, "--module", "k", "--params", "t1"]]
        for mod in ("k", "free") + (("R", "W", "nope") if name == "poly2" else ()):
            m = ["--module", mod]
            calls += [["cohomology", f] + m, ["resolve", f, "--stages", "3"] + m,
                      ["extreg", f, "--stages", "3"] + m, ["koszul", f, "--stages", "3"] + m,
                      ["cmreg", f, "--stages", "3"] + m, ["gamma", f, "--stages", "3"] + m,
                      ["duality-check", f, "--stages", "3"] + m,
                      ["local-duality", f, "--stages", "3"] + m,
                      ["check-regularity", f, "--stages", "2"] + m,
                      ["e2", f, "--params", "t1,2*t1"] + m]
        calls += [["cohomology", f, "--algebra", alg] for alg in ("Lambda", "Poly1", "Poly2", "Bad")]
        calls += [["koszul", f, "--algebra", alg, "--stages", "3"] for alg in ("Lambda", "Poly2")]
        for regime in ("finite", "poly", "auto"):
            calls += [[cmd, f, "--module", "k", "--stages", "2", "--regime", regime]
                      for cmd in ("cmreg", "gamma", "duality-check", "local-duality")]
    p2 = paths["poly2"]
    calls += [["e2", p2, "--module", "free", "--params", p] for p in ("t1", "zz", "t1,", "1/0*t1", "")]
    calls += [["resolve", p2, "--module", "k"], ["extreg", p2, "--module", "k"]]
    calls += [[cmd, str(tmp_path / "missing.dg")] for cmd in
              ("validate", "cohomology", "resolve", "dualizing", "e2", "check-regularity")]
    calls += [[], ["nope"], ["resolve"], ["resolve", p2, "--stages", "0"],
              ["cmreg", p2, "--regime", "weird"], ["catalog"], ["catalog", "--family", "polynomial", "--param", "x"],
              ["validate", p2, "--module", "k"], ["e2", p2, "--stages", "2"]]
    return calls


def _pinned_cli_digest(tmp_path):
    import contextlib
    import hashlib
    import io

    from dgreg.cli import build_parser

    tmp = str(tmp_path)
    out = tmp_path / "report.json"
    parser = build_parser()
    digest = hashlib.sha256()
    for argv in _pinned_cli_calls(tmp_path):
        argv = argv + ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                parser.parse_args(argv)
                rejected = False
            except SystemExit:
                rejected = True
            stdout.seek(0), stdout.truncate(), stderr.seek(0), stderr.truncate()
            code = main(argv)
        record = {"argv": [a.replace(tmp, "TMP") for a in argv], "code": code}
        if not rejected:
            record["stdout"] = stdout.getvalue().replace(tmp, "TMP")
            record["stderr"] = stderr.getvalue().replace(tmp, "TMP")
            record["out"] = out.read_text(encoding="utf-8").replace(tmp, "TMP") if out.exists() else None
        if out.exists():
            out.unlink()
        digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


def test_cli_reports_are_pinned(tmp_path):
    assert _pinned_cli_digest(tmp_path) == PINNED_CLI_SHA256


# ---- every subcommand of the command table, fuzzed ----------------------------

def _in_field(p):
    """``a/b`` literals that all have an image in F_p (Q when p is 0)."""
    denominators = st.integers(1, 30).filter(lambda b: not p or b % p)
    return st.tuples(st.integers(-30, 30), denominators).map(lambda ab: f"{ab[0]}/{ab[1]}")


# small catalog documents, which every command can run on
CATALOG_DOCS = [
    document_text(family, field=field, d=d, window=GradedWindow(0, top))
    for family in ("square-zero", "polynomial", "exterior", "ground-field")
    for field in (QQ, GF(2), GF(7)) for d in (1, 2) for top in (2, 4)
    if family == "polynomial" or d == 1
]


STAGES = ["1", "2", "3", "0", "-1", "x", "1.5", "\u0662"]


def _maybe(draw, values):
    return draw(st.one_of(st.none(), st.sampled_from(values)))


def _fuzz_document(draw):
    """A document drawn by the parse fuzz strategy, with literals in and
    out of the grammar or only with literals the field has, or a small
    catalog document; and the modulus of its field (0 for Q)."""
    text = draw(st.one_of(_documents(), _documents(literal=_in_field), st.sampled_from(CATALOG_DOCS)))
    field = text.split()[3]
    return text, 0 if field == "Q" else int(field[1:])


def _argv(draw, argv, options):
    """argv, then each (flag, value) of ``options`` whose value is not
    None, and now and then a stray argument."""
    for flag, value in options:
        if value is not None:
            argv += [flag, value]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra-file", "--stages"])))
    return argv


@st.composite
def _invocations(draw, path, out):
    """argv for one row of the command table on a fuzz document: names
    that exist or not, stage budgets in and out of range, every regime
    choice and a bad one, --params built from the same literals, --out,
    and a stray argument."""
    row = draw(st.sampled_from(cli._commands()))
    text, p = _fuzz_document(draw)
    names = {kind: re.findall(rf"^{kind} (\S+)", text, re.M) + ["nope"] for kind in ("algebra", "module")}
    options = []
    if row.on != cli.ALGEBRA:
        options.append(("--module", _maybe(draw, names["module"])))
    if row.on != cli.MODULE:
        options.append(("--algebra", _maybe(draw, names["algebra"])))
    if row.stages:
        options.append(("--stages", _maybe(draw, STAGES)))
    if row.regime:
        options.append(("--regime", _maybe(draw, ["auto", "finite", "poly", "torsion"])))
    for flag, _ in row.extra:
        lit = draw(st.one_of(_literal(p), _in_field(p)))
        options.append((flag, _maybe(draw, [f"{lit}*t", "t", "t1", f"t1,{lit}*t1", "t,", ",", "m", "", f"t + {lit}*u"])))
    options.append(("--out", _maybe(draw, [out])))
    return text, _argv(draw, [row.name, path], options)


@st.composite
def _validate_and_sweep_invocations(draw, path, out):
    """argv for validate, with and without --name, or for check-regularity
    with and without a FILE and --module, a stage budget in and out of
    range and a --p that is prime, not prime or 0, on a fuzz document."""
    text, _ = _fuzz_document(draw)
    if draw(st.booleans()):
        names = re.findall(r"^(?:algebra|module|automorphism) (\S+)", text, re.M) + ["nope"]
        argv, options = ["validate", path], [("--name", _maybe(draw, names))]
    else:
        argv = ["check-regularity"] + ([path] if draw(st.booleans()) else [])
        options = [("--module", _maybe(draw, re.findall(r"^module (\S+)", text, re.M) + ["nope"])),
                   ("--stages", _maybe(draw, STAGES)), ("--p", _maybe(draw, ["2", "7", "4", "1", "0"]))]
    options.append(("--out", _maybe(draw, [out])))
    return text, _argv(draw, argv, options)


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-fuzz")
    return str(base / "doc.dg"), str(base / "report.json")


def _exits_with_a_documented_code(path, text, argv):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    err = stderr.getvalue()
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    # a rejection is exit 2 with one error line; nothing else prints one
    assert len(errors) == (1 if code == 2 else 0), (argv, err)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_row_exits_with_a_documented_code(fuzz_paths, data):
    path, out = fuzz_paths
    _exits_with_a_documented_code(path, *data.draw(_invocations(path, out)))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_validate_and_check_regularity_exit_with_a_documented_code(fuzz_paths, data):
    path, out = fuzz_paths
    _exits_with_a_documented_code(path, *data.draw(_validate_and_sweep_invocations(path, out)))


def test_a_file_that_cannot_be_read_or_written_exits_two(tmp_path):
    # every command row, validate, check-regularity and catalog: a directory
    # as input, or --out into a directory that does not exist, is a usage
    # error with one error line and no traceback
    doc = tmp_path / "lam.dg"
    doc.write_text(document_text("square-zero", window=GradedWindow(0, 4)))
    missing = str(tmp_path / "missing" / "report.json")
    runs = {"validate": [str(doc)], "check-regularity": [str(doc), "--module", "k", "--stages", "2"],
            "catalog": ["--family", "square-zero"]}
    for row in cli._commands():
        runs[row.name] = [str(doc)] + (["--module", "k"] if row.on != cli.ALGEBRA else []) + (
            ["--stages", "2"] if row.stages else [])
    calls = [([name] + args + ["--out", missing], f"error: cannot write {missing}: No such file or directory\n")
             for name, args in runs.items()]
    calls += [([name, str(tmp_path)], f"error: cannot read {tmp_path}: Is a directory\n")
              for name in runs if name != "catalog"]
    for argv, want in calls:
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        assert (code, stdout.getvalue(), stderr.getvalue()) == (2, "", want), argv
