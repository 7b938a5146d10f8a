"""CLI: subcommands, exit codes, determinism of machine reports."""

import json

import pytest

from dgreg.catalog import document_text
from dgreg.cli import main

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
