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
