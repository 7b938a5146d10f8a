"""Text format: grammar, errors, round-trips."""

import sys
from fractions import Fraction
from functools import partial
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgreg import algebra, textformat
from dgreg.algebra import AlgebraAutomorphism, DGAlgebra
from dgreg.catalog import (
    ALGEBRA_FAMILIES,
    build_algebra,
    document_text,
    polynomial_algebra,
    square_zero_algebra,
)
from dgreg.cli import main
from dgreg.fields import GF, QQ
from dgreg.module import DGModule, canonical_k, free_module
from dgreg.textformat import (
    Document,
    ParseError,
    emit_algebra,
    emit_automorphism,
    emit_document,
    emit_module,
    parse_combination,
    parse_document,
)
from dgreg.windows import GradedWindow

LAMBDA_DOC = """\
# the square-zero algebra on one degree-1 generator
algebra Lambda over Q window 0..16
basis 0: one
basis 1: t
unit one
mul one one = one
mul one t = t
mul t one = t
"""


def test_parse_square_zero_document():
    doc = parse_document(LAMBDA_DOC)
    A = doc.algebra("Lambda")
    assert A.dim(0) == 1 and A.dim(1) == 1
    assert A.product("t", "t") == {}
    from dgreg.algebra import validate_algebra

    assert validate_algebra(A).ok


def test_degree_mismatch_is_an_error():
    bad = LAMBDA_DOC + "diff one = t\n"  # d(one) should land in degree 1: fine
    parse_document(bad)  # |t| = |one| + 1, accepted
    worse = LAMBDA_DOC.replace("mul t one = t", "mul t one = one")
    with pytest.raises(ParseError) as err:
        parse_document(worse)
    assert "degree mismatch" in str(err.value)


def test_diff_degree_mismatch():
    doc = """\
algebra A over Q window 0..4
basis 0: one
basis 1: x
basis 3: y
unit one
mul one one = one
mul one x = x
mul x one = x
mul one y = y
mul y one = y
diff x = y
"""
    with pytest.raises(ParseError) as err:
        parse_document(doc)
    assert "degree mismatch" in str(err.value)


def test_unrecordable_product_is_an_error():
    doc = """\
algebra A over Q window 0..1
basis 0: one
basis 1: x
unit one
mul one one = one
mul x x = 0
"""
    with pytest.raises(ParseError) as err:
        parse_document(doc)
    assert "above window top" in str(err.value)


def test_duplicate_label_error():
    doc = """\
algebra A over Q window 0..2
basis 0: one
basis 1: one
unit one
"""
    with pytest.raises(ParseError) as err:
        parse_document(doc)
    assert "duplicate label" in str(err.value)


def test_syntax_error_has_line_number():
    with pytest.raises(ParseError) as err:
        parse_document("algebra A over Q window 0..2\nbasis 0 one\n")
    assert err.value.line_no == 2


def test_combination_parsing():
    assert parse_combination("0", QQ) == {}
    assert parse_combination("x", QQ) == {"x": QQ.one()}
    got = parse_combination("3/2*x + -1*y", QQ)
    assert got == {"x": QQ.parse("3/2"), "y": QQ.parse("-1")}
    got2 = parse_combination("x - y", QQ)
    assert got2 == {"x": QQ.one(), "y": QQ.neg(QQ.one())}
    assert parse_combination("x + -1*x", QQ) == {}


def test_a_coefficient_with_no_image_in_fp_is_a_parse_error():
    # over F_p a literal whose denominator p divides has no image
    with pytest.raises(ParseError, match="bad coefficient '1/7'") as err:
        parse_combination("t + 1/7*t", GF(7), line_no=3)
    assert (err.value.line_no, err.value.column) == (3, 5)
    assert parse_combination("1/7*t", QQ) == {"t": Fraction(1, 7)}
    assert parse_combination("1/7*t", GF(5)) == {"t": 3}
    with pytest.raises(ParseError, match="bad coefficient '1/2'"):
        parse_combination("1/2*t", GF(2))


# numbers Python reads but the grammar does not: decimals, exponents,
# underscores and non-ASCII digits
OFF_GRAMMAR = ["1.5", "-0.5", "1.0", "1e1", "2E-3", "1_0", "\u0663", "1/\u0662", "\u0661\u0660"]


def _literal(p):
    """``a/b`` literals, with denominators p divides (0 over Q) among them,
    and numbers outside the grammar."""
    denominators = st.one_of(st.integers(1, 30), st.integers(0, 4).map(lambda k: k * p))
    fractions = st.tuples(st.integers(-30, 30), denominators).map(lambda ab: f"{ab[0]}/{ab[1]}")
    return st.one_of(fractions, st.sampled_from(OFF_GRAMMAR))


@st.composite
def _documents(draw, literal=_literal):
    field = draw(st.sampled_from(["Q", "F2", "F7"]))
    c = [draw(literal(0 if field == "Q" else int(field[1:]))) for _ in range(6)]
    return (
        f"algebra A over {field} window 0..4\nbasis 0: one\nbasis 2: t\nbasis 4: u\nunit one\n"
        f"mul one one = {c[0]}*one\nmul one t = {c[1]}*t\nmul t one = t\nmul t t = {c[2]}*u\n"
        "module M over A side left window 0..3\nbasis 0: m\nbasis 1: x\nbasis 2: n\n"
        f"act one m = {c[3]}*m + 0*m\nact t m = n - {c[4]}*n\ndiff m = {c[5]}*x\n"
    )


@settings(max_examples=200, deadline=None)
@given(_documents())
def test_parse_document_lets_only_parse_errors_escape(text):
    try:
        parse_document(text)
    except ParseError:
        pass


@pytest.mark.parametrize("number", OFF_GRAMMAR)
def test_numbers_outside_the_grammar_are_parse_errors(number):
    head = "algebra A over Q window 0..2\nbasis 0: one\nbasis 2: t\nunit one\n"
    unsigned = number.lstrip("-")  # a first term's sign is its own, not its literal's
    for text, line_no, column, message in [
        (head + f"mul one t = {number}*t\n", 5, 13 + len(number) - len(unsigned), f"bad coefficient {unsigned!r}"),
        (head + f"mul one t = t - {number}*t\n", 5, 17, f"bad coefficient {number!r}"),
        (f"algebra A over Q window 0..{number}\n", 1, 25, f"bad window '0..{number}'"),
        (f"algebra A over F{number} window 0..2\n", 1, 16, f"unknown field 'F{number}'"),
        (f"algebra A over Q window 0..2\nbasis {number}: t\n", 2, 1, "expected: basis DEG"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert (err.value.line_no, err.value.column) == (line_no, column), text
        assert err.value.message.startswith(message), text
    with pytest.raises(ValueError, match="bad scalar literal"):
        QQ.parse(number)


@pytest.mark.parametrize("p", [0, 1, 4])
def test_a_modulus_that_is_not_prime_is_a_parse_error(p):
    # F0 is refused, not read as Q
    with pytest.raises(ParseError) as err:
        parse_document(f"algebra A over F{p} window 0..2\nbasis 0: one\nunit one\n")
    assert (err.value.line_no, err.value.column) == (1, 16)
    assert err.value.message == f"modulus {p} is not a prime below 2**31"
    with pytest.raises(ValueError) as refused:
        GF(p)
    assert str(refused.value) == err.value.message


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int conversion")
def test_numbers_too_long_to_convert_are_parse_errors():
    big = "9" * (sys.get_int_max_str_digits() + 1)
    head = "algebra A over Q window 0..2\nbasis 0: one\nbasis 2: t\nunit one\n"
    for text, line_no, column in [
        (f"algebra A over Q window 0..{big}\n", 1, 25),
        (f"algebra A over Q window 0..2\nbasis {big}: t\n", 2, 7),
        (f"algebra A over F{big} window 0..2\n", 1, 16),
        (head + f"mul one t = {big}*t\n", 5, 13),
    ]:
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert (err.value.line_no, err.value.column) == (line_no, column)


@st.composite
def _terms(draw, p):
    """A combination's text over F_p (Q when p is 0), written with every
    sign, spacing and literal form the grammar allows and with labels that
    repeat and cancel, and the combination built from it term by term with
    Fraction and coerce."""
    field = GF(p) if p else QQ
    space = st.sampled_from(["", " ", "  ", "\t"])
    label = st.sampled_from(["x", "y", "t'", "c~|1"])
    terms = draw(st.lists(st.tuples(
        st.sampled_from([1, -1]), st.sampled_from(["", "+", "-"]),
        st.integers(0, 12), st.integers(1, 9).filter(lambda d: not p or d % p),
        st.sampled_from(["none", "int", "frac"]), label), min_size=1, max_size=6))
    if draw(st.booleans()):  # the first term again, with the opposite sign
        sign, *rest = terms[0]
        terms.append((-sign, *rest))
    parts, totals = [], {}
    for i, (sign, lit_sign, n, d, form, lbl) in enumerate(terms):
        if i or sign < 0 or draw(st.booleans()):
            parts.append(f"{draw(space)}{'-' if sign < 0 else '+'}{draw(space)}")
        if form == "none":
            value = Fraction(sign)
        else:
            lit = f"{lit_sign}{n}" + (f"/{d}" if form == "frac" else "")
            parts.append(f"{lit}{draw(space)}*{draw(space)}")
            value = sign * (-1 if lit_sign == "-" else 1) * Fraction(n, d if form == "frac" else 1)
        parts.append(f"{lbl}{draw(space)}")
        totals[lbl] = totals.get(lbl, Fraction(0)) + value
    expected = {lbl: field.coerce(q) for lbl, q in totals.items() if field.coerce(q)}
    return "".join(parts), expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, 2, 7]).flatmap(lambda p: st.tuples(st.just(p), _terms(p))))
def test_the_tokenizer_agrees_with_a_term_by_term_reference(case):
    p, (text, expected) = case
    got = parse_combination(text, GF(p) if p else QQ)
    assert got == expected, text
    # the same scalars, of the same types: ints, and a Fraction only where not integral
    assert {lbl: type(c) for lbl, c in got.items()} == {lbl: type(c) for lbl, c in expected.items()}


def _typed(table):
    return {key: {lbl: (type(c), c) for lbl, c in combo.items()} for key, combo in table.items()}


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_parsed_tables_are_what_the_constructor_makes_of_them(field):
    """The parser builds its objects without _clean, as its tables are
    canonical already: the constructor, which cleans, builds equal tables
    from them, and so do the catalog's own constructions."""
    for family, d in product(ALGEBRA_FAMILIES, (1, 3)):
        A0 = build_algebra(family, field=field, d=d)
        doc = parse_document(document_text(family, field=field, d=d))
        A = doc.algebra()
        B = DGAlgebra(name=A.name, field=A.field, window=A.window, basis=A.basis, unit=A.unit,
                      mul=A.mul, diff=A.diff, trust=A.trust)
        for table in ("mul", "diff"):
            assert _typed(getattr(A, table)) == _typed(getattr(B, table)) == _typed(getattr(A0, table))
        for name, M0 in (("k", canonical_k(A0, side="bi")), ("free", free_module(A0, side="bi"))):
            M = doc.module(name)
            N = DGModule(name=M.name, algebra=M.algebra, side=M.side, window=M.window, basis=M.basis,
                         lact=M.lact, ract=M.ract, diff=M.diff, trust=M.trust)
            for table in ("lact", "ract", "diff"):
                assert _typed(getattr(M, table)) == _typed(getattr(N, table)) == _typed(getattr(M0, table))


# zero lines, lines a later one overrides, terms that cancel and fractions
# that sum to integers; ZERO_EMITTED was recorded when the parser built its
# objects through the constructor's _clean
ZERO_DOC = """\
algebra P over {field} window 0..4
basis 0: one
basis 2: x
basis 4: y, z
unit one
mul one one = one
mul one x = x - x + x
mul x one = 8*x
mul one y = y
mul y one = y + 0*z
mul one z = 1/2*z + 1/2*z
mul z one = z
mul x x = y
mul x x = 0
mul x x = 3*y - 3*y + z - 1/2*y
diff one = 0
diff x = y - y

module M over P side bi window 0..3
basis 0: m
basis 2: n
act one m = m
act one n = n
act x m = 0
act x m = n - n
act x m = 2*n + -2*n + -1/3*n
actr m one = m
actr n one = n
actr m x = 0
diff m = 0

automorphism a of P
map x = x - x
map y = -y + y + y
"""

ZERO_EMITTED = """\
algebra P over {field} window 0..4
basis 0: one
basis 2: x
basis 4: y, z
unit one
mul one one = one
mul one x = x
mul one y = y
mul one z = z
mul x one = {x}
mul x x = {xx} + z
mul y one = y
mul z one = z

module M over P side bi window 0..3
basis 0: m
basis 2: n
act one m = m
act one n = n
act x m = {xm}*n
actr m one = m
actr n one = n

automorphism a of P
map x = 0
map y = y
"""


@pytest.mark.parametrize("field,x,xx,xm", [("Q", "8*x", "-1/2*y", "-1/3"), ("F7", "x", "3*y", "2")])
def test_zero_lines_and_cancelling_terms_emit_the_same_bytes(field, x, xx, xm):
    emitted = emit_document(parse_document(ZERO_DOC.format(field=field)))
    assert emitted == ZERO_EMITTED.format(field=field, x=x, xx=xx, xm=xm)


def test_polynomial_chain_document():
    doc = parse_document(document_text("polynomial", d=1, field=QQ))
    A = doc.algebra()
    assert A.product("t1", "t1") == {"t2": QQ.one()}
    assert not A.trust.is_everywhere  # truncated marker survives
    from dgreg.torsion import detect_regime

    assert detect_regime(A).kind == "polynomial"


def test_round_trip_catalog():
    for family, d in (("square-zero", 1), ("polynomial", 2), ("exterior", 3), ("ground-field", 1)):
        text = document_text(family, d=d)
        doc = parse_document(text)
        text2 = emit_document(doc)
        assert text == text2
        doc2 = parse_document(text2)
        for name, A in doc.algebras.items():
            B = doc2.algebras[name]
            assert (A.basis, A.unit, A.mul, A.diff, A.window, A.trust) == (
                B.basis, B.unit, B.mul, B.diff, B.window, B.trust
            )
        for name, M in doc.modules.items():
            N = doc2.modules[name]
            assert (M.basis, M.lact, M.ract, M.diff, M.window, M.trust, M.side) == (
                N.basis, N.lact, N.ract, N.diff, N.window, N.trust, N.side
            )


def test_round_trip_automorphism():
    text = document_text("polynomial", d=1) + """
automorphism alpha of Poly1
map t1 = -1*t1
map t2 = t2
"""
    doc = parse_document(text)
    alpha = doc.automorphisms["alpha"]
    from dgreg.algebra import validate_automorphism

    # unspecified labels default to the identity, so alpha(t1 t2) = t3
    # while alpha(t1) alpha(t2) = -t3
    assert validate_automorphism(alpha).ok is False
    text2 = emit_document(doc)
    doc2 = parse_document(text2)
    assert doc2.automorphisms["alpha"].images == alpha.images


LAMBDA_HEAD = """\
algebra Lambda over Q window 0..4
basis 0: one
basis 1: t
unit one
mul one one = one
mul one t = t
mul t one = t
"""

ROUND_TRIPS = {
    "right-only module": LAMBDA_HEAD + """
module R over Lambda side right window 0..3
basis 0: r0
basis 1: r1
actr r0 one = r0
actr r0 t = r1
actr r1 one = r1
""",
    "truncated above and below": LAMBDA_HEAD + """
module k over Lambda side bi window 0..2 truncated above below
basis 0: k0
act one k0 = k0
actr k0 one = k0
""",
    # images are not cleaned, so a zero image is still written out
    "zero automorphism image": LAMBDA_HEAD + """
automorphism z of Lambda
map one = one
map t = 0
""",
}


@pytest.mark.parametrize("name", ROUND_TRIPS)
def test_round_trip_beyond_the_catalog(name):
    assert emit_document(parse_document(ROUND_TRIPS[name])) == ROUND_TRIPS[name]


def _constructed_modules(field):
    """Modules the library builds from catalog objects, whose labels carry
    the marks its constructions add: ' for duals, ~ for cone shifts and
    | for Hom, tensor and realized cells."""
    from dgreg.catalog import build_module, catalog_algebras
    from dgreg.homtensor import hom_from_ledger, realize_ledger, tensor_module_ledger
    from dgreg.module import linear_dual, to_opposite
    from dgreg.resolution import semifree_resolve
    from dgreg.torsion import cech_carrier, detect_regime, dualizing_module
    from dgreg.windows import GradedWindow

    for A in catalog_algebras(field):
        k, free = canonical_k(A, side="bi"), free_module(A, side="bi")
        res = semifree_resolve(canonical_k(A, side="left"), 2)
        yield linear_dual(k)
        yield linear_dual(free)
        yield to_opposite(free)
        yield to_opposite(linear_dual(k))
        yield build_module(A, "cone-id", side="bi")
        yield realize_ledger(res, k.window)
        yield tensor_module_ledger(k, res, GradedWindow(-2, 4))
        yield hom_from_ledger(res, free, GradedWindow(-4, 4))
        regime = detect_regime(A)
        if regime.supported:
            yield dualizing_module(A, regime)
        if regime.kind == "polynomial":
            yield cech_carrier(A, regime)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_constructed_modules_round_trip(field):
    for M in _constructed_modules(field):
        text = emit_document(Document(algebras={M.algebra.name: M.algebra}, modules={M.name: M}))
        assert emit_document(parse_document(text)) == text, M.name


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_parsed_objects_keep_a_true_empty_degree_report(field):
    """Every algebra and module the parser builds keeps the empty degree
    report, and a fresh degree pass over its tables agrees: on the catalog
    documents and on the documents of the library's constructions.  No
    two table entries of a parsed document share a dict, although the
    parser reads each repeated right-hand side once."""
    texts = [document_text(family, field=field, d=d) for family, d in product(ALGEBRA_FAMILIES, (1, 3))]
    texts += [emit_document(Document(algebras={M.algebra.name: M.algebra}, modules={M.name: M}))
              for M in _constructed_modules(field)]
    for text in texts:
        doc = parse_document(text)
        objects = [*doc.algebras.values(), *doc.modules.values()]
        for X in objects:
            assert X._kept["degree"] == ()
            assert [v for t in X._graded_tables() for v in algebra._degree_violations(X, *t)] == []
        entries = [c for X in objects for name in X._tables for c in getattr(X, name).values()]
        entries += [c for alpha in doc.automorphisms.values() for c in alpha.images.values()]
        assert len({id(c) for c in entries}) == len(entries)


def test_each_object_parses_a_right_hand_side_once():
    """The k[T]_1 document on 0..48 has 3677 table lines and 50 distinct
    right-hand sides: 49 in the algebra, the same 49 in the free module
    and one in k, each parsed once by the object that meets it, and each
    checked against its target degree once by that object, not once per
    line."""
    text = document_text("polynomial", window=GradedWindow(0, 48))
    calls, checks = [], []
    check_labels = textformat._Builder.check_labels

    def counted(*args):
        calls.append(args[0])
        return parse_combination(*args)

    def counted_check(builder, *args):
        checks.append((builder.name, args[1]))
        return check_labels(builder, *args)

    with mock.patch.object(textformat, "parse_combination", counted), \
            mock.patch.object(textformat._Builder, "check_labels", counted_check):
        doc = parse_document(text)
    assert len(calls) == 49 + 49 + 1 and len(set(calls)) == 50
    assert len(checks) == len(set(checks)) == 49 + 49 + 1
    assert emit_document(doc) == text


REPEATED_RHS = """\
algebra A over Q window 0..2
basis 0: one
basis 1: t
unit one
mul one one = one
mul one t = t
mul t t = t
"""


@pytest.mark.parametrize("field", ["Q", "F2", "F7"])
def test_a_repeated_right_hand_side_is_checked_on_every_line(field):
    """` t` parses once, on line 6, where it is in degree 1; on line 7 the
    same text is in the wrong degree, and the error names that line and
    the column of its label."""
    with pytest.raises(ParseError) as err:
        parse_document(REPEATED_RHS.replace(" over Q ", f" over {field} "))
    assert (err.value.line_no, err.value.column) == (7, 11)
    assert "degree mismatch: 't' is not in degree 2" in err.value.message
    # a text that fails to parse is not kept, so its repeat fails where it stands
    bad = REPEATED_RHS.replace("mul one t = t\nmul t t = t", "mul one t = 1.5*t\nmul t one = 1.5*t")
    with pytest.raises(ParseError) as err:
        parse_document(bad)
    assert (err.value.line_no, err.value.column) == (6, 13)


# (the block the lines end, the lines: the last repeats an earlier line's
# right-hand side, accepted there, in another target degree; the error's
# column and message)
REPEATS_IN_ANOTHER_DEGREE = [
    ("left", "act x m = n\nact one m = m\nact x n = n", 11, "degree mismatch: 'n' is not in degree 2"),
    ("bi", "act x m = 3*n\nact x n = 3*n", 13, "degree mismatch: 'n' is not in degree 2"),
    ("right", "actr m x = n\nactr n x = n", 12, "degree mismatch: 'n' is not in degree 2"),
    ("bi", "actr m one = m\nactr n x = m", 12, "degree mismatch: 'm' is not in degree 2"),
    ("left", "diff m = n\ndiff n = n", 10, "degree mismatch: 'n' is not in degree 2"),
    ("algebra", "diff x = y\ndiff one = y", 12, "degree mismatch: 'y' is not in degree 1"),
    ("auto", "map x = x\nmap y = x", 9, "degree mismatch: 'x' is not in degree 2"),
    ("auto", "map y = -1*y\nmap one = -1*y", 14, "degree mismatch: 'y' is not in degree 0"),
]


@pytest.mark.parametrize("field", ["Q", "F2", "F7"])
@pytest.mark.parametrize("where,block,column,message", REPEATS_IN_ANOTHER_DEGREE,
                         ids=[block.split("\n")[-1] for _, block, *_ in REPEATS_IN_ANOTHER_DEGREE])
def test_a_text_accepted_in_one_degree_is_checked_again_in_another(field, where, block, column, message):
    """A right-hand side whose labels were accepted in one target degree
    is checked again on a later line whose target is another degree, and
    fails there with the line, column and message of the label check."""
    lines, probe_no = [], None
    for name, text in PIN_BLOCKS.items():
        lines += text.replace(" over Q ", f" over {field} ").split("\n")
        if name == where:
            lines += block.split("\n")
            probe_no = len(lines)
    with pytest.raises(ParseError) as err:
        parse_document("\n".join(lines) + "\n")
    assert (err.value.line_no, err.value.column, err.value.message) == (probe_no, column, message)


def _unwritable(field):
    """Objects whose tables hold an entry or a term that no line of the
    format can carry: for each, its own emitter as a call, a document
    holding it, and what the emitter's error must name (the object, the
    entry and the term)."""
    one, window = field.one(), GradedWindow(0, 1)
    units = {("one", "one"): {"one": one}, ("one", "t"): {"t": one}, ("t", "one"): {"t": one}}

    def algebra(products=None):
        return DGAlgebra(name="A", field=field, window=window, basis={0: ("one",), 1: ("t",)}, unit="one",
                         mul={**units, **(products or {})}, diff={})

    def module(lact=None, diff=None):
        A = algebra()
        M = DGModule(name="M", algebra=A, side="left", window=window, basis={0: ("m",), 1: ("n",)},
                     lact={("one", "m"): {"m": one}, ("one", "n"): {"n": one}, **(lact or {})},
                     ract={}, diff=diff or {})
        return partial(emit_module, M), Document(algebras={"A": A}, modules={"M": M})

    # act t m = m + 2*n would be written `act t m = 2*n`, and act t m = m as `act t m = `
    yield *module(lact={("t", "m"): {"m": one, "n": field.coerce(2)}}), ("module 'M'", "act t m", "'m'")
    yield *module(lact={("t", "m"): {"m": one}}), ("module 'M'", "act t m", "'m'")
    yield *module(diff={"n": {"m": one}}), ("module 'M'", "diff n", "'m'")
    yield *module(lact={("s", "m"): {"n": one}}), ("module 'M'", "act entry ('s', 'm')")
    A = algebra({("t", "t"): {"t": one}})  # t*t lands in degree 2, above the window
    yield partial(emit_algebra, A), Document(algebras={"A": A}), ("algebra 'A'", "mul entry ('t', 't')")
    # the automorphism t1 -> t1 + 3*t2 of k[T]_1 would be written `map t1 = t1`
    P = polynomial_algebra(1, field)
    alpha = AlgebraAutomorphism(P, {"t1": {"t1": one, "t2": field.coerce(3)}})
    yield (partial(emit_automorphism, "alpha", alpha), Document(algebras={P.name: P}, automorphisms={"alpha": alpha}),
           ("automorphism 'alpha'", "map t1", "'t2'"))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_the_emitter_refuses_an_entry_or_term_it_would_leave_out(field):
    """Every entry and term of an object is written, or the emitter raises
    a ValueError naming the object, the entry and the term: it never
    writes a different object, nor a line that does not parse."""
    for emit, doc, names in _unwritable(field):
        for call in (emit, partial(emit_document, doc)):
            with pytest.raises(ValueError) as err:
                call()
            assert all(word in str(err.value) for word in names), (str(err.value), names)


def test_map_image_labels_are_checked_like_table_targets():
    head = PIN_BLOCKS["algebra"] + "\n" + PIN_BLOCKS["auto"] + "\n"
    with pytest.raises(ParseError) as err:
        parse_document(head + "map x = q\n")
    assert "unknown algebra label 'q'" in err.value.message
    with pytest.raises(ParseError) as err:
        parse_document(head + "map x = y\n")
    assert "degree mismatch" in err.value.message


def test_module_round_trip_with_actions():
    Lam = square_zero_algebra()
    doc = Document(algebras={Lam.name: Lam},
                   modules={"k": canonical_k(Lam, side="bi", name="k")})
    text = emit_document(doc)
    doc2 = parse_document(text)
    k = doc2.modules["k"]
    assert k.side == "bi"
    assert k.lact == {("one", "k0"): {"k0": QQ.one()}}
    assert k.ract == {("k0", "one"): {"k0": QQ.one()}}


# -- every table-line keyword against every way its line can be wrong ---------

PIN_BLOCKS = {
    "algebra": "algebra A over Q window 0..2\nbasis 0: one\nbasis 1: x\nbasis 2: y\nunit one",
    "left": "module L over A side left window 0..2\nbasis 0: m\nbasis 1: n\nbasis 2: p",
    "right": "module R over A side right window 0..2\nbasis 0: m\nbasis 1: n\nbasis 2: p",
    "bi": "module B over A side bi window 0..2\nbasis 0: m\nbasis 1: n\nbasis 2: p",
    "auto": "automorphism f of A",
}

# (block the line ends, line, None if accepted else a substring of the error,
# the error's 1-based column in the line); "degree" and "window top" stand
# where the wording differs by keyword.  A rejected row whose substring is
# "" is checked by position only.
PIN_PROBES = [
    ("algebra", "mul x x = y", None, None),
    ("algebra", "mul x = y", "expected:", 1),
    ("left", "mul x x = y", "expected:", 1),
    ("auto", "mul x x = y", "expected:", 1),
    ("algebra", "mul q x = y", "unknown", 5),
    ("algebra", "mul q r = y", "unknown", 5),
    ("algebra", "mul x x = q", "unknown", 11),
    ("algebra", "mul x x = x", "degree mismatch", 11),
    ("algebra", "mul x y = 0", "above window top", 5),
    ("algebra", "mul y y = x", "above window top", 5),
    ("left", "mul x x = 2*", "bad label", 13),
    ("algebra", "diff x = y", None, None),
    ("left", "diff m = n", None, None),
    ("bi", "diff n = p", None, None),
    ("algebra", "diff y = 0", None, None),
    ("left", "diff p = 0", None, None),
    ("algebra", "diff x y = y", "expected:", 1),
    ("auto", "diff x = y", "expected:", 1),
    ("algebra", "diff q = y", "unknown", 6),
    ("left", "diff q = n", "unknown", 6),
    ("algebra", "diff x = q", "unknown", 10),
    ("left", "diff m = q", "unknown", 10),
    ("algebra", "diff x = x", "degree mismatch", 10),
    ("left", "diff m = m", "degree mismatch", 10),
    ("algebra", "diff y = x", "window top", 6),
    ("left", "diff p = m", "window top", 6),
    ("auto", "diff x = x y", "bad label", 10),
    ("left", "act x m = n", None, None),
    ("bi", "act x m = n", None, None),
    ("left", "act x = n", "expected:", 1),
    ("algebra", "act x x = y", "expected:", 1),
    ("auto", "act x m = n", "expected:", 1),
    ("left", "act q m = n", "unknown", 5),
    ("left", "act x q = n", "unknown", 7),
    ("left", "act q r = n", "unknown", 5),
    ("left", "act x m = q", "unknown", 11),
    ("left", "act x m = m", "degree mismatch", 11),
    ("left", "act y n = 0", "above window top", 5),
    ("right", "act x m = n", "module", 1),
    ("algebra", "act x m = 2*", "bad label", 13),
    ("right", "actr m x = n", None, None),
    ("bi", "actr m x = n", None, None),
    ("right", "actr m = n", "expected:", 1),
    ("algebra", "actr x x = y", "expected:", 1),
    ("auto", "actr m x = n", "expected:", 1),
    ("right", "actr m q = n", "unknown", 8),
    ("right", "actr q x = n", "unknown", 6),
    ("right", "actr q r = n", "unknown", 6),
    ("right", "actr m x = q", "unknown", 12),
    ("right", "actr m x = p", "degree mismatch", 12),
    ("right", "actr n y = 0", "above window top", 6),
    ("left", "actr m x = n", "module", 1),
    ("auto", "actr m x = 2*", "bad label", 14),
    ("auto", "map x = x", None, None),
    ("auto", "map x = 0", None, None),
    ("auto", "map x = 2*x", None, None),
    ("auto", "map x y = x", "expected:", 1),
    ("algebra", "map x = x", "expected:", 1),
    ("left", "map m = m", "expected:", 1),
    ("auto", "map q = x", "unknown", 5),
    ("auto", "map x = q", "", 9),
    ("auto", "map x = y", "degree", 9),
    ("left", "map x = 2*", "bad label", 11),
    ("algebra", "mul x x y", "unrecognized", 1),
    ("algebra", "basis 3: z", "basis degree 3 outside window 0..2", 7),
]


@pytest.mark.parametrize("where,line,condition,column", PIN_PROBES,
                         ids=[f"{w}: {ln}" for w, ln, *_ in PIN_PROBES])
def test_table_line_errors_are_pinned(where, line, condition, column):
    lines, probe_no = [], None
    for name, block in PIN_BLOCKS.items():
        lines += block.split("\n")
        if name == where:
            lines.append(line)
            probe_no = len(lines)
    text = "\n".join(lines) + "\n"
    if condition is None:
        parse_document(text)
        return
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert (err.value.line_no, err.value.column) == (probe_no, column)
    assert condition in err.value.message


# A Q document whose tables hold the literals 1/2, 2/4, 4/2, -6/3 and -1:
# over Q an integral literal parses to an int and a non-integral one to a
# Fraction, and neither the emitted text nor the validation report may see
# the difference.  RATIONAL_EMITTED and RATIONAL_VALIDATE were recorded
# when every scalar over Q was a Fraction.
RATIONAL_DOC = """\
algebra P over Q window 0..4
basis 0: one
basis 2: x
basis 4: y
unit one
mul one one = one
mul one x = x
mul x one = x
mul one y = y
mul y one = y
mul x x = 4/2*y

module M over P side left window 0..5
basis 0: a
basis 1: b
basis 2: xa
basis 3: xb
basis 4: ya
basis 5: yb
act one a = a
act one b = b
act one xa = xa
act one xb = xb
act one ya = ya
act one yb = yb
act x a = 1/2*xa
act x b = -1*xb
act x xa = 2/4*ya
act x xb = -6/3*yb
act y a = 1/8*ya
act y b = yb
diff a = -6/3*b
diff xa = 4*xb

automorphism flip of P
map one = one
map x = -1*x
map y = y
"""

RATIONAL_EMITTED = """\
algebra P over Q window 0..4
basis 0: one
basis 2: x
basis 4: y
unit one
mul one one = one
mul one x = x
mul one y = y
mul x one = x
mul x x = 2*y
mul y one = y

module M over P side left window 0..5
basis 0: a
basis 1: b
basis 2: xa
basis 3: xb
basis 4: ya
basis 5: yb
act one a = a
act one b = b
act one xa = xa
act one xb = xb
act one ya = ya
act one yb = yb
act x a = 1/2*xa
act x b = -1*xb
act x xa = 1/2*ya
act x xb = -2*yb
act y a = 1/8*ya
act y b = yb
diff a = -2*b
diff xa = 4*xb

automorphism flip of P
map one = one
map x = -1*x
map y = y
"""

RATIONAL_VALIDATE = """\
algebra P: valid
module M: 2 violation(s)
  leibniz-left at ('x', 'xa'): d(am) != d(a)m + (-1)^|a| a d(m)
  leibniz-left at ('y', 'a'): d(am) != d(a)m + (-1)^|a| a d(m)
automorphism flip: valid
"""


def test_non_integral_and_reducible_literals_round_trip(tmp_path, capsys):
    doc = parse_document(RATIONAL_DOC)
    assert emit_document(doc) == RATIONAL_EMITTED
    assert emit_document(parse_document(RATIONAL_EMITTED)) == RATIONAL_EMITTED
    M = doc.modules["M"]
    assert doc.algebras["P"].mul[("x", "x")] == {"y": 2}
    assert (M.lact[("x", "a")], M.lact[("x", "xa")]) == ({"xa": Fraction(1, 2)}, {"ya": Fraction(1, 2)})
    assert (M.lact[("x", "b")], M.diff["a"]) == ({"xb": -1}, {"b": -2})
    assert all(type(c) is (int if c.denominator == 1 else Fraction)
               for table in (M.lact, M.diff) for combo in table.values() for c in combo.values())
    path = tmp_path / "rational.dg"
    path.write_text(RATIONAL_DOC)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == RATIONAL_VALIDATE
