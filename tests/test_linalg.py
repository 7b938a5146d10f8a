"""Exact linear algebra: RREF, kernels, images, quotients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgreg.algebra import DGAlgebra, diff_columns
from dgreg.catalog import catalog_pairs, ground_field_algebra
from dgreg.fields import QQ, GF, FieldMismatchError
from dgreg.lincomb import to_vector
from dgreg.linalg import (
    ContainmentError, Echelon, Matrix, dense, kernel_mod_image, quotient_by, row_reduce, sparse,
)
from dgreg.module import DGModule, cohomology, left_restriction
from dgreg.resolution import _cone, semifree_resolve
from dgreg.windows import GradedWindow


def test_rref_proportional_rows():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    red = row_reduce(m)
    assert red.rank == 1
    assert red.pivot_cols == (0,)
    assert red.rref.rows[0] == (Fraction(1), Fraction(2))


# -- dense helpers, kept here only for the tests --------------------------------


def _zeros(field, nrows, ncols):
    return Matrix(field, nrows, ncols, tuple((field.zero(),) * ncols for _ in range(nrows)))


def _transpose(m):
    return Matrix(m.field, m.ncols, m.nrows, tuple(zip(*m.rows)))


def _apply(m, vec):
    F = m.field
    out = []
    for row in m.rows:
        acc = F.zero()
        for a, x in zip(row, vec):
            acc = F.add(acc, F.mul(a, x))
        out.append(acc)
    return tuple(out)


def _rows(m):
    """The rows of m as sparse vectors."""
    return [sparse(row) for row in m.rows]


def _kernel(m):
    """Echelon.kernel() of the rows of m, as dense vectors."""
    return [dense(m.field, v, m.ncols) for v in Echelon.spanned_by(m.field, m.ncols, _rows(m)).kernel()]


def _image(m):
    """The echelon of the columns of m, as dense vectors."""
    ech = Echelon.spanned_by(m.field, m.nrows, _rows(_transpose(m)))
    return [dense(m.field, r, m.nrows) for r in ech.rows]


def test_rref_identity():
    red = row_reduce(Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert red.rank == 3
    assert red.pivot_cols == (0, 1, 2)


def test_kernel_over_f2():
    m = Matrix.from_rows(GF(2), [[1, 1]])
    assert row_reduce(m).rank == 1
    assert Echelon.spanned_by(GF(2), 2, _rows(m)).kernel() == [{0: 1, 1: 1}]


def test_image_of_nilpotent():
    m = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    assert _image(m) == [(Fraction(1), Fraction(0))]


def test_kernel_of_zero_map_is_everything():
    assert _kernel(_zeros(QQ, 0, 2)) == [(1, 0), (0, 1)]


def test_quotient_dimension_count():
    span = [(Fraction(1), 0, 0), (0, Fraction(1), 0), (0, 0, Fraction(1))]
    sub = [(Fraction(1), Fraction(1), 0)]
    q = quotient_by(QQ, span, sub)
    assert q.dim == 2
    # projection of a sub vector is zero
    assert q.project({0: 1, 1: 1}) == {}


def test_quotient_containment_error():
    with pytest.raises(ContainmentError):
        quotient_by(QQ, [(Fraction(1), 0)], [(0, Fraction(1))])


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        GF(5).coerce(Fraction(1, 5))
    with pytest.raises(FieldMismatchError):
        QQ.coerce(0.5)
    with pytest.raises(FieldMismatchError):
        GF(5).coerce("1")


def _no_floats(xs):
    return not any(isinstance(x, float) for x in xs)


def test_quotient_of_int_vectors_stays_exact():
    reps = [dense(QQ, r, 2) for r in quotient_by(QQ, [(0, 2), (1, 1)], []).representatives]
    assert reps == [(0, 1), (1, 0)]
    assert all(_no_floats(v) for v in reps)
    assert QQ.inv(2) == Fraction(1, 2) and isinstance(QQ.inv(2), Fraction)


def test_zero_entries_in_dict_vectors_are_dropped():
    ech = Echelon(QQ, 1)
    assert not ech.add({0: Fraction(0)})
    assert len(ech) == 0 and not ech.reduce({0: Fraction(0)})
    q = kernel_mod_image(QQ, 2, [], [])
    assert q.project({0: Fraction(0), 1: Fraction(3)}) == {1: Fraction(3)}


def test_echelon_of_int_vector_stays_exact():
    ech = Echelon(QQ, 2)
    assert ech.add({0: 2, 1: 1})
    assert ech.rows == [{0: 1, 1: Fraction(1, 2)}]
    assert _no_floats(ech.rows[0].values())


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def matrices(draw, field):
    nrows = draw(st.integers(min_value=1, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=5))
    rows = [[draw(small_entries) for _ in range(ncols)] for _ in range(nrows)]
    return Matrix.from_rows(field, rows)


@settings(max_examples=60, deadline=None)
@given(matrices(QQ))
def test_rank_nullity_q(m):
    assert row_reduce(m).rank + len(_kernel(m)) == m.ncols


@settings(max_examples=60, deadline=None)
@given(matrices(GF(7)))
def test_rank_nullity_f7(m):
    assert row_reduce(m).rank + len(_kernel(m)) == m.ncols


@settings(max_examples=40, deadline=None)
@given(matrices(QQ))
def test_rref_idempotent(m):
    once = row_reduce(m).rref
    again = row_reduce(once).rref
    assert once.rows == again.rows


@settings(max_examples=40, deadline=None)
@given(matrices(GF(3)))
def test_kernel_vectors_are_killed(m):
    for v in _kernel(m):
        assert all(m.field.is_zero(x) for x in _apply(m, v))


# -- the sparse kernel against a dense reference --------------------------------
#
# Dense leftmost-pivot elimination, kept here only as a reference: the
# reduced echelon form is unique, so the sparse kernel must reproduce it
# value for value and type for type (compared through repr).


def _ref_row_reduce(m):
    F = m.field
    rows = [list(r) for r in m.rows]
    pivots, r = [], 0
    for c in range(m.ncols):
        sel = next((i for i in range(r, m.nrows) if not F.is_zero(rows[i][c])), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(m.nrows):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return [tuple(row) for row in rows], pivots


def _ref_kernel(m):
    F = m.field
    rref, pivots = _ref_row_reduce(m)
    basis = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        v = [F.zero()] * m.ncols
        v[fc] = F.one()
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(rref[r][fc])
        basis.append(tuple(v))
    return basis


def _ref_image(m):
    rref, pivots = _ref_row_reduce(_transpose(m))
    return rref[: len(pivots)]


class _RefEchelon:
    def __init__(self, field, dim):
        self.field, self.rows, self.pivots = field, [], []

    def reduce(self, vec):
        F, v = self.field, list(vec)
        for row, p in zip(self.rows, self.pivots):
            if not F.is_zero(v[p]):
                c = v[p]
                v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]
        return tuple(v)

    def add(self, vec):
        F = self.field
        v = self.reduce(vec)
        p = next((i for i, x in enumerate(v) if not F.is_zero(x)), None)
        if p is None:
            return False
        inv = F.inv(v[p])
        v = [F.mul(inv, x) for x in v]
        at = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, p)
        for i in range(len(self.rows)):
            if i != at and not F.is_zero(self.rows[i][p]):
                c = self.rows[i][p]
                self.rows[i] = [F.sub(x, F.mul(c, y)) for x, y in zip(self.rows[i], v)]
        return True


def _ref_quotient(field, span, sub):
    n = len(span[0]) if span else (len(sub[0]) if sub else 0)
    amb = _RefEchelon(field, n)
    for v in span:
        amb.add(v)
    for v in sub:
        if any(not field.is_zero(x) for x in amb.reduce(v)):
            raise ContainmentError("sub vector outside the ambient span")
    seen, reps = _RefEchelon(field, n), []
    for v in sub:
        seen.add(v)
    for v in span:
        residual = seen.reduce(v)
        p = next((i for i, x in enumerate(residual) if not field.is_zero(x)), None)
        if p is not None:
            inv = field.inv(residual[p])
            residual = tuple(field.mul(inv, x) for x in residual)
            reps.append(residual)
            seen.add(residual)
    return reps


@st.composite
def sparse_matrices(draw, field):
    """Up to 12 x 12, about one entry in ten nonzero."""
    nrows = draw(st.integers(min_value=1, max_value=12))
    ncols = draw(st.integers(min_value=1, max_value=12))
    rows = [[0] * ncols for _ in range(nrows)]
    cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1),
                      st.integers(-4, 4).filter(bool))
    for i, j, x in draw(st.lists(cells, max_size=max(1, nrows * ncols // 5))):
        rows[i][j] = x
    return Matrix.from_rows(field, rows)


FIELDS = [QQ, GF(2), GF(7)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_kernel_matches_dense_reference(field, data):
    m = data.draw(sparse_matrices(field))
    red = row_reduce(m)
    rref, pivots = _ref_row_reduce(m)
    assert repr(red.rref.rows) == repr(tuple(rref))
    assert red.pivot_cols == tuple(pivots)
    assert red.rank == len(pivots)
    assert repr(_kernel(m)) == repr(_ref_kernel(m))
    assert repr(_image(m)) == repr(_ref_image(m))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_quotient_matches_dense_reference(field, data):
    m = data.draw(sparse_matrices(field))
    span = list(m.rows)
    picks = data.draw(st.lists(st.tuples(st.integers(0, m.nrows - 1), st.integers(0, m.nrows - 1)),
                               max_size=4))
    sub = [tuple(field.add(x, y) for x, y in zip(span[i], span[j])) for i, j in picks]
    if data.draw(st.booleans()):
        # a vector that may leave the span: both sides must agree on that too
        sub.append(tuple(field.coerce(x) for x in data.draw(
            st.lists(st.integers(-1, 1), min_size=m.ncols, max_size=m.ncols))))
    try:
        want = _ref_quotient(field, span, sub)
    except ContainmentError:
        with pytest.raises(ContainmentError):
            quotient_by(field, span, sub)
        return
    q = quotient_by(field, span, sub)
    assert repr([dense(field, r, m.ncols) for r in q.representatives]) == repr(want)
    for v in sub:
        assert q.project(sparse(v)) == {}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quotient_project_recovers_coordinates(field, data):
    """project(sum c_i rep_i + boundary) is c; a vector off the kernel raises."""
    m = data.draw(sparse_matrices(field))
    kernel = Echelon.spanned_by(field, m.ncols, _rows(m)).kernel()
    scalars = st.integers(-3, 3).map(field.coerce)

    def draws(n):
        return [data.draw(scalars) for _ in range(n)]

    def combo(vectors, coeffs):
        """A combination of sparse vectors; cancelled entries stay as zeros."""
        out = {}
        for c, v in zip(coeffs, vectors):
            for i, x in v.items():
                out[i] = field.add(out.get(i, field.zero()), field.mul(c, x))
        return out

    image = [combo(kernel, draws(len(kernel))) for _ in range(data.draw(st.integers(0, 3)))]
    q = kernel_mod_image(field, m.ncols, _rows(m), image)
    coords = draws(q.dim)
    vec = combo(image + q.representatives, draws(len(image)) + coords)
    assert q.project(vec) == {i: c for i, c in enumerate(coords) if c}
    outside = [i for i in range(m.ncols) if any(row[i] for row in m.rows)]
    if outside:
        with pytest.raises(ContainmentError):
            q.project({outside[0]: field.one()})


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_echelon_matches_dense_reference(field, data):
    m = data.draw(sparse_matrices(field))
    ech, ref = Echelon(field, m.ncols), _RefEchelon(field, m.ncols)
    for row in m.rows:
        v = sparse(row)
        assert repr(dense(field, ech.reduce(v), m.ncols)) == repr(ref.reduce(row))
        assert ech.add(v) == ref.add(row)
        assert repr([dense(field, r, m.ncols) for r in ech.rows]) == repr([tuple(r) for r in ref.rows])
        assert ech.contains(v)


def _ref_cohomology(X):
    """dims and reps from dense diff matrices built with to_vector."""
    F = X.field
    window = X.window
    if isinstance(X, DGAlgebra):
        window = GradedWindow(min(0, window.lo), window.hi)

    def diff_matrix(d):
        src, tgt = X.basis_at(d), X.basis_at(d + 1)
        if not src or not tgt:
            return _zeros(F, len(tgt), len(src))
        cols = [to_vector(F, X.diff.get(b, {}), tgt) for b in src]
        return Matrix.from_rows(F, [[c[i] for c in cols] for i in range(len(tgt))])

    dims, reps = {}, {}
    for d in window.degrees():
        n = len(X.basis_at(d))
        if not n:
            continue
        d_out, d_in = diff_matrix(d), diff_matrix(d - 1)
        cocycles = _ref_kernel(d_out) if d_out.nrows else [
            tuple(F.one() if i == j else F.zero() for j in range(n)) for i in range(n)]
        boundaries = _ref_image(d_in) if d_in.ncols else []
        q = _ref_quotient(F, cocycles, boundaries)
        if q:
            dims[d], reps[d] = len(q), q
    return dims, reps


def _complexes(field):
    for A, M in catalog_pairs(field):
        yield A
        yield M
        M = left_restriction(M)
        cone, P = _cone(M, semifree_resolve(M, 3))
        if P is not None:
            yield P
            yield cone


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_cohomology_matches_dense_reference(field):
    differentials = 0
    for X in _complexes(field):
        h = cohomology(X)
        dims, reps = _ref_cohomology(X)
        assert h.dims == dims, X.name
        got = {d: [dense(field, r, X.dim(d)) for r in q.representatives]
               for d, q in h.quotients.items() if q.dim}
        assert repr(got) == repr(reps), X.name
        differentials += bool(X.diff)
    assert differentials  # the sweep reaches complexes with nonzero d


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cohomology_classes_project_to_their_coordinates(field):
    """Each representative of H^d projects to its own coordinate, and each
    coboundary column to zero."""
    for X in _complexes(field):
        h = cohomology(X)
        for d, q in h.quotients.items():
            for i, rep in enumerate(q.representatives):
                assert q.project(rep) == {i: 1}, (X.name, d)
            for col in diff_columns(X, d - 1):
                assert q.project(col) == {}, (X.name, d)


def test_cohomology_rejects_nonzero_d_squared():
    M = DGModule("bad", ground_field_algebra(QQ), "left", GradedWindow(0, 2),
                 {0: ("x",), 1: ("y",), 2: ("z",)}, {}, {},
                 {"x": {"y": Fraction(1)}, "y": {"z": Fraction(1)}})
    with pytest.raises(ContainmentError):
        _ref_cohomology(M)
    with pytest.raises(ContainmentError):
        cohomology(M)
