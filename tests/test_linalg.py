"""Exact linear algebra: RREF, kernels, images, quotients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgreg.algebra import DGAlgebra, diff_columns
from dgreg.catalog import catalog_pairs, ground_field_algebra, polynomial_algebra
from dgreg.e2 import HModule, _koszul_stage
from dgreg.fields import QQ, GF, FieldMismatchError
from dgreg.lincomb import to_vector
from dgreg.linalg import (
    ContainmentError, Echelon, KernelEchelon, KernelModImage, Matrix, dense, kernel_mod_images,
    quotient_by, row_reduce, sparse,
)
from dgreg.module import DGModule, cohomology, free_module, left_restriction
from dgreg.resolution import semifree_resolve
from dgreg.windows import GradedWindow
from test_resolution import _cone


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


def _columns(m):
    """The columns of m as sparse vectors, one per column even when m has
    no rows."""
    return [sparse(row[j] for row in m.rows) for j in range(m.ncols)]


def _kernel_basis(field, columns) -> list:
    """The kernel basis a KernelEchelon learns from the sparse columns."""
    ker = KernelEchelon(field)
    for col in columns:
        ker.append(col)
    return ker.basis


def _kernel(m):
    """The kernel basis of m from its columns, as dense vectors."""
    return [dense(m.field, v, m.ncols) for v in _kernel_basis(m.field, _columns(m))]


def _image(m):
    """The echelon of the columns of m, as dense vectors."""
    ech = Echelon.spanned_by(m.field, _columns(m))
    return [dense(m.field, r, m.nrows) for r in ech.rows]


def test_rref_identity():
    red = row_reduce(Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert red.rank == 3
    assert red.pivot_cols == (0, 1, 2)


def test_kernel_over_f2():
    m = Matrix.from_rows(GF(2), [[1, 1]])
    assert row_reduce(m).rank == 1
    assert _kernel_basis(GF(2), _columns(m)) == [{0: 1, 1: 1}]


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
    ech = Echelon(QQ)
    assert not ech.add({0: Fraction(0)})
    assert len(ech) == 0 and not ech.reduce({0: Fraction(0)})
    q = kernel_mod_images(QQ, [0], lambda d: [{}, {}])[0].quotient()
    assert q.project({0: Fraction(0), 1: Fraction(3)}) == {1: Fraction(3)}


def test_echelon_of_int_vector_stays_exact():
    ech = Echelon(QQ)
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
# value for value.  The reference multiplies with plain field arithmetic,
# which over Q may leave an integral Fraction, so types are not compared
# with it; instead every scalar the sparse side gives must have its
# field's one representation (``_canonical``).


def _canonical(field, vectors) -> bool:
    """Every scalar of the vectors (dicts or tuples) is an int in 0..p-1
    over F_p; over Q an int (not a bool) when integral, else a Fraction."""
    def ok(x):
        if type(x) is int:
            return not field.p or 0 <= x < field.p
        return not field.p and type(x) is Fraction and x.denominator != 1
    return all(ok(x) for v in vectors for x in (v.values() if isinstance(v, dict) else v))


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
    assert red.rref.rows == tuple(rref) and _canonical(field, red.rref.rows)
    assert red.pivot_cols == tuple(pivots)
    assert red.rank == len(pivots)
    kernel, image = _kernel(m), _image(m)
    assert kernel == _ref_kernel(m) and _canonical(field, kernel)
    assert image == _ref_image(m) and _canonical(field, image)


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
    assert [dense(field, r, m.ncols) for r in q.representatives] == want
    assert _canonical(field, q.representatives)
    for v in sub:
        assert q.project(sparse(v)) == {}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quotient_project_recovers_coordinates(field, data):
    """project(sum c_i rep_i + boundary) is c; a vector off the kernel raises."""
    m = data.draw(sparse_matrices(field))
    kernel = [sparse(v) for v in _ref_kernel(m)]
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
    h = KernelModImage(field)
    for col in _columns(m):
        h.add_outgoing(col)
    for col in image:
        h.add_incoming(col)
    q = h.quotient()
    want = _ref_quotient(field, _ref_kernel(m), [dense(field, v, m.ncols) for v in image])
    assert [dense(field, r, m.ncols) for r in q.representatives] == want
    assert _canonical(field, q.representatives)
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
    ech, ref = Echelon(field), _RefEchelon(field, m.ncols)
    for row in m.rows:
        v = sparse(row)
        residual = ech.reduce(v)
        assert dense(field, residual, m.ncols) == ref.reduce(row) and _canonical(field, [residual])
        assert ech.add(v) == ref.add(row)
        assert [dense(field, r, m.ncols) for r in ech.rows] == [tuple(r) for r in ref.rows]
        assert _canonical(field, ech.rows)
        assert ech.contains(v)


def test_rational_inverse_is_an_int_when_integral():
    for a, inv in [(1, 1), (-1, -1), (Fraction(1, 3), 3), (Fraction(-1, 2), -2), (Fraction(1), 1)]:
        assert QQ.inv(a) == inv and type(QQ.inv(a)) is int
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_scalar_has_its_fields_one_representation(field, data):
    """What ``coerce``, ``parse``, ``inv``, ``sign``, ``one`` and ``zero``
    return, and every scalar of Echelon rows and residuals, KernelEchelon
    rows, combinations and kernel vectors, and KernelModImage quotient
    representatives and coordinates: over Q an int (not a bool) when
    integral, else a Fraction, never a float; over F_p an int in 0..p-1."""
    F = field
    literals = data.draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)),
                                  min_size=1, max_size=8))
    scalars = [F.one(), F.zero()] + [F.sign(n) for n in range(-2, 3)]
    for n, d in literals:
        scalars += [F.coerce(n), F.coerce(n % 2 == 1), F.parse(str(n))]
        q = Fraction(n, d)
        if F.p and q.denominator % F.p == 0:
            with pytest.raises(FieldMismatchError):
                F.parse(f"{n}/{d}")
            continue
        scalars += [F.coerce(q), F.parse(f"{n}/{d}"), F.parse(f" {2 * n}/{2 * d} ")]
    scalars += [F.inv(x) for x in scalars if x]
    assert _canonical(F, [scalars])

    # matrices whose entries are those scalars, fractions included
    pool = sorted({x for x in scalars if x}) or [F.one()]
    nrows, ncols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    cells = data.draw(st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1),
                                         st.sampled_from(pool)), max_size=nrows * ncols // 2 + 1))
    rows = [dict() for _ in range(nrows)]
    for i, j, x in cells:
        rows[i][j] = x
    ech = Echelon(F)
    for v in rows:
        assert _canonical(F, [ech.reduce(v)])
        ech.add(v)
    assert _canonical(F, ech.rows)
    columns = [{i: v[j] for i, v in enumerate(rows) if j in v} for j in range(ncols)]
    h = KernelModImage(F)
    for col in columns:
        h.add_outgoing(col)
    kernel = h.kernel.basis
    for col in [{}] + [dict(kernel[k]) for k in range(len(kernel)) if data.draw(st.booleans())]:
        h.add_incoming(col)
    q = h.quotient()
    assert _canonical(F, kernel)
    assert _canonical(F, list(h.kernel._ech._row_at.values()))
    assert _canonical(F, q.representatives) and _canonical(F, q.sub.rows)
    for rep, c in zip(q.representatives, pool):
        assert _canonical(F, [q.project({j: F.coerce(F.mul(x, c)) for j, x in rep.items()})])


def _exact(vectors):
    """Sparse vectors as sorted (index, value) lists, so that a comparison
    also sees the scalars' types."""
    return repr([sorted(v.items()) for v in vectors])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_growing_kernel_and_image_match_elimination_from_scratch(field, data):
    """A complex position grown in batches of appended columns, whose
    rows may grow too (old columns stay zero there), as in the resolver:
    after every batch the kernel basis, the image echelon and every
    quotient taken are those computed from scratch, and no quotient
    handed out earlier changes."""
    h = KernelModImage(field)
    outgoing, incoming, nrows, taken = [], [], 0, []
    entry = st.integers(-4, 4).map(field.coerce)

    def combo(vectors):
        """A combination of the vectors, its scalars coerced: a product
        of Fractions may be an integral Fraction, and the image echelon
        keeps its input's scalars."""
        out = {}
        for v in vectors:
            c = data.draw(entry)
            for i, x in v.items():
                out[i] = field.coerce(field.add(out.get(i, field.zero()), field.mul(c, x)))
        return out

    def dense_all(vectors):
        return [dense(field, v, len(outgoing)) for v in vectors]

    def take():
        reps = _ref_quotient(field, dense_all(kernel), dense_all(incoming))
        q = h.quotient()
        assert dense_all(q.representatives) == reps and _canonical(field, q.representatives)
        assert dense_all(q.sub.rows) == image() and _canonical(field, q.sub.rows)
        taken.append((q, _exact(q.representatives), _exact(q.sub.rows)))
        return [sparse(v) for v in reps]

    def image():
        return _ref_image(Matrix.from_columns(field, len(outgoing), incoming))

    for _ in range(data.draw(st.integers(1, 4))):
        nrows += data.draw(st.integers(0, 3))
        for _ in range(data.draw(st.integers(0, 5))):
            kind = data.draw(st.sampled_from(["zero", "repeat", "random"]))
            if kind == "zero" or not nrows:
                col = {}
            elif kind == "repeat" and outgoing:
                col = dict(data.draw(st.sampled_from(outgoing)))
            else:
                col = {data.draw(st.integers(0, nrows - 1)): data.draw(entry)
                       for _ in range(data.draw(st.integers(1, 3)))}
            outgoing.append(col)
            h.add_outgoing(col)
        kernel = [sparse(v) for v in _ref_kernel(Matrix.from_columns(field, nrows, outgoing))]
        assert dense_all(h.kernel.basis) == dense_all(kernel) and _canonical(field, h.kernel.basis)
        reps = take()
        # coboundaries, so the image stays inside the kernel: combinations
        # of cocycles, or a multiple of the first class plus old coboundaries
        for _ in range(data.draw(st.integers(0, 3))):
            if reps and data.draw(st.booleans()):
                col = combo(reps[:1] + incoming)
            else:
                col = combo(kernel)
            incoming.append(col)
            h.add_incoming(col)
            assert dense_all(h.image.rows) == image() and _canonical(field, h.image.rows)
            if data.draw(st.booleans()):
                reps = take()
    for q, reps, sub in taken:
        assert (_exact(q.representatives), _exact(q.sub.rows)) == (reps, sub)


def test_growing_quotient_keeps_rejecting_an_image_outside_the_kernel():
    h = KernelModImage(QQ)
    h.add_outgoing({})
    h.add_outgoing({0: QQ.one()})
    assert h.quotient().representatives == [{0: QQ.one()}]
    h.add_incoming({1: QQ.one()})
    for _ in range(2):
        with pytest.raises(ContainmentError):
            h.quotient()


def _units(field, n):
    return [tuple(field.one() if i == j else field.zero() for j in range(n)) for i in range(n)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_position_without_outgoing_map_is_all_cocycles(field):
    """At a module's window top, and at the last Koszul position of an E2
    page, the outgoing columns are all zero: the whole space must come
    out as cocycles, and H as that space modulo the incoming image."""
    one = field.one()
    M = DGModule("top", ground_field_algebra(field), "left", GradedWindow(0, 1),
                 {0: ("x",), 1: ("y", "z")}, {}, {}, {"x": {"y": one}})
    state = kernel_mod_images(field, M.window.degrees(), lambda d: diff_columns(M, d))
    assert state[1].kernel.basis == [{0: one}, {1: one}]
    assert state[1].quotient().representatives == [{1: one}]
    assert cohomology(M).dims == {1: 1}
    # a position fed no columns at all learns no cocycles
    assert kernel_mod_images(field, [0], lambda d: [])[0].quotient().dim == 0

    A = polynomial_algebra(2, field)
    h = HModule(A, free_module(A, side="bi"))
    params, tops = [({"t1": one}, 2), ({"t1": one}, 2)], 0
    for s in range(-6, 3, 2):
        diffs = _koszul_stage(h, params, s, 1)
        n = len(diffs[2])
        assert diffs[2] == [{}] * n
        top = kernel_mod_images(field, range(3), diffs.__getitem__)[2]
        assert repr([dense(field, v, n) for v in top.kernel.basis]) == repr(_units(field, n))
        want = _ref_quotient(field, _units(field, n), [dense(field, c, n) for c in diffs[1]])
        got = top.quotient().representatives
        assert repr([dense(field, r, n) for r in got]) == repr(want)
        tops += len(got)
    assert tops  # some top position carries cohomology


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


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_explicit_zero_entries_change_nothing(field, data):
    """Vectors padded with explicit zeros give the same rows, pivots,
    membership, kernel bases and projections as their sparse forms."""
    m = data.draw(sparse_matrices(field))
    zero = field.zero()

    def padded(v, n=m.ncols):
        extra = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
        return {**{j: zero for j in extra}, **v}

    rows = _rows(m)
    plain, zeros = Echelon(field), Echelon(field)
    for v in rows:
        assert plain.add(v) == zeros.add(padded(v))
    assert repr([sorted(r.items()) for r in zeros.rows]) == repr([sorted(r.items()) for r in plain.rows])
    assert zeros.pivots == plain.pivots
    probe = sparse(tuple(field.coerce(x) for x in data.draw(
        st.lists(st.integers(-1, 1), min_size=m.ncols, max_size=m.ncols))))
    assert zeros.contains(padded(probe)) == plain.contains(probe)
    plain_ker, zeros_ker, zeros_h = KernelEchelon(field), KernelEchelon(field), KernelModImage(field)
    for col in _columns(m):
        assert zeros_ker.append(padded(col, m.nrows)) == plain_ker.append(col)
        zeros_h.add_outgoing(padded(col, m.nrows))
    assert _exact(zeros_ker.basis) == _exact(zeros_h.kernel.basis) == _exact(plain_ker.basis)
    h = KernelModImage(field)
    for _ in range(m.ncols):
        h.add_outgoing({})
    for v in rows:
        h.add_incoming(v)
    q = h.quotient()
    assert q.project(padded(probe)) == q.project(probe)
