"""Deterministic exact linear algebra over Q and F_p.

Leftmost-pivot reduced row echelon form, kernels, column spaces, and
exact quotient spaces with coordinate maps.  Everything is pure and
reproducible: no pivoting heuristics, no randomization.

The differential and action tables behind these matrices are almost all
zeros, so elimination works on sparse vectors: dicts ``{index: value}``
holding only the nonzero entries.  An :class:`Echelon` stores its rows
that way, and reduction, insertion and membership visit only nonzero
entries.  The ground field is dispatched once per elimination step
(plain ``int`` arithmetic mod p, or ``Fraction`` over Q) rather than
once per entry.  :class:`Matrix` stays the dense type at the API
boundary, and every result comes back as dense tuples: the reduced
echelon form is unique, so they equal what dense elimination gives.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction

from .fields import FieldMismatchError, FieldSpec


class ContainmentError(ValueError):
    """A claimed subspace is not contained in the ambient span."""


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix over a fixed ground field."""

    field: FieldSpec
    nrows: int
    ncols: int
    rows: tuple

    @classmethod
    def from_rows(cls, field: FieldSpec, rows) -> "Matrix":
        coerced = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        ncols = len(coerced[0]) if coerced else 0
        for row in coerced:
            if len(row) != ncols:
                raise ValueError("ragged rows")
        return cls(field, len(coerced), ncols, coerced)

    @classmethod
    def from_columns(cls, field: FieldSpec, nrows: int, columns) -> "Matrix":
        """Dense matrix from sparse columns of already-typed scalars."""
        z = field.zero()
        rows = [[z] * len(columns) for _ in range(nrows)]
        for j, col in enumerate(columns):
            for i, x in col.items():
                rows[i][j] = x
        return cls(field, nrows, len(columns), tuple(tuple(row) for row in rows))

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        z = field.zero()
        return cls(field, nrows, ncols, tuple(tuple(z for _ in range(ncols)) for _ in range(nrows)))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return cls(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def transpose(self) -> "Matrix":
        cols = tuple(tuple(self.rows[i][j] for i in range(self.nrows)) for j in range(self.ncols))
        return Matrix(self.field, self.ncols, self.nrows, cols)

    def apply(self, vec):
        """Matrix times column vector."""
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        F = self.field
        out = []
        for row in self.rows:
            acc = F.zero()
            for a, x in zip(row, vec):
                acc = F.add(acc, F.mul(a, x))
            out.append(acc)
        return tuple(out)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatchError("matrix product across different fields")
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        F = self.field
        ot = other.transpose()
        rows = tuple(
            tuple(_dot(F, row, col) for col in ot.rows)
            for row in self.rows
        )
        return Matrix(F, self.nrows, other.ncols, rows)

    def is_zero(self) -> bool:
        F = self.field
        return all(F.is_zero(x) for row in self.rows for x in row)


def _dot(F: FieldSpec, u, v):
    acc = F.zero()
    for a, b in zip(u, v):
        acc = F.add(acc, F.mul(a, b))
    return acc


# -- sparse vectors -----------------------------------------------------------


def sparse(vec) -> dict:
    """The nonzero entries of a dense vector as ``{index: value}``;
    a dict is taken to be sparse already and returned as is."""
    if isinstance(vec, dict):
        return vec
    return {i: x for i, x in enumerate(vec) if x}


def dense(field: FieldSpec, vec: dict, n: int) -> tuple:
    out = [field.zero()] * n
    for i, x in vec.items():
        out[i] = x
    return tuple(out)


def sparse_transpose(columns, nrows: int) -> list:
    """Rows of the matrix with the given sparse columns."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = x
    return rows


def _axpy(v: dict, c, row: dict, p: int):
    """v -= c * row in place (mod p when p), dropping entries that cancel."""
    if p:
        for j, y in row.items():
            x = (v.get(j, 0) - c * y) % p
            if x:
                v[j] = x
            else:
                del v[j]
    else:
        for j, y in row.items():
            if j in v:
                x = v[j] - c * y
                if x:
                    v[j] = x
                else:
                    del v[j]
            else:
                v[j] = -c * y


class Echelon:
    """Incremental reduced-echelon store for a subspace of k^n.

    Supports exact membership, residual reduction, and growth one vector
    at a time; rows are sparse dicts kept fully reduced with unit
    pivots, in pivot order.  Vectors may be given dense or as sparse
    dicts.
    """

    def __init__(self, field: FieldSpec, dim: int):
        self.field = field
        self.dim = dim
        self.rows: list = []
        self.pivots: list = []
        self._row_at: dict = {}     # pivot column -> its row

    @classmethod
    def spanned_by(cls, field: FieldSpec, dim: int, vectors) -> "Echelon":
        ech = cls(field, dim)
        for v in vectors:
            ech.add(v)
        return ech

    def __len__(self):
        return len(self.rows)

    def copy(self) -> "Echelon":
        out = Echelon(self.field, self.dim)
        out.rows = [dict(r) for r in self.rows]
        out.pivots = list(self.pivots)
        out._row_at = dict(zip(out.pivots, out.rows))
        return out

    def reduce(self, vec):
        """Residual of vec modulo the stored subspace: a new sparse dict
        for a sparse vec, a dense tuple for a dense one.

        Rows are zero at every other row's pivot, so each stored pivot
        present in vec is cleared exactly once, by its original entry.
        """
        is_sparse = isinstance(vec, dict)
        v = dict(vec) if is_sparse else sparse(vec)
        at, p = self._row_at, self.field.p
        for q in [c for c in v if c in at]:
            _axpy(v, v[q], at[q], p)
        return v if is_sparse else dense(self.field, v, self.dim)

    def contains(self, vec) -> bool:
        return not self.reduce(sparse(vec))

    def add(self, vec) -> bool:
        """Insert vec; returns True when it enlarged the subspace."""
        v = self.reduce(sparse(vec))
        if not v:
            return False
        self._push(v)
        return True

    def _push(self, v: dict) -> dict:
        """Insert a nonzero residual; returns it scaled to a unit pivot."""
        p = self.field.p
        q = min(v)
        lead = v[q]
        if lead != 1:
            if p:
                inv = pow(lead, -1, p)
                v = {j: x * inv % p for j, x in v.items()}
            else:
                inv = Fraction(1, lead)
                v = {j: x * inv for j, x in v.items()}
        for row in self.rows:
            c = row.get(q)
            if c is not None:
                _axpy(row, c, v, p)
        at = bisect(self.pivots, q)
        self.rows.insert(at, v)
        self.pivots.insert(at, q)
        self._row_at[q] = v
        return v

    def kernel(self) -> list:
        """Sparse basis of the vectors orthogonal to every stored row.

        One vector per free column, in column order, with a 1 in the free
        coordinate: row r reads x_q + sum_{c > q} a_c x_c = 0 for its
        pivot q, so x_q = -a_c when only x_c is set.
        """
        F = self.field
        p, one = F.p, F.one()
        by_free: dict = {}
        for q, row in zip(self.pivots, self.rows):
            for c, x in row.items():
                if c != q:
                    by_free.setdefault(c, {})[q] = (-x) % p if p else -x
        out = []
        for c in range(self.dim):
            if c not in self._row_at:
                v = {c: one}
                v.update(by_free.get(c, {}))
                out.append(v)
        return out

    def basis(self) -> list:
        return [dense(self.field, r, self.dim) for r in self.rows]


@dataclass(frozen=True)
class RowReduction:
    rref: Matrix
    rank: int
    pivot_cols: tuple


def row_reduce(m: Matrix) -> RowReduction:
    """Reduced row echelon form with leftmost pivots.

    Deterministic: pivots are the leftmost nonzero entries, scaled to 1
    and cleared above and below, so the output is the unique RREF of the
    row space, with its zero rows last.
    """
    F = m.field
    ech = Echelon.spanned_by(F, m.ncols, m.rows)
    zero_row = (F.zero(),) * m.ncols
    rows = tuple(ech.basis()) + (zero_row,) * (m.nrows - len(ech))
    return RowReduction(Matrix(F, m.nrows, m.ncols, rows), len(ech), tuple(ech.pivots))


def kernel_basis(m: Matrix) -> list:
    """Echelonized basis of the null space {v : M v = 0}.

    One basis vector per free column, in column order, with a 1 in the
    free coordinate; deterministic.
    """
    F = m.field
    return [dense(F, v, m.ncols) for v in Echelon.spanned_by(F, m.ncols, m.rows).kernel()]


def image_basis(m: Matrix) -> list:
    """Echelonized basis of the column space, as vectors of length nrows."""
    columns = sparse_transpose((sparse(row) for row in m.rows), m.ncols)
    return Echelon.spanned_by(m.field, m.nrows, columns).basis()


def rank(m: Matrix) -> int:
    return row_reduce(m).rank


def span_coordinates(field: FieldSpec, span, vec):
    """Coordinates of vec in the given spanning vectors, or None.

    Solves span^T x = vec exactly; when the span is linearly dependent
    the leftmost-pivot solution is returned (free coefficients zero).
    """
    if not span:
        return () if all(field.is_zero(x) for x in vec) else None
    n = len(span[0])
    if len(vec) != n:
        raise ValueError("dimension mismatch")
    aug = Matrix.from_rows(
        field, [[span[j][i] for j in range(len(span))] + [vec[i]] for i in range(n)]
    )
    red = row_reduce(aug)
    if len(span) in red.pivot_cols:
        return None
    F = field
    coords = [F.zero()] * len(span)
    for r, p in enumerate(red.pivot_cols):
        coords[p] = red.rref.entry(r, len(span))
    return tuple(coords)


@dataclass
class QuotientSpace:
    """A quotient span/sub with chosen complement representatives.

    ``representatives`` are echelon-normalized vectors of the ambient
    space whose classes form a basis; :meth:`project` returns exact
    coordinates of a vector's class in that basis.
    """

    field: FieldSpec
    dim_ambient: int
    representatives: list
    _sub_ech: Echelon

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def project(self, vec):
        residual = self._sub_ech.reduce(vec)
        coords = span_coordinates(self.field, self.representatives, residual)
        if coords is None:
            raise ContainmentError("vector not in the ambient span")
        return coords


def complement(sub: Echelon, vectors) -> QuotientSpace:
    """Quotient of span(sub + vectors) by sub.

    Walks the sparse vectors in order and keeps the residual of each one
    that enlarges the span, scaled to a unit leading coefficient.
    """
    seen = sub.copy()
    reps = []
    for v in vectors:
        residual = seen.reduce(v)
        if residual:
            reps.append(dense(sub.field, seen._push(residual), sub.dim))
    return QuotientSpace(sub.field, sub.dim, reps, sub)


def quotient_by(field: FieldSpec, span, sub) -> QuotientSpace:
    """Quotient of span(span) by span(sub), with coordinate maps.

    Raises :class:`ContainmentError` unless sub is contained in the
    ambient span.
    """
    if span:
        n = len(span[0])
    elif sub:
        n = len(sub[0])
    else:
        n = 0
    span = [sparse(v) for v in span]
    amb = Echelon.spanned_by(field, n, span)
    sub_ech = Echelon(field, n)
    for v in sub:
        v = sparse(v)
        if not amb.contains(v):
            raise ContainmentError("sub vector outside the ambient span")
        sub_ech.add(v)
    return complement(sub_ech, span)
