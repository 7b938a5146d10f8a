"""Deterministic exact linear algebra over Q and F_p.

Leftmost-pivot reduced echelon form, kernels, and exact quotient spaces
with coordinate maps.  Everything is pure and reproducible: no pivoting
heuristics, no randomization.

The differential and action tables behind these spaces are almost all
zeros, so elimination works on sparse vectors: dicts ``{index: value}``
holding only the nonzero entries.  An :class:`Echelon` stores its rows
that way, and reduction, insertion and membership visit only nonzero
entries.  The ground field is dispatched once per elimination step
(plain ``int`` arithmetic mod p, or ``Fraction`` over Q) rather than
once per entry.  :func:`kernel_mod_image` is the one kernel/image/quotient
routine: cohomology of presentations and of Koszul complexes both go
through it.  The reduced echelon form is unique, so every result equals
what dense elimination gives.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .fields import FieldSpec


class ContainmentError(ValueError):
    """A claimed subspace is not contained in the ambient span."""


# Matrix, RowReduction, row_reduce and quotient_by have no caller in the
# package, nor do DGModule.diff_matrix and lincomb.to_vector/from_vector;
# the benchmark's tracer wraps them by name, so they stay until it reads
# its counters from the library.  They convert dense vectors at their own
# edges; nothing else in the package sees one.


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


# -- sparse vectors -----------------------------------------------------------


def sparse(vec) -> dict:
    """The nonzero entries of a dense vector as ``{index: value}``."""
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
    at a time, on sparse dict vectors; rows are kept fully reduced with
    unit pivots, in pivot order.
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

    def reduce(self, vec: dict) -> dict:
        """Residual of vec modulo the stored subspace, as a new dict with
        no zero entries (vec may hold some).

        Rows are zero at every other row's pivot, so each stored pivot
        present in vec is cleared exactly once, by its original entry.
        """
        v = {j: x for j, x in vec.items() if x}
        at, p = self._row_at, self.field.p
        for q in [c for c in v if c in at]:
            _axpy(v, v[q], at[q], p)
        return v

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def add(self, vec: dict) -> bool:
        """Insert vec; returns True when it enlarged the subspace."""
        v = self.reduce(vec)
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
    ech = Echelon.spanned_by(F, m.ncols, [sparse(row) for row in m.rows])
    zero_row = (F.zero(),) * m.ncols
    rows = tuple(dense(F, r, m.ncols) for r in ech.rows) + (zero_row,) * (m.nrows - len(ech))
    return RowReduction(Matrix(F, m.nrows, m.ncols, rows), len(ech), tuple(ech.pivots))


@dataclass
class QuotientSpace:
    """A quotient span/sub with chosen complement representatives.

    ``representatives`` are echelon-normalized sparse vectors of the
    ambient space whose classes form a basis; each is zero at the
    leading entries of the ones before it and at the pivots of ``sub``,
    the echelon of the subspace.  :meth:`project` returns exact
    coordinates of a vector's class in that basis.
    """

    field: FieldSpec
    representatives: list
    sub: Echelon

    @property
    def dim(self) -> int:
        return len(self.representatives)

    @cached_property
    def _pivoted(self) -> list:
        return [(min(v), v) for v in self.representatives]

    def project(self, vec: dict) -> dict:
        """Coordinates ``{i: c}`` of vec's class, by forward substitution:
        a representative is zero at the leading entries of the ones
        before it, so once those are subtracted the residual's entry at
        the i-th leading entry is the i-th coordinate.  Raises
        :class:`ContainmentError` off the ambient span."""
        residual = self.sub.reduce(vec)
        p, coords = self.field.p, {}
        for i, (q, rep) in enumerate(self._pivoted):
            c = residual.get(q)
            if c is not None:
                _axpy(residual, c, rep, p)
                coords[i] = c
        if residual:
            raise ContainmentError("vector not in the ambient span")
        return coords


def complement(sub: Echelon, vectors) -> QuotientSpace:
    """Quotient of span(sub + vectors) by sub.

    Walks the sparse vectors in order and keeps the residual of each one
    that enlarges the span, scaled to a unit leading coefficient.  Later
    pushes reduce the stored rows in place, so each representative is a
    copy of its row as pushed.
    """
    seen = sub.copy()
    reps = []
    for v in vectors:
        residual = seen.reduce(v)
        if residual:
            reps.append(dict(seen._push(residual)))
    return QuotientSpace(sub.field, reps, sub)


def kernel_mod_image(field: FieldSpec, n: int, rows, columns) -> QuotientSpace:
    """The kernel of the map with the given sparse rows modulo the span
    of the given sparse columns, in k^n: the cohomology of a complex at
    a position, given the rows of its outgoing differential and the
    columns of its incoming one.

    The kernel basis comes off the pivots of the rows, the image is the
    echelon of the columns, and the representatives are the kernel
    vectors that enlarge the image, in order.  Raises
    :class:`ContainmentError` when the image is not inside the kernel.
    """
    kernel = Echelon.spanned_by(field, n, rows).kernel()
    image = Echelon.spanned_by(field, n, columns)
    quot = complement(image, kernel)
    # the kernel vectors are independent, so the span grows past them
    # exactly when some image vector lies outside it
    if len(image) + quot.dim != len(kernel):
        raise ContainmentError("sub vector outside the ambient span")
    return quot


def quotient_by(field: FieldSpec, span, sub) -> QuotientSpace:
    """Quotient of span(span) by span(sub) for dense vectors, with
    coordinate maps.

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
