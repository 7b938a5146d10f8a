"""Deterministic exact linear algebra over Q and F_p.

Leftmost-pivot reduced echelon form, kernels, and exact quotient spaces
with coordinate maps.  Everything is pure and reproducible: no pivoting
heuristics, no randomization.

The differential and action tables behind these spaces are almost all
zeros, so elimination works on sparse vectors: dicts ``{index: value}``
holding only the nonzero entries.  An :class:`Echelon` stores its rows
that way, one per pivot, and is the one elimination: a
:class:`KernelEchelon` is an echelon of [A^T | I].  Reduction, insertion
and membership visit only nonzero entries, and the ground field is
dispatched once per elimination step rather than once per entry: ``int``
arithmetic mod p over F_p, and over Q plain ``int`` arithmetic that
turns into ``Fraction`` arithmetic only where a pivot inverse is not
integral.  Every scalar stored or returned keeps the representation of
:mod:`dgreg.fields`: over Q an ``int`` when integral, else a
``Fraction``.

Cohomology is computed one way only.  :func:`kernel_mod_images` feeds
the sparse differential columns of a cochain complex, one per basis
element, into a :class:`KernelModImage` per degree: each column goes out
of its own degree, where a :class:`KernelEchelon` turns the dependent
columns into kernel vectors, and into the next degree's image; a
quotient is one walk of the kernel basis over a copy of the image.
Module cohomology, the Koszul stages of the E2 page and the resolver's
growing cone all read their quotients from these states.  The reduced
echelon form is unique, so every result equals what dense elimination
gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fields import FieldSpec, exact, inverse


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


def _axpy(v: dict, c, row: dict, p: int):
    """v -= c * row in place (mod p when p), dropping entries that cancel.
    Over Q an integral result is stored as an ``int``: a sum of
    ``Fraction`` terms is a ``Fraction`` even when it is integral."""
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
                if not x:
                    del v[j]
                    continue
            else:
                x = -c * y
            v[j] = x if type(x) is int else exact(x)


def _nonzero(vec: dict) -> dict:
    return {j: x for j, x in vec.items() if x}


def _scaled(v: dict, c, p: int) -> dict:
    """c * v as a new dict (mod p when p)."""
    if p:
        return {j: x * c % p for j, x in v.items()}
    return {j: exact(x * c) for j, x in v.items()}


def _unit(v: dict, p: int) -> tuple:
    """(q, v scaled to 1 at q) for q the leftmost entry of nonzero v."""
    q = min(v)
    return q, (v if v[q] == 1 else _scaled(v, inverse(v[q], p), p))


class Echelon:
    """Incremental reduced-echelon store for a subspace of k^n.

    Supports exact membership, residual reduction, and growth one vector
    at a time, on sparse dict vectors; rows are kept fully reduced with
    unit pivots, in one dict from pivot to row.  Only the public methods
    drop zero entries.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self._row_at: dict = {}     # pivot column -> its row

    @classmethod
    def spanned_by(cls, field: FieldSpec, vectors) -> "Echelon":
        ech = cls(field)
        for v in vectors:
            ech.add(v)
        return ech

    def __len__(self):
        return len(self._row_at)

    @property
    def pivots(self) -> list:
        return sorted(self._row_at)

    @property
    def rows(self) -> list:
        return [self._row_at[q] for q in self.pivots]

    def copy(self) -> "Echelon":
        out = Echelon(self.field)
        out._row_at = {q: dict(r) for q, r in self._row_at.items()}
        return out

    def reduce(self, vec: dict) -> dict:
        """Residual of vec (it may hold zero entries) modulo the stored
        subspace, as a new dict with none."""
        return self._reduce(_nonzero(vec))

    def _reduce(self, v: dict) -> dict:
        """Reduce v, which holds no zero entries, in place and return it.

        Rows are zero at every other row's pivot, so each stored pivot
        present in v is cleared exactly once, by its original entry.
        """
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

    def _push(self, v: dict):
        """Insert a nonzero residual, scaled to a unit pivot at its
        leftmost entry."""
        p = self.field.p
        q, v = _unit(v, p)
        for row in self._row_at.values():
            c = row.get(q)
            if c is not None:
                _axpy(row, c, v, p)
        self._row_at[q] = v


_TAG = 1 << 62      # above every basis position, so a tag key is never a pivot


class KernelEchelon:
    """The kernel of a matrix that grows by appended sparse columns.

    This is the elimination of [A^T | I]: column j goes into an
    :class:`Echelon` with the tag key ``_TAG + j`` set to 1, so each row
    records in its tag keys the combination of columns it equals.  A
    column whose residual is all tag depends on the earlier ones, and the
    residual, shifted back by ``_TAG``, is its kernel vector: 1 at its own
    index minus the combination of earlier independent columns that
    cancelled it.  That vector is unique, so ``basis`` is always the
    kernel basis that leftmost-pivot elimination of the matrix's rows
    gives: one vector per column that depends on the earlier ones, in
    column order, 1 there and 0 at the other dependent columns.  Old
    columns keep their vectors as the matrix grows.  Only appended
    columns are seen, so a basis element whose column is never appended,
    even an all-zero one, gets no kernel vector.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self.ncols = 0
        self.basis: list = []
        self._ech = Echelon(field)

    def append(self, col: dict) -> bool:
        """Append a column (it may hold zero entries); returns True when
        it added a kernel vector."""
        v = self._ech._reduce({**_nonzero(col), _TAG + self.ncols: 1})
        self.ncols += 1
        if min(v) < _TAG:
            self._ech._push(v)
            return False
        self.basis.append({j - _TAG: x for j, x in v.items()})
        return True


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
    ech = Echelon.spanned_by(F, [sparse(row) for row in m.rows])
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
        """Coordinates ``{i: c}`` of vec's class.  Raises
        :class:`ContainmentError` off the ambient span."""
        residual = self.sub.reduce(vec)
        coords = _substitute(residual, self._pivoted, self.field.p)
        if residual:
            raise ContainmentError("vector not in the ambient span")
        return coords


def _substitute(residual: dict, pivoted, p: int) -> dict:
    """Clear each (leading entry, representative) pair's entry from
    residual, in place and in order, and return the multiples taken as
    ``{i: c}``.  A representative is zero at the leading entries before
    it, so the multiples are the coordinates of residual's class."""
    coords = {}
    for i, (q, rep) in enumerate(pivoted):
        c = residual.get(q)
        if c is not None:
            _axpy(residual, c, rep, p)
            coords[i] = c
    return coords


def _walk(sub: Echelon, vectors) -> QuotientSpace:
    """span(sub, vectors) / span(sub), keeping ``sub``.  Each vector's
    residual modulo sub and the representatives so far, scaled to a unit
    leading entry, is the next representative when nonzero: the one
    vector of its coset zero at every pivot of sub and earlier leading
    entry, which is the row an echelon of sub grown by vectors pushes."""
    p, pivoted = sub.field.p, []
    for v in vectors:
        residual = sub._reduce(dict(v))
        _substitute(residual, pivoted, p)
        if residual:
            pivoted.append(_unit(residual, p))
    return QuotientSpace(sub.field, [rep for _, rep in pivoted], sub)


class KernelModImage:
    """The cohomology at one position of a cochain complex, which may
    grow by appended basis vectors whose old columns never change.

    The outgoing columns, one per basis element, go into a
    :class:`KernelEchelon` and the incoming ones into an
    :class:`Echelon`, each once.  The quotient is one walk of the kernel
    basis, in order, on a copy of the image echelon that it keeps as its
    ``sub``, so later growth leaves it as it was.  It raises
    :class:`ContainmentError` when the image is not inside the kernel,
    that is when d^2 != 0.  The last quotient is kept until the kernel
    basis or the image grows; a failed walk keeps none.
    """

    def __init__(self, field: FieldSpec):
        self.kernel = KernelEchelon(field)
        self.image = Echelon(field)
        self._quotient = None

    def add_outgoing(self, col: dict):
        if self.kernel.append(col):
            self._quotient = None

    def add_incoming(self, col: dict):
        if self.image.add(col):
            self._quotient = None

    def quotient(self) -> QuotientSpace:
        if self._quotient is None:
            basis = self.kernel.basis
            quot = _walk(self.image.copy(), basis)
            # the kernel vectors are independent, so the walk's span grows
            # past them exactly when some image vector lies outside the kernel
            if len(self.image) + quot.dim != len(basis):
                raise ContainmentError("d^2 != 0: a coboundary lies outside the cocycles")
            self._quotient = quot
        return self._quotient


def quotient_by(field: FieldSpec, span, sub) -> QuotientSpace:
    """Quotient of span(span) by span(sub) for dense vectors, with
    coordinate maps.

    Raises :class:`ContainmentError` unless sub is contained in the
    ambient span.
    """
    span = [sparse(v) for v in span]
    amb = Echelon.spanned_by(field, span)
    sub_ech = Echelon(field)
    for v in sub:
        v = sparse(v)
        if not amb.contains(v):
            raise ContainmentError("sub vector outside the ambient span")
        sub_ech.add(v)
    return _walk(sub_ech, span)


def kernel_mod_images(field: FieldSpec, degrees, columns) -> dict:
    """``{d: KernelModImage}`` over ``degrees`` for the cochain complex
    whose differential out of degree d has the sparse columns
    ``columns(d)``, one per basis element of degree d.

    Each column goes once out of its own degree and once into the next
    one, when that degree is in ``degrees``.  A degree with a basis needs
    its columns even where they are all zero, as at the top of a
    complex: its kernel vectors come only from the columns fed to it.
    """
    state = {d: KernelModImage(field) for d in degrees}
    for d in degrees:
        for col in columns(d):
            state[d].add_outgoing(col)
            if d + 1 in state:
                state[d + 1].add_incoming(col)
    return state
