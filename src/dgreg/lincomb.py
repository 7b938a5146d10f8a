"""Linear combinations of basis labels: the coefficient dictionaries used
by every multiplication, differential, and action table.

A combination is a plain dict ``{label: scalar}`` of nonzero field
elements, canonical since its table was built; the degree is contextual
(all labels of one combination live in a single degree of a single
presentation).  ``cadd`` and ``cextend`` drop what cancels, ``cscale``
cannot make a term vanish over a field, and ``ceq`` compares directly.
``cextend`` applies a map on labels to a combination, accumulating every
term into one dict in place, so a combination of n terms costs n scaled
additions rather than n copies.
"""

from __future__ import annotations

from .fields import FieldSpec


def czero() -> dict:
    return {}


def cclean(field: FieldSpec, c: dict) -> dict:
    return {k: v for k, v in c.items() if not field.is_zero(v)}


def cadd(field: FieldSpec, a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = field.add(out.get(k, field.zero()), v)
    return cclean(field, out)


def cscale(field: FieldSpec, s, a: dict) -> dict:
    if field.is_zero(s):
        return {}
    return {k: field.mul(s, v) for k, v in a.items()}


def cextend(field: FieldSpec, x: dict, image):
    """The linear extension of ``image`` (label -> combination, or None
    for an unrecorded entry) to the combination x; None when some
    image is None."""
    p, zero = field.p, field.zero()
    out = {}
    for lbl, c in x.items():
        img = image(lbl)
        if img is None:
            return None
        for t, v in img.items():
            s = out.get(t, zero) + c * v
            out[t] = s % p if p else s
    return cclean(field, out)


def cneg(field: FieldSpec, a: dict) -> dict:
    return {k: field.neg(v) for k, v in a.items()}


def ceq(field: FieldSpec, a: dict, b: dict) -> bool:
    return a == b


# to_vector and from_vector have no caller in the package; the benchmark's
# tracer wraps them by name (see the note in linalg).
def to_vector(field: FieldSpec, c: dict, basis) -> tuple:
    """Coordinates of a combination in the given ordered basis."""
    unknown = set(c) - set(basis)
    if unknown:
        raise KeyError(f"labels {sorted(unknown)} not in basis")
    z = field.zero()
    return tuple(c.get(lbl, z) for lbl in basis)


def to_sparse(field: FieldSpec, c: dict, index: dict) -> dict:
    """Coordinates of a combination as ``{position: scalar}``, with
    positions from the label -> position map ``index``; scalars are
    coerced into the field and those that vanish there are dropped."""
    out = {}
    for lbl, v in c.items():
        pos = index.get(lbl)
        if pos is None:
            raise KeyError(f"labels {sorted(set(c) - set(index))} not in basis")
        v = field.coerce(v)
        if v:
            out[pos] = v
    return out


def from_vector(field: FieldSpec, vec, basis) -> dict:
    return cclean(field, dict(zip(basis, vec)))

