"""Exact scalar arithmetic over the rationals and prime fields.

Over F_p scalars are the canonical integer representatives ``0..p-1``.
Over Q a scalar is a plain ``int`` when it is integral and a
``fractions.Fraction`` only when it is not.  ``zero``, ``one``, ``sign``,
``coerce``, ``literal``, ``parse`` and ``inv`` keep to that rule, and so
does every scalar :mod:`dgreg.linalg` stores, so integral tables are
eliminated in ``int`` arithmetic and a ``Fraction`` is built only where a
pivot inverse is not integral.  ``add``, ``sub`` and ``mul`` are Python's own
operators: a sum of two ``Fraction`` values may be an integral
``Fraction`` until ``coerce`` brings it back.  Either way the value is
exact, ``3 == Fraction(3)`` with equal hashes, and both print as ``3``,
so the rule changes no value and no text.  A :class:`FieldSpec` carries
the arithmetic so that matrices and coefficient tables never silently
mix scalars from different ground fields.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

# A scalar literal: an integer or ``a/b``, in ASCII digits only, as the
# pattern ``[+-]?[0-9]+(/[0-9]+)?``.  Group 1 is the signed numerator and
# group 2 the denominator, None for an integer; FieldSpec.literal builds
# the scalar from them.  The text format's term pattern embeds it.
LITERAL = r"([+-]?[0-9]+)(?:/([0-9]+))?"
LITERAL_RE = re.compile(LITERAL)


class FieldMismatchError(TypeError):
    """Values from different ground fields were combined."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def exact(q):
    """The rational q (an ``int`` or a ``Fraction``) in its one
    representation: an ``int`` when q is integral, else q itself."""
    return q.numerator if q.denominator == 1 else q


def inverse(a, p: int):
    """1/a for a nonzero scalar a: mod p when p, else over Q by the
    representation rule of :func:`exact`, with 1 and -1 their own
    inverses."""
    if p:
        return pow(a, -1, p)
    if a == 1 or a == -1:
        return int(a)
    return exact(Fraction(1, a))


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: Q when ``p == 0``, otherwise F_p for a prime p < 2**31."""

    p: int = 0

    def __post_init__(self):
        if self.p and (not 2 <= self.p < 2**31 or not _is_prime(self.p)):
            raise ValueError(f"modulus {self.p} is not a prime below 2**31")

    # -- basics -------------------------------------------------------

    @property
    def characteristic(self) -> int:
        return self.p

    def __str__(self):
        return "Q" if self.p == 0 else f"F{self.p}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        """Bring an int or Fraction into this field.

        Over F_p a fraction a/b maps to a * b^-1 mod p; a denominator
        divisible by p is rejected.
        """
        if isinstance(x, int):
            return x % self.p if self.p else int(x)
        if self.p == 0:
            if isinstance(x, Fraction):
                return exact(x)
            raise FieldMismatchError(f"cannot coerce {x!r} into Q")
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldMismatchError(f"{x} has no image in F_{self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        raise FieldMismatchError(f"cannot coerce {x!r} into F_{self.p}")

    # -- arithmetic ----------------------------------------------------

    def add(self, a, b):
        return a + b if self.p == 0 else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p == 0 else (a * b) % self.p

    def neg(self, a):
        return -a if self.p == 0 else (-a) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero field element")
        return inverse(a, self.p)

    def is_zero(self, a) -> bool:
        return a == 0

    def is_one(self, a) -> bool:
        return a == 1

    def sign(self, n: int):
        """The field element (-1)**n."""
        return self.one() if n % 2 == 0 else self.neg(self.one())

    # -- text ----------------------------------------------------------

    def format(self, a) -> str:
        """Canonical text form: lowest-terms p/q over Q, 0..p-1 over F_p."""
        return str(a)

    def literal(self, num: str, den: str | None = None):
        """The scalar num/den of this field, from the digit strings a match
        of ``LITERAL`` gives: an integer is ``int(num)``, reduced mod p over
        F_p; a fraction is built from two ints and brought in by
        :meth:`coerce`.  A zero denominator is a ValueError, and over F_p one
        that p divides a FieldMismatchError."""
        if den is None:
            n = int(num)
            return n % self.p if self.p else n
        d = int(den)
        if not d:
            raise ValueError(f"bad scalar literal {num}/{den}: zero denominator")
        return self.coerce(Fraction(int(num), d))

    def parse(self, text: str):
        """Parse an integer or a/b literal, ``LITERAL`` with surrounding
        whitespace, into this field."""
        m = LITERAL_RE.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"bad scalar literal {text.strip()!r}")
        return self.literal(*m.groups())


QQ = FieldSpec(0)


def GF(p: int) -> FieldSpec:
    """F_p for a prime p below 2**31.  0 is refused as any other non-prime
    is, though ``FieldSpec(0)`` is Q."""
    if p == 0:
        raise ValueError(f"modulus {p} is not a prime below 2**31")
    return FieldSpec(p)
