"""Homogeneous polynomials in k[x, y, z] with exact coefficients."""

from __future__ import annotations

from .orders import grevlex_key, mono_deg

VARS = ("x", "y", "z")


def add_terms(field, acc: dict, terms: dict, c=None) -> dict:
    """acc += c * terms in place (c None: the plain sum); returns acc.

    The one term-map arithmetic of the package: keys are monomials or
    (pos, mono) module terms alike, and a sum that vanishes is dropped.
    """
    zero, add, mul = field.zero, field.add, field.mul
    for t, v in terms.items():
        if c is not None:
            v = mul(c, v)
        old = acc.get(t)
        s = v if old is None else add(old, v)
        if s == zero:
            acc.pop(t, None)
        else:
            acc[t] = s
    return acc


class TermMap:
    """Linear arithmetic shared by polynomials and module elements.

    A subclass stores a map `terms` from keys to nonzero coefficients of
    `field` and builds its kind of object from a term map in `_like`.
    """

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        return self._like(add_terms(self.field, dict(self.terms), other.terms))

    def __sub__(self, other):
        f = self.field
        return self._like(add_terms(f, dict(self.terms), other.terms, f.neg(f.one)))

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def scale(self, c):
        f = self.field
        return self._like(add_terms(f, {}, self.terms, f.coerce(c)))

    def lead(self, key):
        """(term, coefficient) of the largest term under the order key."""
        t = max(self.terms, key=key)
        return t, self.terms[t]


class Polynomial(TermMap):
    """A polynomial as a map from exponent triples to nonzero coefficients."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms: dict):
        self.field = field
        self.terms = terms

    def _like(self, terms):
        return Polynomial(self.field, terms)

    # --- constructors -------------------------------------------------

    @classmethod
    def from_terms(cls, field, items):
        terms = {}
        for m, c in items:
            add_terms(field, terms, {m: field.coerce(c)})
        return cls(field, terms)

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def constant(cls, field, c):
        c = field.coerce(c)
        return cls(field, {} if c == field.zero else {(0, 0, 0): c})

    @classmethod
    def variable(cls, field, i: int):
        m = tuple(1 if j == i else 0 for j in range(3))
        return cls(field, {m: field.one})

    # --- predicates ---------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_deg(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    # --- arithmetic ---------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        f = self.field
        acc = {}
        for m, c in self.terms.items():
            add_terms(f, acc, other.mono_shift(m, c).terms)
        return self._like(acc)

    def mono_shift(self, m, c):
        """self * c * x^m."""
        mul = self.field.mul
        m0, m1, m2 = m
        return self._like(
            {(t[0] + m0, t[1] + m1, t[2] + m2): mul(v, c) for t, v in self.terms.items()}
        )

    def partial(self, i: int):
        """Partial derivative with respect to variable i."""
        f = self.field
        terms = {}
        zero = f.zero
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            c2 = f.mul(c, f.coerce(e))
            if c2 == zero:
                continue
            m2 = list(m)
            m2[i] = e - 1
            terms[tuple(m2)] = c2
        return Polynomial(f, terms)

    # --- equality, printing --------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)})"


def partial_derivatives(f: Polynomial):
    """The gradient (f_x, f_y, f_z) of a homogeneous polynomial."""
    if not f.is_homogeneous() or f.degree() < 1:
        raise ValueError("partial_derivatives expects a homogeneous polynomial of degree >= 1")
    return tuple(f.partial(i) for i in range(3))


def _format_monomial(m) -> str:
    parts = []
    for v, e in zip(VARS, m):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial) -> str:
    """Canonical form: terms in decreasing order, explicit * and ^."""
    if not p.terms:
        return "0"
    f = p.field
    out = []
    for m in sorted(p.terms, key=grevlex_key, reverse=True):
        c = p.terms[m]
        cs = f.format(c)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        ms = _format_monomial(m)
        if not ms:
            body = cs
        elif cs == "1":
            body = ms
        else:
            body = f"{cs}*{ms}"
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out)
