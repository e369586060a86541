"""Text parser for polynomial input.

Grammar: variables x, y, z; integer literals; operators + - * ^ and
parentheses.  Division is allowed for coefficients only, i.e. the right
operand of / must be an integer literal.
"""

from __future__ import annotations

from .poly import Polynomial, add_terms


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_VAR_MONO = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            name = text[i:j]
            if name not in _VAR_MONO:
                raise ParseError(f"unknown identifier {name!r}", i)
            tokens.append(("var", name, i))
            i = j
        elif ch in "+-*^/()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, field):
        self.tokens = tokens
        self.pos = 0
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t

    def parse_expr(self) -> dict:
        """A sum of terms as one term dict, each term added in place."""
        f = self.field
        minus = f.neg(f.one)
        acc = {}
        while True:
            sign = 1
            while self.peek()[0] in ("+", "-"):
                if self.next()[0] == "-":
                    sign = -sign
            add_terms(f, acc, _term_dict(f, self.parse_term()), None if sign > 0 else minus)
            if self.peek()[0] not in ("+", "-"):
                return acc

    # A factor is a (monomial, coefficient) pair while it has a single term,
    # the coefficient possibly zero, and a Polynomial otherwise.

    def parse_term(self):
        p = self.parse_power()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.next()
                q = self.parse_power()
                if isinstance(p, tuple) and isinstance(q, tuple):
                    (m, c), (n, d) = p, q
                    p = ((m[0] + n[0], m[1] + n[1], m[2] + n[2]), self.field.mul(c, d))
                else:
                    p = _as_polynomial(self.field, p) * _as_polynomial(self.field, q)
            elif kind == "/":
                tok = self.next()
                num = self.peek()
                if num[0] != "int":
                    raise ParseError("division only by integer literals", tok[2])
                d = self.field.coerce(self.next()[1])
                if d == self.field.zero:  # 0, or a multiple of p over GF(p)
                    raise ParseError("division by zero in the coefficient field", num[2])
                inv = self.field.inv(d)
                if isinstance(p, tuple):
                    p = (p[0], self.field.mul(inv, p[1]))
                else:
                    p = p.scale(inv)
            else:
                return p

    def parse_power(self):
        p = self.parse_atom()
        while self.peek()[0] == "^":
            tok = self.next()
            e = self.peek()
            if e[0] != "int":
                raise ParseError("exponent must be an integer literal", tok[2])
            self.next()
            n = e[1]
            if n < 0:
                raise ParseError("negative exponent", e[2])
            if isinstance(p, tuple):
                (a, b, c), coef = p
                acc = self.field.one
                for _ in range(n):
                    acc = self.field.mul(acc, coef)
                p = ((n * a, n * b, n * c), acc)
            else:
                acc = Polynomial.constant(self.field, 1)
                for _ in range(n):
                    acc = acc * p
                p = acc
        return p

    def parse_atom(self):
        t = self.next()
        if t[0] == "int":
            return (0, 0, 0), self.field.coerce(t[1])
        if t[0] == "var":
            return _VAR_MONO[t[1]], self.field.one
        if t[0] == "(":
            terms = self.parse_expr()
            self.expect(")")
            if len(terms) == 1:
                return next(iter(terms.items()))
            return Polynomial(self.field, terms)
        raise ParseError(f"unexpected token {t[1]!r}", t[2])


def _term_dict(field, p) -> dict:
    if not isinstance(p, tuple):
        return p.terms
    m, c = p
    return {} if c == field.zero else {m: c}


def _as_polynomial(field, p) -> Polynomial:
    return Polynomial(field, _term_dict(field, p))


def parse_polynomial(text: str, field) -> Polynomial:
    """Parse polynomial text over the given field."""
    parser = _Parser(_tokenize(text), field)
    terms = parser.parse_expr()
    tail = parser.peek()
    if tail[0] != "end":
        raise ParseError(f"trailing input {tail[1]!r}", tail[2])
    return Polynomial(field, terms)
