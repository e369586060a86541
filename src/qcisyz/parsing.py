"""Text parser for polynomial input.

Grammar: variables x, y, z; integer literals; operators + - * ^ and
parentheses.  Division is allowed for coefficients only, i.e. the right
operand of / must be an integer literal.
"""

from __future__ import annotations

from .poly import Polynomial


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_VAR_INDEX = {"x": 0, "y": 1, "z": 2}


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
            if name not in _VAR_INDEX:
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

    def parse_expr(self) -> Polynomial:
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.next()[0] == "-":
                sign = -sign
        p = self.parse_term()
        if sign < 0:
            p = -p
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            sign = 1 if op == "+" else -1
            while self.peek()[0] in ("+", "-"):
                if self.next()[0] == "-":
                    sign = -sign
            q = self.parse_term()
            p = p + q if sign > 0 else p - q
        return p

    def parse_term(self) -> Polynomial:
        p = self.parse_power()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.next()
                p = p * self.parse_power()
            elif kind == "/":
                tok = self.next()
                num = self.peek()
                if num[0] != "int":
                    raise ParseError("division only by integer literals", tok[2])
                d = self.field.coerce(self.next()[1])
                if d == self.field.zero:  # 0, or a multiple of p over GF(p)
                    raise ParseError("division by zero in the coefficient field", num[2])
                p = p.scale(self.field.inv(d))
            else:
                return p

    def parse_power(self) -> Polynomial:
        p = self.parse_atom()
        while self.peek()[0] == "^":
            tok = self.next()
            e = self.peek()
            if e[0] != "int":
                raise ParseError("exponent must be an integer literal", tok[2])
            self.next()
            if e[1] < 0:
                raise ParseError("negative exponent", e[2])
            acc = Polynomial.constant(self.field, 1)
            for _ in range(e[1]):
                acc = acc * p
            p = acc
        return p

    def parse_atom(self) -> Polynomial:
        t = self.next()
        if t[0] == "int":
            return Polynomial.constant(self.field, t[1])
        if t[0] == "var":
            return Polynomial.variable(self.field, _VAR_INDEX[t[1]])
        if t[0] == "(":
            p = self.parse_expr()
            self.expect(")")
            return p
        raise ParseError(f"unexpected token {t[1]!r}", t[2])


def parse_polynomial(text: str, field) -> Polynomial:
    """Parse polynomial text over the given field."""
    parser = _Parser(_tokenize(text), field)
    p = parser.parse_expr()
    tail = parser.peek()
    if tail[0] != "end":
        raise ParseError(f"trailing input {tail[1]!r}", tail[2])
    return p
