"""The recursive-descent operator parser, kept as an oracle.

This is `weyl._WeylParser` as it was before parentheses moved to an
explicit stack: one Python frame per nesting level, so deep input hit the
interpreter's recursion limit.  On every input of modest depth the new
parser must return the same element or raise the same ParseError.  A
number token with a zero denominator, such as `1/0`, is the ParseError
"bad rational '1/0'" here too, where the old parser let Fraction's
ZeroDivisionError escape.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from gkzkit.errors import ParseError
from gkzkit.weyl import WeylElement, weyl_mul


class WeylParser:
    def __init__(self, tokens: list[str], nvars: int):
        self.tokens = tokens
        self.nvars = nvars
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of operator expression")
        self.pos += 1
        return tok

    def parse_sum(self) -> WeylElement:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        total = self.parse_product().scale(sign)
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            total = total + self.parse_product().scale(sign)
        return total

    def parse_product(self) -> WeylElement:
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
                result = weyl_mul(result, self.parse_factor())
            elif tok is not None and (tok[0] in "ld(" or tok[0].isdigit()):
                result = weyl_mul(result, self.parse_factor())
            else:
                return result

    def parse_factor(self) -> WeylElement:
        tok = self.take()
        if tok == "(":
            inner = self.parse_sum()
            if self.take() != ")":
                raise ParseError("unbalanced parentheses")
            base = inner
        elif tok[0] in "ld" and tok[1:].isdigit():
            idx = int(tok[1:])
            if idx >= self.nvars:
                raise ParseError(f"variable index {idx} out of range")
            base = (
                WeylElement.lam(idx, self.nvars)
                if tok[0] == "l"
                else WeylElement.dee(idx, self.nvars)
            )
        elif tok[0].isdigit():
            try:
                base = WeylElement.scalar(self.nvars, Fraction(tok))
            except ZeroDivisionError:
                raise ParseError(f"bad rational {tok!r}") from None
        else:
            raise ParseError(f"unexpected token {tok!r}")
        if self.peek() == "^":
            self.take()
            expo_tok = self.take()
            if not expo_tok.isdigit():
                raise ParseError(f"bad exponent {expo_tok!r}")
            power = int(expo_tok)
            out = WeylElement.one(self.nvars)
            for _ in range(power):
                out = weyl_mul(out, base)
            return out
        return base


def parse_weyl(tokens: list[str], nvars: int) -> WeylElement:
    parser = WeylParser(tokens, nvars)
    result = parser.parse_sum()
    if parser.pos != len(tokens):
        raise ParseError(f"trailing tokens {tokens[parser.pos:]!r}")
    return result
