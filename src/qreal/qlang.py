"""The statement language: AST, precedence-climbing parser, pretty-printer.

Grammar (whitespace insignificant between tokens)::

    formula  = iff
    iff      = impl { "<->" impl }              (chains fold left)
    impl     = or [ "->" impl ]                 (right-associative)
    or       = and { "|" and }
    and      = unary { "&" unary }
    unary    = "~" unary | primary
    primary  = atom | equal | com | "(" formula ")"
    atom     = ident "in" "{" number { "," number } "}"
    equal    = "[" ident "=" ident "]"
    com      = "com" "(" ident "," ident { "," ident } ")"

Identifiers are ``[A-Za-z][A-Za-z0-9_]*``; ``in`` and ``com`` are reserved.
Numbers are decimal with optional sign, fraction and exponent.  ``->`` is
the Sasaki hook.  Parsing stops at the first error with a byte offset; the
printer emits the canonical form (minimal parentheses, shortest
round-trippable numbers), so ``parse(unparse(f))`` reproduces ``f``.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Union

from .errors import ParseError

_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT)
# Tried in this order: arrows, signed numbers, identifiers, punctuation;
# whitespace is skipped, and any other character is an error.
_TOKEN_RE = re.compile(
    r"(?P<arrow><->|->)|(?P<number>[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{_IDENT})"
    r"|(?P<punct>[(){}\[\],=~&|])|(?P<space>\s+)|(?P<other>.)", re.S)
_KEYWORDS = {"in", "com"}


def _canonical_values(values) -> tuple[float, ...]:
    vals = sorted({float(v) + 0.0 for v in values})
    if not vals:
        raise ValueError("atom value set must be nonempty")
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("atom values must be finite")
    return tuple(vals)


def _check_ident(*names: str) -> None:
    for name in names:
        if not _IDENT_RE.fullmatch(name) or name in _KEYWORDS:
            raise ValueError(f"invalid observable identifier {name!r}")


@dataclass(frozen=True)
class Atom:
    """``A in {v1, ...}``: the observable's value lies in a finite set."""

    obs_id: str
    values: tuple[float, ...]

    def __post_init__(self):
        _check_ident(self.obs_id)
        object.__setattr__(self, "values", _canonical_values(self.values))


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Sasaki:
    """The conditional ``->`` (Sasaki hook)."""

    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Equal:
    """``[A = B]``: the two observables have identical values."""

    left_id: str
    right_id: str

    def __post_init__(self):
        _check_ident(self.left_id, self.right_id)


@dataclass(frozen=True)
class Com:
    """``com(A, B, ...)``: the observables are jointly determinate."""

    obs_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "obs_ids", tuple(self.obs_ids))
        if len(self.obs_ids) < 2:
            raise ValueError("com requires at least two observables")
        _check_ident(*self.obs_ids)


Formula = Union[Atom, Not, And, Or, Sasaki, Iff, Equal, Com]


# The binary connectives as (symbol, node, right-associative), loosest first:
# a row's index is its precedence.  The parser and the printer read only this.
_CONNECTIVES = (
    ("<->", Iff, False),
    ("->", Sasaki, True),
    ("|", Or, False),
    ("&", And, False),
)
_BY_SYMBOL = {symbol: (prec, node, right) for prec, (symbol, node, right) in enumerate(_CONNECTIVES)}
_BY_NODE = {node: (prec, symbol, right) for prec, (symbol, node, right) in enumerate(_CONNECTIVES)}
_NOT_PREC = len(_CONNECTIVES)


# kind: "ident", "number", "end", or the literal symbol; pos: character offset.
_Token = namedtuple("_Token", "kind text pos")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group, word = m.lastgroup, m.group()
        if group == "other":
            raise ParseError(_byte_offset(text, m.start()), "a token", repr(word))
        if group != "space":
            kind = group if group in ("number", "ident") and word not in _KEYWORDS else word
            tokens.append(_Token(kind, word, m.start()))
    tokens.append(_Token("end", "end of input", len(text)))
    return tokens


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        self.index += 1
        return self.tokens[self.index - 1]

    def error(self, expected: str) -> ParseError:
        tok = self.peek()
        return ParseError(_byte_offset(self.text, tok.pos), expected, tok.text)

    def expect(self, kind: str, expected: str) -> _Token:
        if self.peek().kind != kind:
            raise self.error(expected)
        return self.advance()

    def parse_binary(self, least: int) -> Formula:
        """Precedence climbing over the rows of :data:`_CONNECTIVES` from ``least`` on."""
        node = self.parse_unary()
        while (row := _BY_SYMBOL.get(self.peek().kind)) and row[0] >= least:
            prec, cls, right = row
            self.advance()
            node = cls(node, self.parse_binary(prec if right else prec + 1))
        return node

    def parse_unary(self) -> Formula:
        if self.peek().kind not in ("~", "(", "[", "com", "ident"):
            raise self.error("a formula")
        tok = self.advance()
        if tok.kind == "~":
            return Not(self.parse_unary())
        if tok.kind == "(":
            node = self.parse_binary(0)
            self.expect(")", ")")
            return node
        if tok.kind == "[":
            left = self.ident()
            self.expect("=", "=")
            right = self.ident()
            self.expect("]", "]")
            return Equal(left, right)
        if tok.kind == "com":
            self.expect("(", "(")
            first = self.ident()
            self.expect(",", ",")
            return Com((first, *self.items(self.ident, ")")))
        self.expect("in", "in")  # tok is the identifier of an atom
        self.expect("{", "{")
        return Atom(tok.text, tuple(self.items(self.number, "}")))

    def items(self, item, close: str) -> list:
        """``item {"," item} close``: the items read."""
        values = [item()]
        while self.peek().kind == ",":
            self.advance()
            values.append(item())
        self.expect(close, close)
        return values

    def ident(self) -> str:
        return self.expect("ident", "an identifier").text

    def number(self) -> float:
        if self.peek().kind == "number" and not math.isfinite(float(self.peek().text)):
            raise self.error("a finite number")
        return float(self.expect("number", "a number").text)


def parse(text: str) -> Formula:
    """Parse a formula, raising :class:`ParseError` on the first failure,
    including a formula nested too deeply for the interpreter's stack."""
    parser = _Parser(text)
    try:
        node = parser.parse_binary(0)
    except RecursionError:
        raise parser.error("a less deeply nested formula") from None
    parser.expect("end", "end of input")
    return node


def format_number(value: float) -> str:
    """Shortest decimal that round-trips through ``float``."""
    s = repr(float(value))
    return s[:-2] if s.endswith(".0") else s


def unparse(formula: Formula) -> str:
    """Canonical text with minimal parentheses; inverse of :func:`parse`."""
    return _render(formula, 0)


def _render(node: Formula, min_prec: int) -> str:
    if isinstance(node, Atom):
        return f"{node.obs_id} in {{{', '.join(format_number(v) for v in node.values)}}}"
    if isinstance(node, Equal):
        return f"[{node.left_id} = {node.right_id}]"
    if isinstance(node, Com):
        return f"com({', '.join(node.obs_ids)})"
    if isinstance(node, Not):
        prec, text = _NOT_PREC, f"~{_render(node.operand, _NOT_PREC)}"
    else:
        prec, symbol, right = _BY_NODE[type(node)]
        text = f"{_render(node.left, prec + right)} {symbol} {_render(node.right, prec + (not right))}"
    return f"({text})" if prec < min_prec else text


def observable_ids(formula: Formula) -> tuple[str, ...]:
    """All observable identifiers mentioned, in first-appearance order."""
    def names(node: Formula) -> list[str]:
        if isinstance(node, Atom):
            return [node.obs_id]
        if isinstance(node, Equal):
            return [node.left_id, node.right_id]
        if isinstance(node, Com):
            return list(node.obs_ids)
        if isinstance(node, Not):
            return names(node.operand)
        return names(node.left) + names(node.right)

    return tuple(dict.fromkeys(names(formula)))
