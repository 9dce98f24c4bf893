"""The table-driven scanner, parser and printer of ``qreal.qlang`` against
the reference in ``corpus`` that writes one parse method per precedence
level: equal ASTs, equal errors, equal canonical text."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from corpus import random_formula, reference_parse, reference_unparse
from qreal import Atom, ParseError, parse, unparse

TOKENS = ["<->", "->", "|", "&", "~", "(", ")", "{", "}", "[", "]", ",", "=", "in", "com", "A", "x_1",
          "Spin", "1", "-2.5", "+3", ".5", "1.", "1e3", "1e999", "e5", "A1", "-", "<", ">", "<-", "$"]
NON_ASCII = ["€", "é", "ß", "Ω", "٣", "😀", "\u00a0", "\u2003"]
SPACES = ["", " ", "  ", "\t", "\n", "\u00a0", "\u2003"]


def outcome(parser, text):
    """The AST, or the (byte_offset, expected, found) of the ParseError."""
    try:
        return parser(text)
    except ParseError as err:
        return err.byte_offset, err.expected, err.found


@st.composite
def mutated_formula_texts(draw):
    """Canonical text of a random formula with tokens inserted, deleted and
    replaced, rejoined with random spacing that may run tokens together."""
    formula = random_formula(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.integers(0, 4)))
    pieces = [tok.text for tok in corpus._tokenize(reference_unparse(formula))[:-1]]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(pieces)))
        token = draw(st.sampled_from(TOKENS + NON_ASCII) | st.text(max_size=3))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert" or i == len(pieces):
            pieces.insert(i, token)
        elif edit == "delete":
            del pieces[i]
        else:
            pieces[i] = token
    spaces = draw(st.lists(st.sampled_from(SPACES), min_size=len(pieces) + 1, max_size=len(pieces) + 1))
    return "".join(space + piece for space, piece in zip(spaces, pieces + [""]))


@settings(max_examples=400, deadline=None)
@given(mutated_formula_texts())
def test_parse_matches_the_reference_on_mutated_texts(text):
    assert outcome(parse, text) == outcome(reference_parse, text)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_unparse_matches_the_reference_printer(seed, depth):
    formula = random_formula(np.random.default_rng(seed), depth)
    assert unparse(formula) == reference_unparse(formula)


def test_nesting_within_the_stack_parses():
    assert parse("(" * 200 + "A in {1}" + ")" * 200) == Atom("A", (1.0,))
    formula = parse("~" * 200 + "A in {1}")
    for _ in range(200):
        formula = formula.operand
    assert formula == Atom("A", (1.0,))


@pytest.mark.parametrize("opening", ["(", "~", "~("])
def test_too_deep_a_formula_is_a_parse_error(opening):
    levels = 50_000 // len(opening)
    text = opening * levels + "A in {1}" + ")" * (levels * opening.count("("))
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.expected == "a less deeply nested formula"
    assert err.value.found in opening
    # The offset is the stopping token's, inside the run of openers.
    assert 0 < err.value.byte_offset < len(opening) * levels
    assert text[err.value.byte_offset] == err.value.found


@pytest.mark.parametrize("opening", ["(", "~", "~("])
def test_every_nesting_depth_parses_or_is_a_parse_error(opening):
    # Wherever the stack runs out, even while the error for a missing operand
    # is being built, parse returns an AST or raises a ParseError.  Find the
    # deepest nesting that parses here, then try every depth around it.
    def nested(levels, operand="A in {1}"):
        return opening * levels + operand + ")" * (opening.count("(") * levels if operand else 0)

    def parses(text):
        try:
            parse(text)
        except ParseError:
            return False
        return True

    low, high = 1, 50_000 // len(opening)
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if parses(nested(middle)) else (low, middle)
    for levels in range(max(1, low - 40), low + 40):
        parses(nested(levels))
        parses(nested(levels, operand=""))
