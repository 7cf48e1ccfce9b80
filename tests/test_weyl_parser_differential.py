"""Differential tests of the operator parser and the cofactor monomials.

`weyl._WeylParser` keeps open parentheses on an explicit stack and takes
powers by squaring; `weyl_parser_oracle` keeps the recursive-descent parser
it replaces, which takes x^k as k products.  On
random token strings, well formed or not, both must return the same element
or raise the same ParseError; a zero denominator (`3/0`) is one of the
tokens drawn.  `_monomials_up_to` reads compositions off
stars and bars; it must list them in the order of the recursive
enumeration it replaces, since certificates depend on that order.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import weyl_parser_oracle

from gkzkit.errors import ParseError
from gkzkit.weyl import _TOKEN, _monomials_up_to, parse_weyl

SETTINGS = settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TOKENS = ["l0", "l1", "d0", "d1", "l2", "2", "1/2", "3/0", "(", "(", ")", ")", "+", "-", "*", "^", "3"]


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc))


def assert_same_parse(text):
    expected = _outcome(lambda t: weyl_parser_oracle.parse_weyl(_TOKEN.findall(t), 2), text)
    assert _outcome(lambda t: parse_weyl(t, 2), text) == expected, text


@SETTINGS
@given(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=14))
@example("( l0 ^ 2 ^ 2 )".split())
@example("( d0 * l0 - l1 + 1/2 ) ^ 7".split())  # powers whose bits square and multiply
@example("( l0 + d0 * d1 ) ^ 6".split())
@example("( d1 * l1 + 2 ) ^ 9 - d0 ^ 0 + l0 ^ 1".split())
@example("( ( l0 + d1 ) l1".split())
@example("( l0 ) ) d0".split())
@example("l0 - 3/0 * d1".split())
@example("0/0 ( d0".split())
def test_parser_matches_recursive_oracle(tokens):
    assert_same_parse(" ".join(tokens))


@settings(SETTINGS, max_examples=100)
@given(
    st.lists(
        st.lists(st.sampled_from(["l0", "d1", "2", "l1*d0", "-l0", "+ 1/2"]), min_size=1, max_size=3),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 2),
)
def test_parser_matches_oracle_on_nested_sums(groups, power):
    """Well-formed nestings: each group is a sum times the nesting before it."""
    text = ""
    for group in groups:
        text = "(" + " ".join(group) + (" * " + text if text else "") + f")^{power}"
    assert_same_parse(text)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_monomials_up_to_match_recursive_order():
    for nvars in range(1, 4):
        expected = [
            (c[:nvars], c[nvars:]) for total in range(7) for c in _compositions(total, 2 * nvars)
        ]
        assert list(_monomials_up_to(nvars, 6)) == expected, nvars


def test_deep_parentheses_parse_without_recursion():
    depth = 5000
    assert parse_weyl("(" * depth + "l0" + ")" * depth) == parse_weyl("l0")
    assert parse_weyl("(" * depth + "l0 + d0" + ")" * depth + "^2") == parse_weyl("(l0 + d0)^2")
