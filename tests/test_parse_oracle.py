"""parse_form against the wedge of generators, on derandomized random terms.

Each term is written with unsorted and repeated indices, as digits, as
'e' plus digits or as an 'e[...]' list (always a list when an index
exceeds 9), with no coefficient or an integer, Fraction or Q(i) one.
The oracle is coefficient × M.e(i1) ∧ M.e(i2) ∧ ..., summed with the
term's sign.
"""

import functools
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from frameforms import FrameManifold, GaussianRational, Session, parse_form, wedge  # noqa: E402

DIM = 12
M = FrameManifold(Session(), DIM)
SEEDED = settings(derandomize=True, database=None, max_examples=300, deadline=None)

naturals = st.integers(0, 30)
rationals = st.builds(Fraction, naturals, st.integers(1, 7))


def _text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@st.composite
def coefficients(draw):
    """(text with its '*', value) of a term's coefficient; ("", 1) for none."""
    kind = draw(st.sampled_from(["none", "int", "fraction", "gaussian", "imaginary"]))
    if kind == "none":
        return "", 1
    if kind == "int":
        k = draw(naturals)
        return f"{k}*", k
    if kind == "fraction":
        q = draw(rationals)
        return f"{q.numerator}/{q.denominator}*", q
    if kind == "imaginary":
        q = draw(rationals)
        return f"{_text(q)}*i*", GaussianRational(0, q)
    re, im = draw(rationals), draw(rationals)
    lead, sign = draw(st.booleans()), draw(st.sampled_from("+-"))
    text = f"({'-' if lead else ''}{_text(re)}{sign}{_text(im)}*i)*"
    return text, GaussianRational(-re if lead else re, im if sign == "+" else -im)


@st.composite
def terms(draw):
    """(text, value) of one unsigned term."""
    indices = draw(st.lists(st.integers(1, DIM), max_size=5))
    coeff_text, coeff = draw(coefficients())
    styles = ["list"] if not indices or max(indices) > 9 else ["digits", "e", "list"]
    style = draw(st.sampled_from(styles))
    if style == "list":
        mono = "e[" + ",".join(map(str, indices)) + "]"
    else:
        mono = ("e" if style == "e" else "") + "".join(map(str, indices))
    value = functools.reduce(wedge, (M.e(i) for i in indices), M.scalar(coeff))
    return coeff_text + mono, value


@given(st.lists(st.tuples(st.sampled_from("+-"), terms()), min_size=1, max_size=5))
@SEEDED
def test_parse_form_equals_wedge_of_generators(signed_terms):
    text, expected = "", M.zero()
    for k, (sign, (term, value)) in enumerate(signed_terms):
        if k or sign == "-":  # the grammar has no leading '+'
            text += sign
        text += term
        expected = expected - value if sign == "-" else expected + value
    assert parse_form(M, text) == expected, text
