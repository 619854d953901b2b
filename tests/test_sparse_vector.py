"""Vector-space laws of the operators that Poly, Form and Spinor share.

The three classes take +, -, negation, truth and scaling from one base;
these properties are checked over seeded values of each.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from frameforms import (  # noqa: E402
    DimensionError,
    Form,
    FrameManifold,
    FrameMismatchError,
    GaussianRational,
    Poly,
    Session,
    Spinor,
)

SESSION = Session()
X, Y = SESSION.symbols("x y")
MONOS = [(), ((X, 1),), ((Y, 1),), ((X, 2),), ((X, 1), (Y, 1))]
M = FrameManifold(SESSION, 3)
OTHER = FrameManifold(SESSION, 3)
WEDGE_MONOS = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
SPINOR_DIM = 4

SEEDED = settings(derandomize=True, database=None, max_examples=40, deadline=None)

gaussians = st.builds(
    lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(1, 3),
)


def _sparse(keys, values, make):
    return st.dictionaries(st.sampled_from(keys), values, max_size=len(keys)).map(
        lambda d: make({k: v for k, v in d.items() if v})
    )


polys = _sparse(MONOS, gaussians, Poly)
nonzero_polys = polys.filter(bool)
forms = _sparse(WEDGE_MONOS, nonzero_polys, lambda t: Form(M, t))
spinors = _sparse(range(SPINOR_DIM), nonzero_polys, lambda t: Spinor(SPINOR_DIM, t))

KINDS = {"poly": polys, "form": forms, "spinor": spinors}
kinds = pytest.mark.parametrize("kind", sorted(KINDS))


def _three(data, kind):
    return [data.draw(KINDS[kind]) for _ in range(3)]


@kinds
@SEEDED
@given(data=st.data())
def test_addition_commutes_and_associates(kind, data):
    a, b, c = _three(data, kind)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a - b) + b == a


@kinds
@SEEDED
@given(data=st.data())
def test_difference_with_itself_stores_nothing(kind, data):
    a = data.draw(KINDS[kind])
    zero = a - a
    assert not zero and zero.terms == {}
    assert not (a + (-a)).terms


@kinds
@SEEDED
@given(data=st.data())
def test_negation_is_an_involution(kind, data):
    a, b, _ = _three(data, kind)
    assert -(-a) == a
    assert -(a - b) == b - a
    assert bool(a) == bool(a.terms)


@pytest.mark.parametrize("kind", ["form", "poly"])
@SEEDED
@given(data=st.data(), p=polys)
def test_scalar_minus_vector(kind, data, p):
    """A scalar on the left coerces, so the reflected difference keeps its sign."""
    a = data.draw(KINDS[kind])
    assert 0 - a == -a
    assert p - a == -(a - p)
    assert (p - a) + a == p


@kinds
@SEEDED
@given(data=st.data(), p=nonzero_polys, c=gaussians.filter(bool))
def test_scaling(kind, data, p, c):
    a, b, _ = _three(data, kind)
    # A Poly times a Poly is a product; only a constant scales it.
    s = c if kind == "poly" else p
    scaled = a * s
    assert set(scaled.terms) == set(a.terms)
    assert all(scaled.terms[k] == v * s for k, v in a.terms.items())
    assert (a + b) * p == a * p + b * p
    assert (a * c) * (1 / c) == a
    zero = a * 0
    assert not zero and zero.terms == {}


@SEEDED
@given(a=forms, b=forms)
def test_mixing_frames_raises(a, b):
    b = Form(OTHER, b.terms)
    for op in (lambda: a + b, lambda: a - b, lambda: b + a, lambda: b - a):
        with pytest.raises(FrameMismatchError):
            op()


@SEEDED
@given(a=spinors, b=spinors)
def test_mixing_spinor_dimensions_raises(a, b):
    b = Spinor(2 * SPINOR_DIM, b.terms)
    for op in (lambda: a + b, lambda: a - b, lambda: b + a, lambda: b - a):
        with pytest.raises(DimensionError):
            op()
