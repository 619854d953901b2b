"""d and nabla_X against a recursive Leibniz reference built with wedge.

The reference peels the first generator off each monomial:
d(e^g∧r) = de^g∧r − e^g∧dr (odd) and ∇(e^g∧r) = ∇e^g∧r + e^g∧∇r
(even), with the scalar coefficient, symbols included, a constant of
both.  The manifolds are seeded 2-step-nilpotent: the first `layer`
generators are closed and every other de^g is a 2-form in them, with
constants drawn from 1, −1, 2, 1/2 and 1+i, so d∘d = 0 on generators
and therefore on every form.
"""

import itertools
import random
from fractions import Fraction

import pytest

from frameforms import Connection, Form, FrameManifold, GaussianRational, Poly, Session, wedge

CONSTANTS = (1, -1, 2, Fraction(1, 2), GaussianRational(1, 1))
SEEDS = range(6)


def nilpotent_table(rng, session, n, layer):
    """A manifold with de^g = 0 for g <= layer and a random 2-form in e^1..e^layer after."""
    M = FrameManifold(session, n)
    pairs = list(itertools.combinations(range(1, layer + 1), 2))
    table = {}
    for g in range(1, n + 1):
        terms = {}
        if g > layer:
            for mono in rng.sample(pairs, rng.randint(1, min(3, len(pairs)))):
                terms[mono] = Poly.constant(rng.choice(CONSTANTS))
        table[g] = Form(M, terms)
        M.declare_d(g, table[g])
    return M, table


def random_form(rng, M, symbols, degrees):
    """Up to five terms of the given degrees, each coefficient a symbolic polynomial."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mono = tuple(sorted(rng.sample(range(1, M.dim + 1), rng.choice(degrees))))
        x, y = rng.sample(symbols, 2)
        terms[mono] = rng.choice(CONSTANTS) * x * y + rng.choice(CONSTANTS) * x + rng.choice((0, 1, 3))
    return Form(M, {m: c for m, c in terms.items() if c})


def leibniz_reference(w, generator_image, odd):
    M = w.manifold
    out = M.zero()
    for mono, c in w.terms.items():
        if not mono:
            continue
        g, rest = mono[0], Form(M, {mono[1:]: Poly.constant(1)})
        d_rest = leibniz_reference(rest, generator_image, odd)
        term = wedge(generator_image(g), rest) + (-1 if odd else 1) * wedge(M.e(g), d_rest)
        out = out + c * term
    return out


def _case(seed):
    rng = random.Random(seed)
    s = Session()
    n = rng.randint(5, 7)
    M, table = nilpotent_table(rng, s, n, rng.randint(3, n - 2))
    return rng, M, table, list(s.symbols("a b c"))


@pytest.mark.parametrize("seed", SEEDS)
def test_d_matches_leibniz_reference(seed):
    rng, M, table, symbols = _case(seed)
    nonzero = 0
    for _ in range(15):
        w = random_form(rng, M, symbols, range(0, 4))
        dw = M.d(w)
        assert dw == leibniz_reference(w, table.__getitem__, odd=True)
        nonzero += bool(dw)
    assert nonzero >= 5


@pytest.mark.parametrize("seed", SEEDS)
def test_d_squared_is_zero_in_every_degree(seed):
    rng, M, _, symbols = _case(seed)
    for k in range(M.dim + 1):
        for _ in range(3):
            w = random_form(rng, M, symbols, [k])
            assert M.d(M.d(w)) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_nabla_form_matches_leibniz_reference(seed):
    """nabla_X of a generic connection in a triangular frame f^k = e^k + c e^(k+1).

    The images of the generators are symbolic in Gamma and in X, with
    the frame's constants in their coefficients.
    """
    rng, M, _, symbols = _case(seed)
    n = M.dim
    frame = [M.e(k) + rng.choice(CONSTANTS) * M.e(k + 1) for k in range(1, n)] + [M.e(n)]
    conn = Connection(M, frame=frame)
    nonzero = 0
    for _ in range(4):
        X = random_form(rng, M, symbols, [1])
        images = {g: conn.nabla_form(X, M.e(g)) for g in range(1, n + 1)}
        w = random_form(rng, M, symbols, range(0, 4))
        nw = conn.nabla_form(X, w)
        assert nw == leibniz_reference(w, images.__getitem__, odd=False)
        nonzero += bool(nw)
    assert nonzero >= 3
