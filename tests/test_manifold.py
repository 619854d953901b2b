import random
from fractions import Fraction

import pytest

from frameforms import (
    DegreeError,
    DimensionError,
    FileFormatError,
    Form,
    FrameManifold,
    MissingDeclarationError,
    NotNilpotentError,
    RedeclarationError,
    RiemannianManifold,
    Session,
    load_manifold,
    parse_form,
    print_form,
    wedge,
)


def nilpotent4(session):
    """de1 = de2 = 0, de3 = e12, de4 = e13."""
    M = FrameManifold(session, 4)
    M.declare_d(1, 0)
    M.declare_d(2, 0)
    M.declare_d(3, M.e(1) * M.e(2))
    M.declare_d(4, M.e(1) * M.e(3))
    return M


def iwasawa6(session):
    M = FrameManifold(session, 6)
    for i in (1, 2, 3, 4):
        M.declare_d(i, 0)
    M.declare_d(5, M.e(1) * M.e(3) + M.e(4) * M.e(2))
    M.declare_d(6, M.e(1) * M.e(4) + M.e(2) * M.e(3))
    return M


def test_new_manifold():
    M = FrameManifold(Session(), 4)
    assert [print_form(g) for g in M.generators()] == ["e1", "e2", "e3", "e4"]
    assert FrameManifold(Session(), 1).dim == 1
    with pytest.raises(DimensionError):
        FrameManifold(Session(), 0)


def test_declare_d_examples():
    s = Session()
    M = FrameManifold(s, 4)
    M.declare_d(3, M.e(1) * M.e(2))
    assert M.d_table[3] == M.e(1) * M.e(2)
    M.declare_d(1, 0)
    assert M.d_table[1] == 0
    with pytest.raises(DegreeError):
        M.declare_d(4, M.e(1))
    with pytest.raises(RedeclarationError):
        M.declare_d(3, M.e(1) * M.e(4))
    # declaring through the generator form also works
    M.declare_d(M.e(2), 0)
    assert M.d_table[2] == 0


def test_d_examples():
    s = Session()
    M = nilpotent4(s)
    assert M.d(M.e(4)) == M.e(1) * M.e(3)
    assert M.d(M.e(1) * M.e(4)) == 0
    s2 = Session()
    W = iwasawa6(s2)
    assert W.d(W.e(4) * W.e(5)) == -parse_form(W, "134")


def test_d_missing_declaration():
    M = FrameManifold(Session(), 3)
    M.declare_d(1, 0)
    assert M.d(M.e(1)) == 0
    with pytest.raises(MissingDeclarationError):
        M.d(M.e(2))


def test_d_symbols_are_constants():
    s = Session()
    M = nilpotent4(s)
    g = s.symbol("g")
    assert M.d(M.e(4) * g) == (M.e(1) * M.e(3)) * g
    assert M.d(M.scalar(g)) == 0


def test_lie_bracket_examples():
    M = nilpotent4(Session())
    e = M.e
    assert M.lie_bracket(e(1), e(2)) == -e(3)
    assert M.lie_bracket(e(1), e(1)) == 0
    assert M.lie_bracket(e(1), e(3)) == -e(4)
    assert M.lie_bracket(e(2), e(3)) == 0


def test_lie_derivative_examples():
    M = nilpotent4(Session())
    e = M.e
    assert M.lie_derivative(e(1), e(3)) == e(2)
    assert M.lie_derivative(e(1), M.scalar(5)) == 0
    for k in range(1, 5):
        assert M.lie_derivative(e(4), e(k)) == 0


def _rand_form(rng, M, deg, nterms=2):
    out = M.zero()
    for _ in range(nterms):
        mono = rng.sample(range(1, M.dim + 1), deg)
        term = M.scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for g in mono:
            term = term * M.e(g)
        out = out + term
    return out


@pytest.mark.parametrize("builder", [nilpotent4, iwasawa6])
def test_d_squared_zero(builder):
    rng = random.Random(3)
    M = builder(Session())
    for i in range(1, M.dim + 1):
        assert M.d(M.d(M.e(i))) == 0
    for _ in range(100):
        w = _rand_form(rng, M, rng.randint(1, 3), 3)
        assert M.d(M.d(w)) == 0


def _rand_symbolic_form(rng, M, symbols):
    """Up to four terms of degrees 0..3 with coefficients a*x + b, x a symbol."""
    out = M.zero()
    for _ in range(rng.randint(1, 4)):
        c = rng.choice(symbols) * Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        term = M.scalar(c + rng.randint(-2, 2))
        for g in rng.sample(range(1, M.dim + 1), rng.randint(0, 3)):
            term = term * M.e(g)
        out = out + term
    return out


def _homogeneous_parts(w):
    """The homogeneous components of w, as (degree, form) pairs."""
    parts = {}
    for mono, c in w.terms.items():
        parts.setdefault(len(mono), {})[mono] = c
    return [(p, Form(w.manifold, terms)) for p, terms in parts.items()]


@pytest.mark.parametrize(
    "builder",
    [nilpotent4, iwasawa6, lambda session: RiemannianManifold(session, 4)],
    ids=["nilpotent4", "iwasawa6", "riemannian4"],
)
def test_d_leibniz_on_mixed_degree_forms(builder):
    """d(a∧b) = da∧b + (-1)^p a∧db, on each degree-p part of a mixed-degree a."""
    rng = random.Random(5)
    M = builder(Session())
    symbols = M.session.symbols("x y")
    nonzero = 0
    for _ in range(60):
        a = _rand_symbolic_form(rng, M, symbols)
        b = _rand_symbolic_form(rng, M, symbols)
        rhs = wedge(M.d(a), b)
        for p, ap in _homogeneous_parts(a):
            rhs = rhs + wedge(ap, M.d(b)) * (-1) ** p
        lhs = M.d(wedge(a, b))
        assert lhs == rhs
        nonzero += bool(lhs)
    assert nonzero >= 15


@pytest.mark.parametrize("builder", [nilpotent4, iwasawa6])
def test_jacobi_identity(builder):
    rng = random.Random(4)
    M = builder(Session())

    def bracket(a, b):
        return M.lie_bracket(a, b)

    for _ in range(50):
        X = _rand_form(rng, M, 1, 2)
        Y = _rand_form(rng, M, 1, 2)
        Z = _rand_form(rng, M, 1, 2)
        total = (
            bracket(X, bracket(Y, Z))
            + bracket(Y, bracket(Z, X))
            + bracket(Z, bracket(X, Y))
        )
        assert total == 0


@pytest.mark.parametrize("builder", [nilpotent4, iwasawa6])
def test_lie_derivative_commutes_with_d(builder):
    rng = random.Random(5)
    M = builder(Session())
    for _ in range(50):
        X = _rand_form(rng, M, 1, 2)
        w = _rand_form(rng, M, rng.randint(1, 2), 2)
        assert M.lie_derivative(X, M.d(w)) == M.d(M.lie_derivative(X, w))


IWASAWA_FILE = """
dim 6
# the two non-closed generators
d 5 = 13+42
d 6 = 14+23
"""


def test_load_manifold():
    M = load_manifold(Session(), IWASAWA_FILE)
    assert M.dim == 6
    assert M.d(M.e(5)) == M.e(1) * M.e(3) + M.e(4) * M.e(2)
    assert M.d(M.e(1)) == 0  # omitted indices default to zero
    assert M.d(M.e(4) * M.e(5)) == -parse_form(M, "134")


NILPOTENT_FILE = "dim 4\nd 3 = 12\nd 4 = 13\n"


@pytest.mark.parametrize("text", [NILPOTENT_FILE, IWASAWA_FILE], ids=["nilpotent", "iwasawa"])
def test_load_manifold_accepts_nilpotent_d(text):
    M = load_manifold(Session(), text)
    assert all(not M.d(M.d(e)) for e in M.generators())


def test_load_manifold_rejects_d_squared_nonzero():
    """de4 = e12, de1 = e34: d(de1) = -e3∧de4 = -e123, the first generator that fails."""
    with pytest.raises(NotNilpotentError, match=r"^d\(d\(e1\)\) = -e123 is not zero$"):
        load_manifold(Session(), "dim 4\nd 4 = 12\nd 1 = 34\n")
    # d(de1) = d(e23) = 0 and d(de4) = d(e15) = e235.
    with pytest.raises(NotNilpotentError, match=r"^d\(d\(e4\)\) = e235 is not zero$"):
        load_manifold(Session(), "dim 5\nd 4 = 15\nd 1 = 23\n")


def test_declare_d_leaves_d_squared_unchecked():
    """Only loaded files are checked: declare_d takes a d-table with d∘d != 0."""
    M = FrameManifold(Session(), 4)
    M.declare_d(4, M.e(1) * M.e(2))
    M.declare_d(1, M.e(3) * M.e(4))
    M.declare_d(3, 0)
    assert M.d(M.d(M.e(1))) == -parse_form(M, "123")


def test_load_manifold_errors():
    s = Session()
    with pytest.raises(FileFormatError):
        load_manifold(s, "d 1 = 12\n")  # d before dim
    with pytest.raises(FileFormatError):
        load_manifold(s, "dim 4\ndim 4\n")
    with pytest.raises(FileFormatError):
        load_manifold(s, "dim 4\nwhatever\n")
    with pytest.raises(FileFormatError):
        load_manifold(s, "")
    err = None
    try:
        load_manifold(s, "dim 4\nd 3 = 1x\n")
    except FileFormatError as exc:
        err = exc
    assert err is not None and err.line == 2
    with pytest.raises(FileFormatError):
        load_manifold(s, "dim 4\nd 3 = 15\n")  # index above dim
    with pytest.raises(FileFormatError):
        load_manifold(s, "dim 0\n")
