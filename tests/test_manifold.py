import functools
import itertools
import random
from fractions import Fraction

import pytest

from frameforms import (
    DegreeError,
    DimensionError,
    FileFormatError,
    Form,
    FrameIndexError,
    FrameManifold,
    MissingDeclarationError,
    NotNilpotentError,
    RedeclarationError,
    RiemannianManifold,
    Session,
    build_clifford_table,
    cartan_test,
    frame_bundle,
    load_manifold,
    parse_form,
    print_form,
    wedge,
)

from support import iwasawa6, nilpotent4


def test_new_manifold():
    M = FrameManifold(Session(), 4)
    assert [print_form(g) for g in M.generators()] == ["e1", "e2", "e3", "e4"]
    assert FrameManifold(Session(), 1).dim == 1
    with pytest.raises(DimensionError):
        FrameManifold(Session(), 0)
    for i in (0, 5):
        with pytest.raises(FrameIndexError, match=f"generator index {i} outside 1..4"):
            M.e(i)
    for gen in (M.e(1) + M.e(2), M.e(1) * 2, M.e(1) * M.e(2)):
        with pytest.raises(FrameIndexError, match="expected a single generator"):
            M.declare_d(gen, 0)


def test_parse_and_repr():
    M = nilpotent4(Session())
    assert M.parse("3/2*12-4") == parse_form(M, "3/2*12-4") == M.e(1) * M.e(2) * Fraction(3, 2) - M.e(4)
    assert repr(M) == "<FrameManifold dim=4>"
    assert repr(RiemannianManifold(Session(), 3)) == "<RiemannianManifold dim=3>"


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


def test_lie_bracket_reads_only_declared_entries(monkeypatch):
    """On a loaded manifold of dim 3000000 with one entry, the bracket reads that entry only.

    It equals the dim-3 bracket, and _d_generator is never asked for an
    undeclared generator; on a manifold built by declare_d an undeclared
    generator still raises MissingDeclarationError.
    """
    asked = []
    real = FrameManifold._d_generator

    def counting(self, i):
        asked.append(i)
        return real(self, i)

    monkeypatch.setattr(FrameManifold, "_d_generator", counting)
    small = load_manifold(Session(), "dim 3\nd 3 = 12\n")
    huge = load_manifold(Session(), "dim 3000000\nd 3 = 12\n")
    asked.clear()
    for X, Y in [(1, 2), (2, 1), (1, 3), (3, 3)]:
        got = huge.lie_bracket(huge.e(X), huge.e(Y))
        assert print_form(got) == print_form(small.lie_bracket(small.e(X), small.e(Y)))
    assert print_form(huge.lie_bracket(huge.e(1), huge.e(2))) == "-e3"
    assert set(asked) == {3}
    M = FrameManifold(Session(), 3)
    M.declare_d(3, M.e(1) * M.e(2))
    with pytest.raises(MissingDeclarationError, match=r"d\(e1\) has not been declared"):
        M.lie_bracket(M.e(1), M.e(2))


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


FILIFORM_FILE = "dim 6\nd 3 = 2*12\nd 4 = 13\nd 5 = 1/2*14\nd 6 = (1+i)*15\n"


def filiform6_loaded(session):
    """de^k = c·e^1∧e^{k-1} (k >= 3), so d(de^k) = −c·e^1∧de^{k−1} = 0: de^{k−1} holds e^1 or is 0."""
    return load_manifold(session, FILIFORM_FILE)


@pytest.mark.parametrize(
    "builder", [nilpotent4, iwasawa6, filiform6_loaded], ids=["nilpotent4", "iwasawa6", "filiform6-loaded"]
)
def test_d_squared_zero(builder):
    rng = random.Random(3)
    M = builder(Session())
    for deg in range(M.dim + 1):
        for gens in itertools.combinations(M.generators(), deg):
            assert M.d(M.d(functools.reduce(wedge, gens, M.scalar(1)))) == 0
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


@pytest.mark.parametrize("builder", [nilpotent4, iwasawa6], ids=["nilpotent4", "iwasawa6"])
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


@pytest.mark.parametrize("builder", [nilpotent4, iwasawa6], ids=["nilpotent4", "iwasawa6"])
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


def test_load_manifold_reads_omitted_generators_as_closed():
    """Only declared entries are stored and d²-checked, so a huge dim line costs nothing.

    A later declare_d on a loaded manifold is d²-checked too, and is not kept if d∘d != 0.
    """
    M = load_manifold(Session(), "dim 1000000000\nd 1000000000 = e[1,2]\nd 7 = e[1,999999999]\n")
    assert sorted(M.d_table) == [7, 1000000000]
    assert M.d(M.e(1)) == 0 and M.d(M.e(999999999)) == 0
    assert M.d(M.e(7) * M.e(1000000000)) == parse_form(M, "e[1,999999999,1000000000]-e[1,2,7]")
    with pytest.raises(NotNilpotentError, match=r"^d\(d\(e1000000000\)\) = -e134 is not zero$"):
        load_manifold(Session(), "dim 1000000000\nd 1000000000 = e[1,2]\nd 2 = e[3,4]\n")
    M = load_manifold(Session(), "dim 4\nd 4 = 12\n")
    with pytest.raises(NotNilpotentError, match=r"^d\(d\(e1\)\) = -e123 is not zero$"):
        M.declare_d(1, M.e(3) * M.e(4))
    assert sorted(M.d_table) == [4]
    M.declare_d(3, M.e(1) * M.e(2))
    assert M.lie_bracket(M.e(1), M.e(2)) == -M.e(3) - M.e(4)


def test_declare_d_leaves_d_squared_unchecked():
    """A partial table is not checked: declare_d takes three entries with d∘d != 0."""
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
    # Only ASCII digits and spaces, as in the form parser.
    for text in ("dim \u0666\n", "dim 6\nd \u0665 = 13+42\n"):
        with pytest.raises(FileFormatError, match="unrecognized line"):
            load_manifold(s, text)
    # Entries are declared in file order, so the d² failure at the last new
    # generator (line 5) comes before the redeclaration on line 6.
    with pytest.raises(NotNilpotentError, match=r"^d\(d\(e1\)\) = -e123 is not zero$"):
        load_manifold(s, "dim 4\nd 4 = 12\nd 1 = 34\nd 2 = 0\nd 3 = 0\nd 3 = 0\n")


def _e_of_float_once_cached(s):
    """e(2.0) after e(2) has cached e2: the cache must not answer the float."""
    M = FrameManifold(s, 3)
    assert str(M.e(2)) == "e2"
    M.e(2.0)


def _cartan_test_at_a_float_flag(s):
    """The flag 2.0, 1.0 equals a permutation of 1..2 but is not one of ints."""
    P = frame_bundle(s, 2)
    cartan_test(P, [P.theta(1) * P.omega(1, 2)], [2.0, 1.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda s: FrameManifold(s, 3).declare_d(2.9, 0),
        lambda s: FrameManifold(s, 3).declare_d("1", 0),
        lambda s: FrameManifold(s, 3).e(2.5),
        _e_of_float_once_cached,
        lambda s: FrameManifold(s, 3).e(1).coefficient((1.5,)),
        lambda s: RiemannianManifold(s, 3).u(1.5),
        lambda s: RiemannianManifold(s, 3).connection.gamma(1.5, 1, 2),
        lambda s: RiemannianManifold(s, 3).connection.connection_form(1.5, 2),
        lambda s: frame_bundle(s, 2).theta(1.5),
        lambda s: frame_bundle(s, 2).omega(1.5, 1),
        lambda s: build_clifford_table(2).gamma(1.5),
        lambda s: FrameManifold(s, 2.5),
        _cartan_test_at_a_float_flag,
    ],
    ids=["declare_d-float", "declare_d-str", "e", "e-cached", "coefficient", "u", "gamma", "connection_form",
         "theta", "omega", "clifford-gamma", "dim", "flag"],
)
def test_non_integer_index_raises_type_error(call):
    """An index or a dimension is an int: a float or a digit string is not truncated or stored."""
    with pytest.raises(TypeError):
        call(Session())


def test_declare_d_checks_d_squared_on_the_completing_entry():
    """The entry that completes a table is checked as a loaded file is, and is not kept if d∘d != 0."""
    M = FrameManifold(Session(), 4)
    M.declare_d(4, M.e(1) * M.e(2))
    M.declare_d(1, M.e(3) * M.e(4))
    M.declare_d(2, 0)
    with pytest.raises(NotNilpotentError, match=r"^d\(d\(e1\)\) = -e123 is not zero$"):
        M.declare_d(3, 0)
    assert sorted(M.d_table) == [1, 2, 4]
    N = FrameManifold(Session(), 4)
    for i, w in [(4, N.e(1) * N.e(2)), (1, 0), (2, 0), (3, 0)]:
        N.declare_d(i, w)
    assert sorted(N.d_table) == [1, 2, 3, 4]
