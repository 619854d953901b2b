import random
from fractions import Fraction

import pytest

from frameforms import (
    DegreeError,
    DimensionError,
    Form,
    FrameManifold,
    GaussianRational,
    Poly,
    RiemannianManifold,
    Session,
    Spinor,
    build_clifford_table,
    clifford_mul,
)
from frameforms.scalar import accumulate

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
IU = GaussianRational(0, 1)


def _matmul(a, b):
    """Dense matrix product that adds up only the nonzero terms a[r][k] * b[k][c]."""
    n = len(a)
    return tuple(
        tuple(
            sum((a[r][k] * b[k][c] for k in range(n) if a[r][k] and b[k][c]), ZERO)
            for c in range(n)
        )
        for r in range(n)
    )


def _identity(n):
    return tuple(tuple(ONE if r == c else ZERO for c in range(n)) for r in range(n))


def _scaled_identity(n, c):
    return tuple(tuple(c if r == k else ZERO for k in range(n)) for r in range(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_clifford_relations(n):
    t = build_clifford_table(n)
    dim = t.spinor_dim
    assert dim == 2 ** (n // 2)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            anti = _matmul(t.gamma(i), t.gamma(j))
            anti = tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(anti, _matmul(t.gamma(j), t.gamma(i)))
            )
            expected = _scaled_identity(dim, GaussianRational(-2)) if i == j else _scaled_identity(dim, ZERO)
            assert anti == expected, (n, i, j)


def test_frozen_table_n2():
    t = build_clifford_table(2)
    assert t.gamma(1) == ((ZERO, IU), (IU, ZERO))
    assert t.gamma(2) == ((ZERO, ONE), (-ONE, ZERO))


def test_frozen_table_n3():
    t = build_clifford_table(3)
    assert t.gamma(3) == ((-IU, ZERO), (ZERO, IU))


def test_frozen_table_n4():
    t = build_clifford_table(4)
    assert t.gamma(1) == (
        (ZERO, IU, ZERO, ZERO),
        (IU, ZERO, ZERO, ZERO),
        (ZERO, ZERO, ZERO, -IU),
        (ZERO, ZERO, -IU, ZERO),
    )
    assert t.gamma(2) == (
        (ZERO, ONE, ZERO, ZERO),
        (-ONE, ZERO, ZERO, ZERO),
        (ZERO, ZERO, ZERO, -ONE),
        (ZERO, ZERO, ONE, ZERO),
    )
    assert t.gamma(3) == (
        (ZERO, ZERO, IU, ZERO),
        (ZERO, ZERO, ZERO, IU),
        (IU, ZERO, ZERO, ZERO),
        (ZERO, IU, ZERO, ZERO),
    )
    assert t.gamma(4) == (
        (ZERO, ZERO, ONE, ZERO),
        (ZERO, ZERO, ZERO, ONE),
        (-ONE, ZERO, ZERO, ZERO),
        (ZERO, -ONE, ZERO, ZERO),
    )


def test_volume_element_squares_to_identity():
    t = build_clifford_table(4)
    vol = t.gamma(1)
    for i in (2, 3, 4):
        vol = _matmul(vol, t.gamma(i))
    assert _matmul(vol, vol) == _identity(4)


@pytest.mark.parametrize("n", range(1, 9))
def test_gamma_is_signed_permutation(n):
    """Each generator permutes the basis spinors up to a scalar (bijective)."""
    t = build_clifford_table(n)
    for i in range(1, n + 1):
        g = t.gamma(i)
        for col in range(t.spinor_dim):
            nonzero = [r for r in range(t.spinor_dim) if g[r][col]]
            assert len(nonzero) == 1
        for row in range(t.spinor_dim):
            nonzero = [c for c in range(t.spinor_dim) if g[row][c]]
            assert len(nonzero) == 1


def test_clifford_mul_examples():
    s = Session()
    M = FrameManifold(s, 4)
    t = build_clifford_table(4)
    u0 = Spinor.basis(t.spinor_dim, 0)
    assert clifford_mul(t, M.e(1), clifford_mul(t, M.e(1), u0)) == -1 * u0
    psi = u0 + 2 * Spinor.basis(t.spinor_dim, 3)
    lhs = clifford_mul(t, M.e(1) + M.e(2), psi)
    rhs = clifford_mul(t, M.e(1), psi) + clifford_mul(t, M.e(2), psi)
    assert lhs == rhs
    anti = clifford_mul(t, M.e(1), clifford_mul(t, M.e(2), u0)) + clifford_mul(
        t, M.e(2), clifford_mul(t, M.e(1), u0)
    )
    assert anti == Spinor.zero(t.spinor_dim)


def test_clifford_mul_matches_accumulated_poly_products():
    """clifford_mul against its former formula, accumulate over the products (phase·a)·c, on symbolic coefficients.

    When drawn, two vector terms send two spinor terms to one row with
    opposite products, so zero sums there must be dropped.
    """
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    s = Session()
    x, y = s.symbols("x y")
    M = FrameManifold(s, 4)
    t = build_clifford_table(4)

    def image(g, k):
        """(row, phase) of g_g u_k."""
        ((row, phase),) = t.apply(g, Spinor.basis(4, k)).terms.items()
        return row, phase.terms[()]

    coeffs = st.sampled_from(
        [Poly.constant(1), Poly.constant(-1), x + 0, y + 0, x + y, x - y, 2 * x * y,
         (1 + IU) * x, Fraction(1, 2) * y - 1, x * x - y]
    )
    cancelled = []

    @hyp.settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @hyp.given(
        st.dictionaries(st.integers(1, 4), coeffs, max_size=4),
        st.dictionaries(st.integers(0, 3), coeffs, max_size=4),
        st.booleans(),
        st.data(),
    )
    def check(tv, tpsi, cancel, data):
        if cancel:
            g1, g2 = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True))
            k = data.draw(st.integers(0, 3))
            tv.setdefault(g1, data.draw(coeffs))
            tpsi.setdefault(k, data.draw(coeffs))
            row, phase = image(g1, k)
            k2 = next(j for j in range(4) if image(g2, j)[0] == row)
            if k2 != k:
                tv[g2] = tv[g1]
                tpsi[k2] = tpsi[k] * -(phase / image(g2, k2)[1])
        v, psi = Form(M, {(g,): c for g, c in tv.items()}), Spinor(4, tpsi)
        products = [(k, a * c) for (g,), c in v.terms.items() for k, a in t.apply(g, psi).terms.items()]
        old = accumulate({}, products)
        got = clifford_mul(t, v, psi)
        assert got.terms == old
        assert all(got.terms.values())
        cancelled.append(any(k not in old or m not in old[k].terms for k, p in products for m in p.terms))

    check()
    assert sum(cancelled) > 60


def test_clifford_mul_degree_error():
    s = Session()
    M = FrameManifold(s, 4)
    t = build_clifford_table(4)
    with pytest.raises(DegreeError):
        clifford_mul(t, M.e(1) * M.e(2), Spinor.basis(4, 0))
    assert clifford_mul(t, M.zero(), Spinor.basis(4, 0)) == 0


def test_clifford_mul_checks_the_spinor_for_every_vector():
    """A spinor of another dimension is an error even for the zero vector, as nabla_spinor makes it."""
    M = RiemannianManifold(Session(), 4)
    wrong = Spinor.basis(8, 0)
    message = r"^spinor of dimension 8 does not match the table \(4\)$"
    for v in (M.zero(), M.e(1)):
        with pytest.raises(DimensionError, match=message):
            M.clifford_mul(v, wrong)
    with pytest.raises(DimensionError, match=message):
        M.connection.nabla_spinor(M.e(1), wrong)


def test_spinor_algebra():
    s = Session()
    g = s.symbol("g")
    a = Spinor.basis(4, 0)
    b = Spinor.basis(4, 1)
    combo = a * g + b * Fraction(1, 2)
    assert combo.coefficients() == [(0, Poly.from_symbol(g)), (1, Poly.constant(Fraction(1, 2)))]
    assert combo - combo == 0
    assert str(Spinor.zero(4)) == "0"
    assert str(a - b) == "u0-u1"
    assert combo.substitute_scalars({g: Poly.constant(0)}) == b * Fraction(1, 2)
    assert combo.substitute_scalars({}) is combo
    assert 0 * combo == Spinor.zero(4)
    assert combo * 0 == 0
    with pytest.raises(DimensionError):
        a + Spinor.basis(2, 0)
    with pytest.raises(DimensionError):
        Spinor.basis(2, 0) + Spinor.basis(4, 0)
    with pytest.raises(DimensionError):
        Spinor.basis(4, 5)


def test_riemannian_clifford_mul_repr_and_unsupported_operands():
    R = RiemannianManifold(Session(), 4)
    psi = R.u(0) + R.u(3) * 2
    v = R.e(1) - R.e(2) * Fraction(1, 2)
    product = R.clifford_mul(v, psi)
    assert product and product == clifford_mul(R.clifford, v, psi)
    assert repr(psi) == "Spinor(u0+2*u3)"
    other = object()
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: b - a):
        with pytest.raises(TypeError, match="unsupported operand"):
            op(psi, other)
    assert psi.__eq__(other) is NotImplemented and psi != other


def test_clifford_indices_outside_the_table():
    M = FrameManifold(Session(), 3)
    t = build_clifford_table(2)
    with pytest.raises(DimensionError, match=r"frame index 3 outside the Clifford table \(n=2\)"):
        clifford_mul(t, M.e(3), Spinor.basis(t.spinor_dim, 0))
    for i in (0, 3):
        with pytest.raises(DimensionError, match=f"gamma index {i} outside 1..2"):
            t.gamma(i)


def test_build_rejects_bad_dimension():
    with pytest.raises(DimensionError):
        build_clifford_table(0)


def test_random_spinor_linearity():
    rng = random.Random(21)
    s = Session()
    M = FrameManifold(s, 5)
    t = build_clifford_table(5)
    for _ in range(50):
        v = M.zero()
        for g in range(1, 6):
            v = v + M.e(g) * Fraction(rng.randint(-2, 2))
        psi = Spinor.zero(t.spinor_dim)
        for k in range(t.spinor_dim):
            psi = psi + Spinor.basis(t.spinor_dim, k) * Fraction(rng.randint(-2, 2))
        phi = Spinor.basis(t.spinor_dim, rng.randrange(t.spinor_dim))
        assert clifford_mul(t, v, psi + phi) == clifford_mul(t, v, psi) + clifford_mul(t, v, phi)
        # Cancelling sums store no zero, not even inside a coefficient.
        for r in (psi + phi, psi - psi, clifford_mul(t, v, psi + phi)):
            assert all(c and all(c.terms.values()) for c in r.terms.values())


@pytest.mark.parametrize("n", range(1, 9))
def test_apply_matches_dense_gamma(n):
    """Clifford multiplication equals the dense product gamma(i) . psi."""
    rng = random.Random(n)
    s = Session()
    x, y = s.symbols("x y")
    t = build_clifford_table(n)
    dim = t.spinor_dim

    def rand_coeff():
        c = Poly.zero()
        for mono in (1, x, x * y):
            c = c + mono * GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
        return c

    for _ in range(10):
        psi = Spinor(dim, {k: c for k in range(dim) if (c := rand_coeff())})
        for i in range(1, n + 1):
            g = t.gamma(i)
            dense = {}
            for r in range(dim):
                v = sum((c * g[r][k] for k, c in psi.terms.items()), Poly.zero())
                if v:
                    dense[r] = v
            assert t.apply(i, psi) == Spinor(dim, dense), (n, i)


def test_one_clifford_table_per_dimension():
    """Each n builds one table, which every manifold of that dimension shares.

    The table owns the products g_j g_k (j < k); a declaration on one
    manifold leaves a manifold sharing its table as it was, and a float
    equal to a cached n is still refused.
    """
    t = build_clifford_table(5)
    assert build_clifford_table(5) is t
    assert isinstance(t.pair_products, tuple)
    assert t.pair_products == tuple((j, k, t.product(j, k)) for j in range(1, 6) for k in range(j + 1, 6))
    A, B = RiemannianManifold(Session(), 5), RiemannianManifold(Session(), 5)
    assert A.clifford is B.clifford is t
    before = B.connection.nabla_spinor(B.e(1), B.u(0))
    A.declare_nabla_spinor(A.e(1), A.u(0), 0)
    assert A.connection.nabla_spinor(A.e(1), A.u(0)) == 0
    assert B.connection.nabla_spinor(B.e(1), B.u(0)) == before != 0
    build_clifford_table(4)
    build_clifford_table(n=4)
    for args, kwargs in (((4.0,), {}), ((), {"n": 4.0})):
        with pytest.raises(TypeError):
            build_clifford_table(*args, **kwargs)
