import random
from fractions import Fraction

import pytest

from frameforms import (
    Connection,
    FrameManifold,
    InconsistentError,
    NonLinearError,
    Poly,
    RiemannianManifold,
    Session,
    UnsupportedKindError,
    pairing,
    parse_form,
    wedge,
)
from frameforms.cli import (
    almost_complex_torsion,
    bilagrangian_brackets,
    su2_spinor_forms,
)


def nilpotent4(session):
    M = FrameManifold(session, 4)
    M.declare_d(1, 0)
    M.declare_d(2, 0)
    M.declare_d(3, M.e(1) * M.e(2))
    M.declare_d(4, M.e(1) * M.e(3))
    return M


def torus(session, n=4):
    M = FrameManifold(session, n)
    for i in range(1, n + 1):
        M.declare_d(i, 0)
    return M


def test_generic_connection_counts_and_names():
    s = Session()
    M = torus(s)
    c = Connection(M, prefix="Gamma'")
    assert len(c.free_parameters()) == 64
    assert str(c.free_parameters()[0]) == "Gamma'111"
    assert c.gamma(1, 2, 3) == Poly.from_symbol(c.free_parameters()[0 * 16 + 1 * 4 + 2])


def test_connection_accepts_non_simple_frame():
    s = Session()
    M = torus(s)
    frame = [M.e(1) + M.e(2), M.e(2), M.e(3), M.e(4)]
    c = Connection(M, frame=frame)
    duals = c.frame.dual_basis()
    # defining relation of the symbols, through the dual frame
    for i in range(4):
        for j in range(4):
            v = c.nabla_vector(duals[i], duals[j])
            for k in range(4):
                assert pairing(v, frame[k]) == c.gamma(i + 1, j + 1, k + 1)


def test_nabla_examples():
    s = Session()
    M = nilpotent4(s)
    c = Connection(M)
    for k in range(1, 5):
        assert pairing(c.nabla_vector(M.e(1), M.e(1)), M.e(k)) == c.gamma(1, 1, k)
    # duality of the vector and form rules
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(1, 5):
                lhs = pairing(c.nabla_form(M.e(i), M.e(k)), M.e(j))
                assert lhs + c.gamma(i, j, k) == 0


def _oracle_rank(rows):
    """Rank of sparse rows over Fraction, by straightforward elimination."""
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        changed = True
        while changed:
            changed = False
            for pivot, prow in pivots.items():
                c = row.get(pivot)
                if not c:
                    continue
                for k, v in prow.items():
                    nv = row.get(k, 0) - c * v
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
                changed = True
        if row:
            pivot = min(row)
            pv = row[pivot]
            pivots[pivot] = {k: v / pv for k, v in row.items()}
            rank += 1
    return rank


def test_torsion_free_from_d():
    s = Session()
    M = nilpotent4(s)
    h = Connection.torsion_free(M)
    assert all(not t for t in h.torsion())
    # independent rank oracle: the structure equations antisymmetrize
    # Gamma in the first two indices, one equation per (j, i<l)
    rows = []
    for j in range(1, 5):
        for i in range(1, 5):
            for l in range(i + 1, 5):
                rows.append({(i, l, j): Fraction(1), (l, i, j): Fraction(-1)})
    rank = _oracle_rank(rows)
    assert rank == 24
    assert len(h.free_parameters()) == 64 - rank == 40


def test_torsion_free_matches_classical_bracket_identity():
    """nabla_X Y - nabla_Y X = [X, Y] for a torsion-free connection."""
    rng = random.Random(17)
    s = Session()
    M = nilpotent4(s)
    h = Connection.torsion_free(M)
    for _ in range(25):
        X = M.zero()
        Y = M.zero()
        for g in range(1, 5):
            X = X + M.e(g) * Fraction(rng.randint(-3, 3))
            Y = Y + M.e(g) * Fraction(rng.randint(-3, 3))
        lhs = h.nabla_vector(X, Y) - h.nabla_vector(Y, X)
        assert lhs == M.lie_bracket(X, Y)


def test_torsion_free_with_non_simple_frame():
    s = Session()
    M = nilpotent4(s)
    frame = [M.e(1) + M.e(2), M.e(2), M.e(3), M.e(4) + 2 * M.e(1)]
    h = Connection.torsion_free(M, frame=frame)
    assert all(not t for t in h.torsion())


def test_torsion_free_on_torus_antisymmetrizes():
    s = Session()
    M = torus(s)
    h = Connection.torsion_free(M)
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(1, 5):
                assert h.gamma(i, j, k) == h.gamma(j, i, k)


def test_torsion_free_random_nilpotent_tables():
    """Structure-equation residual is identically zero on random d-tables with d^2 = 0."""
    rng = random.Random(31)
    for _ in range(15):
        s = Session()
        n = rng.randint(3, 6)
        M = FrameManifold(s, n)
        closed = rng.randint(2, n - 1)
        for i in range(1, closed + 1):
            M.declare_d(i, 0)
        for i in range(closed + 1, n + 1):
            w = M.zero()
            for a in range(1, closed + 1):
                for b in range(a + 1, closed + 1):
                    w = w + (M.e(a) * M.e(b)) * Fraction(rng.randint(-2, 2))
            M.declare_d(i, w)
        for i in range(1, n + 1):
            assert M.d(M.d(M.e(i))) == 0
        h = Connection.torsion_free(M)
        assert all(not t for t in h.torsion())


def test_levi_civita_free_examples():
    s = Session()
    M = RiemannianManifold(s, 4)
    c = M.connection
    assert len(c.free_parameters()) == 24  # 4 * C(4,2)
    # d is defined from the connection
    for j in range(1, 5):
        expected = M.zero()
        for i in range(1, 5):
            expected = expected + wedge(M.e(i), c.nabla_form(M.e(i), M.e(j)))
        assert M.d(M.e(j)) == expected
    assert M.d(M.scalar(1)) == 0
    # metric: antisymmetric in the last two indices, identically
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(1, 5):
                assert c.gamma(i, j, k) + c.gamma(i, k, j) == 0
    # Levi-Civita is torsion free by construction
    assert all(not t for t in c.torsion())


def test_levi_civita_d_is_linear_and_leibniz():
    s = Session()
    M = RiemannianManifold(s, 4)
    f = s.symbol("f")
    w = M.e(1) * M.e(2)
    assert M.d(w * f) == M.d(w) * f
    a, b = M.e(1), M.e(2) * M.e(3)
    assert M.d(wedge(a, b)) == wedge(M.d(a), b) - wedge(a, M.d(b))


def test_nabla_spinor_expansion():
    """Spinor derivative along e1 equals (1/4) sum Gamma_1jk g_j g_k u0."""
    s = Session()
    M = RiemannianManifold(s, 4)
    c = M.connection
    u0 = M.u(0)
    got = c.nabla_spinor(M.e(1), u0)
    expected = None
    from frameforms import Spinor

    expected = Spinor.zero(M.clifford.spinor_dim)
    for j in range(1, 5):
        for k in range(1, 5):
            if j == k:
                continue
            g = c.gamma(1, j, k)
            if not g:
                continue
            expected = expected + M.clifford.apply(j, M.clifford.apply(k, u0)) * (
                g * Fraction(1, 4)
            )
    assert got == expected
    # linear homogeneous in the symbols: substituting all to zero kills it
    zeros = {sym: Poly.zero() for sym in c.free_parameters()}
    assert got.substitute_scalars(zeros) == 0


def test_nabla_spinor_requires_metric_connection():
    s = Session()
    M = nilpotent4(s)
    c = Connection(M)
    with pytest.raises(UnsupportedKindError):
        c.nabla_spinor(M.e(1), None)


def test_declare_nabla_examples():
    s = Session()
    M = torus(s)
    c = Connection(M)
    c.declare_nabla_vector(M.e(1), M.e(1), 0)
    for k in range(1, 5):
        assert pairing(c.nabla_vector(M.e(1), M.e(1)), M.e(k)) == 0
    # idempotent: redeclaring an implied constraint changes nothing
    before = dict(c._subs)
    c.declare_nabla_vector(M.e(1), M.e(1), 0)
    assert c._subs == before
    # contradictory redeclaration
    c2 = Connection(M)
    c2.declare_nabla_vector(M.e(1), M.e(1), M.e(1))
    with pytest.raises(InconsistentError):
        c2.declare_nabla_vector(M.e(1), M.e(1), 2 * M.e(1))


def test_declare_zero_examples():
    s = Session()
    M = torus(s)
    c = Connection(M)
    before = dict(c._subs)
    c.declare_zero([M.zero()])
    assert c._subs == before
    with pytest.raises(InconsistentError):
        c.declare_zero([(M.e(1) * M.e(2)) * 3])


def test_failed_declaration_leaves_connection_unchanged():
    s = Session()
    M = torus(s)
    c = Connection(M)
    c.declare_nabla_vector(M.e(1), M.e(1), M.e(2))
    g1, g2, g3 = c.free_parameters()[:3]
    subs, free = dict(c._subs), c.free_parameters()
    table = [str(c.gamma(i, j, k)) for i in range(1, 5) for j in range(1, 5) for k in range(1, 5)]

    def unchanged():
        assert c._subs == subs
        assert c.free_parameters() == free
        assert [str(c.gamma(i, j, k)) for i in range(1, 5) for j in range(1, 5) for k in range(1, 5)] == table

    with pytest.raises(InconsistentError):
        c.declare_zero([g1 - 1, g1 - 2])
    unchanged()
    with pytest.raises(NonLinearError):
        c.declare_zero([g2 - 1, g3 * g3])
    unchanged()
    c.declare_zero([g1 - 1])
    assert g1 not in c.free_parameters()
    assert c._subs[g1] == 1


def test_declare_zero_nonlinear_error_texts():
    s = Session()
    a = s.symbol("a")
    c = Connection(torus(s), prefix="G")
    g1, g2 = c.free_parameters()[:2]
    with pytest.raises(NonLinearError) as exc:
        c.declare_zero([g1 * g2])
    assert str(exc.value) == "term G111*G112 is not linear in the unknowns"
    with pytest.raises(NonLinearError) as exc:
        c.declare_zero([a * g1 + 1])
    assert str(exc.value) == "unknown G111 carries a parametric coefficient in a*G111"


def test_almost_complex_torsion_reference_values():
    s = Session()
    M, h, k, torsion = almost_complex_torsion(s)
    expected = [
        M.zero(),
        M.zero(),
        parse_form(M, "-1/4*32-1/4*41"),
        parse_form(M, "1/4*42-1/4*31"),
    ]
    assert torsion == expected
    # independent of the remaining free parameters: substitute twice at random
    rng = random.Random(77)
    free = h.free_parameters() + k.free_parameters()
    for _ in range(2):
        rules = {
            sym: Poly.constant(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            for sym in free
        }
        assert [t.substitute_scalars(rules) for t in torsion] == expected


def test_torsion_vanishes_for_flat_declaration():
    s = Session()
    M = torus(s)
    c = Connection(M)
    for i in range(1, 5):
        for j in range(1, 5):
            c.declare_nabla_vector(M.e(i), M.e(j), 0)
    assert all(not t for t in c.torsion())
    # all connection forms are zero, so the curvature vanishes too
    curv = c.curvature()
    assert all(not w for row in curv for w in row)


def test_curvature_riemannian_antisymmetry():
    s = Session()
    M = RiemannianManifold(s, 4)
    curv = M.connection.curvature()
    for j in range(4):
        for k in range(4):
            assert curv[j][k] == -curv[k][j]


def test_curvature_on_torus_is_wedge_square():
    s = Session()
    M = torus(s)
    c = Connection(M)
    curv = c.curvature()
    for j in range(1, 5):
        for k in range(1, 5):
            expected = M.zero()
            for l in range(1, 5):
                expected = expected + wedge(c.connection_form(j, l), c.connection_form(l, k))
            assert curv[j - 1][k - 1] == expected


def test_riemannian_lie_bracket():
    s = Session()
    M = RiemannianManifold(s, 4)
    c = M.connection
    assert M.lie_bracket(M.e(1), M.e(1)) == 0
    for i in range(1, 5):
        for j in range(1, 5):
            br = M.lie_bracket(M.e(i), M.e(j))
            for k in range(1, 5):
                assert pairing(br, M.e(k)) == c.gamma(i, j, k) - c.gamma(j, i, k)
            # agrees with the d-table route through the connection's d
            assert br == FrameManifold.lie_bracket(M, M.e(i), M.e(j))


def test_su2_parallel_spinor_chain():
    s = Session()
    M = RiemannianManifold(s, 4)
    for i in range(1, 5):
        M.declare_nabla_spinor(M.e(i), M.u(0), 0)
    for w in su2_spinor_forms(M):
        assert M.d(w) == 0
    # the parallel-spinor condition cuts 3 of the 6 rotation parameters
    # per direction, leaving the su(2) half
    assert len(M.connection.free_parameters()) == 12
    # the constraint is exactly SU(2): the opposite combinations stay non-closed
    assert M.d(M.e(1) * M.e(2) - M.e(3) * M.e(4)) != 0


# n * dim of the stabilizer of a pure spinor: SU(2), SU(2), SU(3), SU(3), SU(4).
@pytest.mark.parametrize("n, free", [(4, 12), (5, 15), (6, 48), (7, 56), (8, 120)])
def test_parallel_spinor_leaves_stabilizer(n, free):
    for k in range(2 ** (n // 2)):
        M = RiemannianManifold(Session(), n)
        for i in range(1, n + 1):
            M.declare_nabla_spinor(M.e(i), M.u(k), 0)
        assert len(M.connection.free_parameters()) == free, f"u({k})"


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_declare_nabla_spinor_builds_no_fraction(monkeypatch, n):
    """The 1/2 of the spinor derivative is one Q(i) constant, not a Fraction per term."""
    M = RiemannianManifold(Session(), n)
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for i in range(1, n + 1):
        M.declare_nabla_spinor(M.e(i), M.u(1), 0)
    monkeypatch.undo()
    assert made == []
    assert M.connection.free_parameters()


def test_su2_converse_impose_d():
    s = Session()
    M = RiemannianManifold(s, 4)
    for w in su2_spinor_forms(M):
        M.impose_d(w, 0)
    for w in su2_spinor_forms(M):
        assert M.d(w) == 0


def test_impose_d_examples():
    s = Session()
    M = RiemannianManifold(s, 4)
    w = M.e(1) * M.e(2) + M.e(3) * M.e(4)
    M.impose_d(w, 0)
    assert M.d(w) == 0
    with pytest.raises(InconsistentError):
        M.impose_d(M.zero(), M.e(1) * M.e(2))


def test_declare_d_on_riemannian_manifold_imposes():
    s = Session()
    M = RiemannianManifold(s, 4)
    M.declare_d(1, 0)
    assert M.d(M.e(1)) == 0


def test_bilagrangian_distributions():
    s = Session()
    M, b13, b24 = bilagrangian_brackets(s)
    assert b13.coefficient((2,)) == 0
    assert b13.coefficient((4,)) == 0
    assert b24.coefficient((1,)) == 0
    assert b24.coefficient((3,)) == 0


def test_hook_projection_shape_of_bilagrangian():
    # the brackets stay tangent to their distributions under random
    # substitution of the leftover parameters
    rng = random.Random(99)
    s = Session()
    M, b13, b24 = bilagrangian_brackets(s)
    free = M.connection.free_parameters()
    rules = {
        sym: Poly.constant(Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for sym in free
    }
    for form, dead in ((b13, (2, 4)), (b24, (1, 3))):
        sub = form.substitute_scalars(rules)
        for g in dead:
            assert sub.coefficient((g,)) == 0


def iwasawa6(session):
    M = FrameManifold(session, 6)
    for i in (1, 2, 3, 4):
        M.declare_d(i, 0)
    M.declare_d(5, M.e(1) * M.e(3) + M.e(4) * M.e(2))
    M.declare_d(6, M.e(1) * M.e(4) + M.e(2) * M.e(3))
    return M


def _non_simple_frame(M):
    """A frame of M whose elements mix generators, so its dual frame does too."""
    n = M.dim
    return [M.e(i) + M.e(i % n + 1) * Fraction(i, 2) for i in range(1, n)] + [M.e(n) - M.e(1)]


def _rand_vector(rng, M):
    return sum((M.e(g) * rng.randint(-2, 2) for g in range(1, M.dim + 1)), M.zero())


def _rand_form(rng, M, symbol):
    """Up to three terms of degrees 0..3 with coefficients a*symbol + b."""
    out = M.zero()
    for _ in range(rng.randint(1, 3)):
        term = M.scalar(symbol * rng.randint(-2, 2) + Fraction(rng.randint(-3, 3), 2))
        for g in rng.sample(range(1, M.dim + 1), rng.randint(0, 3)):
            term = term * M.e(g)
        out = out + term
    return out


def test_nabla_form_leibniz_on_non_simple_frame():
    """nabla_X(a∧b) = nabla_X a∧b + a∧nabla_X b: nabla_X is an even derivation."""
    rng = random.Random(61)
    s = Session()
    M = nilpotent4(s)
    c = Connection(M, frame=_non_simple_frame(M))
    c.declare_nabla_vector(M.e(1), M.e(2), M.e(3))
    x = s.symbol("x")
    nonzero = 0
    for _ in range(40):
        X = _rand_vector(rng, M)
        a, b = _rand_form(rng, M, x), _rand_form(rng, M, x)
        lhs = c.nabla_form(X, wedge(a, b))
        assert lhs == wedge(c.nabla_form(X, a), b) + wedge(a, c.nabla_form(X, b))
        nonzero += bool(lhs)
    assert nonzero >= 20


def test_nabla_coframe_reads_minus_gamma_on_non_simple_frame():
    """<nabla_X f^k, f_j> = -sum_i X^i Gamma_ijk, with X^i = f^i(X)."""
    rng = random.Random(62)
    M = iwasawa6(Session())
    frame = _non_simple_frame(M)
    c = Connection(M, frame=frame)
    duals = c.frame.dual_basis()
    for _ in range(3):
        X = _rand_vector(rng, M)
        xi = [pairing(X, f) for f in frame]
        for k in range(6):
            nabla = c.nabla_form(X, frame[k])
            for j in range(6):
                terms = (xi[i] * c.gamma(i + 1, j + 1, k + 1) for i in range(6))
                assert pairing(nabla, duals[j]) == -sum(terms, Poly.zero())


def _reference_torsion(conn):
    """de^j - sum_i f^i ∧ nabla_{f_i} f^j, through nabla_form and the dual frame."""
    M = conn.manifold
    duals = conn.frame.dual_basis()
    out = []
    for fj in conn.frame:
        theta = M.d(fj)
        for fi, dual in zip(conn.frame, duals):
            theta = theta - wedge(fi, conn.nabla_form(dual, fj))
        out.append(theta)
    return out


def _torsion_cases():
    s = Session()
    nil, iwa = nilpotent4(s), iwasawa6(s)
    yield "generic-non-simple-nilpotent", Connection(nil, frame=_non_simple_frame(nil), prefix="A")
    yield "generic-non-simple-iwasawa", Connection(iwa, frame=_non_simple_frame(iwa), prefix="B")
    declared = Connection(nil, frame=_non_simple_frame(nil), prefix="C")
    declared.declare_nabla_vector(nil.e(1), nil.e(2), nil.e(3) - nil.e(4))
    declared.declare_nabla_form(nil.e(2), nil.e(1) * nil.e(3), 0)
    yield "declared-non-simple", declared
    _, h, k, _ = almost_complex_torsion(s)
    yield "almost-complex-h", h
    yield "almost-complex-k", k
    R = RiemannianManifold(s, 4, prefix="R")
    yield "riemannian", R.connection
    for i in range(1, 5):
        R.declare_nabla_spinor(R.e(i), R.u(0), 0)
    yield "riemannian-parallel-spinor", R.connection
    yield "metric-on-riemannian", Connection(R, prefix="S", antisymmetric=True)
    B, _, _ = bilagrangian_brackets(s)
    yield "bilagrangian", B.connection


def test_torsion_matches_nabla_form_reference():
    """torsion() is Cartan's de^j + sum_k omega_kj ∧ e^k; compare the nabla route."""
    nonzero = 0
    for name, conn in _torsion_cases():
        torsion = conn.torsion()
        assert torsion == _reference_torsion(conn), name
        nonzero += any(torsion)
    assert nonzero >= 5
