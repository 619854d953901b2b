import collections
import functools
import hashlib
import random
import re
from fractions import Fraction

import pytest

from frameforms import (
    Connection,
    DegreeError,
    DimensionError,
    FormBasis,
    FrameIndexError,
    FrameManifold,
    I,
    InconsistentError,
    NonLinearError,
    Poly,
    RedeclarationError,
    RiemannianManifold,
    Session,
    Spinor,
    UnsupportedKindError,
    frame_bundle,
    hook,
    linear_solve,
    pairing,
    parse_form,
    wedge,
)
from frameforms.cli import (
    almost_complex_torsion,
    bilagrangian_brackets,
    su2_spinor_forms,
)
from frameforms.exterior import _indexed_name
from frameforms.scalar import Echelon

from support import exact_rank, iwasawa6, nilpotent4


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


def test_connection_names_unique_past_nine():
    """From n = 10 an index has two digits, so the names take a bracket list, like e[10,11]."""
    c = Connection(FrameManifold(Session(), 11))
    names = [str(g) for g in c.free_parameters()]
    assert len(names) == len(set(names)) == 11**3
    assert names[0] == "Gamma111"
    assert str(c.gamma(1, 11, 1) + c.gamma(11, 1, 1)) == "Gamma[1,11,1]+Gamma[11,1,1]"


@pytest.mark.parametrize("n", [4, 9, 10])
@pytest.mark.parametrize("antisymmetric", [False, True], ids=["generic", "antisymmetric"])
def test_connection_symbols_are_named_by_their_indices_in_creation_order(n, antisymmetric):
    """Symbol k of the table is Gamma(i, j, k) for the k-th triple; a second table of one prefix is refused."""
    M = FrameManifold(Session(), n)
    r = range(1, n + 1)
    triples = [(i, j, k) for i in r for j in r for k in r if not antisymmetric or j < k]
    first = Connection(M, prefix="G", antisymmetric=antisymmetric)
    symbols = first.free_parameters()
    assert [s.index for s in symbols] == sorted(s.index for s in symbols)
    assert [s.name for s in symbols] == [_indexed_name("G", idx) for idx in triples]
    for idx, s in zip(triples, symbols):
        assert first.gamma(*idx) == Poly.from_symbol(s)
    if n == 10:
        assert symbols[-1].name == ("G[10,9,10]" if antisymmetric else "G[10,10,10]")
    with pytest.raises(RedeclarationError, match=f"^symbol {re.escape(symbols[0].name)} already declared"):
        Connection(M, prefix="G", antisymmetric=antisymmetric)
    renamed = Connection(M, prefix="H", antisymmetric=antisymmetric).free_parameters()
    assert [s.name for s in renamed] == [_indexed_name("H", idx) for idx in triples]
    assert not set(renamed) & set(symbols)


def test_a_second_gamma_family_on_a_riemannian_manifold_is_refused():
    """Connection(R) would take R's prefix Gamma again, and its Gamma112 would print as R's."""
    s = Session()
    R = RiemannianManifold(s, 4)
    held = dict(s._symbols)
    with pytest.raises(RedeclarationError, match="^symbol Gamma112 already declared"):
        Connection(R)
    assert s._symbols == held
    c = Connection(R, prefix="G")
    assert str(c.gamma(1, 1, 2) - R.connection.gamma(1, 1, 2)) == "-Gamma112+G112"


def test_a_family_that_clashes_partway_makes_no_symbol():
    s = Session()
    M = torus(s)
    held, index = {"G213": s.symbol("G213")}, s.next_index()
    with pytest.raises(RedeclarationError, match="^symbol G213 already declared"):
        Connection(M, prefix="G")
    assert s._symbols == held and s.next_index() == index + 1
    with pytest.raises(ValueError, match="^symbol name 'G H112' is empty or holds whitespace$"):
        Connection(M, prefix="G H", antisymmetric=True)
    assert s._symbols == held and s.next_index() == index + 2
    r = range(1, 5)
    names = [_indexed_name("H", (i, j, k)) for i in r for j in r for k in r]
    made = Connection(M, prefix="H").free_parameters()
    assert [g.name for g in made] == names
    assert [g.index for g in made] == list(range(index + 3, index + 3 + 64))
    assert list(s._symbols) == ["G213"] + names


def test_one_session_gives_each_name_one_symbol():
    """A seeded mix of every symbol maker in one session: refused calls make nothing, the rest distinct names."""
    rng = random.Random(40)
    s = Session()
    M = torus(s, 3)
    makers = [
        lambda: [s.symbol(rng.choice(["x", "y", "G111", "H112", "p31", "Gamma112"]))],
        lambda: s.symbols(" ".join(rng.sample(["x", "y", "z", "u", "v", "w", "H123", "p41"], 2))),
        lambda: Connection(M, prefix=rng.choice("GHKL")).free_parameters(),
        lambda: Connection(M, prefix=rng.choice("GHKL"), antisymmetric=True).free_parameters(),
        lambda: RiemannianManifold(s, rng.choice([2, 3, 4]), rng.choice(["Gamma", "R"])).connection.free_parameters(),
        lambda: list(frame_bundle(s, rng.choice([1, 2, 3])).p.values()),
    ]
    made, outcomes = [], collections.Counter()
    for _ in range(80):
        held, kind = dict(s._symbols), rng.randrange(len(makers))
        try:
            made += makers[kind]()
            outcomes[kind, "made"] += 1
        except RedeclarationError:
            outcomes[kind, "refused"] += 1
            assert s._symbols == held
    names = [g.name for g in made]
    assert len(set(names)) == len(names)
    assert list(s._symbols.values()) == made
    assert all(outcomes[kind, outcome] for kind in range(len(makers)) for outcome in ("made", "refused"))


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
    rank = exact_rank(rows)
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
    # a metric connection on a manifold without a spinor module
    metric = Connection(M, prefix="A", antisymmetric=True)
    with pytest.raises(UnsupportedKindError, match="no spinor module"):
        metric.nabla_spinor(M.e(1), Spinor.basis(4, 0))


def test_declare_nabla_spinor_value_must_be_a_spinor_or_zero():
    R = RiemannianManifold(Session(), 4)
    with pytest.raises(TypeError, match="needs a Spinor or 0 value"):
        R.connection.declare_nabla_spinor(R.e(1), R.u(0), 1)
    assert len(R.connection.free_parameters()) == 24


def test_connection_frame_must_be_a_coframe():
    M = torus(Session(), 3)
    e1, e2, e3 = M.generators()
    with pytest.raises(DegreeError, match="must be one-forms"):
        Connection(M, frame=[e1 * e2, e2, e3])
    for frame in ([e1, e2, e1 + e2], [e1, e2]):
        with pytest.raises(ValueError, match=r"^frame spans only 2 of 3 dimensions$"):
            Connection(M, frame=frame)
    # A dependent or zero element is refused even when the others span.
    for frame in ([e1, e2, 2 * e1, e3], [e1, e1 + e2, e2, e3], [e1, 0 * e1, e2, e3]):
        with pytest.raises(ValueError, match=r"^frame has 4 one-forms for 3 dimensions$"):
            Connection(M, frame=frame)
    P = torus(Session(), 2)
    f1, f2 = P.generators()
    for frame in ([f1, 2 * f1, f2], [f1, f1 + f2, f2]):
        with pytest.raises(ValueError, match=r"^frame has 3 one-forms for 2 dimensions$"):
            Connection(P, frame=frame)


def test_declare_nabla_examples():
    s = Session()
    M = torus(s)
    c = Connection(M)
    c.declare_nabla_vector(M.e(1), M.e(1), 0)
    for k in range(1, 5):
        assert pairing(c.nabla_vector(M.e(1), M.e(1)), M.e(k)) == 0
    # idempotent: redeclaring an implied constraint changes nothing
    before = c._echelon.solved()
    c.declare_nabla_vector(M.e(1), M.e(1), 0)
    assert c._echelon.solved() == before
    # contradictory redeclaration
    c2 = Connection(M, prefix="G")
    c2.declare_nabla_vector(M.e(1), M.e(1), M.e(1))
    with pytest.raises(InconsistentError):
        c2.declare_nabla_vector(M.e(1), M.e(1), 2 * M.e(1))


def test_declare_zero_examples():
    s = Session()
    M = torus(s)
    c = Connection(M)
    before = c._echelon.solved()
    c.declare_zero([M.zero()])
    assert c._echelon.solved() == before
    with pytest.raises(InconsistentError):
        c.declare_zero([(M.e(1) * M.e(2)) * 3])


def test_failed_declaration_leaves_connection_unchanged():
    s = Session()
    M = torus(s)
    c = Connection(M)
    c.declare_nabla_vector(M.e(1), M.e(1), M.e(2))
    g1, g2, g3 = c.free_parameters()[:3]
    subs, free = c._echelon.solved(), c.free_parameters()
    table = [str(c.gamma(i, j, k)) for i in range(1, 5) for j in range(1, 5) for k in range(1, 5)]

    def unchanged():
        assert c._echelon.solved() == subs
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
    assert c._echelon.solved()[g1] == 1


def test_handed_out_values_keep_their_values_across_declarations():
    """gamma, connection_form and torsion results do not follow later declarations.

    A solved antisymmetric Gamma_ikj with j < k is returned on its live
    echelon row, so this holds only while each declaration works on a
    copy of the rows.
    """
    s = Session()
    R = RiemannianManifold(s, 4)
    for i in range(1, 5):
        R.declare_nabla_spinor(R.e(i), R.u(0), 0)
    c = Connection(nilpotent4(s), prefix="T", antisymmetric=True)
    c.declare_zero([c.torsion()[2]])
    idx = range(1, 5)
    for conn in (R.connection, c):

        def results():
            return (
                [conn.gamma(i, j, k) for i in idx for j in idx for k in idx]
                + [conn.connection_form(j, k) for j in idx for k in idx]
                + conn.torsion()
            )

        held = results()
        text = [str(x) for x in held]
        for sym in conn.free_parameters():
            conn.declare_zero([sym - 1])
        assert [str(x) for x in held] == text
        assert [str(x) for x in results()] != text


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
                expected = expected - wedge(c.connection_form(j, l), c.connection_form(l, k))
            assert curv[j - 1][k - 1] == expected


def heisenberg(session):
    M = FrameManifold(session, 3)
    M.declare_d(1, 0)
    M.declare_d(2, 0)
    M.declare_d(3, M.e(1) * M.e(2))
    return M


def _levi_civita(M, prefix):
    conn = Connection(M, prefix=prefix, antisymmetric=True)
    conn.declare_zero(conn.torsion())
    return conn


def test_curvature_is_the_curvature_of_nabla():
    """Omega_zk(X, Y) is the f_k part of R(X,Y) f_z, and the first Bianchi identity holds.

    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z on frame
    vectors, against hook(Y, hook(X, Omega_zk)); sum_j Omega_jk ∧ f^j = 0
    for a torsion-free connection on a manifold with d² = 0.  With
    nabla f_j = sum_k omega_jk f_k both need Omega = d omega - omega ∧ omega.
    """
    s = Session()
    torsion_free = Connection.torsion_free(nilpotent4(s), prefix="T")
    assert len(torsion_free.free_parameters()) == 40
    for conn in (_levi_civita(heisenberg(s), "H"), _levi_civita(nilpotent4(s), "L"), torsion_free):
        M = conn.manifold
        r = range(1, M.dim + 1)
        curv = conn.curvature()
        nabla = conn.nabla_vector
        for i, j, z in [(i, j, z) for i in r for j in r for z in r]:
            X, Y, Z = M.e(i), M.e(j), M.e(z)
            R = nabla(X, nabla(Y, Z)) - nabla(Y, nabla(X, Z)) - nabla(M.lie_bracket(X, Y), Z)
            omega = (M.e(k) * hook(Y, hook(X, curv[z - 1][k - 1])).scalar_part() for k in r)
            assert R == sum(omega, M.zero()), (conn.prefix, i, j, z)
        for k in r:
            bianchi = sum((wedge(curv[j - 1][k - 1], M.e(j)) for j in r), M.zero())
            assert not bianchi, (conn.prefix, k)


def _two_step_nilpotent(rng, n):
    """A seeded 2-step-nilpotent algebra: d of each last generator sums e_ab over the closed ones."""
    M = FrameManifold(Session(), n)
    closed = n // 2 + 1
    for i in range(1, closed + 1):
        M.declare_d(i, 0)
    for i in range(closed + 1, n + 1):
        w = M.zero()
        for a in range(1, closed + 1):
            for b in range(a + 1, closed + 1):
                w = w + (M.e(a) * M.e(b)) * rng.randint(-2, 2)
        M.declare_d(i, w)
    return M


def test_levi_civita_ricci_matches_milnor_formula():
    """Ric(X,X) = -1/2 sum_i <[X,e_i],[X,e_i]> + 1/4 sum_{i,j} <[e_i,e_j],X>^2 on nilpotent algebras.

    Milnor, "Curvatures of left invariant metrics on Lie groups" (1976), for
    an orthonormal frame; Ric(e_i, e_l) = sum_k Omega_lk(e_k, e_i), with
    Omega(A, B) read as hook(B, hook(A, Omega)).  X runs over e_i and
    e_i + e_j, i < j; the right side comes from lie_bracket and pairing.
    """
    rng = random.Random(61)
    s = Session()
    seeded = [_two_step_nilpotent(rng, n) for n in (5, 6)]
    for M, prefix in zip([heisenberg(s), nilpotent4(s), iwasawa6(s)] + seeded, "LMNPQ"):
        conn = _levi_civita(M, prefix)
        assert conn.free_parameters() == []
        curv = conn.curvature()
        r = range(1, M.dim + 1)
        ric = {
            (i, l): sum(hook(M.e(i), hook(M.e(k), curv[l - 1][k - 1])).scalar_part() for k in r)
            for i in r
            for l in r
        }
        for X in [[i] for i in r] + [[i, j] for i in r for j in r if i < j]:
            lhs = sum(ric[i, l] for i in X for l in X)
            vec = sum((M.e(i) for i in X), M.zero())
            rhs = Fraction(0)
            for i in r:
                b = M.lie_bracket(vec, M.e(i))
                rhs -= Fraction(1, 2) * pairing(b, b)
                for j in r:
                    rhs += Fraction(1, 4) * pairing(M.lie_bracket(M.e(i), M.e(j)), vec) ** 2
            assert lhs == rhs, (M.dim, X)


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


def _table_text(conn):
    """Every Gamma(i, j, k) as printed, then the free symbols' names."""
    r = range(1, conn.manifold.dim + 1)
    lines = [f"{conn.prefix}({i},{j},{k}) = {conn.gamma(i, j, k)}" for i in r for j in r for k in r]
    lines.append("free: " + " ".join(map(str, conn.free_parameters())))
    return "\n".join(lines) + "\n"


def _parallel_u0(n):
    M = RiemannianManifold(Session(), n)
    for i in range(1, n + 1):
        M.declare_nabla_spinor(M.e(i), M.u(0), 0)
    return M.connection


@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: Connection.torsion_free(nilpotent4(Session())),
         "fe5675a97e41a9bfacef3d47db05fdb05393ee2e76fc5da45cb0dbafe9881c11"),
        (lambda: Connection.torsion_free(iwasawa6(Session())),
         "759dabdd381a55d7c36dbcc42e1ad1a5df5018673e7ca83609ec91a7302d3762"),
        (lambda: _parallel_u0(4), "aca8dbc41e62f176f975d7aa2a5a1f26e89eb7c7dd9a1ab0af7b419880cf2030"),
        (lambda: _parallel_u0(5), "74299093b35c6cd9623c4da39108e8c1f8548a7318bb7067b19c22c7aa78d05a"),
        (lambda: _parallel_u0(6), "196e8fe20e9cb46037f24a9ca085dc14f1a081dc6f36f44284fcfd086b4ffa9e"),
        (lambda: _parallel_u0(7), "c91cd92a34630a88fdb3d8fc9aa4988628218a4221a37727072cc979b94e33f7"),
        (lambda: _parallel_u0(8), "f791a3e259a67a7b1b7eec904418971345ab34944c0955a8ac471de521a30085"),
    ],
    ids=["torsion-free-nilpotent4", "torsion-free-iwasawa6"] + [f"parallel-u0-n{n}" for n in range(4, 9)],
)
def test_solved_tables_pinned(build, digest):
    """The printed Gamma table and free names of solved connections, byte for byte."""
    assert hashlib.sha256(_table_text(build()).encode()).hexdigest() == digest


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
    # Its manifold takes the prefix Gamma, which almost_complex_torsion took in s.
    B, _, _ = bilagrangian_brackets(Session())
    yield "bilagrangian", B.connection


def test_torsion_matches_nabla_form_reference():
    """torsion() is Cartan's de^j + sum_k omega_kj ∧ e^k; compare the nabla route."""
    nonzero = 0
    for name, conn in _torsion_cases():
        torsion = conn.torsion()
        assert torsion == _reference_torsion(conn), name
        nonzero += any(torsion)
    assert nonzero >= 5


# --- reference formulas ----------------------------------------------------------
# The Poly-sum formulas that the flat accumulation in connection.py replaced,
# kept as an oracle: every coefficient is built from Poly and Form arithmetic.

@functools.lru_cache(maxsize=None)
def _reference_triples(n, antisymmetric):
    """The (i, j, k) of a connection's own symbols in creation order; k > j when antisymmetric."""
    r = range(1, n + 1)
    return tuple((i, j, k) for i in r for j in r for k in r if k > j or not antisymmetric)


def _reference_gamma(conn, i, j, k):
    sign = 1
    if conn.antisymmetric:
        if j == k:
            return Poly.zero()
        if j > k:
            j, k, sign = k, j, -1
    key = conn._keys[_reference_triples(conn.manifold.dim, conn.antisymmetric).index((i, j, k))]
    # A solved symbol's echelon row holds its non-pivot entries: s + row = 0.
    row = conn._echelon.rows.get(key)
    value = Poly.from_symbol(key[0][0]) if row is None else -Poly(row)
    return value if sign > 0 else -value


def _reference_connection_form(conn, j, k):
    terms = (f * _reference_gamma(conn, i, j, k) for i, f in enumerate(conn.frame, 1))
    return sum(terms, conn.manifold.zero())


def _reference_omega_at(conn, X):
    xs = [pairing(X, f) for f in conn.frame]

    def entry(j, k):
        return sum((_reference_gamma(conn, i, j, k) * x for i, x in enumerate(xs, 1)), Poly.zero())

    return entry


def _reference_nabla_vector(conn, X, T):
    omega = _reference_omega_at(conn, X)
    ts = [pairing(T, f) for f in conn.frame]
    out = conn.manifold.zero()
    for k, f in enumerate(conn.frame.dual_basis(), 1):
        out = out + f * sum((t * omega(j, k) for j, t in enumerate(ts, 1)), Poly.zero())
    return out


def _reference_derivation(M, w, image, odd):
    """Extend g -> image(g) to w as a derivation by wedging generator by generator."""
    out = M.zero()
    for mono, c in w.terms.items():
        for pos in range(len(mono)):
            term = M.scalar(c)
            for q, g in enumerate(mono):
                term = wedge(term, image(g) if q == pos else M.e(g))
            out = out - term if odd and pos % 2 else out + term
    return out


def _reference_nabla_form(conn, X, w):
    omega = _reference_omega_at(conn, X)
    M = conn.manifold

    def image(g):
        out = M.zero()
        for k, mu in enumerate(conn.frame.components(M.e(g)), 1):
            for j, f in enumerate(conn.frame, 1):
                out = out - f * (mu * omega(j, k))
        return out

    return _reference_derivation(M, w, image, odd=False)


def _reference_nabla_spinor(conn, X, psi):
    table = conn.manifold.clifford
    omega = _reference_omega_at(conn, X)
    n = conn.manifold.dim
    out = Spinor.zero(table.spinor_dim)
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            out = out + table.apply(j, table.apply(k, psi)) * (omega(j, k) * Fraction(1, 2))
    return out


def _reference_cartan_torsion(conn):
    M = conn.manifold
    frame = list(conn.frame)
    return [
        sum((wedge(_reference_connection_form(conn, j, k), fj) for j, fj in enumerate(frame, 1)), M.d(fk))
        for k, fk in enumerate(frame, 1)
    ]


def _reference_curvature(conn):
    n = conn.manifold.dim
    r = range(1, n + 1)
    omega = {(j, k): _reference_connection_form(conn, j, k) for j in r for k in r}
    return [
        [sum((-wedge(omega[j, l], omega[l, k]) for l in r), conn.manifold.d(omega[j, k])) for k in r]
        for j in r
    ]


def _reference_riemannian_d(R, w):
    """d through de^k = sum_j e^j ∧ omega_jk, the torsion-free structure equation."""
    conn = R.connection

    def image(k):
        terms = (wedge(R.e(j), _reference_connection_form(conn, j, k)) for j in range(1, R.dim + 1))
        return sum(terms, R.zero())

    return _reference_derivation(R, w, image, odd=True)


def _qi_frame(M):
    """A non-simple constant frame with fractional and imaginary coefficients."""
    n = M.dim
    frame = [M.e(i) + M.e(i % n + 1) * (Fraction(i, 3) + I * (i % 2)) for i in range(1, n)]
    return frame + [M.e(n) - M.e(1) * (I / 2) + M.e(2) * Fraction(-3, 4)]


def _rand_qi(rng, symbol):
    """A Poly rng-drawn from a symbol part, a fractional real part and an imaginary part."""
    real = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return symbol * rng.randint(-2, 2) + real + I * rng.randint(-1, 1)


def _rand_symbolic_vector(rng, M, symbol):
    return sum((M.e(g) * _rand_qi(rng, symbol) for g in rng.sample(range(1, M.dim + 1), 2)), M.zero())


def _rand_spinor(rng, dim, symbol):
    out = Spinor.zero(dim)
    for u in rng.sample(range(dim), min(dim, 3)):
        out = out + Spinor.basis(dim, u) * _rand_qi(rng, symbol)
    return out


def _oracle_cases(rng):
    """(name, connection, parameter symbol) for generic, declared and metric connections."""
    s = Session()
    x = s.symbol("x")
    nil, iwa = nilpotent4(s), iwasawa6(s)
    yield "generic-qi-nilpotent", Connection(nil, frame=_qi_frame(nil), prefix="A"), x
    # real symbols cannot cancel the imaginary part of a Q(i) frame's torsion
    yield "torsion-free-iwasawa", Connection.torsion_free(iwa, frame=_non_simple_frame(iwa), prefix="B"), x
    yield "generic-qi-iwasawa", Connection(iwa, frame=_qi_frame(iwa), prefix="E"), x
    other = Connection(nil, prefix="P")
    p1, p2 = other.free_parameters()[:2]
    declared = Connection(nil, frame=_non_simple_frame(nil), prefix="C")
    declared.declare_nabla_vector(nil.e(1), nil.e(2), nil.e(3) * p1 + nil.e(4))
    declared.declare_nabla_form(nil.e(2), nil.e(1) * nil.e(3), nil.e(1) * nil.e(4) * p2)
    yield "declared-generic-foreign", declared, p1
    for prefix, antisymmetric in (("D", False), ("F", True)):
        conn = Connection(nil, frame=_qi_frame(nil), prefix=prefix, antisymmetric=antisymmetric)
        g = rng.sample(conn.free_parameters(), 5)
        # real parameters: g2 + i*g3 = p2 sets g2 = p2 and g3 = 0
        conn.declare_zero([g[0] - p1 * Fraction(1, 2) - 1, g[1] - g[4] * 3, g[2] + g[3] * I - p2])
        yield f"declared-{'antisymmetric' if antisymmetric else 'generic'}-qi-foreign", conn, x
    _, h, k, _ = almost_complex_torsion(s)
    yield "almost-complex-k", k, x
    for n in (4, 5):
        R = RiemannianManifold(s, n, prefix=f"R{n}_")
        yield f"riemannian-{n}", R.connection, x
        for i in range(1, n + 1):
            R.declare_nabla_spinor(R.e(i), R.u(rng.randrange(R.clifford.spinor_dim)), 0)
        R.declare_zero([R.connection.free_parameters()[0] - p1])
        yield f"riemannian-{n}-parallel-spinor-foreign", R.connection, x


def test_flat_paths_match_reference_formulas():
    """nabla, connection forms, torsion and curvature agree with the Poly-sum formulas.

    Besides random vectors X, every frame vector f_i is an X, where
    omega_jk(f_i) is Gamma_ijk itself; the cases cover symmetric and
    antisymmetric connections in simple and non-simple frames.
    """
    rng = random.Random(2024)
    nonzero = 0
    kinds = set()
    for name, conn, x in _oracle_cases(rng):
        M = conn.manifold
        n = M.dim
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                assert conn.connection_form(j, k) == _reference_connection_form(conn, j, k), name
        simple = all(f in M.generators() for f in conn.frame)
        kinds.add((conn.antisymmetric, simple))
        frame_vectors = conn.frame.dual_basis()
        for _ in range(3):
            X, T = _rand_symbolic_vector(rng, M, x), _rand_symbolic_vector(rng, M, x)
            for Y in frame_vectors:
                assert conn.nabla_vector(Y, T) == _reference_nabla_vector(conn, Y, T), name
            got = conn.nabla_vector(X, T)
            assert got == _reference_nabla_vector(conn, X, T), name
            nonzero += bool(got)
            w = _rand_form(rng, M, x) * (1 + I)
            for Y in (X, *frame_vectors):
                assert conn.nabla_form(Y, w) == _reference_nabla_form(conn, Y, w), name
            if conn.antisymmetric and hasattr(M, "clifford"):
                psi = _rand_spinor(rng, M.clifford.spinor_dim, x)
                for Y in (X, *frame_vectors):
                    assert conn.nabla_spinor(Y, psi) == _reference_nabla_spinor(conn, Y, psi), name
        assert conn.torsion() == _reference_cartan_torsion(conn), name
        assert conn.curvature() == _reference_curvature(conn), name
    assert nonzero >= 20
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_riemannian_d_matches_reference():
    rng = random.Random(2025)
    for name, conn, x in _oracle_cases(rng):
        R = conn.manifold
        if not isinstance(R, RiemannianManifold):
            continue
        for g in range(1, R.dim + 1):
            assert R.d(R.e(g)) == _reference_riemannian_d(R, R.e(g)), name
        for _ in range(3):
            w = _rand_form(rng, R, x)
            assert R.d(w) == _reference_riemannian_d(R, w), name


# --- the echelon is the Gamma table ----------------------------------------------

def _assert_rows_hold_no_pivot(ech):
    """No stored row holds its own pivot key, whose coefficient 1 is implied, nor another row's."""
    pivots = set(ech.rows)
    for pivot, row in ech.rows.items():
        assert pivots.isdisjoint(row), pivot


def _gamma_table(c):
    n = c.manifold.dim
    return [c.gamma(i, j, k) for i in range(1, n + 1) for j in range(1, n + 1) for k in range(1, n + 1)]


def _polys(exprs):
    """The scalar equations that declare_zero reads off exprs."""
    return [p for x in exprs for p in ([x] if isinstance(x, Poly) else [c for _, c in x.coefficients()])]


def test_echelon_rows_are_the_gamma_table_across_declarations():
    """After every declaration, failed ones included, Gamma and the free symbols are those of a replay.

    The replay is a fresh connection on the same manifold that declares,
    in its own symbols, only the declarations that were accepted.
    """
    rng = random.Random(404)
    failures = {InconsistentError: 0, NonLinearError: 0}
    for _ in range(4):
        s = Session()
        a = s.symbol("a")
        M = nilpotent4(s)
        antisymmetric = rng.random() < 0.5
        c = Connection(M, prefix="G", antisymmetric=antisymmetric)
        own = c.free_parameters()
        done, accepted = [], []
        for step in range(25):
            roll = rng.random()
            if roll < 0.5:
                picked = rng.sample(own, rng.randint(1, 3))
                terms = [g * rng.choice((-2, -1, 1, Fraction(1, 2), I)) for g in picked]
                exprs = [sum(terms, Poly.constant(rng.randint(-2, 2))) + a * rng.randint(0, 1)]
            elif roll < 0.65 and done:
                # a combination of earlier equations plus a nonzero constant
                exprs = [rng.choice(done) * 2 + 1]
            elif roll < 0.75:
                exprs = [rng.choice(own) - 1, rng.choice(own) * rng.choice(own)]
            else:
                X, T = _rand_vector(rng, M), _rand_vector(rng, M)
                exprs = [c.nabla_vector(X, T) - M.e(rng.randint(1, 4)) * rng.randint(-1, 1)]
            try:
                c.declare_zero(exprs)
                done.extend(e for e in exprs if isinstance(e, Poly))
                accepted.append(_polys(exprs))
            except (InconsistentError, NonLinearError) as exc:
                failures[type(exc)] += 1
            _assert_rows_hold_no_pivot(c._echelon)
            # Each replay takes its own prefix: a session makes one symbol per name.
            replay = Connection(M, prefix=f"R{step}_", antisymmetric=antisymmetric)
            fresh = replay.free_parameters()
            to_fresh = {g: Poly.from_symbol(f) for g, f in zip(own, fresh)}
            back = {f: Poly.from_symbol(g) for g, f in zip(own, fresh)}
            for polys in accepted:
                replay.declare_zero([p.substitute(to_fresh) for p in polys])
            assert _gamma_table(c) == [p.substitute(back) for p in _gamma_table(replay)]
            own_of = dict(zip(fresh, own))
            assert c.free_parameters() == [own_of[f] for f in replay.free_parameters()]
    assert failures[InconsistentError] >= 3 and failures[NonLinearError] >= 3


def test_linear_solve_and_basis_rows_hold_no_pivot():
    s = Session()
    x, y, z, t = (s.symbol(v) for v in "xyzt")
    eqs = [x + y * 2 - t, y - z * I + 1, x - z - 3]
    ech = Echelon.over({x, y, z})
    ech.impose_linear(eqs)
    _assert_rows_hold_no_pivot(ech)
    assert ech.solved() == linear_solve(eqs, [x, y, z]).assignments
    # The echelon keeps its unknowns, so an iterator, read once, serves as a list does;
    # free() lists the unknowns without a row in the order given.
    for given in ([x, y, z, t], [t, z, y, x]):
        for system in (eqs, eqs[:1]):
            by_list, by_iter = Echelon.over(given), Echelon.over(iter(given))
            by_list.impose_linear(system)
            by_iter.impose_linear(system)
            assert by_iter.solved() == by_list.solved()
            assert by_iter.free() == by_list.free() == [u for u in given if u not in by_list.solved()]
    for system in (eqs, eqs[:1]):
        assert linear_solve(system, iter([x, y, z])) == linear_solve(system, [x, y, z])
    assert linear_solve(eqs[:1], iter([x, y, z])).free == frozenset([y, z])
    M = nilpotent4(s)
    b = FormBasis(M)
    for f in [M.e(1) + M.e(2), M.e(2) * 2 - M.e(3), M.e(1) * M.e(2), M.e(3) + M.e(4)]:
        b.insert(f)
    b.dual_basis()
    assert len(b._tagged.rows) == len(b)
    _assert_rows_hold_no_pivot(b._tagged)


def test_declaration_changes_only_the_rows_holding_its_pivots():
    s = Session()
    c = Connection(torus(s), prefix="G")
    g = c.free_parameters()
    c.declare_zero([g[0] - g[10], g[1] + g[11] * 2 - 1, g[2] - g[12] + g[13]])
    before = c._echelon.solved()
    # g[20] is held by no stored row, so no other value changes
    c.declare_zero([g[20] - 3])
    after = c._echelon.solved()
    assert {sym: after[sym] for sym in before} == before
    assert after[g[20]] == 3
    # g[11] is held by the row of g[1] only
    c.declare_zero([g[11] - 1])
    after = c._echelon.solved()
    assert after[g[1]] == -1
    assert after[g[0]] == before[g[0]] and after[g[2]] == before[g[2]]


# --- index and argument checks ----------------------------------------------------

def test_gamma_rejects_an_index_outside_the_frame():
    c = Connection(torus(Session()))
    for bad in [(0, 1, 1), (5, 1, 1), (1, 0, 2), (1, 2, 5)]:
        with pytest.raises(FrameIndexError):
            c.gamma(*bad)


def test_connection_form_rejects_an_index_outside_the_frame():
    c = Connection(torus(Session()))
    for bad in [(0, 5), (0, 1), (1, 5)]:
        with pytest.raises(FrameIndexError):
            c.connection_form(*bad)


def test_antisymmetric_gamma_checks_indices_before_the_zero_diagonal():
    c = RiemannianManifold(Session(), 4).connection
    assert c.gamma(1, 2, 2) == 0
    for bad in [(9, 2, 2), (0, 3, 3), (1, 5, 5)]:
        with pytest.raises(FrameIndexError):
            c.gamma(*bad)


def test_nabla_of_a_scalar_is_zero():
    s = Session()
    M = nilpotent4(s)
    c = Connection(M)
    assert c.nabla_form(M.e(1), 3) == 0
    assert c.nabla_form(M.e(1) + M.e(2) * 2, s.symbol("f")) == 0
    assert c.nabla_form(M.e(1), M.scalar(Fraction(1, 2))) == 0
    # the scalar part of a mixed form drops out too
    w = M.e(1) * M.e(3) + 5
    assert c.nabla_form(M.e(2), w) == c.nabla_form(M.e(2), M.e(1) * M.e(3))


def test_nabla_along_or_of_a_zero_vector_is_zero():
    M = RiemannianManifold(Session(), 4)
    c = M.connection
    assert c.nabla_vector(M.e(1), 0) == 0
    assert c.nabla_vector(0, M.e(1)) == 0
    assert c.nabla_vector(M.zero(), M.e(2)) == 0
    assert c.nabla_form(0, M.e(1)) == 0
    assert c.nabla_spinor(0, M.u(0)) == 0


def test_nabla_of_a_nonzero_scalar_vector_is_a_degree_error():
    M = nilpotent4(Session())
    c = Connection(M)
    for X, T in [(M.e(1), 3), (M.e(1), M.scalar(3)), (3, M.e(1)), (M.scalar(2), M.e(1))]:
        with pytest.raises(DegreeError):
            c.nabla_vector(X, T)
    with pytest.raises(DegreeError):
        c.nabla_form(2, M.e(1))


def test_nabla_spinor_rejects_a_spinor_of_another_dimension():
    M = RiemannianManifold(Session(), 6)
    for X in (M.e(1), M.zero()):
        with pytest.raises(DimensionError):
            M.connection.nabla_spinor(X, Spinor.basis(4, 0))
