import itertools
import random
from fractions import Fraction

import pytest

from frameforms import (
    AffineBasis,
    CartanReport,
    DimensionError,
    FileFormatError,
    FormBasis,
    FrameIndexError,
    GaussianRational,
    MixedDegreeError,
    NonLinearError,
    NotLinearError,
    Poly,
    Session,
    cartan_test,
    degree,
    equations_for_Vn,
    frame_bundle,
    hook,
    is_linear,
    load_ideal,
    load_manifold,
    reduced_polar_equations,
    substitute_form,
    wedge,
)
from frameforms import eds, exterior
from frameforms.cli import G2_PHI, G2_STAR_PHI, g2_ideal

# The Cayley 4-form; d of it generates the Spin(7) system on n = 8.
SPIN7_PHI = "1234+1256+1278+3456+3478+5678+1357-1368-1458-1467-2358-2367-2457+2468"


def _g2():
    session = Session()
    bundle = frame_bundle(session, 7)
    return bundle, g2_ideal(bundle)


def _spin7():
    bundle = frame_bundle(Session(), 8)
    return bundle, [bundle.d(bundle.parse(SPIN7_PHI))]


def _seeded_flags(n, count, seed):
    """The identity flag followed by `count` distinct seeded permutations of 1..n."""
    rng = random.Random(seed)
    flags = [list(range(1, n + 1))]
    while len(flags) < count + 1:
        order = rng.sample(range(1, n + 1), n)
        if order not in flags:
            flags.append(order)
    return flags


def _recursive_polar_equations(P, form, j, order):
    """Reference: contract the whole flag tree from scratch, highest vector first."""
    if degree(form) == 1:
        return [P.modulo_ic(form)]
    if j == 0:
        return []
    return _recursive_polar_equations(P, form, j - 1, order) + _recursive_polar_equations(
        P, hook(P.theta(order[j - 1]), form), j - 1, order
    )


def _substituted_vn_equations(P, ideal):
    """Reference: substitute omega_a = sum_j p_aj theta^j and collect every coefficient."""
    n = P.n
    rules = {}
    for a in range(n + 1, n * (n + 1) + 1):
        x = P.manifold.zero()
        for j in range(1, n + 1):
            x = x + P.theta(j) * P.p[(a, j)]
        rules[a] = x
    container = AffineBasis()
    for form in ideal:
        for _, coeff in substitute_form(form, rules).coefficients():
            container.insert(coeff)
    return container.elements


def _random_linear_ideal(rng, n):
    """One to three generators, each a sum of terms c theta^I ∧ omega_a of one degree.

    Every coefficient c is in Q(i) with a nonzero imaginary part.
    """
    P = frame_bundle(Session(), n)
    ideal = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, min(n, 3))
        form = P.manifold.zero()
        for _ in range(rng.randint(1, 4)):
            c = GaussianRational(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.choice([-2, -1, 1, 2])
            )
            term = P.manifold.e(rng.randint(n + 1, n * (n + 1))) * c
            for i in sorted(rng.sample(range(1, n + 1), k), reverse=True):
                term = P.theta(i) * term
            form = form + term
        ideal.append(form)
    return P, ideal


def test_frame_bundle_structure():
    s = Session()
    P = frame_bundle(s, 7)
    assert P.manifold.dim == 56
    expected = P.manifold.zero()
    for j in range(1, 8):
        expected = expected + P.theta(j) * P.manifold.e(7 + j)
    assert P.d(P.theta(1)) == expected
    assert P.omega(1, 3) == P.manifold.e(10)


def test_omega_checks_its_indices():
    """An index outside 1..n is an error, not another generator."""
    P = frame_bundle(Session(), 3)
    for i, j in [(0, 1), (1, 0), (2, 4)]:
        with pytest.raises(FrameIndexError):
            P.omega(i, j)
    assert P.omega(3, 3) == P.manifold.e(12)


def test_frame_bundle_small_dimensions():
    s = Session()
    P2 = frame_bundle(s, 2)
    M = P2.manifold
    assert P2.d(P2.theta(1)) == M.e(1) * M.e(3) + M.e(2) * M.e(4)
    P1 = frame_bundle(Session(), 1)
    assert P1.d(P1.theta(1)) == P1.manifold.e(1) * P1.manifold.e(2)
    with pytest.raises(DimensionError):
        frame_bundle(Session(), 0)
    with pytest.raises(DimensionError):
        frame_bundle(Session(), 10)


def test_p_grid_size():
    P = frame_bundle(Session(), 7)
    assert len(P.p) == 7 * 7 * 7
    assert str(P.p[(8, 1)]) == "p81"


def test_is_linear_examples():
    P, ideal = _g2()
    assert is_linear(P, ideal)
    assert not is_linear(P, [P.theta(1) * P.theta(2)])
    assert not is_linear(P, [P.omega(1, 1) * P.omega(1, 2)])


def test_equations_for_vn_g2():
    P, ideal = _g2()
    container = equations_for_Vn(P, ideal)
    assert container.size() == 49
    assert not container.inconsistent
    # for the linear system every equation is homogeneous linear in p
    for eq in container.elements:
        assert eq.total_degree() == 1
        assert not eq.terms.get(())


def test_equations_for_vn_trivial_cases():
    P = frame_bundle(Session(), 2)
    assert equations_for_Vn(P, []).size() == 0
    # the substituted 3-form in two thetas vanishes identically
    ideal = [P.d(P.theta(1) * P.theta(2))]
    assert equations_for_Vn(P, ideal).size() == 0
    # theta^2 ∧ omega_11 (generator 3) on theta^1 ∧ theta^2: theta^2 ∧ theta^1 = -theta^12
    eqs = equations_for_Vn(P, [P.theta(2) * P.omega(1, 1)]).elements
    assert eqs == (-Poly.from_symbol(P.p[(3, 1)]),)


def test_equations_for_vn_nonlinear_propagates():
    """Each term needs one omega factor and a constant coefficient.

    cartan_test rejects the same ideals earlier, through is_linear.
    """
    s = Session()
    P = frame_bundle(s, 2)
    bad = [
        [P.omega(1, 1) * P.omega(1, 2)],
        [P.theta(1) * P.omega(1, 1) * s.symbol("a")],
        [P.theta(1)],
        [P.omega(1, 1) * P.omega(1, 2) * P.omega(2, 1)],
    ]
    for ideal in bad:
        with pytest.raises(NonLinearError):
            equations_for_Vn(P, ideal)
    for ideal in bad[2:]:
        with pytest.raises(NotLinearError):
            cartan_test(P, ideal)


def test_vn_tableau_matches_substitution():
    """The tableau rows equal the substituted coefficients, printed and in order."""
    rng = random.Random(11)
    systems = [_g2(), _spin7()]
    systems += [_random_linear_ideal(rng, 1 + i % 5) for i in range(60)]
    for P, ideal in systems:
        expected = [str(eq) for eq in _substituted_vn_equations(P, ideal)]
        assert [str(eq) for eq in equations_for_Vn(P, ideal).elements] == expected


def test_cartan_inequality_on_random_linear_ideals():
    """sum(c) <= codim V_n at every permutation flag (Cartan's inequality)."""
    rng = random.Random(4)
    for i in range(24):
        P, ideal = _random_linear_ideal(rng, 2 + i % 3)
        for order in itertools.permutations(range(1, P.n + 1)):
            report = cartan_test(P, ideal, order)
            assert sum(report.c) <= report.codim, (i, order, report)


def test_reduced_polar_equations_g2():
    P, ideal = _g2()
    # j = 3: a single independent polar equation from d(phi)
    basis = FormBasis(P.manifold)
    for form in ideal:
        for eq in reduced_polar_equations(P, form, 3):
            basis.insert(eq)
    assert basis.size() == 1
    # j = 0 on a form of degree > 1 emits nothing
    assert reduced_polar_equations(P, ideal[0], 0) == []
    # j = 6 gives the 28-dimensional polar space
    basis6 = FormBasis(P.manifold)
    for form in ideal:
        for eq in reduced_polar_equations(P, form, 6):
            basis6.insert(eq)
    assert basis6.size() == 28


def test_polar_recursion_small_case():
    """The double hook of d(theta^12) spans omega_11 + omega_22 modulo theta.

    The recursion contracts the highest flag vector first, so the sign
    of the emitted one-form is the opposite of the handwritten
    theta_1-then-theta_2 composition; the span is what c_j measures.
    """
    P = frame_bundle(Session(), 2)
    form = P.d(P.theta(1) * P.theta(2))
    assert degree(form) == 3
    assert form == -wedge(P.theta(1) * P.theta(2), P.omega(1, 1) + P.omega(2, 2))
    out = reduced_polar_equations(P, form, 2)
    nonzero = [w for w in out if w]
    assert len(nonzero) == 1
    trace = P.omega(1, 1) + P.omega(2, 2)
    assert nonzero[0] == trace or nonzero[0] == -trace
    span = FormBasis(P.manifold)
    span.insert(nonzero[0])
    assert not span.insert(trace)


def test_polar_equations_ignore_theta_multiples():
    """Adding a pure-theta form to a generator leaves the polar ranks alone."""
    P, ideal = _g2()
    noisy = [
        ideal[0] + (P.theta(1) * P.theta(2) * P.theta(3) * P.theta(4)) * 5,
        ideal[1],
    ]
    for j in range(8):
        clean = FormBasis(P.manifold)
        dirty = FormBasis(P.manifold)
        for form in ideal:
            for eq in reduced_polar_equations(P, form, j):
                clean.insert(eq)
        for form in noisy:
            for eq in reduced_polar_equations(P, form, j):
                dirty.insert(eq)
        assert clean.size() == dirty.size()


def test_cartan_g2():
    P, ideal = _g2()
    report = cartan_test(P, ideal)
    assert report.c == (0, 0, 0, 1, 5, 15, 28)
    assert report.codim == 49
    assert report.involutive
    # the report carries the equations it counted; equality ignores them
    assert len(report.vn_equations) == 49
    assert tuple(len(eqs) for eqs in report.polar) == report.c
    assert report == CartanReport(report.c, 49, True)
    assert hash(report) == hash(CartanReport(report.c, 49, True))


_LOADED_SYSTEMS = pytest.mark.parametrize(
    "n, text, c",
    [
        (7, f"d: {G2_PHI}\nd: {G2_STAR_PHI}\n", (0, 0, 0, 1, 5, 15, 28)),
        (8, f"d: {SPIN7_PHI}\n", (0, 0, 0, 0, 1, 5, 15, 35)),
    ],
    ids=["g2", "spin7"],
)


@_LOADED_SYSTEMS
def test_cartan_test_builds_no_fraction(monkeypatch, n, text, c):
    """Q(i) arithmetic stays on integer triples: no Fraction after the ideal is loaded."""
    P = frame_bundle(Session(), n)
    ideal = load_ideal(P, text)
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    report = cartan_test(P, ideal)
    monkeypatch.undo()
    assert report.c == c and report.involutive
    assert made == []


@_LOADED_SYSTEMS
def test_cartan_test_hooks_and_wraps_nothing(monkeypatch, n, text, c):
    """After the ideal is loaded: no hook, and no Poly.constant wrapping.

    The polar equations come from the tableau, and every basis reads its
    constant rows straight from the terms.
    """
    P = frame_bundle(Session(), n)
    ideal = load_ideal(P, text)
    calls = []
    real_hook, real_constant = hook, Poly.constant.__func__

    def counting_hook(*args):
        calls.append("hook")
        return real_hook(*args)

    def counting_constant(cls, value):
        calls.append("Poly.constant")
        return real_constant(cls, value)

    monkeypatch.setattr(eds, "hook", counting_hook)
    monkeypatch.setattr(exterior, "hook", counting_hook)
    monkeypatch.setattr(Poly, "constant", classmethod(counting_constant))
    report = cartan_test(P, ideal)
    monkeypatch.undo()
    assert report.c == c and report.involutive
    assert calls == []


def test_cartan_test_mixed_degree_raises():
    """A generator of mixed degree is rejected as before the tableau path."""
    P = frame_bundle(Session(), 2)
    ideal = load_ideal(P, "d: 1+12\n")
    with pytest.raises(MixedDegreeError, match=r"form has mixed degrees \[2, 3\]"):
        cartan_test(P, ideal)


def test_cartan_empty_ideal():
    P = frame_bundle(Session(), 3)
    report = cartan_test(P, [])
    assert report.c == (0, 0, 0)
    assert report.codim == 0
    assert report.involutive


def test_cartan_deterministic():
    P, ideal = _g2()
    assert cartan_test(P, ideal) == cartan_test(P, ideal)


def test_cartan_c_monotone():
    P, ideal = _g2()
    report = cartan_test(P, ideal)
    assert all(a <= b for a, b in zip(report.c, report.c[1:]))


def test_cartan_flag_permutation():
    P, ideal = _g2()
    report = cartan_test(P, ideal, flag_order=[7, 6, 5, 4, 3, 2, 1])
    assert report.codim == 49
    assert sum(report.c) == 49 and report.involutive
    with pytest.raises(DimensionError):
        cartan_test(P, ideal, flag_order=[1, 1, 2, 3, 4, 5, 6])


def test_bad_flag_orders_raise():
    """A repeated flag vector or a short flag is an error, not a silent answer."""
    P, ideal = _g2()
    for bad in ([1, 1, 2, 3, 4, 5, 6], [1]):
        with pytest.raises(DimensionError):
            reduced_polar_equations(P, ideal[0], 6, bad)
        with pytest.raises(DimensionError):
            cartan_test(P, ideal, flag_order=bad)


def _random_systems():
    rng = random.Random(8)
    return [_random_linear_ideal(rng, n) for n in range(1, 6) for _ in range(8)]


def _test_flags(n):
    """Every permutation flag for n <= 3; the identity and three seeded ones above."""
    if n <= 3:
        return [list(p) for p in itertools.permutations(range(1, n + 1))]
    return _seeded_flags(n, 3, seed=5)


@pytest.mark.parametrize(
    "systems",
    [lambda: [_g2()], lambda: [_spin7()], _random_systems],
    ids=["g2", "spin7", "random"],
)
def test_incremental_polar_basis_matches_per_j_rebuild(systems):
    """One basis grown along the flag gives the ranks of a fresh basis at every j.

    The equations cartan_test reads from the tableau at each j are, printed
    and in order, those that hook the j-th flag vector first.
    """
    for P, ideal in systems():
        for order in _test_flags(P.n):
            report = cartan_test(P, ideal, order)
            tableau = [eds._tableau_polar_equations(P, form, order) for form in ideal]
            previous = [[] for _ in ideal]
            for j in range(P.n):
                fresh = FormBasis(P.manifold)
                for g, form in enumerate(ideal):
                    new = [str(eq) for eq in eds._new_polar_equations(P, form, j, order)]
                    assert [str(eq) for eq in tableau[g][j]] == new, (order, j, g)
                    eqs = reduced_polar_equations(P, form, j, order)
                    assert eqs == _recursive_polar_equations(P, form, j, order)
                    assert eqs[: len(previous[g])] == previous[g]
                    previous[g] = eqs
                    for eq in eqs:
                        fresh.insert(eq)
                assert report.c[j] == fresh.size(), (order, j)
                if j + 1 < P.n:
                    assert report.polar[j + 1][: report.c[j]] == report.polar[j]


def test_cartan_requires_linearity():
    P = frame_bundle(Session(), 2)
    with pytest.raises(NotLinearError):
        cartan_test(P, [P.theta(1) * P.theta(2)])


def test_load_ideal():
    s = Session()
    P = frame_bundle(s, 7)
    text = f"# the G2 system\nd: {G2_PHI}\nd: {G2_STAR_PHI}\n"
    ideal = load_ideal(P, text)
    assert len(ideal) == 2
    assert ideal == g2_ideal(P)

    P2 = frame_bundle(Session(), 2)
    verbatim = load_ideal(P2, "12\n")
    assert verbatim == [P2.theta(1) * P2.theta(2)]
    assert load_ideal(P2, "# nothing\n\n") == []


def test_load_ideal_errors():
    P = frame_bundle(Session(), 2)
    err = None
    try:
        load_ideal(P, "12\n3\n")  # 3 is not a theta index when n = 2
    except FileFormatError as exc:
        err = exc
    assert err is not None and err.line == 2
    with pytest.raises(FileFormatError):
        load_ideal(P, "d: 1x\n")


def test_loaders_read_lines_alike():
    """Both file loaders cut comments, skip blank lines and number lines alike."""

    def text(first, second, last):
        lines = ["", "# a comment", f"{first}  # trailing", "   ", second, last]
        return "\r\n".join(lines) + "\r\n"

    M = load_manifold(Session(), text("dim 4", "d 3 = 12", ""))
    assert M.dim == 4 and str(M.d(M.e(3))) == "e12"
    P = frame_bundle(Session(), 2)
    assert load_ideal(P, text("d: 12", "1", "")) == [P.d(P.theta(1) * P.theta(2)), P.theta(1)]
    with pytest.raises(FileFormatError) as bad_manifold:
        load_manifold(Session(), text("dim 4", "d 3 = 12", "d 4 13"))
    with pytest.raises(FileFormatError) as bad_ideal:
        load_ideal(P, text("d: 12", "1", "1x"))
    assert bad_manifold.value.line == bad_ideal.value.line == 6


def test_vn_equations_affine_property():
    """Every emitted equation is affine in the p symbols for linear ideals."""
    P, ideal = _g2()
    container = equations_for_Vn(P, ideal)
    for eq in container.elements:
        assert eq.total_degree() <= 1


def _echelon_rank_dense(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = col = 0
    while col < ncols and rank < len(rows):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_g2_numbers_against_independent_echelon():
    """Recompute the polar ranks and codimension with a plain dense echelon.

    The inputs are G2 on n = 7 and Spin(7) on n = 8; the codimension of
    V_n is n * (dim so(n) - dim H) for the stabilizer H of the form.
    """
    zero = GaussianRational(0)
    systems = [
        (_g2, (0, 0, 0, 1, 5, 15, 28), 14, 49),
        (_spin7, (0, 0, 0, 0, 1, 5, 15, 35), 21, 56),
    ]
    for system, c, dim_h, codim in systems:
        P, ideal = system()
        assert codim == P.n * (P.n * (P.n - 1) // 2 - dim_h)
        for j in range(P.n):
            polar = [w for form in ideal for w in reduced_polar_equations(P, form, j) if w]
            keys = sorted({m for w in polar for m in w.terms})
            dense = [
                [w.terms[k].constant_value() if k in w.terms else zero for k in keys]
                for w in polar
            ]
            assert _echelon_rank_dense(dense) == c[j], (P.n, j)

        eqs = equations_for_Vn(P, ideal).elements
        syms = sorted({s for eq in eqs for s in eq.free_symbols()}, key=lambda s: s.index)
        pos = {s: i for i, s in enumerate(syms)}
        rows = []
        for eq in eqs:
            row = [zero] * len(syms)
            for mono, coeff in eq.terms.items():
                row[pos[mono[0][0]]] = coeff
            rows.append(row)
        assert _echelon_rank_dense(rows) == codim
