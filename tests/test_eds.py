import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from frameforms import (
    AffineBasis,
    Basis,
    CartanReport,
    DimensionError,
    FileFormatError,
    Form,
    FormBasis,
    FrameIndexError,
    FrameManifold,
    FrameMismatchError,
    GaussianRational,
    MixedDegreeError,
    NonLinearError,
    NotLinearError,
    Poly,
    Session,
    cartan_test,
    degree,
    frame_bundle,
    hook,
    load_ideal,
    load_manifold,
    reduced_polar_equations,
    substitute_form,
    wedge,
)
from frameforms import eds, exterior, scalar
from frameforms.cli import G2_PHI, G2_STAR_PHI, g2_ideal
from frameforms.scalar import Echelon, Rank

from support import exact_rank

# The Cayley 4-form; d of it generates the Spin(7) system on n = 8.
SPIN7_PHI = "1234+1256+1278+3456+3478+5678+1357-1368-1458-1467-2358-2367-2457+2468"
# Two generators on n = 4 with denominators 2, 3 and 5 and an imaginary coefficient.
FRACTIONAL_IDEAL = Path(__file__).with_name("data") / "fractional.ideal"


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
        return [Form(P.manifold, {m: c for m, c in form.terms.items() if m[0] > P.n})]
    if j == 0:
        return []
    return _recursive_polar_equations(P, form, j - 1, order) + _recursive_polar_equations(
        P, hook(P.theta(order[j - 1]), form), j - 1, order
    )


def _substituted_coefficients(P, ideal):
    """Reference: substitute omega_a = sum_j p_aj theta^j and collect every coefficient, in order."""
    rules = {
        a: sum((P.theta(j) * P.p[(a, j)] for j in range(1, P.n + 1)), P.manifold.zero())
        for a in range(P.n + 1, P.n * (P.n + 1) + 1)
    }
    return [coeff for form in ideal for _, coeff in substitute_form(form, rules).coefficients()]


def _substituted_vn_equations(P, ideal):
    """Reference: the substituted coefficients that a greedy Echelon selection keeps.

    Every coefficient is linear in the p's, which pivot in creation order.
    """
    ech, kept = Echelon(lambda mono: mono[0][0].index), []
    for coeff in _substituted_coefficients(P, ideal):
        red = ech.reduce(coeff.terms)
        if red and ech.insert(red) is not None:
            kept.append(coeff)
    return kept


def _random_linear_ideal(rng, n, real=False):
    """One to three generators, each a sum of terms c theta^I ∧ omega_a of one degree.

    Every coefficient c is in Q(i) with a nonzero imaginary part, or a
    nonzero rational if `real`.
    """
    P = frame_bundle(Session(), n)
    ideal = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, min(n, 3))
        form = P.manifold.zero()
        for _ in range(rng.randint(1, 4)):
            if real:
                c = GaussianRational(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
            else:
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
    # The bundle is a FrameManifold; its manifold is itself.
    assert isinstance(P, FrameManifold)
    assert P.manifold is P
    assert P.e(10) == P.omega(1, 3)


def test_omega_checks_its_indices():
    """An index outside 1..n is an error, not another generator."""
    P = frame_bundle(Session(), 3)
    for i, j in [(0, 1), (1, 0), (2, 4)]:
        with pytest.raises(FrameIndexError):
            P.omega(i, j)
    for i in (0, 4):
        with pytest.raises(FrameIndexError, match=f"theta index {i} outside 1..3"):
            P.theta(i)
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
    # A plain test makes no symbol; reading its V_n equations makes the n³ p's.
    s = Session()
    before = s.next_index()
    P = frame_bundle(s, 7)
    report = cartan_test(P, g2_ideal(P))
    assert s.next_index() == before + 1
    assert len(report.vn_equations) == 49
    assert s.next_index() == before + 2 + 7 * 7 * 7
    # Reading the last p first still makes them all, in (a, j) order.
    P = frame_bundle(Session(), 7)
    last = P.p[(56, 7)]
    indices = [P.p[(a, j)].index for a in range(8, 57) for j in range(1, 8)]
    assert indices == sorted(indices) and indices[-1] == last.index
    assert str(P.p[(8, 1)]) == "p81"


def test_is_linear_examples():
    """cartan_test is the linearity check: NotLinearError unless each term has one omega."""
    P, ideal = _g2()
    assert cartan_test(P, ideal).codim == 49
    for bad in ([P.theta(1) * P.theta(2)], [P.omega(1, 1) * P.omega(1, 2)], [2]):
        with pytest.raises(NotLinearError):
            cartan_test(P, bad)
    # A scalar is a degree-0 form: zero is the empty generator, a nonzero one ([2]) is not linear.
    report = cartan_test(P, [0])
    assert report.c == (0,) * 7 and report.codim == 0
    assert reduced_polar_equations(P, 0, 1) == []


def test_equations_for_vn_g2():
    """V_n's 49 equations for G2 are affine in the p's: homogeneous linear, so consistent."""
    P, ideal = _g2()
    report = cartan_test(P, ideal)
    assert report.codim == 49
    # An affine equation set built from them keeps all 49 and reaches no constant.
    container = AffineBasis()
    for eq in report.vn_equations:
        container.insert(eq)
    assert container.size() == 49
    assert not container.inconsistent
    for eq in report.vn_equations:
        assert eq.total_degree() == 1
        assert not eq.terms.get(())


def test_equations_for_vn_trivial_cases():
    P = frame_bundle(Session(), 2)
    assert cartan_test(P, []).codim == 0
    # the substituted 3-form in two thetas vanishes identically
    ideal = [P.d(P.theta(1) * P.theta(2))]
    assert cartan_test(P, ideal).codim == 0
    # theta^2 ∧ omega_11 (generator 3) on theta^1 ∧ theta^2: theta^2 ∧ theta^1 = -theta^12
    eqs = cartan_test(P, [P.theta(2) * P.omega(1, 1)]).vn_equations
    assert eqs == (-Poly.from_symbol(P.p[(3, 1)]),)


def test_equations_for_vn_nonlinear_propagates():
    """Each term needs one omega factor and a constant coefficient.

    cartan_test checks each generator once, with an error that names the
    offending term: NotLinearError for the omega count, a plain
    NonLinearError for a symbolic coefficient, FrameMismatchError for the
    forms of another bundle; reduced_polar_equations checks the bundle too.
    """
    s = Session()
    P = frame_bundle(s, 2)
    bad = [
        ([P.omega(1, 1) * P.omega(1, 2)], NotLinearError, "e34 is not linear"),
        ([P.theta(1) * P.omega(1, 1) * s.symbol("a")], NonLinearError, "a*e13 has a symbolic"),
        ([P.theta(1)], NotLinearError, "e1 is not linear"),
        ([P.omega(1, 1) * P.omega(1, 2) * P.omega(2, 1)], NotLinearError, "e345 is not linear"),
    ]
    for ideal, error, message in bad:
        with pytest.raises(NonLinearError, match=re.escape(message)) as exc:
            cartan_test(P, ideal)
        assert type(exc.value) is error
    _, g2 = _g2()
    checks = (cartan_test, lambda bundle, ideal: reduced_polar_equations(bundle, ideal[0], 0))
    for other in (frame_bundle(s, 7), frame_bundle(s, 3)):
        for check in checks:
            with pytest.raises(FrameMismatchError):
                check(other, g2)


def test_vn_tableau_matches_substitution():
    """The tableau rows equal the substituted coefficients, printed and in order.

    The report's vn_equations equal the kept substituted coefficients as
    Polys too, and their count is the report's codim.
    """
    rng = random.Random(11)
    systems = [_g2(), _spin7()]
    systems += [_random_linear_ideal(rng, 1 + i % 5) for i in range(60)]
    for P, ideal in systems:
        kept = _substituted_vn_equations(P, ideal)
        report = cartan_test(P, ideal)
        assert [str(eq) for eq in report.vn_equations] == [str(eq) for eq in kept]
        assert report.vn_equations == tuple(kept)
        assert report.codim == len(report.vn_equations)


def test_vn_rows_match_substitution_past_n_5():
    """At n = 6..9, on real seeded ideals with a zero generator, the same V_n rows in the same order."""
    rng = random.Random(33)
    for n in [6, 7, 8, 9] * 8:
        P, ideal = _random_linear_ideal(rng, n, real=True)
        ideal.insert(rng.randint(0, len(ideal)), P.manifold.zero())
        kept = _substituted_vn_equations(P, ideal)
        assert cartan_test(P, ideal).vn_equations == tuple(kept), n


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
    for j in (-1, P.n + 1):
        with pytest.raises(DimensionError, match=f"flag length {j} outside 0..7"):
            reduced_polar_equations(P, ideal[0], j)
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


@pytest.mark.parametrize(
    "n, text, flag",
    [
        (7, f"d: {G2_PHI}\nd: {G2_STAR_PHI}\n", None),
        (7, f"d: {G2_PHI}\nd: {G2_STAR_PHI}\n", [3, 1, 4, 7, 2, 6, 5]),
        (4, FRACTIONAL_IDEAL.read_text(encoding="utf-8"), None),
        (4, FRACTIONAL_IDEAL.read_text(encoding="utf-8"), [2, 4, 1, 3]),
    ],
    ids=["g2", "g2-flag", "fractional", "fractional-flag"],
)
def test_cartan_test_makes_no_gaussian_rational(monkeypatch, n, text, flag):
    """From the loaded ideal to the report, every row stays on Gaussian-integer ints.

    The fractional ideal's generators mix denominators and an imaginary
    coefficient, and the flags give both signs to the polar rows.
    """
    P = frame_bundle(Session(), n)
    ideal = load_ideal(P, text)
    made = []
    real_new = scalar._new

    def counting_new(cls):
        made.append(cls)
        return real_new(cls)

    monkeypatch.setattr(scalar, "_new", counting_new)
    report = cartan_test(P, ideal, flag)
    monkeypatch.undo()
    assert made == []
    assert report.vn_equations and report.polar[-1]


@_LOADED_SYSTEMS
def test_cartan_test_hooks_and_wraps_nothing(monkeypatch, n, text, c):
    """After the ideal is loaded: no hook, and no Poly.constant wrapping.

    The polar equations come from the tableau as rows, and no basis is
    involved.
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


def test_cartan_test_mixed_degree_raises(monkeypatch):
    """A generator of mixed degree is rejected before any row, of V_n or polar, reaches a Rank."""
    P = frame_bundle(Session(), 2)
    ideal = load_ideal(P, "d: 1+12\n")
    inserts = []
    real_insert = Rank.insert

    def counting_insert(self, re, im):
        inserts.append((re, im))
        return real_insert(self, re, im)

    monkeypatch.setattr(Rank, "insert", counting_insert)
    with pytest.raises(MixedDegreeError, match=r"form has mixed degrees \[2, 3\]"):
        cartan_test(P, ideal)
    # _tableau checks each generator before the flag is read.
    with pytest.raises(MixedDegreeError, match=r"form has mixed degrees \[2, 3\]"):
        cartan_test(P, ideal, [1, 1])
    assert inserts == []


def test_cartan_test_counts_rows_and_builds_forms_when_read(monkeypatch):
    """cartan_test makes no Form, no Poly and no Basis.insert call on G2.

    The report makes its polar Forms on first read, polar[j] holding c_j
    of them, and keeps them; a report built by hand has no equations.
    """
    P, ideal = _g2()
    counts = {"Form": 0, "Poly": 0, "Basis.insert": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Form, "__init__", counting("Form", Form.__init__))
    monkeypatch.setattr(Poly, "__init__", counting("Poly", Poly.__init__))
    monkeypatch.setattr(Basis, "insert", counting("Basis.insert", Basis.insert))
    report = cartan_test(P, ideal)
    assert counts == {"Form": 0, "Poly": 0, "Basis.insert": 0}
    monkeypatch.undo()
    assert tuple(len(eqs) for eqs in report.polar) == report.c
    assert report.polar is report.polar
    assert all(isinstance(eq, Form) for eq in report.polar[-1])
    bare = CartanReport(report.c, report.codim, report.involutive)
    assert bare == report and bare.polar == () and bare.vn_equations == ()
    assert bare.polar_text == () and bare.vn_text == ()
    assert repr(bare) == f"CartanReport(c={report.c}, codim=49, involutive=True)"


def test_cartan_empty_ideal():
    """No generator, or only the zero form, is the empty ideal; a nonzero scalar is not linear."""
    P = frame_bundle(Session(), 3)
    for ideal in ([], [0]):
        report = cartan_test(P, ideal)
        assert report.c == (0, 0, 0)
        assert report.codim == 0
        assert report.involutive
    with pytest.raises(NotLinearError, match=re.escape("2*e[] is not linear")):
        cartan_test(P, [2])


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


def _row_form(P, row):
    """A polar row (re, im, den) as the form sum (re[a] + i*im[a])/den omega_a."""
    re, im, den = row
    return Form(
        P.manifold,
        {
            (a,): Poly.constant(GaussianRational(Fraction(re.get(a, 0), den), Fraction(im.get(a, 0), den)))
            for a in re.keys() | im.keys()
        },
    )


@pytest.mark.parametrize(
    "systems",
    [lambda: [_g2()], lambda: [_spin7()], _random_systems],
    ids=["g2", "spin7", "random"],
)
def test_incremental_polar_basis_matches_per_j_rebuild(systems):
    """One basis grown along the flag gives the ranks of a fresh basis at every j.

    The rows cartan_test reads from the tableau at each j are, printed as
    forms and in order, the equations that hook the j-th flag vector first.
    """
    for P, ideal in systems():
        for order in _test_flags(P.n):
            report = cartan_test(P, ideal, order)
            tableau = [eds._tableau_polar_equations(eds._tableau(P, form), order) for form in ideal]
            previous = [[] for _ in ideal]
            for j in range(P.n):
                fresh = FormBasis(P.manifold)
                for g, form in enumerate(ideal):
                    eqs = reduced_polar_equations(P, form, j, order)
                    assert eqs == _recursive_polar_equations(P, form, j, order)
                    assert eqs[: len(previous[g])] == previous[g]
                    new = [str(eq) for eq in eqs[len(previous[g]) :]]
                    rows = [_row_form(P, row) for row in tableau[g][j]]
                    assert [str(eq) for eq in rows] == new, (order, j, g)
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
    for eq in cartan_test(P, ideal).vn_equations:
        assert eq.total_degree() <= 1


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
            assert exact_rank(dense) == c[j], (P.n, j)

        eqs = cartan_test(P, ideal).vn_equations
        syms = sorted({s for eq in eqs for s in eq.free_symbols()}, key=lambda s: s.index)
        pos = {s: i for i, s in enumerate(syms)}
        rows = []
        for eq in eqs:
            row = [zero] * len(syms)
            for mono, coeff in eq.terms.items():
                row[pos[mono[0][0]]] = coeff
            rows.append(row)
        assert exact_rank(rows) == codim


# The Calabi-Yau system on n = 6: the Kaehler form and the real and
# imaginary parts psi± of Omega = (e1 + i e2)(e3 + i e4)(e5 + i e6).
CY3_REAL = "d: 12+34+56\nd: 135-146-236-245\nd: 136+145+235-246\n"
CY3_COMPLEX = Path(__file__).with_name("data") / "cy3_complex.ideal"


def _column_rows(P, equations):
    """Equations linear in the p's as rows {column of p_aj: c}, the columns of _vn_rows."""
    n = P.n
    column = {P.p[(a, j)]: (a - n - 1) * n + j - 1 for a, j in P.p}
    return [{column[mono[0][0]]: c for mono, c in eq.terms.items()} for eq in equations]


def test_cy3_real_and_complex_tableaux_agree():
    """dω, dψ₊, dψ₋ and dω, dΩ, dΩ̄ give the same characters and codim 42.

    dΩ = dψ₊ + i dψ₋ and dΩ̄ = dψ₊ − i dψ₋, so both ideals span the same
    Q(i) space of equations at every flag.  The stabilizer of (ω, Ω) is
    SU(3), and the three derivatives determine the intrinsic torsion
    (Chiossi–Salamon), which lies in R^6 ⊗ (so(6)/su(3)); so codim V_6
    is 6·(dim so(6) − dim su(3)) = 6·(15 − 8) = 42, as G2's 49 is
    7·(21 − 14).  The identity flag is not generic: it gives
    c = (0, 0, 1, 5, 10, 22), 38 < 42, and the seeded flag gives 42.
    V_n's kept rows are those of a greedy Echelon selection over every
    substituted coefficient, for the complex rows as for the real.
    """
    codim = 6 * (6 * 5 // 2 - 8)  # n·(dim so(6) − dim su(3))
    P = frame_bundle(Session(), 6)
    real = load_ideal(P, CY3_REAL)
    complex_ = load_ideal(P, CY3_COMPLEX.read_text(encoding="utf-8"))
    assert any(c.im for form in complex_ for p in form.terms.values() for c in p.terms.values())
    identity, seeded = _seeded_flags(6, 1, 0)
    expected = {
        tuple(identity): ((0, 0, 1, 5, 10, 22), False),
        tuple(seeded): ((0, 0, 1, 5, 14, 22), True),
    }
    for flag, (c, involutive) in expected.items():
        for ideal in (real, complex_):
            report = cartan_test(P, ideal, flag)
            assert (report.c, report.codim, report.involutive) == (c, codim, involutive), flag
    for ideal in (real, complex_):
        kept = _column_rows(P, cartan_test(P, ideal).vn_equations)
        assert kept == _column_rows(P, _substituted_vn_equations(P, ideal))
        assert len(kept) == codim == 42
