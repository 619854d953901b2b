import copy
import math
import operator
import random
from fractions import Fraction

import pytest

from frameforms import (
    GaussianRational,
    I,
    InconsistentError,
    NonLinearError,
    Poly,
    Session,
    linear_solve,
)
from frameforms.scalar import Echelon, Symbol, _make


def test_gaussian_rational_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(Fraction(1, 2), -1)
    assert a + b == GaussianRational(Fraction(3, 2), 1)
    assert a * b == GaussianRational(Fraction(5, 2), 0)
    assert (a / b) * b == a
    assert I * I == -1
    assert str(GaussianRational(Fraction(3, 2))) == "3/2"
    assert str(I) == "i"
    assert str(GaussianRational(1, 2)) == "1+2*i"
    assert str(GaussianRational(0, Fraction(-3, 2))) == "-3/2*i"


def test_hash_agrees_with_equality():
    assert GaussianRational(3) == 3
    assert len({GaussianRational(3), 3}) == 1
    assert hash(GaussianRational(-7)) == hash(-7)
    half = Fraction(1, 2)
    assert hash(GaussianRational(half)) == hash(half)
    assert len({GaussianRational(half), half, GaussianRational(half, 1)}) == 2


def _rand_rational(rng):
    """A seeded Fraction, with numerator and denominator up to 2**70 half the time."""
    bound = 2**70 if rng.random() < 0.5 else 6
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _rand_operand(rng):
    """A seeded int, Fraction or GaussianRational, zero parts included."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice([0, 1, -1, rng.randint(-2**70, 2**70)])
    if kind == 1:
        return _rand_rational(rng)
    parts = [_rand_rational(rng) if rng.random() < 0.8 else Fraction(0) for _ in range(2)]
    return GaussianRational(*parts)


def _pair(x):
    """The reference value of an operand: a (re, im) pair of Fractions."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def _reference(op, x, y):
    (a, b), (c, d) = _pair(x), _pair(y)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def _assert_normalized(g):
    a, b, d = g._a, g._b, g._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    if not a and not b:
        assert d == 1


def _assert_value(g, re, im):
    assert isinstance(g, GaussianRational)
    _assert_normalized(g)
    assert (g.re, g.im) == (re, im)
    assert g == GaussianRational(re, im) and hash(g) == hash(GaussianRational(re, im))
    assert (g == re) == (im == 0)
    if im == 0:
        assert hash(g) == hash(re)
        if re.denominator == 1:
            assert g == re.numerator and hash(g) == hash(re.numerator)


def test_gaussian_rational_matches_fraction_pairs():
    rng = random.Random(7)
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    for _ in range(3000):
        x, y = _rand_operand(rng), _rand_operand(rng)
        if not isinstance(x, GaussianRational) and not isinstance(y, GaussianRational):
            x = GaussianRational(x) if rng.random() < 0.5 else x
            y = y if isinstance(x, GaussianRational) else GaussianRational(y)
        for name, op in ops.items():
            if name == "/" and _pair(y) == (0, 0):
                with pytest.raises(ZeroDivisionError):
                    op(x, y)
                continue
            _assert_value(op(x, y), *_reference(name, x, y))
        g = GaussianRational(*_pair(x))
        re, im = _pair(x)
        _assert_value(g, re, im)
        _assert_value(-g, -re, -im)
        _assert_value(g.conjugate(), re, -im)
        _assert_value(g - g, Fraction(0), Fraction(0))
        assert bool(g) == (re != 0 or im != 0)


def _fraction_str(g):
    """A GaussianRational's text, built from Fraction parts."""
    re, im = Fraction(g._a, g._d), Fraction(g._b, g._d)
    if not im:
        return str(re)
    ims = "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
    if not re:
        return ims
    return f"{re}+{ims}" if im > 0 else f"{re}{ims}"


def test_gaussian_rational_str_matches_fraction_parts():
    rng = random.Random(31)

    def part(bound):
        return 0 if rng.random() < 0.2 else rng.randint(-bound, bound)

    for _ in range(3000):
        big = rng.random() < 0.7
        d = rng.randint(1, 2**40 if big else 6)
        # A shared factor makes gcd(a, d) > 1 while gcd(a, b, d) = 1.
        f = rng.choice([1, 1, 2, 3, d])
        a = f * part(2**70 if big else 6)
        b = part(2**70 if big else 6) * rng.choice([1, 1, d])
        g = _make(a, b, d)
        assert str(g) == _fraction_str(g), (a, b, d)
    for g in (I, -I, 2 * I, I / 2, -I / 3, GaussianRational(0), GaussianRational(-1, 1)):
        assert str(g) == _fraction_str(g)


def test_gaussian_rational_division_by_zero():
    zero = GaussianRational(0)
    for x in (GaussianRational(1, 2), 3, Fraction(1, 3), zero):
        with pytest.raises(ZeroDivisionError):
            x / zero
    for z in (0, Fraction(0), GaussianRational(Fraction(0), Fraction(0))):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1, 2) / z


def test_gaussian_rational_hashes_like_fraction():
    assert hash(GaussianRational(Fraction(1, 3))) == hash(Fraction(1, 3))
    assert hash(GaussianRational(Fraction(-2**70, 3))) == hash(Fraction(-2**70, 3))
    assert GaussianRational(Fraction(6, 3), 0) == 2 and hash(GaussianRational(Fraction(6, 3))) == hash(2)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        GaussianRational(1, 0.25)
    s = Session()
    x = s.symbol("x")
    with pytest.raises(TypeError):
        x + 0.5
    with pytest.raises(TypeError):
        0.5 * Poly.from_symbol(x)


def test_symbol_identity_and_order():
    s = Session()
    x1 = s.symbol("x")
    x2 = s.symbol("x")
    assert x1 != x2
    assert x1 < x2
    assert x1 == x1
    assert x1.index < x2.index


def test_symbol_equals_only_itself_and_copies_to_itself():
    s = Session()
    x, y = s.symbols("x y")
    # Another symbol with the same name and index is still another symbol.
    twin = Symbol(x.name, x.index)
    assert x == x and x != twin and x != y
    assert len({x, twin, y}) == 3
    assert copy.copy(x) is x and copy.deepcopy(x) is x
    p = (x + 2 * y) * (x - I)
    q = copy.deepcopy(p)
    assert q is not p and q.terms is not p.terms
    assert q == p
    assert {s for m in q.terms for s, _ in m} == {x, y}
    assert all(s is x or s is y for m in q.terms for s, _ in m)


def test_symbols_of_different_sessions_are_distinct():
    a = Session().symbol("a")
    b = Session().symbol("b")
    assert a != b
    assert a - b != 0
    assert str(a - b) == "a-b"


def test_poly_ring_examples():
    s = Session()
    x = s.symbol("x")
    p = s.symbol("p")
    assert (x + 1) * (x - 1) == x * x - 1
    assert Poly.from_symbol(p) + Poly.zero() == Poly.from_symbol(p)
    assert Fraction(1, 2) * x + Fraction(1, 2) * x == Poly.from_symbol(x)


def test_poly_canonical_form():
    s = Session()
    x, y = s.symbols("x y")
    p = x * y + y * x - 2 * (y * x)
    assert p == 0
    assert not p.terms
    q = x + y - x
    assert q.terms == Poly.from_symbol(y).terms


def test_poly_str_deterministic():
    s = Session()
    x, y = s.symbols("x y")
    assert str(x * x + x + 1) == "x^2+x+1"
    assert str(y - x) == "-x+y"
    assert str(Poly.zero()) == "0"
    assert str(I * x) == "i*x"


def test_substitute_examples():
    s = Session()
    x, y = s.symbols("x y")
    px, py = Poly.from_symbol(x), Poly.from_symbol(y)
    assert (x + y).substitute({x: py}) == 2 * py
    assert px.substitute({}) == px
    # simultaneity: swap is not iterated
    assert (x * y).substitute({x: py, y: px}) == x * y


def test_substitute_inverse_renaming_is_identity():
    rng = random.Random(7)
    s = Session()
    syms = s.symbols("a b c d")
    for _ in range(50):
        p = Poly.zero()
        for _ in range(4):
            term = Poly.constant(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
            for _ in range(rng.randint(0, 3)):
                term = term * rng.choice(syms)
            p = p + term
        fwd = {syms[i]: Poly.from_symbol(syms[(i + 1) % 4]) for i in range(4)}
        back = {syms[(i + 1) % 4]: Poly.from_symbol(syms[i]) for i in range(4)}
        assert p.substitute(fwd).substitute(back) == p


def test_ring_laws_randomized():
    rng = random.Random(11)
    s = Session()
    syms = s.symbols("x y z")

    def rand_poly():
        p = Poly.zero()
        for _ in range(rng.randint(0, 3)):
            term = Poly.constant(
                GaussianRational(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-1, 1)))
            )
            for _ in range(rng.randint(0, 2)):
                term = term * rng.choice(syms)
            p = p + term
        return p

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        # Cancelling sums and products store no zero coefficient.
        for r in (a + b, a - b, a * b, (a + b) * (a - b), a.substitute({syms[0]: b})):
            assert all(r.terms.values())


def test_poly_matches_sympy_randomized():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    s = Session()
    syms = s.symbols("x y z")
    gens = sympy.symbols("x y z")
    to_gen = dict(zip(syms, gens))

    def rand_poly():
        p = Poly.zero()
        for _ in range(rng.randint(0, 4)):
            term = Poly.constant(
                GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
            )
            for _ in range(rng.randint(0, 3)):
                term = term * rng.choice(syms)
            p = p + term
        return p

    def to_sympy(p):
        return sympy.Add(*(
            (sympy.Rational(c.re.numerator, c.re.denominator)
             + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
            * sympy.Mul(*(to_gen[sym] ** e for sym, e in m))
            for m, c in p.terms.items()
        ))

    def same(p, expr):
        return sympy.expand(to_sympy(p) - expr) == 0

    for _ in range(150):
        a, b = rand_poly(), rand_poly()
        sa, sb = to_sympy(a), to_sympy(b)
        assert same(a + b, sa + sb)
        assert same(a - b, sa - sb)
        assert same(a * b, sa * sb)
        n = rng.randint(0, 3)
        assert same(a**n, sa**n)
        rules = {sym: rand_poly() for sym in rng.sample(syms, rng.randint(0, 3))}
        expected = sa.subs({to_gen[k]: to_sympy(v) for k, v in rules.items()}, simultaneous=True)
        assert same(a.substitute(rules), expected)


def test_linear_solve_examples():
    s = Session()
    x, y = s.symbols("x y")
    sol = linear_solve([x + y - 1, x - y], [x, y])
    assert sol.assignments[x] == Poly.constant(Fraction(1, 2))
    assert sol.assignments[y] == Poly.constant(Fraction(1, 2))
    assert not sol.free

    sol = linear_solve([x + y], [x, y])
    assert sol.assignments[x] == -Poly.from_symbol(y)
    assert sol.free == frozenset([y])

    a = s.symbol("a")
    sol = linear_solve([2 * x - a], [x])
    assert sol.assignments[x] == Fraction(1, 2) * a


def test_linear_solve_pivot_choice_is_deterministic():
    s = Session()
    x, y = s.symbols("x y")
    # earliest-created unknown with a nonzero coefficient becomes the pivot
    sol = linear_solve([y - x], [x, y])
    assert set(sol.assignments) == {x}
    assert sol.assignments[x] == Poly.from_symbol(y)
    sol = linear_solve([x + y, 2 * x + 2 * y], [x, y])
    assert set(sol.assignments) == {x} and sol.free == frozenset([y])


def test_linear_solve_gaussian_coefficients():
    s = Session()
    x, y = s.symbols("x y")
    sol = linear_solve([x + I * y], [x, y])
    assert sol.assignments[x] == -I * y
    assert (x + I * y).substitute(sol.assignments) == 0


def test_linear_solve_nonlinear_errors():
    s = Session()
    x, y, a = s.symbols("x y a")
    with pytest.raises(NonLinearError):
        linear_solve([x * x - 1], [x])
    with pytest.raises(NonLinearError):
        linear_solve([a * x], [x])
    with pytest.raises(NonLinearError):
        linear_solve([x * y], [x, y])
    # every equation is checked for linearity before any is eliminated
    with pytest.raises(NonLinearError):
        linear_solve([x, x - 1, x * x], [x])


def test_linear_solve_nonlinear_error_texts():
    s = Session()
    a, x, y = s.symbols("a x y")
    with pytest.raises(NonLinearError) as exc:
        linear_solve([x * y], [x, y])
    assert str(exc.value) == "term x*y is not linear in the unknowns"
    with pytest.raises(NonLinearError) as exc:
        linear_solve([a * x + 1], [x])
    assert str(exc.value) == "unknown x carries a parametric coefficient in a*x"


def test_linear_solve_inconsistent():
    s = Session()
    x, a = s.symbols("x a")
    with pytest.raises(InconsistentError):
        linear_solve([x, x - 1], [x])
    # a reduced equation that is a nonzero parameter-only polynomial
    with pytest.raises(InconsistentError):
        linear_solve([x + a, x], [x])


def test_echelon_impose_raises_and_stores_nothing_on_contradiction():
    s = Session()
    x, y, a = s.symbols("x y a")
    position = {((u, 1),): u.index for u in (x, y)}
    ech = Echelon(position.get)
    ech.impose((x + y - 1).terms)
    ech.impose((2 * x + 2 * y - 2).terms)  # reduces to zero: no new row
    assert len(ech.rows) == 1
    before = {p: dict(row) for p, row in ech.rows.items()}
    for contradiction in (x + y, x + y - 1 + a):
        with pytest.raises(InconsistentError, match="equation reduces to"):
            ech.impose(contradiction.terms)
        assert ech.rows == before
    ech.impose((x - y).terms)
    assert ech.solved() == {x: Poly.constant(Fraction(1, 2)), y: Poly.constant(Fraction(1, 2))}


def test_linear_solve_no_assigned_symbol_in_rhs():
    s = Session()
    u = s.symbols("u1 u2 u3 u4")
    sol = linear_solve([u[0] + u[1] + u[2], u[1] - u[3], u[2] + 2 * u[3]], u)
    assigned = set(sol.assignments)
    for rhs in sol.assignments.values():
        assert not (rhs.free_symbols() & assigned)
    assert sol.free & assigned == frozenset()


def test_linear_solve_roundtrip_randomized():
    rng = random.Random(23)
    for trial in range(60):
        s = Session()
        k = rng.randint(1, 5)
        unknowns = [s.symbol(f"u{i}") for i in range(k)]
        params = [s.symbol(f"a{i}") for i in range(rng.randint(0, 2))]
        # build a consistent system around a random target assignment
        target = {}
        for u in unknowns:
            val = Poly.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            for p in params:
                val = val + rng.randint(-2, 2) * p
            target[u] = val
        eqs = []
        for _ in range(rng.randint(1, k + 2)):
            eq = Poly.zero()
            for u in unknowns:
                c = rng.randint(-2, 2)
                if c:
                    eq = eq + c * (Poly.from_symbol(u) - target[u])
            eqs.append(eq)
        sol = linear_solve(eqs, unknowns)
        for eq in eqs:
            assert sol.apply(eq) == 0, f"trial {trial}"


def test_linear_solve_matches_sympy_linsolve():
    """Assignments and free unknowns agree with sympy over Q(i).

    Coefficients are drawn from units and non-units, so pivots and
    multipliers of 1, -1, i and -i occur; some systems are
    underdetermined and some inconsistent.
    """
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    units = [GaussianRational(1), GaussianRational(-1), I, -I]
    others = [GaussianRational(2), GaussianRational(Fraction(-1, 2)), 1 + I, GaussianRational(Fraction(2, 3), -3)]

    def coeff():
        r = rng.random()
        return GaussianRational(0) if r < 0.3 else rng.choice(units if r < 0.75 else others)

    def to_sympy(c):
        return sympy.Rational(c._a, c._d) + sympy.I * sympy.Rational(c._b, c._d)

    def poly_to_sympy(p, gens):
        return sympy.Add(*(
            to_sympy(c) * sympy.Mul(*(gens[sym] ** e for sym, e in m)) for m, c in p.terms.items()
        ))

    seen_inconsistent = seen_free = 0
    for trial in range(120):
        s = Session()
        unknowns = [s.symbol(f"u{i}") for i in range(rng.randint(1, 4))]
        params = [s.symbol(f"a{i}") for i in range(rng.randint(0, 1))]
        gens = {x: sympy.Symbol(x.name) for x in unknowns + params}
        eqs = []
        for _ in range(rng.randint(1, len(unknowns) + 1)):
            eq = Poly.constant(coeff())
            for x in unknowns:
                eq = eq + coeff() * x
            for x in params:
                eq = eq + rng.choice([0, 0, 1, -2]) * x
            eqs.append(eq)
        if rng.random() < 0.25:
            # A combination of the equations, shifted by a nonzero constant.
            eq = Poly.constant(rng.choice(units + others))
            for e in eqs:
                eq = eq + coeff() * e
            eqs.append(eq)
        expected = sympy.linsolve([poly_to_sympy(e, gens) for e in eqs], [gens[x] for x in unknowns])
        if expected == sympy.EmptySet:
            with pytest.raises(InconsistentError):
                linear_solve(eqs, unknowns)
            seen_inconsistent += 1
            continue
        (values,) = expected
        sol = linear_solve(eqs, unknowns)
        seen_free += bool(sol.free)
        for x, value in zip(unknowns, values):
            if value == gens[x]:
                assert x in sol.free and x not in sol.assignments, f"trial {trial}"
            else:
                ours = poly_to_sympy(sol.assignments[x], gens)
                assert sympy.expand(ours - value) == 0, f"trial {trial}: {x}"
    assert seen_inconsistent >= 5 and seen_free >= 5


def test_real_imag_split():
    s = Session()
    x, y = s.symbols("x y")
    p = (1 + 2 * I) * x + 3 * y + I
    re, im = p.real_imag()
    assert re == x + 3 * y
    assert im == 2 * x + 1
