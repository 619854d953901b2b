import copy
import math
import operator
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from frameforms import (
    GaussianRational,
    I,
    InconsistentError,
    NonLinearError,
    Poly,
    RedeclarationError,
    Session,
    linear_solve,
)
from frameforms.scalar import Echelon, Rank, Symbol, _add_scaled, _make, _mono_mul, accumulate

from support import _pair, exact_rank


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
    x, y = s.symbol("x"), s.symbol("y")
    # A session makes one symbol per name.
    with pytest.raises(RedeclarationError, match="^symbol x already declared"):
        s.symbol("x")
    assert x != y
    assert x < y
    assert x == x
    assert x.index < y.index


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


def test_a_refused_name_makes_no_symbol():
    """A repeat in one call, a held name and a name that cannot print as itself are refused before any symbol is made."""
    s = Session()
    x, y = s.symbols("x y")
    held, index = dict(s._symbols), s.next_index()
    for call, error, message in [
        (lambda: s.symbols("a b a"), RedeclarationError, "^symbol a already declared"),
        (lambda: s.symbols("z x"), RedeclarationError, "^symbol x already declared"),
        (lambda: s.symbol("x"), RedeclarationError, "^symbol x already declared"),
        (lambda: s.symbol(3), TypeError, "expected str instance, int found"),
        (lambda: s.symbol(""), ValueError, "^symbol name '' is empty or holds whitespace$"),
        (lambda: s.symbol("u v"), ValueError, "empty or holds whitespace"),
        (lambda: s.symbol("u\n"), ValueError, "empty or holds whitespace"),
    ]:
        with pytest.raises(error, match=message):
            call()
        assert s._symbols == held
        index += 1
        assert s.next_index() == index
    a, b, z = s.symbols("a b z")
    assert s._symbols == {"x": x, "y": y, "a": a, "b": b, "z": z}
    assert [v.index for v in (a, b, z)] == [index + 1, index + 2, index + 3]
    # Another session may reuse a name.
    other = Session().symbol("x")
    assert other.name == "x" and other != x


def test_poly_ring_examples():
    s = Session()
    x = s.symbol("x")
    p = s.symbol("p")
    assert (x + 1) * (x - 1) == x * x - 1
    assert Poly.from_symbol(p) + Poly.zero() == Poly.from_symbol(p)
    assert Fraction(1, 2) * x + Fraction(1, 2) * x == Poly.from_symbol(x)
    # A constant factor of exactly 1 returns the other side itself.
    q = x * x + 1
    for product in (q * 1, 1 * q, q * Poly.constant(1), Poly.constant(1) * q):
        assert product is q
    assert (x + 1) ** 2 == x * x + 2 * x + 1 and (x + 1) ** 0 == 1
    for n in (-1, Fraction(1, 2)):
        with pytest.raises(ValueError, match="only non-negative integer powers"):
            (x + 1) ** n
    assert (2 * I + 1 + 0 * x).constant_value() == 1 + 2 * I
    with pytest.raises(ValueError, match="not a constant: x"):
        Poly.from_symbol(x).constant_value()


def test_reprs_symbol_operators_and_zero_total_degree():
    x = Session().symbol("x")
    assert repr(GaussianRational(Fraction(1, 2), -3)) == "GaussianRational(Fraction(1, 2), Fraction(-3, 1))"
    assert repr(2 * x - I) == "Poly(2*x-i)"
    assert 1 - x == Poly.constant(1) - Poly.from_symbol(x) and str(1 - x) == "-x+1"
    assert -x == -1 * x and str(-x) == "-x"
    assert Poly.zero().total_degree() == 0


def test_unsupported_operands_raise_type_error():
    """GaussianRational and Poly return NotImplemented for a type they do not take."""
    other = object()
    g, p = GaussianRational(1, 2), Poly.from_symbol(Session().symbol("x"))
    sub, rsub = operator.sub, lambda a, b: b - a
    cases = [(g, sub), (g, rsub), (g, operator.truediv), (g, lambda a, b: b / a), (p, sub), (p, rsub)]
    for value, op in cases:
        with pytest.raises(TypeError, match="unsupported operand"):
            op(value, other)
    assert g.__eq__(other) is p.__eq__(other) is NotImplemented
    assert g != other and p != other


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
    cases = [
        (x + y, {x: py}, 2 * py),
        (px, {}, px),
        # simultaneity: swap is not iterated
        (x * y, {x: py, y: px}, x * y),
        # Rule values go through as_poly: a Symbol promotes.
        (x * x + 1, {x: y}, y * y + 1),
    ]
    for p, rules, expected in cases:
        assert p.substitute(rules) == expected
        # The _SparseVector name is Poly's own substitute.
        assert p.substitute_scalars(rules) == p.substitute(rules)
        assert p.substitute_scalars({}) is p
    # A non-scalar rule value is rejected.
    with pytest.raises(TypeError, match="cannot interpret 'y' as a scalar"):
        (x * x + 1).substitute({x: "y"})


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
    # Two sessions, created interleaved and named out of creation order,
    # so that neither name nor session order gives the canonical one.
    s, t = Session(), Session()
    syms = [s.symbol("x"), t.symbol("b"), s.symbol("y"), t.symbol("a"), s.symbol("z")]
    gens = sympy.symbols("x b y a z")
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
        # The sympy comparison is blind to key order; the canonical form is not.
        for m, c in p.terms.items():
            assert c and all(e >= 1 for _, e in m)
            assert all(u.index < v.index for (u, _), (v, _) in zip(m, m[1:]))
        return sympy.expand(to_sympy(p) - expr) == 0

    for _ in range(150):
        a, b = rand_poly(), rand_poly()
        sa, sb = to_sympy(a), to_sympy(b)
        assert same(a + b, sa + sb)
        assert same(a - b, sa - sb)
        assert same(a * b, sa * sb)
        assert (a * b).terms == (b * a).terms
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


def test_impose_linear_reads_a_one_shot_iterable_once():
    """A generator of equations is imposed in full, and a NonLinearError from one imposes nothing."""
    x, y = Session().symbols("x y")
    ech = Echelon.over([x, y])
    ech.impose_linear(p for p in [x + 1, y - 2])
    assert ech.solved() == {x: Poly.constant(-1), y: Poly.constant(2)}
    assert ech.free() == []
    ech = Echelon.over([x, y])
    with pytest.raises(NonLinearError):
        ech.impose_linear(p for p in [x + 1, x * y])
    assert ech.rows == {} and ech.free() == [x, y]


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


def _echelon_accepts(ech, vec):
    """Whether Echelon.reduce + Echelon.insert store vec as a new row."""
    red = ech.reduce(vec)
    return bool(red) and ech.insert(red) is not None


class _BudgetedPivots(dict):
    """Rank.pivots that fails an insert after 20 reduction steps.

    Rank.insert looks up one pivot per step, and a row of k keys takes
    at most k steps, so a lead that never cancels fails instead of
    hanging; reset `steps` before each insert.
    """

    steps = 0

    def get(self, key, default=None):
        self.steps += 1
        if self.steps > 20:
            raise AssertionError("Rank.insert keeps reducing one row: a lead did not cancel")
        return super().get(key, default)


def _budgeted_rank():
    rank = Rank()
    rank.pivots = _BudgetedPivots()
    return rank


def _insert(rank, vec, scale=1):
    """Rank.insert of scale·den·vec as its (re, im) int dicts, den vec's common denominator.

    The dicts passed must be left as they are.
    """
    den = 1
    for c in vec.values():
        den = den * c._d // math.gcd(den, c._d)
    scaled = {k: c * scale * den for k, c in vec.items()}
    assert all(c._d == 1 for c in scaled.values())
    rank.pivots.steps = 0
    re = {k: c._a for k, c in scaled.items() if c._a}
    im = {k: c._b for k, c in scaled.items() if c._b}
    before = (dict(re), dict(im))
    accepted = rank.insert(re, im)
    assert (re, im) == before
    return accepted


def test_rank_decides_a_unit_pivot_with_an_imaginary_part():
    """A stored lead of 1+i: the multiple (1-i)·row of it is dependent, the row plus 1 is not."""
    half = Fraction(1, 2)
    rows = [
        ({0: GaussianRational(1, 1), 1: GaussianRational(1)}, True),
        ({0: GaussianRational(2), 1: GaussianRational(1, -1)}, False),
        ({0: GaussianRational(half, half), 1: GaussianRational(half)}, False),
        ({0: GaussianRational(1, 1), 1: GaussianRational(2)}, True),
        ({1: I}, False),
    ]
    rank = _budgeted_rank()
    for vec, independent in rows:
        assert _insert(rank, vec) == independent, vec
    assert set(rank.pivots) == {0, 1}


def test_rank_accepts_exactly_the_rows_echelon_accepts():
    """On random Q(i) rows and dependent combinations of them, Rank and Echelon agree.

    Each row, cleared to Gaussian integers, is accepted by both or by
    neither, and Rank's pivot keys are Echelon's row keys; so too when
    each cleared row is also scaled by a unit and an integer.  Entries draw
    fractions, imaginary parts and leads such as 1+i; a dependent row is
    a Q(i) combination of earlier rows, sometimes plus a small
    perturbation that makes it independent.
    """
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    parts = st.sampled_from([Fraction(n, d) for n, d in ((0, 1), (1, 1), (-1, 1), (2, 1), (1, 2), (-3, 4))])
    entries = st.builds(GaussianRational, parts, parts)
    rows = st.dictionaries(st.integers(0, 5), entries, max_size=6).map(
        lambda d: {k: v for k, v in d.items() if v}
    )

    def combination(data, earlier):
        out = {}
        for row in data.draw(st.lists(st.sampled_from(earlier), min_size=1, max_size=3)):
            c = data.draw(entries.filter(bool))
            for k, v in row.items():
                out[k] = out.get(k, 0) + c * v
        return {k: v for k, v in out.items() if v}

    @hyp.settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @hyp.given(st.data())
    def check(data):
        rank, ints, ech = _budgeted_rank(), _budgeted_rank(), Echelon(lambda k: k)
        seen = []
        for _ in range(data.draw(st.integers(1, 9))):
            if seen and data.draw(st.booleans()):
                vec = combination(data, seen)
                if data.draw(st.integers(0, 3)) == 0:
                    vec.update(data.draw(rows))
            else:
                vec = data.draw(rows)
            accepted = _echelon_accepts(ech, vec)
            assert _insert(rank, vec) == accepted, vec
            assert _insert(ints, vec, GaussianRational(0, 3)) == accepted, vec
            seen.append(vec)
        assert set(rank.pivots) == set(ints.pivots) == set(ech.rows)

    check()


def test_echelon_rows_are_sympy_rref_after_every_insert():
    """Echelon's rows are the reduced echelon form of the accepted rows, at every step.

    Half the rows lead with a key that an earlier row holds, so their
    pivot must be back-substituted into that row.  After each insert the
    rows equal sympy's `Matrix.rref()` of the accepted vectors, no row
    holds a pivot, every key a row holds is in the held-key set that
    `insert` reads, and an insert into a `copy()` leaves the original's
    rows and held-key set as they were.
    """
    hyp = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hyp.strategies
    parts = st.sampled_from([Fraction(n, d) for n, d in ((0, 1), (1, 1), (-1, 1), (2, 1), (1, 2), (-3, 4))])
    entries = st.builds(GaussianRational, parts, parts).filter(bool)
    width = 6
    rows = st.dictionaries(st.integers(0, width - 1), entries, min_size=1, max_size=4)
    later_pivot_held = []

    def to_sympy(c):
        return sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)

    def check_rref(ech, accepted):
        matrix = sympy.Matrix([[to_sympy(v.get(k, GaussianRational(0))) for k in range(width)] for v in accepted])
        reduced, pivots = matrix.rref(iszerofunc=lambda x: sympy.expand(x) == 0)
        assert sorted(ech.rows) == list(pivots)
        for r, p in enumerate(pivots):
            expected = {k: reduced[r, k] for k in range(width) if k != p and sympy.expand(reduced[r, k]) != 0}
            assert set(ech.rows[p]) == set(expected), p
            assert all(sympy.expand(to_sympy(c) - expected[k]) == 0 for k, c in ech.rows[p].items()), p

    @hyp.settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @hyp.given(st.data())
    def check(data):
        ech, accepted = Echelon(lambda k: k), []
        for _ in range(data.draw(st.integers(1, 7))):
            held = sorted({k for row in ech.rows.values() for k in row})
            vec = data.draw(rows)
            if held and data.draw(st.booleans()):
                # Lead with a held key: reduction leaves it, so it is the pivot.
                lead = data.draw(st.sampled_from(held))
                vec = {lead: data.draw(entries), **{k: c for k, c in vec.items() if k > lead}}
            red = ech.reduce(vec)
            if not red:
                continue
            held_pivot = any(min(red) in row for row in ech.rows.values())
            assert ech.insert(red) is not None
            later_pivot_held.append(held_pivot)
            accepted.append(vec)
            check_rref(ech, accepted)
            assert not any(p in row for row in ech.rows.values() for p in ech.rows)
            assert {k for row in ech.rows.values() for k in row} <= ech._held
            rows_before = {p: dict(row) for p, row in ech.rows.items()}
            held_before = set(ech._held)
            other = ech.copy()
            # Keys 6 and 7 lie outside every row of ech: the copy's new row holds 7.
            probe = {**data.draw(rows), width: GaussianRational(1), width + 1: GaussianRational(1)}
            assert other.insert(other.reduce(probe)) is not None
            assert ech.rows == rows_before and ech._held == held_before

    check()
    assert later_pivot_held.count(True) > 50


class _Pair(NamedTuple):
    """A Gaussian integer as exact_rank reads one: Fraction re and im."""

    re: Fraction
    im: Fraction


def test_rank_counts_what_the_independent_oracle_counts():
    """On Gaussian integer rows, Rank.insert accepts exact_rank(rows) of them.

    Each row is real-only, imaginary-only or Gaussian, with lead ±1, 2,
    1+i or -i at its least key; some rows are Z[i] combinations of earlier
    ones, sometimes plus a new row.  The caller's dicts are left unchanged.
    """
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    leads = st.sampled_from([(1, 0), (-1, 0), (2, 0), (1, 1), (0, -1)])
    small = st.integers(-3, 3)

    @st.composite
    def rows(draw):
        keys = sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=5)))
        kind = draw(st.sampled_from(["real", "imaginary", "gaussian"]))
        row = {keys[0]: draw(leads)}
        for k in keys[1:]:
            x, y = draw(small), draw(small)
            row[k] = {"real": (x, 0), "imaginary": (0, y), "gaussian": (x, y)}[kind]
        return row

    def combination(data, earlier):
        out = {}
        for row in data.draw(st.lists(st.sampled_from(earlier), min_size=1, max_size=3)):
            a, b = data.draw(st.sampled_from([(1, 0), (-2, 0), (0, 1), (1, -1)]))
            for k, (x, y) in row.items():
                r, i = out.get(k, (0, 0))
                out[k] = (r + a * x - b * y, i + a * y + b * x)
        return out

    @hyp.settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @hyp.given(st.data())
    def check(data):
        rank, accepted, seen = _budgeted_rank(), 0, []
        for _ in range(data.draw(st.integers(1, 9))):
            row = combination(data, seen) if seen and data.draw(st.booleans()) else data.draw(rows())
            if seen and data.draw(st.integers(0, 3)) == 0:
                row.update(data.draw(rows()))
            seen.append(row)
            re = {k: x for k, (x, _) in row.items() if x}
            im = {k: y for k, (_, y) in row.items() if y}
            before = (dict(re), dict(im))
            rank.pivots.steps = 0
            accepted += rank.insert(re, im)
            assert (re, im) == before
        oracle = [{k: _Pair(Fraction(x), Fraction(y)) for k, (x, y) in row.items()} for row in seen]
        assert accepted == exact_rank(oracle)

    check()


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


def test_real_imag_parts_are_real_and_sum_back():
    """re + I*im == p with both parts real, and a real poly is its own real part."""
    s = Session()
    x, y = s.symbols("x y")
    half = Fraction(1, 2)
    cases = [
        Poly.zero(),
        Poly.constant(3),
        2 * x - half * y + 7,
        I * x - 2 * I,
        (1 + 2 * I) * x + 3 * y + I,
        # one imaginary coefficient after real ones
        x + y + 5 + I * x * y,
        half * x * x * y - 3 * y + (half - half * I) * x,
    ]
    for p in cases:
        re, im = p.real_imag()
        assert re + I * im == p, p
        for part in (re, im):
            assert all(not c.im for c in part.terms.values()), (p, part)
        if all(not c.im for c in p.terms.values()):
            assert re is p and im == 0


def test_add_scaled_matches_accumulate_of_scaled_pairs():
    """_add_scaled(out, terms, c, mono) adds the pairs (mono * k, v * c) as accumulate does, leaving terms as it was.

    mono is empty or a product of session symbols, and the keys are
    monomials.  A third of the drawn terms cancel an entry of out under
    the shift, so zero sums are dropped; c = 1 and c = -1 multiply nothing.
    """
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    x, y = Session().symbols("x y")
    # The monomials of degree at most 2 in x and y, and the shifts by at most x*y.
    monos = [(), ((x, 1),), ((y, 1),), ((x, 2),), ((x, 1), (y, 1)), ((y, 2),)]
    shifts = monos[:3] + [((x, 1), (y, 1))]
    shifted = list(dict.fromkeys(_mono_mul(s, k) for s in shifts for k in monos))
    parts = st.sampled_from([Fraction(n, d) for n, d in ((0, 1), (1, 1), (-1, 1), (2, 1), (1, 2), (-3, 4))])
    entries = st.builds(GaussianRational, parts, parts).filter(bool)
    scalars = st.sampled_from(
        [GaussianRational(1), GaussianRational(-1), I, -I, GaussianRational(Fraction(1, 2)),
         GaussianRational(Fraction(1, 3), Fraction(1, 3)), GaussianRational(5)]
    )
    cancelled = []
    moved = []

    @hyp.settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @hyp.given(
        st.dictionaries(st.sampled_from(shifted), entries, max_size=6),
        st.dictionaries(st.sampled_from(monos), entries, max_size=6),
        scalars,
        st.sampled_from(shifts),
        st.data(),
    )
    def check(out, terms, c, mono, data):
        hits = [k for k in monos if _mono_mul(mono, k) in out]
        for k in data.draw(st.lists(st.sampled_from(hits), unique=True)) if hits else ():
            terms[k] = -out[_mono_mul(mono, k)] / c
        before = dict(terms)
        expected = accumulate(dict(out), ((_mono_mul(mono, k), v * c) for k, v in terms.items()))
        target = dict(out)
        assert _add_scaled(target, terms, c, mono) is target
        assert target == expected
        assert all(target.values())
        assert terms == before
        keys = {_mono_mul(mono, k) for k in terms}
        cancelled.append(len(out) + len(terms) - len(target) - len(set(out) & keys))
        moved.append(bool(mono and terms))

    check()
    assert sum(n > 0 for n in cancelled) > 30
    assert sum(moved) > 50


@pytest.mark.parametrize("c", [1, -1])
def test_add_scaled_by_a_unit_multiplies_nothing(monkeypatch, c):
    products = []
    mul = GaussianRational.__mul__

    def counting_mul(self, other):
        products.append((self, other))
        return mul(self, other)

    # Key 1 holds 1 in terms, so c * 1 cancels out's -c there.
    terms = {k: GaussianRational(k, 1 - k) for k in range(1, 5)}
    monkeypatch.setattr(GaussianRational, "__mul__", counting_mul)
    out = _add_scaled({1: GaussianRational(-c), 7: I}, terms, GaussianRational(c))
    monkeypatch.undo()
    assert products == []
    assert out == {7: I, **{k: c * terms[k] for k in (2, 3, 4)}}
