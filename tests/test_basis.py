import random
from fractions import Fraction

import pytest

from frameforms import (
    AffineBasis,
    FormBasis,
    FrameManifold,
    GaussianRational,
    NonConstantCoefficientError,
    NonLinearError,
    NotInSpanError,
    Poly,
    Session,
    SymbolBasis,
    pairing,
    parse_form,
)
from frameforms.basis import CONST
from frameforms.scalar import Echelon, accumulate

from support import exact_rank, iwasawa6


def test_insert_examples():
    M = FrameManifold(Session(), 3)
    b = FormBasis(M)
    assert b.insert(M.e(1))
    assert not b.insert(M.zero())
    assert b.insert(M.e(1) + M.e(2))
    assert not b.insert(M.e(2))
    assert b.size() == 2


def test_insert_stores_verbatim():
    M = FrameManifold(Session(), 3)
    b = FormBasis(M)
    b.insert(M.e(1))
    b.insert(M.e(1) + M.e(2))
    # the second element is kept as given, not reduced against the first
    assert b.elements[1] == M.e(1) + M.e(2)
    assert b[1] is b.elements[1] and b[-2] == M.e(1)
    assert repr(CONST) == "CONST"


def test_iwasawa_exact_three_forms():
    s = Session()
    M = iwasawa6(s)
    b = FormBasis(M)
    inserted = []
    for i in range(1, 7):
        for j in range(i + 1, 7):
            w = M.d(M.e(i) * M.e(j))
            inserted.append(w)
            b.insert(w)
    assert b.size() == 5
    expected = ["412", "-312", "-342", "341", "642-631-352+415"]
    for element, text in zip(b.elements, expected):
        assert element == parse_form(M, text)
    # the fifth element is d(e5^e6), stored unreduced
    assert b.elements[4] == M.d(M.e(5) * M.e(6))
    comps = b.components(M.d(M.e(4) * M.e(5)))
    assert comps == [0, 0, 0, -1, 0]


def test_components_examples():
    M = FrameManifold(Session(), 3)
    b = FormBasis(M)
    b.insert(M.e(1) + M.e(2))
    b.insert(M.e(2))
    assert b.components(M.e(1) + M.e(2)) == [1, 0]
    assert b.components(M.e(1)) == [1, -1]
    with pytest.raises(NotInSpanError):
        b.components(M.e(3))


def test_components_poly_coefficients():
    s = Session()
    M = FrameManifold(s, 2)
    g = s.symbol("g")
    b = FormBasis(M)
    b.insert(M.e(1))
    b.insert(M.e(2))
    comps = b.components(M.e(1) * g + M.e(2) * 2)
    assert comps == [Poly.from_symbol(g), Poly.constant(2)]


def test_dual_basis_examples():
    M = FrameManifold(Session(), 2)
    b = FormBasis(M)
    b.insert(M.e(1) + M.e(2))
    b.insert(M.e(2))
    dual = b.dual_basis()
    assert dual[0] == M.e(1)
    assert dual[1] == M.e(2) - M.e(1)

    b2 = FormBasis(M)
    b2.insert(M.e(1))
    b2.insert(M.e(2))
    assert b2.dual_basis() == [M.e(1), M.e(2)]

    b3 = FormBasis(M)
    b3.insert(2 * M.e(1))
    assert b3.dual_basis() == [Fraction(1, 2) * M.e(1)]


def test_dual_basis_with_extension():
    """Setup extends the elements to a basis of span S when they do not span it."""
    M = FrameManifold(Session(), 3)
    b = FormBasis(M)
    b.insert(M.e(1) + M.e(2))
    dual = b.dual_basis()
    assert len(dual) == 1
    assert pairing(dual[0], M.e(1) + M.e(2)) == 1
    # the extension is e1, the first unit vector independent of the span
    assert dual == [M.e(2)]
    M2 = FrameManifold(Session(), 2)
    b2 = FormBasis(M2)
    b2.insert(M2.e(1) + M2.e(2))
    assert b2.dual_basis() == [M2.e(2)]
    b3 = FormBasis(M)
    b3.insert(M.e(1) + M.e(2))
    b3.insert(M.e(2) + M.e(3))
    assert b3.dual_basis() == [M.e(2) - M.e(3), M.e(3)]
    assert b.components(3 * (M.e(1) + M.e(2))) == [3]
    with pytest.raises(NotInSpanError):
        b.components(M.e(1))  # touches S but lies outside the span


def test_dual_basis_delta_property_randomized():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 8)
        M = FrameManifold(Session(), n)
        b = FormBasis(M)
        attempts = 0
        while b.size() < rng.randint(1, n) and attempts < 30:
            w = M.zero()
            for g in range(1, n + 1):
                w = w + M.e(g) * Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            b.insert(w)
            attempts += 1
        if not b.size():
            continue
        dual = b.dual_basis()
        for i, di in enumerate(dual):
            for j, xj in enumerate(b.elements):
                assert pairing(di, xj) == (1 if i == j else 0)
        # components round trip: recombining reproduces the input
        for j, xj in enumerate(b.elements):
            comps = b.components(xj)
            recombined = M.zero()
            for c, el in zip(comps, b.elements):
                recombined = recombined + el * c
            assert recombined == xj


# --- flag preservation against an independent echelon oracle ---------------


def _dense(form, n):
    return [form.coefficient((g,)).constant_value() for g in range(1, n + 1)]


def test_flag_preservation_vs_oracle():
    rng = random.Random(10)
    for trial in range(30):
        n = rng.randint(2, 8)
        M = FrameManifold(Session(), n)
        inputs = []
        for _ in range(rng.randint(1, 2 * n)):
            w = M.zero()
            for g in range(1, n + 1):
                if rng.random() < 0.6:
                    w = w + M.e(g) * Fraction(rng.randint(-2, 2))
            inputs.append(w)
        b = FormBasis(M)
        oracle_kept = []
        for w in inputs:
            vec = _dense(w, n)
            before = exact_rank([_dense(x, n) for x in oracle_kept])
            after = exact_rank([_dense(x, n) for x in oracle_kept] + [vec])
            retained = b.insert(w)
            assert retained == (after > before), f"trial {trial}"
            if after > before:
                oracle_kept.append(w)
        assert list(b.elements) == oracle_kept
        # flag: span of first k retained equals span of first k independent inputs
        for k in range(1, len(oracle_kept) + 1):
            both = [_dense(x, n) for x in oracle_kept[:k]] + [
                _dense(x, n) for x in b.elements[:k]
            ]
            assert exact_rank(both) == k


def test_basis_ranks_match_sympy():
    """FormBasis and AffineBasis keep exactly the rows that raise sympy's rank.

    The rows are seeded random Q(i) vectors, some of them combinations of
    earlier rows; AffineBasis is inconsistent exactly when the constant
    column raises the rank of the symbol columns.
    """
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    zero = GaussianRational(0)

    def scalar():
        return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))

    def rows(ncols):
        out = []
        for _ in range(rng.randint(1, 2 * ncols)):
            if out and rng.random() < 0.4:
                row = [zero] * ncols
                for earlier in rng.sample(out, rng.randint(1, len(out))):
                    c = scalar()
                    row = [a + c * b for a, b in zip(row, earlier)]
            else:
                row = [scalar() if rng.random() < 0.6 else zero for _ in range(ncols)]
            out.append(row)
        return out

    def rank(matrix):
        if not matrix or not matrix[0]:
            return 0
        entries = [
            [sympy.Rational(str(c.re)) + sympy.I * sympy.Rational(str(c.im)) for c in r]
            for r in matrix
        ]
        return sympy.Matrix(entries).rank(iszerofunc=lambda x: sympy.expand(x) == 0)

    inconsistent_seen = 0
    for _ in range(25):
        # FormBasis over the one- and two-form monomials of a small manifold.
        M = FrameManifold(Session(), rng.randint(2, 3))
        monos = [(i,) for i in range(1, M.dim + 1)]
        monos += [(i, j) for i in range(1, M.dim + 1) for j in range(i + 1, M.dim + 1)]
        matrix = rows(len(monos))
        ranks = [rank(matrix[:k]) for k in range(len(matrix) + 1)]
        b = FormBasis(M)
        kept = []
        for k, row in enumerate(matrix):
            w = M.zero()
            for mono, c in zip(monos, row):
                term = M.scalar(c)
                for g in mono:
                    term = term * M.e(g)
                w = w + term
            grows = ranks[k + 1] > ranks[k]
            assert b.insert(w) == grows
            if grows:
                kept.append(w)
        assert list(b.elements) == kept and b.size() == ranks[-1]

        # AffineBasis over a few symbols; the last column is the constant.
        syms = Session().symbols("x y z")[: rng.randint(1, 3)]
        matrix = rows(len(syms) + 1)
        ranks = [rank(matrix[:k]) for k in range(len(matrix) + 1)]
        a = AffineBasis()
        kept = []
        for k, row in enumerate(matrix):
            p = Poly.constant(row[-1])
            for sym, c in zip(syms, row):
                p = p + c * sym
            grows = ranks[k + 1] > ranks[k]
            assert a.insert(p) == grows
            if grows:
                kept.append(p)
            assert a.inconsistent == (ranks[k + 1] > rank([r[:-1] for r in matrix[: k + 1]]))
        assert list(a.elements) == kept and a.size() == ranks[-1]
        inconsistent_seen += a.inconsistent
    assert 0 < inconsistent_seen < 25


def test_affine_insert_examples():
    s = Session()
    p1, p2 = s.symbols("p1 p2")
    a = AffineBasis()
    assert a.insert(p1 + p2 - 1)
    assert a.insert(p1 - p2)
    assert a.size() == 2 and not a.inconsistent

    a2 = AffineBasis()
    a2.insert(Poly.from_symbol(p1))
    a2.insert(p1 - 1)
    assert a2.inconsistent

    a3 = AffineBasis()
    assert a3.insert(p1 + p2)
    assert not a3.insert(2 * p1 + 2 * p2)
    assert a3.size() == 1

    with pytest.raises(NonLinearError):
        a3.insert(p1 * p2)
    assert not a3.insert(Poly.zero())


def test_symbol_basis():
    s = Session()
    x, y = s.symbols("x y")
    b = SymbolBasis()
    b.insert(x + y)
    b.insert(x - y)
    assert not b.insert(2 * x)
    assert b.size() == 2
    assert b.components(3 * x + y) == [2, 1]


def test_size_empty():
    assert FormBasis(FrameManifold(Session(), 2)).size() == 0


def test_nonconstant_coefficient_rejected():
    s = Session()
    M = FrameManifold(s, 2)
    g = s.symbol("g")
    b = FormBasis(M)
    with pytest.raises(NonConstantCoefficientError):
        b.insert(M.e(1) * g)


def test_dual_basis_empty_raises():
    M = FrameManifold(Session(), 2)
    with pytest.raises(ValueError):
        FormBasis(M).dual_basis()


def test_lazy_setup_counter():
    M = FrameManifold(Session(), 4)
    b = FormBasis(M)
    b.insert(M.e(1) + M.e(2))
    b.insert(M.e(3))
    assert b.setup_count == b.setup_ops == 0
    b.components(M.e(3))
    assert b.setup_count == 1
    b.dual_basis()
    b.components(M.e(1) + M.e(2))
    assert b.setup_count == 1  # cached until the basis is modified
    b.insert(M.e(4))
    assert b.setup_count == 1  # mutation alone does not set up
    b.dual_basis()
    b.components(M.e(4))
    assert b.setup_count == 2  # exactly one new setup per mutation epoch


def test_setup_cost_growth_is_polynomial():
    """Coarse smoke test: setup cost grows no faster than ~cubically."""
    rng = random.Random(12)
    ops = []
    for n in (8, 16, 32):
        M = FrameManifold(Session(), n)
        b = FormBasis(M)
        while b.size() < n:
            w = M.zero()
            for g in range(1, n + 1):
                w = w + M.e(g) * Fraction(rng.randint(-3, 3))
            b.insert(w)
        b.dual_basis()
        assert b.setup_ops > 0
        ops.append(b.setup_ops)
    assert ops[1] <= 12 * ops[0]
    assert ops[2] <= 12 * ops[1]


def test_setup_after_one_insert_extends_the_echelon():
    """A query after one more insert pays for one new row, not a rebuild."""
    rng = random.Random(13)
    M = FrameManifold(Session(), 25)

    def dense():
        w = M.zero()
        for g in range(1, 26):
            w = w + M.e(g) * rng.choice((-3, -2, -1, 1, 2, 3))
        return w

    b = FormBasis(M)
    while b.size() < 24:
        b.insert(dense())
    b.dual_basis()
    first = b.setup_ops
    while not b.insert(dense()):
        pass
    b.dual_basis()
    second = b.setup_ops - first
    assert b.setup_count == 2
    assert 0 < 4 * second < first


def test_empty_basis_queries():
    M = FrameManifold(Session(), 2)
    b = FormBasis(M)
    assert b.setup_count == b.setup_ops == 0
    assert b.components(M.zero()) == []
    assert b.setup_count == 1  # the first query counts one set-up, even on an empty basis
    with pytest.raises(NotInSpanError, match="outside the basis span"):
        b.components(M.e(1))
    assert b.setup_count == 1 and b.setup_ops == 0


def test_rejected_insert_keeps_the_epoch():
    M = FrameManifold(Session(), 3)
    b = FormBasis(M)
    b.insert(M.e(1) + M.e(2))
    b.insert(M.e(3))
    b.dual_basis()
    count, ops = b.setup_count, b.setup_ops
    assert not b.insert(2 * M.e(3) - M.e(1) - M.e(2))
    assert b.components(M.e(1) + M.e(2) + M.e(3)) == [1, 1]
    assert (b.setup_count, b.setup_ops) == (count, ops)


# --- the from-scratch set-up as the reference ----------------------------------

_ONE = GaussianRational(1)
_ZERO = GaussianRational(0)


def _reference_setup(basis):
    """Duals and inverse pairing rows, rebuilt from nothing.

    Row k of a tagged echelon is element k plus a unit tag column k,
    pivoting on each row's least simple element.  The elements are
    extended to a basis of span S by the unit vectors of S that are
    independent of the span so far, in simple-element order; the tag part
    of row alpha is then row alpha of the inverse of the pairing matrix.
    """
    key = basis._sort_key
    ech = Echelon(lambda k: None if isinstance(k, int) else key(k))
    simple = set()
    for tag, x in enumerate(basis.elements):
        vec = basis._constant_vec(x)
        simple.update(vec)
        vec[tag] = _ONE
        ech.insert(ech.reduce(vec))
    simple = sorted(simple, key=key)
    for alpha in simple:
        if len(ech.rows) == len(simple):
            break
        ech.insert(ech.reduce({alpha: _ONE, len(ech.rows): _ONE}))
    inverse = {
        alpha: {k: c for k, c in ech.rows[alpha].items() if isinstance(k, int)}
        for alpha in simple
    }
    m = len(basis.elements)
    pairs = [[] for _ in range(m)]
    for alpha in simple:
        for k, c in inverse[alpha].items():
            if k < m:
                pairs[k].append((alpha, c))
    return inverse, m, [basis._build(p) for p in pairs]


def _reference_components(basis, x):
    inverse, m, _ = _reference_setup(basis)
    comps = [{} for _ in inverse]
    for key, p in basis._decompose(x).items():
        if not p:
            continue
        row = inverse.get(key)
        if row is None:
            raise NotInSpanError(f"{x} pairs with a simple element outside the basis span")
        for k, c in row.items():
            accumulate(comps[k], ((mono, a * c) for mono, a in p.terms.items()))
    if any(comps[m:]):
        raise NotInSpanError(f"{x} is not in the span of the basis")
    return [Poly(t) for t in comps[:m]]


def _outcome(f, *args):
    try:
        return f(*args)
    except NotInSpanError as e:
        return str(e)


def _gaussian(rng):
    """A Q(i) scalar with fractional real and imaginary parts, possibly zero."""
    return GaussianRational(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    )


def _seeded_bases(rng):
    """(basis, keys its elements draw on, extra keys, a symbolic coefficient or None)."""
    s = Session()
    M = FrameManifold(s, 4)
    monos = [()] + [(i,) for i in range(1, 5)] + [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    rng.shuffle(monos)
    g = Poly.from_symbol(s.symbol("g"))
    yield FormBasis(M), monos[:7], monos[7:], g
    syms = Session().symbols("a b c d e f")
    yield SymbolBasis(), syms[:5], syms[5:], None
    yield AffineBasis(), syms[:4] + [CONST], syms[4:], None


def _draw(rng, basis, keys, kept):
    """An expression over keys, or a combination of kept elements (then dependent)."""
    if kept and rng.random() < 0.3:
        out = basis._build([])
        for x in rng.sample(kept, rng.randint(1, len(kept))):
            out = out + x * _gaussian(rng)
        return out
    pairs = [(k, _gaussian(rng)) for k in keys if rng.random() < 0.6]
    return basis._build([(k, c) for k, c in pairs if c])


def test_incremental_setup_matches_from_scratch_reference():
    """Seeded epochs of inserts and queries give the reference's duals, components and errors."""
    rng = random.Random(47)
    for trial in range(12):
        for basis, keys, extra, sym in _seeded_bases(rng):
            for epoch in range(rng.randint(2, 6)):
                for _ in range(rng.randint(1, 3)):
                    basis.insert(_draw(rng, basis, keys, basis.elements))
                elements = basis.elements
                if elements:
                    assert basis.dual_basis() == _reference_setup(basis)[2], (trial, epoch)
                queries = [_draw(rng, basis, keys + extra, elements) for _ in range(3)]
                queries.append(_draw(rng, basis, keys, elements))
                if sym is not None and elements:
                    combo = basis._build([])
                    for x in elements:
                        combo = combo + x * (sym * _gaussian(rng) + _gaussian(rng))
                    queries.append(combo)
                    queries.append(combo + _draw(rng, basis, keys, ()) * sym)
                for x in queries:
                    expected = _outcome(_reference_components, basis, x)
                    assert _outcome(basis.components, x) == expected, (trial, epoch, str(x))


def test_components_match_sympy_solve():
    """components(x) is the unique solution of sum c_k x_k = x over Q(i), or raises when none exists."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(53)

    def exact(c):
        return sympy.Rational(str(c.re)) + sympy.I * sympy.Rational(str(c.im))

    solved = unsolvable = 0
    for _ in range(8):
        for basis, keys, extra, _ in _seeded_bases(rng):
            for _ in range(rng.randint(1, len(keys))):
                basis.insert(_draw(rng, basis, keys, basis.elements))
            kept = basis.elements
            if not kept:
                continue
            vecs = [basis._constant_vec(x) for x in kept]
            matrix = sympy.Matrix([[exact(v.get(k, _ZERO)) for k in keys + extra] for v in vecs]).T
            for _ in range(4):
                x = _draw(rng, basis, keys + extra if rng.random() < 0.3 else keys, kept)
                vec = basis._constant_vec(x)
                target = sympy.Matrix([exact(vec.get(k, _ZERO)) for k in keys + extra])
                solutions = sympy.linsolve((matrix, target))
                if not solutions:
                    with pytest.raises(NotInSpanError):
                        basis.components(x)
                    unsolvable += 1
                    continue
                (solution,) = solutions
                comps = basis.components(x)
                assert len(comps) == len(solution)
                for c, expected in zip(comps, solution):
                    assert sympy.expand(exact(c.constant_value()) - expected) == 0
                solved += 1
    assert solved and unsolvable
