import bisect
import itertools
import random
from fractions import Fraction

import pytest

from frameforms import (
    DegreeError,
    Form,
    FormParseError,
    FrameIndexError,
    FrameManifold,
    GaussianRational,
    I,
    MixedDegreeError,
    Poly,
    Session,
    coefficients,
    degree,
    frame_bundle,
    hook,
    pairing,
    parse_form,
    print_form,
    substitute_form,
    wedge,
)


def _manifold(n=5):
    return FrameManifold(Session(), n)


def _rand_form(rng, M, deg, nterms=3, gaussian=False):
    out = M.zero()
    for _ in range(nterms):
        mono = rng.sample(range(1, M.dim + 1), deg)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if gaussian:
            c = GaussianRational(c, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        term = M.scalar(c)
        for g in mono:
            term = term * M.e(g)
        out = out + term
    return out


def _rand_mixed_form(rng, M, gaussian=False):
    """Zero, scalar, homogeneous or mixed-degree, possibly after cancellation."""
    a = _rand_form(rng, M, rng.randint(0, 3), rng.randint(0, 4), gaussian=gaussian)
    return a + _rand_form(rng, M, rng.randint(0, 3), rng.randint(0, 4), gaussian=gaussian)


def test_wedge_examples():
    M = _manifold()
    e = M.e
    assert e(1) * e(2) == parse_form(M, "12")
    assert e(2) * e(1) == -parse_form(M, "12")
    assert (e(1) + e(2)) * (e(1) + e(2)) == 0
    # A scalar second argument is a degree-0 form; a non-scalar is a TypeError.
    assert wedge(e(1), 2) == 2 * e(1)
    with pytest.raises(TypeError):
        wedge(e(1), "x")
    # The manifold comes from whichever argument is a form; two scalars are a TypeError.
    assert wedge(2, e(1)) == 2 * e(1)
    with pytest.raises(TypeError):
        wedge(2, 3)


def _wedge_oracle(a, b):
    """a∧b term by term: concatenated indices, 0 on a repeat, signed by counting inverted pairs."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = m1 + m2
            if len(set(m)) < len(m):
                continue
            inversions = sum(m[i] > m[j] for i in range(len(m)) for j in range(i + 1, len(m)))
            key = tuple(sorted(m))
            out[key] = out.get(key, Poly.zero()) + (c1 * c2 if inversions % 2 == 0 else -(c1 * c2))
    return {m: c for m, c in out.items() if c}


def test_wedge_matches_oracle_randomized():
    """Seeded pairs on a 12-manifold: empty forms, scalar parts, mixed degrees, Q(i) and symbols."""
    rng = random.Random(29)
    M = _manifold(12)
    x, y = M.session.symbols("x y")

    def rand_coeff():
        c = GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-1, 1))
        return rng.choice([Poly.constant(c), c * x + 1, x * y - c])

    def rand_form():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            terms[tuple(sorted(rng.sample(range(1, 13), rng.randint(0, 4))))] = rand_coeff()
        return Form(M, {m: c for m, c in terms.items() if c})

    nonzero = 0
    for _ in range(2000):
        a, b = rand_form(), rand_form()
        product = wedge(a, b)
        assert product.terms == _wedge_oracle(a, b)
        nonzero += bool(product)
    assert nonzero > 1000


def test_wedge_bilinear_over_poly():
    M = _manifold()
    x = M.session.symbol("x")
    e = M.e
    left = (e(1) * x) * e(2)
    assert left == (e(1) * e(2)) * x


def test_hook_examples():
    M = _manifold()
    e = M.e
    two_form = e(1) * e(2) + e(3) * e(4)
    # the complex-structure table: J(e1)=e2, J(e3)=e4
    assert hook(e(1), two_form) == e(2)
    assert hook(e(3), two_form) == e(4)
    # hand expansion of the antiderivation formula
    assert hook(e(2), two_form) == -e(1)
    assert hook(e(4), two_form) == -e(3)
    assert hook(e(5), e(1) * e(2)) == 0
    assert hook(e(1), 3) == 0
    # A scalar first argument is a degree-0 form: zero contracts to zero, else DegreeError.
    assert hook(0, e(1)) == 0
    with pytest.raises(DegreeError):
        hook(2, e(1))


def test_hook_degree_error():
    M = _manifold()
    with pytest.raises(DegreeError):
        hook(M.e(1) * M.e(2), M.e(1) * M.e(2) * M.e(3))
    with pytest.raises(DegreeError):
        hook(M.scalar(1), M.e(1))
    assert hook(M.zero(), M.e(1) * M.e(2)) == 0


def _pairing_oracle(M, a, b):
    """Determinant extension of the pairing, computed independently."""
    total = Poly.zero()
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if len(ma) != len(mb):
                continue
            k = len(ma)
            det = Fraction(0)
            for perm in itertools.permutations(range(k)):
                sign = 1
                for i in range(k):
                    for j in range(i + 1, k):
                        if perm[i] > perm[j]:
                            sign = -sign
                prod = Fraction(sign)
                for i in range(k):
                    prod *= 1 if ma[i] == mb[perm[i]] else 0
                det += prod
            total = total + ca * cb * det
    return total


def test_pairing_examples():
    M = _manifold()
    e = M.e
    assert pairing(e(1), e(1)) == 1
    assert pairing(e(1), e(2)) == 0
    assert pairing(e(1) * e(2), e(2) * e(1)) == -1
    assert pairing(e(1) * e(2), e(2) * e(1)) == _pairing_oracle(M, e(1) * e(2), e(2) * e(1))
    assert pairing(e(1) + 2, 5) == 10
    assert pairing(2, e(1)) == 0


def test_pairing_matches_determinant_oracle_randomized():
    rng = random.Random(5)
    M = _manifold(5)
    for _ in range(100):
        deg = rng.randint(1, 3)
        a = _rand_form(rng, M, deg, 2)
        b = _rand_form(rng, M, deg, 2)
        assert pairing(a, b) == _pairing_oracle(M, a, b)


def test_degree_examples():
    M = _manifold()
    assert degree(M.e(1) * M.e(2)) == 2
    assert degree(M.scalar(7)) == 0
    assert degree(M.zero()) == 0
    with pytest.raises(MixedDegreeError):
        degree(M.e(1) + M.e(1) * M.e(2))


def test_form_degree_substitute_scalars_and_repr():
    M = _manifold()
    w = M.e(1) * M.e(2) - M.e(3) * M.e(4) * Fraction(1, 2)
    assert w.degree() == degree(w) == 2
    assert w.substitute_scalars({}) is w
    assert repr(w) == "Form(e12-1/2*e34)"


def test_coefficients_examples():
    M = _manifold()
    e = M.e
    w = e(1) * e(2) + 3 * (e(3) * e(4))
    assert coefficients(w) == [((1, 2), Poly.constant(1)), ((3, 4), Poly.constant(3))]
    assert coefficients(M.zero()) == []
    p1, p2 = M.session.symbols("p1 p2")
    w = (e(1) * e(2)) * (p1 + p2)
    assert coefficients(w) == [((1, 2), p1 + p2)]


def test_substitute_form_examples():
    M = _manifold()
    e = M.e
    w = e(1) * e(3) + e(4) * e(2)
    assert substitute_form(w, {3: M.zero()}) == e(4) * e(2)
    assert substitute_form(e(1) * e(2), {1: e(1) + e(2)}) == e(1) * e(2)
    assert substitute_form(e(1) * e(2), {1: e(2), 2: e(1)}) == -(e(1) * e(2))


def test_substitute_form_degree_error():
    M = _manifold()
    with pytest.raises(DegreeError):
        substitute_form(M.e(1), {1: M.e(1) * M.e(2)})


def test_parse_g2_string():
    M = _manifold(7)
    phi = parse_form(M, "567-512-534-613-642-714-723")
    assert degree(phi) == 3
    assert len(phi.terms) == 7
    # spot checks after normalization: 512 is an even permutation of 125,
    # 642 an odd permutation of 246
    assert phi.coefficient((5, 6, 7)) == 1
    assert phi.coefficient((1, 2, 5)) == -1
    assert phi.coefficient((2, 4, 6)) == 1


def test_parse_examples():
    M = _manifold(9)
    assert parse_form(M, "12+34") == M.e(1) * M.e(2) + M.e(3) * M.e(4)
    w = parse_form(M, "3/2*123-42")
    assert w == Fraction(3, 2) * (M.e(1) * M.e(2) * M.e(3)) - M.e(4) * M.e(2)
    assert w.coefficient((2, 4)) == 1  # -e42 normalizes to +e24
    assert w.coefficient((4, 2)) == -1
    assert w.coefficient((2, 2)) == 0
    with pytest.raises(FrameIndexError):
        w.coefficient((10, 2))
    assert parse_form(M, "-12") == -(M.e(1) * M.e(2))
    assert parse_form(M, "2*1") == 2 * M.e(1)
    assert parse_form(M, "0*12") == 0


def test_parse_sign_of_long_index_lists():
    """A bracket list's sign is its sorting permutation's parity, and a repeated index gives 0.

    Reversed lists e[k,...,1] have parity k(k-1)/2; seeded shuffles are
    checked against an inversion count made by insertion into a sorted list.
    """
    M = _manifold(5000)
    for k in (1, 2, 3, 4, 5, 6, 1000, 4999, 5000):
        w = parse_form(M, f"e[{','.join(map(str, range(k, 0, -1)))}]")
        assert list(w.terms) == [tuple(range(1, k + 1))]
        assert w.coefficient(tuple(range(1, k + 1))) == (-1) ** (k * (k - 1) // 2), k
    rng = random.Random(11)
    for k in (2, 3, 7, 100, 2500, 5000):
        for _ in range(3):
            indices = rng.sample(range(1, 5001), k)
            seen, inversions = [], 0
            for g in indices:
                inversions += len(seen) - bisect.bisect(seen, g)
                bisect.insort(seen, g)
            w = parse_form(M, f"e[{','.join(map(str, indices))}]")
            assert list(w.terms) == [tuple(seen)]
            assert w.coefficient(tuple(seen)) == (-1) ** inversions, k
            repeat = indices + [indices[rng.randrange(k)]]
            assert parse_form(M, f"e[{','.join(map(str, repeat))}]") == 0


def test_parse_errors():
    M = _manifold(4)
    with pytest.raises(FormParseError):
        parse_form(M, "")
    with pytest.raises(FormParseError):
        parse_form(M, "12+")
    with pytest.raises(FormParseError):
        parse_form(M, "102")  # 0 is not a frame index digit
    with pytest.raises(FormParseError):
        parse_form(M, "3/2*")
    with pytest.raises(FormParseError):
        parse_form(M, "12x")
    with pytest.raises(FrameIndexError):
        parse_form(M, "15")  # 5 exceeds dim 4
    err = None
    try:
        parse_form(M, "12+34x")
    except FormParseError as exc:
        err = exc
    assert err is not None and err.position == 5


def test_print_examples():
    M = _manifold()
    e = M.e
    assert print_form(e(2) * e(1)) == "-e12"
    assert print_form(M.zero()) == "0"
    assert print_form(Fraction(1, 4) * (e(2) * e(3))) == "1/4*e23"
    x = M.session.symbol("x")
    assert print_form(e(1) * (x + 1)) == "(x+1)*e1"
    assert print_form(e(1) * x) == "x*e1"
    assert print_form(M.scalar(3) + e(1) * e(2)) == "3*e[]+e12"
    assert parse_form(M, "3*e[]+e12") == M.scalar(3) + e(1) * e(2)
    assert parse_form(M, "-e[]") == M.scalar(-1)
    assert parse_form(M, "0") == M.zero()


def test_exterior_algebra_laws_randomized():
    rng = random.Random(42)
    M = _manifold(5)
    cases = 0
    while cases < 1000:
        p, q, r = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 2)
        a = _rand_form(rng, M, p, 2)
        b = _rand_form(rng, M, q, 2)
        c = _rand_form(rng, M, r, 2)
        # associativity
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        # graded anticommutativity
        sign = (-1) ** (p * q)
        assert wedge(a, b) == sign * wedge(b, a)
        cases += 1


def test_hook_antiderivation_randomized():
    rng = random.Random(43)
    M = _manifold(6)
    for _ in range(1000):
        v = _rand_form(rng, M, 1, 2)
        p = rng.randint(1, 3)
        a = _rand_form(rng, M, p, 2)
        b = _rand_form(rng, M, rng.randint(1, 2), 2)
        lhs = hook(v, wedge(a, b))
        rhs = wedge(hook(v, a), b) + (-1) ** p * wedge(a, hook(v, b))
        assert lhs == rhs
        # double contraction vanishes
        w = _rand_form(rng, M, rng.randint(1, 4), 3)
        assert hook(v, hook(v, w)) == 0
        # Cancelling sums, wedges and hooks store no zero, not even inside a coefficient.
        for r in (lhs, rhs, a + b, a - a, wedge(a, b), hook(v, a), hook(v, w)):
            assert all(c and all(c.terms.values()) for c in r.terms.values())


def test_single_monomial_pairing_is_one():
    rng = random.Random(44)
    M = _manifold(9)
    for _ in range(200):
        digits = "".join(str(d) for d in rng.sample(range(1, 10), rng.randint(1, 4)))
        w = parse_form(M, digits)
        assert pairing(w, w) == 1


def test_parse_accepts_e_prefix():
    M = _manifold(4)
    assert parse_form(M, "e13") == M.e(1) * M.e(3)
    assert parse_form(M, "-1/4*e32-1/4*e41") == parse_form(M, "-1/4*32-1/4*41")


def test_cross_manifold_operations_rejected():
    from frameforms import Connection, FormBasis, FrameMismatchError, RiemannianManifold

    A = _manifold(4)
    B = _manifold(4)
    A.declare_d(1, 0)
    A.declare_d(2, 0)
    A.declare_d(3, A.e(1) * A.e(2))
    R = RiemannianManifold(Session(), 4)
    conn = Connection(A)
    basis = FormBasis(A)
    basis.insert(A.e(1))
    d_table = dict(A.d_table)
    rejected = [
        lambda: wedge(A.e(1), B.e(2)),
        lambda: pairing(A.e(1), B.e(1)),
        lambda: hook(A.e(1), B.e(1) * B.e(2)),
        lambda: A.e(1) + B.e(1),
        # Every caller of exterior.as_form.
        lambda: substitute_form(A.e(1) * A.e(2), {1: B.e(3)}),
        lambda: A.d(B.e(3)),
        lambda: A.declare_d(4, B.e(1) * B.e(2)),
        lambda: A.lie_derivative(A.e(1), B.e(3)),
        lambda: R.impose_d(R.e(1), B.e(1) * B.e(2)),
        lambda: conn.nabla_vector(B.e(1), A.e(2)),
        lambda: conn.nabla_form(A.e(1), B.e(2)),
        lambda: basis.insert(B.e(1)),
        lambda: basis.components(B.e(1)),
        # A generator or vector argument.
        lambda: A.declare_d(B.e(4), 0),
        lambda: R.declare_d(B.e(1), 0),
        lambda: R.clifford_mul(B.e(1), R.u(0)),
    ]
    for op in rejected:
        with pytest.raises(FrameMismatchError):
            op()
    assert A.d_table == d_table


def test_parse_print_roundtrip_indices_above_nine():
    M = _manifold(11)
    w = M.e(10) * M.e(11)
    assert print_form(w) == "e[10,11]"
    assert parse_form(M, "e[10,11]") == w
    assert parse_form(M, "-3/2*e[11,2]+e12") == Fraction(3, 2) * (M.e(2) * M.e(11)) + M.e(1) * M.e(2)
    with pytest.raises(FormParseError):
        parse_form(M, "e[10,0]")
    with pytest.raises(FormParseError):
        parse_form(M, "e[1,2")
    with pytest.raises(FrameIndexError):
        parse_form(M, "e[3,12]")
    rng = random.Random(46)
    P = frame_bundle(Session(), 3)
    for N in (M, P.manifold):
        for _ in range(300):
            w = _rand_mixed_form(rng, N)
            assert parse_form(N, print_form(w)) == w


def test_parse_print_roundtrip_randomized():
    rng = random.Random(45)
    M = _manifold(9)
    for _ in range(1000):
        w = _rand_mixed_form(rng, M)
        assert parse_form(M, print_form(w)) == w
    # Gaussian-rational coefficients: i, -i, 2*i, 3/4*i, (1+2*i), (-1/2-3/4*i), ...
    imaginary = 0
    for _ in range(1000):
        w = _rand_mixed_form(rng, M, gaussian=True)
        assert parse_form(M, print_form(w)) == w
        imaginary += "i" in print_form(w)
    assert imaginary > 500


def test_parse_gaussian_coefficients():
    M = _manifold(4)
    e1, e3 = M.e(1), M.e(3)
    cases = {
        "i*e1": I * e1,
        "-i*e1": -I * e1,
        "2*i*e1": 2 * I * e1,
        "3/4*i*e1": Fraction(3, 4) * I * e1,
        "-3/4*i*e1": Fraction(-3, 4) * I * e1,
        "(1+2*i)*e1+i*e3": (1 + 2 * I) * e1 + I * e3,
        "e1-(-1/2-3/4*i)*e3": e1 - (Fraction(-1, 2) - Fraction(3, 4) * I) * e3,
        "(1-i)*e[]+12": M.scalar(1 - I) + e1 * M.e(2),
    }
    for text, expected in cases.items():
        assert parse_form(M, text) == expected, text
    for text in ("i", "i*", "(1+i)", "(1+i)e1", "(1+i*e1", "()*e1", "2*ie1"):
        with pytest.raises(FormParseError):
            parse_form(M, text)


@pytest.mark.parametrize(
    ("dim", "text", "error", "message", "position"),
    [
        (4, "102", FormParseError, "parse error at position 1: frame index must be 1 or more", 1),
        (4, "15", FrameIndexError, "index 5 exceeds frame dimension 4 at position 1", None),
        (4, "e[3,12]", FrameIndexError, "index 12 exceeds frame dimension 4 at position 4", None),
        (4, "e[10,0]", FrameIndexError, "index 10 exceeds frame dimension 4 at position 2", None),
        (11, "e[10,0]", FormParseError, "parse error at position 5: frame index must be 1 or more", 5),
        (4, "e[1,2", FormParseError, "parse error at position 6: expected ',' or ']' in an index list", 6),
        # a zero denominator is reported at its start, as every integer error is
        (4, "1/0*e1", FormParseError, "parse error at position 2: zero denominator", 2),
        (4, "(1/0)*e1", FormParseError, "parse error at position 3: zero denominator", 3),
        (4, "(i+2/000)*e1", FormParseError, "parse error at position 5: zero denominator", 5),
    ],
)
def test_parse_error_messages_pinned(dim, text, error, message, position):
    """Each index is checked where it is read, before the term is sorted."""
    with pytest.raises(error) as exc:
        parse_form(_manifold(dim), text)
    assert str(exc.value) == message
    assert getattr(exc.value, "position", None) == position


def test_parse_and_d_of_g2_phi_build_no_wedge_or_poly_product(monkeypatch):
    """parse_form sorts each term once, and d takes ±c for the bundle's unit structure constants."""
    from frameforms import exterior
    from frameforms.cli import G2_PHI

    bundle = frame_bundle(Session(), 7)
    M = bundle.manifold
    calls = {"wedge": 0, "Poly.__mul__": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(exterior, "wedge", counted("wedge", exterior.wedge))
    phi = bundle.parse(G2_PHI)
    monkeypatch.setattr(Poly, "__mul__", counted("Poly.__mul__", Poly.__mul__))
    dphi = bundle.d(phi)
    assert calls == {"wedge": 0, "Poly.__mul__": 0}
    monkeypatch.undo()
    assert phi == (
        M.e(5) * M.e(6) * M.e(7) - M.e(5) * M.e(1) * M.e(2) - M.e(5) * M.e(3) * M.e(4)
        - M.e(6) * M.e(1) * M.e(3) - M.e(6) * M.e(4) * M.e(2)
        - M.e(7) * M.e(1) * M.e(4) - M.e(7) * M.e(2) * M.e(3)
    )
    # Each of the 21 indices of phi gives 7 terms theta^j ∧ omega_ij, and the 2 whose
    # theta^j is already in the term vanish: 105 terms, none of them a Poly product.
    assert len(dphi.terms) == 105
