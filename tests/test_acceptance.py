"""Top-level acceptance suite.

Each test exercises one release criterion end to end and prints a
PASS/FAIL line (visible with ``pytest -s`` or in captured output).
All comparisons are exact; no tolerances are involved anywhere because
the engine has no floating point.
"""

import io
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from frameforms import (
    Connection,
    FormBasis,
    FrameManifold,
    Poly,
    RiemannianManifold,
    Session,
    build_clifford_table,
    cartan_test,
    frame_bundle,
    hook,
    linear_solve,
    pairing,
    parse_form,
    wedge,
)
from frameforms.cli import (
    EXAMPLE_NAMES,
    almost_complex_torsion,
    bilagrangian_brackets,
    g2_ideal,
    main,
    su2_spinor_forms,
)

from support import exact_rank


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL {label}")
        raise
    print(f"[criterion {number}] PASS {label}")


def test_criterion_1_g2_involutivity():
    with criterion(1, "G2 involutivity: c=(0,0,0,1,5,15,28), codim 49, under 60 s"):
        t0 = time.monotonic()
        session = Session()
        bundle = frame_bundle(session, 7)
        report = cartan_test(bundle, g2_ideal(bundle))
        elapsed = time.monotonic() - t0
        assert report.c == (0, 0, 0, 1, 5, 15, 28)
        assert report.codim == 49
        assert report.involutive
        assert elapsed < 60.0
        out = io.StringIO()
        assert main(["example", "g2"], out=out) == 0
        assert out.getvalue() == (
            "c_0=0\nc_1=0\nc_2=0\nc_3=1\nc_4=5\nc_5=15\nc_6=28\n"
            "codim(V_7)=49\nINVOLUTIVE\n"
        )


def test_criterion_2_iwasawa_exact_three_forms():
    with criterion(2, "Iwasawa exact 3-forms: the five known forms, components (0,0,0,-1,0)"):
        session = Session()
        M = FrameManifold(session, 6)
        for i in (1, 2, 3, 4):
            M.declare_d(i, 0)
        M.declare_d(5, M.e(1) * M.e(3) + M.e(4) * M.e(2))
        M.declare_d(6, M.e(1) * M.e(4) + M.e(2) * M.e(3))
        basis = FormBasis(M)
        for i in range(1, 7):
            for j in range(i + 1, 7):
                basis.insert(M.d(M.e(i) * M.e(j)))
        assert basis.size() == 5
        expected = ["412", "-312", "-342", "341", "642-631-352+415"]
        for element, text in zip(basis.elements, expected):
            assert element == parse_form(M, text)
        assert basis.components(M.d(M.e(4) * M.e(5))) == [0, 0, 0, -1, 0]


def test_criterion_3_almost_complex_torsion():
    with criterion(3, "almost-complex torsion matches the printed vector, parameter-free"):
        session = Session()
        M, h, k, torsion = almost_complex_torsion(session)
        expected = [
            M.zero(),
            M.zero(),
            parse_form(M, "-1/4*32-1/4*41"),
            parse_form(M, "1/4*42-1/4*31"),
        ]
        assert torsion == expected
        rng = random.Random(2024)
        free = h.free_parameters() + k.free_parameters()
        assert free  # the system is genuinely underdetermined
        for _ in range(2):
            rules = {
                s: Poly.constant(Fraction(rng.randint(-20, 20), rng.randint(1, 7)))
                for s in free
            }
            assert [t.substitute_scalars(rules) for t in torsion] == expected


def test_criterion_4_su2_parallel_spinor():
    with criterion(4, "SU(2) spinor: three zero derivatives and a consistent converse"):
        session = Session()
        M = RiemannianManifold(session, 4)
        for i in range(1, 5):
            M.declare_nabla_spinor(M.e(i), M.u(0), 0)
        for w in su2_spinor_forms(M):
            assert M.d(w) == 0
        converse = RiemannianManifold(Session(), 4)
        for w in su2_spinor_forms(converse):
            converse.impose_d(w, 0)  # must not raise
        for w in su2_spinor_forms(converse):
            assert converse.d(w) == 0


def test_criterion_5_bilagrangian_distributions():
    with criterion(5, "bilagrangian: brackets tangent to their distributions"):
        session = Session()
        _, b13, b24 = bilagrangian_brackets(session)
        assert b13.coefficient((2,)) == 0
        assert b13.coefficient((4,)) == 0
        assert b24.coefficient((1,)) == 0
        assert b24.coefficient((3,)) == 0


# --- criterion 6: property suites -------------------------------------------


def _rand_form(rng, M, deg, nterms=2):
    out = M.zero()
    for _ in range(nterms):
        mono = rng.sample(range(1, M.dim + 1), deg)
        term = M.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for g in mono:
            term = term * M.e(g)
        out = out + term
    return out


def test_criterion_6a_exterior_laws():
    with criterion(6, "exterior-algebra laws and hook antiderivation, 1000+ cases"):
        rng = random.Random(1)
        M = FrameManifold(Session(), 6)
        for _ in range(1000):
            p, q = rng.randint(0, 2), rng.randint(0, 2)
            a = _rand_form(rng, M, p)
            b = _rand_form(rng, M, q)
            c = _rand_form(rng, M, rng.randint(1, 2))
            v = _rand_form(rng, M, 1)
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
            assert wedge(a, b) == (-1) ** (p * q) * wedge(b, a)
            if p >= 1:
                lhs = hook(v, wedge(a, b))
                rhs = wedge(hook(v, a), b) + (-1) ** p * wedge(a, hook(v, b))
                assert lhs == rhs
            w = _rand_form(rng, M, rng.randint(1, 3), 3)
            assert hook(v, hook(v, w)) == 0


def test_criterion_6b_clifford_relations():
    with criterion(6, "Clifford relations as matrix identities for n <= 8"):
        from frameforms import GaussianRational

        zero = GaussianRational(0)
        for n in range(1, 9):
            table = build_clifford_table(n)
            dim = table.spinor_dim
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    gi, gj = table.gamma(i), table.gamma(j)
                    for r in range(dim):
                        for c in range(dim):
                            s = sum(
                                (
                                    x[r][k] * y[k][c]
                                    for x, y in ((gi, gj), (gj, gi))
                                    for k in range(dim)
                                    if x[r][k] and y[k][c]
                                ),
                                zero,
                            )
                            expected = -2 if (i == j and r == c) else 0
                            assert s == expected


def test_criterion_6c_basis_duality_and_flags():
    with criterion(6, "dual-basis delta property and flag preservation vs echelon oracle"):
        rng = random.Random(2)
        for _ in range(25):
            n = rng.randint(2, 8)
            M = FrameManifold(Session(), n)
            basis = FormBasis(M)
            kept = []
            for _ in range(rng.randint(1, 2 * n)):
                w = M.zero()
                for g in range(1, n + 1):
                    if rng.random() < 0.7:
                        w = w + M.e(g) * Fraction(rng.randint(-3, 3))
                dense = [w.coefficient((g,)).constant_value() for g in range(1, n + 1)]
                old = exact_rank(
                    [[x.coefficient((g,)).constant_value() for g in range(1, n + 1)] for x in kept]
                )
                new = exact_rank(
                    [[x.coefficient((g,)).constant_value() for g in range(1, n + 1)] for x in kept]
                    + [dense]
                )
                assert basis.insert(w) == (new > old)
                if new > old:
                    kept.append(w)
            assert list(basis.elements) == kept
            if kept:
                dual = basis.dual_basis()
                for i, di in enumerate(dual):
                    for j, xj in enumerate(kept):
                        assert pairing(di, xj) == (1 if i == j else 0)


def test_criterion_6d_torsion_free_residual():
    with criterion(6, "structure-equation residual vanishes on random d^2=0 tables"):
        rng = random.Random(3)
        for _ in range(10):
            session = Session()
            n = rng.randint(3, 6)
            M = FrameManifold(session, n)
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
            conn = Connection.torsion_free(M)
            assert all(not theta for theta in conn.torsion())


def test_criterion_6e_linear_solve_roundtrip():
    with criterion(6, "linear_solve round-trip residual identically zero"):
        rng = random.Random(4)
        for _ in range(50):
            session = Session()
            k = rng.randint(1, 6)
            unknowns = [session.symbol(f"u{i}") for i in range(k)]
            params = [session.symbol(f"a{i}") for i in range(rng.randint(0, 2))]
            target = {}
            for u in unknowns:
                val = Poly.constant(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
                for p in params:
                    val = val + rng.randint(-2, 2) * p
                target[u] = val
            eqs = []
            for _ in range(rng.randint(1, k + 2)):
                eq = Poly.zero()
                for u in unknowns:
                    c = rng.randint(-3, 3)
                    if c:
                        eq = eq + c * (Poly.from_symbol(u) - target[u])
                eqs.append(eq)
            sol = linear_solve(eqs, unknowns)
            for eq in eqs:
                assert eq.substitute(sol.assignments) == 0


def test_criterion_6f_basis_laziness_counter():
    with criterion(6, "no setup before the first query, one setup per mutation epoch"):
        M = FrameManifold(Session(), 5)
        basis = FormBasis(M)
        for i in range(1, 4):
            basis.insert(M.e(i) + M.e(i + 1))
        assert basis.setup_count == 0
        basis.dual_basis()
        basis.components(M.e(1) + M.e(2))
        basis.dual_basis()
        assert basis.setup_count == 1
        basis.insert(M.e(5))
        assert basis.setup_count == 1
        basis.components(M.e(5))
        basis.dual_basis()
        assert basis.setup_count == 2


def test_criterion_7_cli_determinism(tmp_path):
    with criterion(7, "CLI outputs byte-identical across 3 consecutive runs"):
        mfd = tmp_path / "iwasawa.mfd"
        mfd.write_text("dim 6\nd 5 = 13+42\nd 6 = 14+23\n")
        ideal = tmp_path / "g2.ideal"
        ideal.write_text(
            "d: 567-512-534-613-642-714-723\n"
            "d: 1234-6712-6734-7513-7542-5614-5623\n"
        )
        commands = [["example", name] for name in EXAMPLE_NAMES]
        commands.append(["eds", "--dim", "7", "--ideal-file", str(ideal)])
        commands.append(["dform", "--manifold-file", str(mfd), "45"])
        for args in commands:
            outputs = set()
            for _ in range(3):
                out = io.StringIO()
                rc = main(args, out=out)
                assert rc == 0
                outputs.add(out.getvalue().encode())
            assert len(outputs) == 1, args
