"""Tests of the benchmark's independent checkers.

Each checker must accept a right answer and reject a deliberately
corrupted one; the echelon rank must agree with sympy.  Run with

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

import checkers as ck
from checkers import CheckError


def _gaussian_matrix(rng, rows, cols, rank):
    """A rows x cols matrix over Z[i] of rank at most `rank`."""
    basis = [[(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(cols)] for _ in range(rank)]
    out = []
    for _ in range(rows):
        coeffs = [(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(rank)]
        row = [ck.ZERO] * cols
        for c, b in zip(coeffs, basis):
            row = [ck.qadd(r, ck.qmul(ck.q(*c), ck.q(*v))) for r, v in zip(row, b)]
        out.append(row)
    return out


def test_echelon_rank_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20080424)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = _gaussian_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)))
        sparse = [{j: v for j, v in enumerate(row) if ck.qnonzero(v)} for row in m]
        dense = sympy.Matrix([[sympy.Rational(v[0]) + sympy.I * sympy.Rational(v[1]) for v in row] for row in m])
        assert ck.echelon_rank(sparse) == dense.rank()


def test_echelon_rank_needs_gaussian_arithmetic():
    # (1, i) and (i, -1) are dependent over Q(i) but not over Q.
    assert ck.echelon_rank([{0: ck.q(1), 1: ck.q(0, 1)}, {0: ck.q(0, 1), 1: ck.q(-1)}]) == 1


G2_C = (0, 0, 0, 1, 5, 15, 28)


def test_check_cartan_accepts_g2_and_rejects_c_off_by_one():
    ck.check_cartan(G2_C, 49, expected_codim=49, identity_flag=True, polar_ranks=G2_C, vn_rank=49)
    bad = (0, 0, 0, 1, 5, 15, 27)
    with pytest.raises(CheckError):
        ck.check_cartan(bad, 49, expected_codim=49, identity_flag=True, polar_ranks=G2_C, vn_rank=49)
    with pytest.raises(CheckError, match="identity flag"):
        ck.check_cartan(bad, 49, expected_codim=49, identity_flag=True, polar_ranks=bad, vn_rank=49)
    with pytest.raises(CheckError, match="nondecreasing"):
        c = (0, 0, 1, 0, 5, 15, 28)
        ck.check_cartan(c, 49, expected_codim=49, identity_flag=False, polar_ranks=c, vn_rank=49)
    with pytest.raises(CheckError, match="codim"):
        ck.check_cartan(G2_C, 50, expected_codim=49, identity_flag=True, polar_ranks=G2_C, vn_rank=50)


def test_check_verbose_listing_rejects_a_missing_polar_line():
    c = (0, 1, 2)
    lines = [f"# Vn equation: p{k}" for k in range(3)]
    lines += ["# polar[j=1]: e4", "# polar[j=2]: e5", "# polar[j=2]: e6"]
    lines += ["c_0=0", "c_1=1", "c_2=2", "codim(V_3)=3", "INVOLUTIVE"]
    ck.check_verbose_listing("\n".join(lines) + "\n", c, 3)
    del lines[4]
    with pytest.raises(CheckError, match="j=2"):
        ck.check_verbose_listing("\n".join(lines) + "\n", c, 3)


# d e5 = e12 + 2 e13, d e6 = -e23 on a 2-step-nilpotent algebra
TABLE = {5: {(1, 2): ck.q(1), (1, 3): ck.q(2)}, 6: {(2, 3): ck.q(-1)}}


def test_exterior_d_squares_to_zero_and_follows_leibniz():
    w = {(4, 5): {(): ck.q(3)}, (5, 6): {((7, 1),): ck.q(0, 1)}}
    dw = ck.exterior_d(w, TABLE)
    # d(e45) = -e4 de5 = -e124 - 2 e134; d(e56) = e126 + 2 e136 + e235
    assert dw[(1, 2, 4)] == {(): ck.q(-3)}
    assert dw[(1, 3, 4)] == {(): ck.q(-6)}
    assert dw[(2, 3, 5)] == {((7, 1),): ck.q(0, 1)}
    assert not ck.exterior_d(dw, TABLE)


def _elements():
    return [{(1, 2): ck.q(1)}, {(1, 2): ck.q(1), (3, 4): ck.q(2)}]


def test_check_reconstruction_rejects_perturbed_components():
    x = _elements()
    sym = ((0, 1),)
    comps = [{(): ck.q(1), sym: ck.q(0, 1)}, {(): ck.q(-1)}]
    target = {(1, 2): {sym: ck.q(0, 1)}, (3, 4): {(): ck.q(-2)}}
    ck.check_reconstruction(x, comps, target)
    comps[1] = {(): ck.q(Fraction(-1, 2))}
    with pytest.raises(CheckError):
        ck.check_reconstruction(x, comps, target)


def test_check_pairing_rejects_perturbed_dual():
    x = _elements()
    duals = [{(1, 2): ck.q(1), (3, 4): ck.q(Fraction(-1, 2))}, {(3, 4): ck.q(Fraction(1, 2))}]
    ck.check_pairing(duals, x)
    duals[0] = {(1, 2): ck.q(1)}
    with pytest.raises(CheckError, match="dual_0, x_1"):
        ck.check_pairing(duals, x)


def test_program_d_and_components_pass_and_a_corrupted_answer_fails():
    ff = pytest.importorskip("frameforms")
    import jobs

    M = jobs.build_manifold(ff, ff.Session(), 6, {g: {p: int(v[0]) for p, v in row.items()} for g, row in TABLE.items()})
    w = M.e(4) * M.e(5) * 3 + M.e(1) * M.e(6)
    assert ck.from_form(M.d(w)) == ck.exterior_d(ck.from_form(w), TABLE)
    basis = ff.FormBasis(M)
    for i, j in combinations(range(1, 7), 2):
        basis.insert(M.d(M.e(i) * M.e(j)))
    elements = [ck.constant_form(x) for x in basis]
    comps = [ck.from_poly(c) for c in basis.components(M.d(w))]
    ck.check_reconstruction(elements, comps, ck.from_form(M.d(w)))
    ck.check_pairing([ck.constant_form(y) for y in basis.dual_basis()], elements)
    comps[0] = ck.padd(comps[0], {(): ck.q(1)})
    with pytest.raises(CheckError):
        ck.check_reconstruction(elements, comps, ck.from_form(M.d(w)))
