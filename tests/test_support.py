import random
from fractions import Fraction

import pytest

from frameforms import GaussianRational

from support import exact_rank


def test_exact_rank_matches_sympy():
    """exact_rank equals sympy's rank on seeded Q(i) matrices, dense and sparse.

    Some rows are Q(i) combinations of earlier rows, so the imaginary
    parts decide whether a row is dependent.
    """
    sympy = pytest.importorskip("sympy")
    rng = random.Random(26)

    def entry():
        if rng.random() < 0.4:
            return GaussianRational(0)
        return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))

    seen_dependent = 0
    for _ in range(40):
        ncols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 7)):
            if rows and rng.random() < 0.4:
                row = [GaussianRational(0)] * ncols
                for earlier in rng.sample(rows, rng.randint(1, len(rows))):
                    c = GaussianRational(rng.randint(-2, 2), rng.choice((-1, 1)))
                    row = [a + c * b for a, b in zip(row, earlier)]
            else:
                row = [entry() for _ in range(ncols)]
            rows.append(row)
        expected = sympy.Matrix(
            [[sympy.Rational(x.re) + sympy.I * sympy.Rational(x.im) for x in r] for r in rows]
        ).rank(iszerofunc=lambda x: sympy.expand(x) == 0)
        seen_dependent += expected < min(len(rows), ncols)
        # Real entries go in as int or Fraction, the others as GaussianRational.
        mixed = [[x if x.im else x.re if x.re.denominator > 1 else int(x.re) for x in r] for r in rows]
        sparse = [{(7, c): x for c, x in enumerate(r) if x} for r in mixed]
        assert exact_rank(mixed) == exact_rank(sparse) == expected
        assert exact_rank(list(zip(*mixed))) == expected
    assert seen_dependent > 5
