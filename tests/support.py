"""Shared test support: an exact rank oracle and the fixed manifolds.

pytest does not collect this module; test files import it by name.
`exact_rank` clears each row to Python ints and eliminates on them
alone, so it is an oracle independent of the engine's scalars.
"""

import math
from fractions import Fraction

# The CLI examples' manifolds: nilpotent4 has de1 = de2 = 0, de3 = e12,
# de4 = e13; iwasawa6, the complex Iwasawa manifold, has de1..de4 = 0,
# de5 = e13 + e42, de6 = e14 + e23.
from frameforms.cli import _iwasawa_manifold as iwasawa6
from frameforms.cli import _nilpotent_manifold as nilpotent4


def _pair(x):
    """An int, a Fraction, or anything with Fraction `re`/`im`, as (re, im)."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    return Fraction(x.re), Fraction(x.im)


def exact_rank(rows):
    """Rank over Q(i) of dense list rows or sparse `{column: entry}` rows.

    Each row is cleared to Gaussian integers, (re, im) int pairs over the
    common denominator of its entries, and eliminated fraction-free:
    against a stored row with entry lam at its pivot, where the new row
    has mu, v <- lam*v - mu*r cancels that column, and v is divided by
    the gcd of its parts.  Each stored row is 0 at every earlier pivot,
    so one pass over the pivots in order reduces a new row.
    """
    pivots = []
    for row in rows:
        pairs = {}
        for col, x in row.items() if isinstance(row, dict) else enumerate(row):
            pair = (x, 0) if isinstance(x, (int, Fraction)) else (x.re, x.im)
            if any(pair):
                pairs[col] = pair
        den = math.lcm(*(p.denominator for pair in pairs.values() for p in pair))
        vec = {col: tuple(p.numerator * (den // p.denominator) for p in pair) for col, pair in pairs.items()}
        for col, (lr, li), prow in pivots:
            if col not in vec:
                continue
            mr, mi = vec.pop(col)
            vec = {k: (lr * r - li * i, lr * i + li * r) for k, (r, i) in vec.items()}
            for k, (pr, pi) in prow.items():
                r, i = vec.get(k, (0, 0))
                r, i = r - (mr * pr - mi * pi), i - (mr * pi + mi * pr)
                if r or i:
                    vec[k] = (r, i)
                else:
                    vec.pop(k, None)
            g = math.gcd(*(x for pair in vec.values() for x in pair))
            if g > 1:
                vec = {k: (r // g, i // g) for k, (r, i) in vec.items()}
        if vec:
            col = next(iter(vec))
            pivots.append((col, vec.pop(col), vec))
    return len(pivots)
