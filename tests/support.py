"""Shared test support: an exact rank oracle and the fixed manifolds.

pytest does not collect this module; test files import it by name.
`exact_rank` computes on `fractions.Fraction` only, so it is an oracle
independent of the engine's scalars.
"""

from fractions import Fraction

# The CLI examples' manifolds: nilpotent4 has de1 = de2 = 0, de3 = e12,
# de4 = e13; iwasawa6, the complex Iwasawa manifold, has de1..de4 = 0,
# de5 = e13 + e42, de6 = e14 + e23.
from frameforms.cli import _iwasawa_manifold as iwasawa6
from frameforms.cli import _nilpotent_manifold as nilpotent4

_ZERO = (Fraction(0), Fraction(0))


def _pair(x):
    """An int, a Fraction, or anything with Fraction `re`/`im`, as (re, im)."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    return Fraction(x.re), Fraction(x.im)


def exact_rank(rows):
    """Rank over Q(i) of dense list rows or sparse `{column: entry}` rows.

    Each stored row has entry 1 at its pivot and 0 at every earlier
    pivot, so one pass over the pivots in order reduces a new row.
    """
    pivots = []
    for row in rows:
        vec = {}
        for col, x in row.items() if isinstance(row, dict) else enumerate(row):
            pair = _pair(x)
            if pair != _ZERO:
                vec[col] = pair
        for col, prow in pivots:
            if col not in vec:
                continue
            cr, ci = vec[col]
            for k, (pr, pi) in prow.items():
                vr, vi = vec.get(k, _ZERO)
                nr, ni = vr - (cr * pr - ci * pi), vi - (cr * pi + ci * pr)
                if nr or ni:
                    vec[k] = (nr, ni)
                else:
                    vec.pop(k, None)
        if vec:
            col = next(iter(vec))
            a, b = vec[col]
            norm = a * a + b * b
            ir, ii = a / norm, -b / norm
            pivots.append((col, {k: (r * ir - i * ii, r * ii + i * ir) for k, (r, i) in vec.items()}))
    return len(pivots)

