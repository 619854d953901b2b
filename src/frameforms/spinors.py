"""The 2^m-dimensional complex spinor module and Clifford multiplication.

Frame vectors act through gamma matrices over the Gaussian rationals
satisfying g_i g_j + g_j g_i = -2 delta_ij.  Every gamma is a monomial
matrix, with one nonzero entry in each row and column, so a table
stores it as the (row, phase) of that entry in each column: Clifford
multiplication moves and rescales each spinor term once, and gamma(i)
expands the dense matrix on request.  The matrices come from the
standard doubling construction: the base pair on C^2 is
(i*sigma1, i*sigma2), doubling pads existing generators with sigma3 on
the new highest tensor factor and adds the base pair there; for odd n
the last generator is the (normalized) product of all the others.  The
residual sign and ordering freedom was fixed once against the parallel
spinor computation in dimension four and is frozen here and in the test
suite's expected tables.  A table is a pure function of n, so
build_clifford_table makes each dimension's table once per process, and
the table computes its products g_j g_k (j < k), which every spinor
derivative reads, once on first use.
"""

from __future__ import annotations

import functools

from .errors import DegreeError, DimensionError
from .exterior import Form, _index, _print_terms
from .scalar import _ONE, _ZERO, I, Poly, _add_scaled, _SparseVector

__all__ = ["CliffordTable", "build_clifford_table", "Spinor", "clifford_mul"]

# 2x2 blocks of the doubling step, as the (row, phase) of each column.
_P_A = ((1, I), (0, I))  # i*sigma1
_P_B = ((1, -_ONE), (0, _ONE))  # i*sigma2
_PAD = ((0, _ONE), (1, -_ONE))  # sigma3


def _kron(block, small):
    """block ⊗ small: `block` on the new highest bit, `small` on the old indices."""
    n = len(small)
    return tuple((x + s * n, c * v) for s, c in block for x, v in small)


class CliffordTable:
    """Immutable gamma-matrix table for one frame dimension."""

    def __init__(self, n, gammas):
        self.n = n
        self.m = n // 2
        self.spinor_dim = 2 ** self.m
        self._gammas = tuple(gammas)

    def _columns(self, i):
        return self._gammas[_index(i, 1, self.n, "gamma index", DimensionError) - 1]

    def gamma(self, i):
        """Matrix of Clifford multiplication by the i-th frame vector (1-based)."""
        rows = [[_ZERO] * self.spinor_dim for _ in range(self.spinor_dim)]
        for k, (r, v) in enumerate(self._columns(i)):
            rows[r][k] = v
        return tuple(map(tuple, rows))

    def product(self, i, j):
        """g_i g_j as the (row, phase) of the nonzero entry in each column."""
        gi, gj = self._columns(i), self._columns(j)
        return tuple((gi[r][0], v * gi[r][1]) for r, v in gj)

    @functools.cached_property
    def pair_products(self):
        """((j, k, product(j, k)) for 1 <= j < k <= n), in that order."""
        n = self.n
        return tuple((j, k, self.product(j, k)) for j in range(1, n + 1) for k in range(j + 1, n + 1))

    def check(self, psi: "Spinor"):
        """Raise DimensionError unless psi lies in this table's spinor module."""
        if psi.dim != self.spinor_dim:
            raise DimensionError(
                f"spinor of dimension {psi.dim} does not match the table ({self.spinor_dim})"
            )

    def apply(self, i, psi: "Spinor") -> "Spinor":
        self.check(psi)
        g = self._columns(i)
        # Distinct columns have distinct rows, so no two terms land together.
        return Spinor(self.spinor_dim, {g[k][0]: c * g[k][1] for k, c in psi.terms.items()})


# Typed, so that a float equal to a cached n is built, and rejected, anew.
@functools.lru_cache(maxsize=None, typed=True)
def build_clifford_table(n: int) -> CliffordTable:
    """Gamma matrices for dimension n with g_i^2 = -1 and anticommutation; one table per n."""
    if n < 1:
        raise DimensionError(f"dimension must be >= 1, got {n}")
    m = n // 2
    gammas = []
    dim = 1
    for _ in range(m):
        ident = tuple((k, _ONE) for k in range(dim))
        gammas = [_kron(_PAD, g) for g in gammas]
        gammas.append(_kron(_P_A, ident))
        gammas.append(_kron(_P_B, ident))
        dim *= 2
    if n % 2:
        # g_1 ... g_2m, times i when m is even so that it squares to -1.
        prod = tuple((k, I if m % 2 == 0 else _ONE) for k in range(dim))
        for g in gammas:
            prod = tuple((prod[r][0], prod[r][1] * v) for r, v in g)
        gammas.append(prod)
    return CliffordTable(n, gammas)


class Spinor(_SparseVector):
    """A Poly-weighted combination of the basis spinors u_0..u_{2^m-1}."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        self.dim = dim
        self.terms = terms or {}

    @classmethod
    def basis(cls, dim, k):
        return cls(dim, {_index(k, 0, dim - 1, "spinor basis index", DimensionError): Poly.constant(1)})

    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    def _coerce(self, other):
        if not isinstance(other, Spinor):
            return None
        if self.dim != other.dim:
            raise DimensionError("spinors from different representations")
        return other

    def _like(self, terms):
        return Spinor(self.dim, terms)

    __mul__ = __rmul__ = _SparseVector._scale

    def __eq__(self, other):
        if isinstance(other, Spinor):
            return self.dim == other.dim and self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def coefficients(self):
        return [(k, self.terms[k]) for k in sorted(self.terms)]

    def __str__(self):
        return _print_terms((self.terms[k], f"u{k}") for k in sorted(self.terms))


def clifford_mul(table: CliffordTable, v: Form, psi: Spinor) -> Spinor:
    """Clifford action of a degree-1 form (as a frame vector) on a spinor.

    Each product phase·a·c is added by _add_scaled into one term dict
    per spinor index, a's terms scaling c's, and the dicts become Polys
    once at the end.
    """
    if v and not v.is_homogeneous(1):
        raise DegreeError("clifford_mul expects a degree-1 vector argument")
    table.check(psi)
    out = {}
    for (g,), c in v.terms.items():
        if g > table.n:
            raise DimensionError(f"frame index {g} outside the Clifford table (n={table.n})")
        columns = table._columns(g)
        for k, a in psi.terms.items():
            row, phase = columns[k]
            terms = out.setdefault(row, {})
            for m, x in a.terms.items():
                _add_scaled(terms, c.terms, phase * x, m)
    return Spinor(table.spinor_dim, {row: Poly(t) for row, t in out.items() if t})
