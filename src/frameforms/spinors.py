"""The 2^m-dimensional complex spinor module and Clifford multiplication.

Frame vectors act through a table of gamma matrices over the Gaussian
rationals satisfying g_i g_j + g_j g_i = -2 delta_ij.  The matrices come
from the standard doubling construction: the base pair on C^2 is
(i*sigma1, i*sigma2), doubling pads existing generators with sigma3 on
the new highest tensor factor and adds the base pair there; for odd n
the last generator is the (normalized) product of all the others.  The
residual sign and ordering freedom was fixed once against the parallel
spinor computation in dimension four and is frozen here and in the test
suite's expected tables.
"""

from __future__ import annotations

from .errors import DegreeError, DimensionError
from .exterior import Form, _print_terms
from .scalar import GaussianRational, Poly, as_poly

__all__ = ["CliffordTable", "build_clifford_table", "Spinor", "clifford_mul"]

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)
_I = GaussianRational(0, 1)

# 2x2 blocks of the doubling step, as tuples of row tuples.
_P_A = ((_ZERO, _I), (_I, _ZERO))  # i*sigma1
_P_B = ((_ZERO, _ONE), (-_ONE, _ZERO))  # i*sigma2
_PAD = ((_ONE, _ZERO), (_ZERO, -_ONE))  # sigma3


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[r][k] * b[k][c] for k in range(n)), _ZERO) for c in range(n))
        for r in range(n)
    )


def _mat_scale(a, c):
    return tuple(tuple(c * v for v in row) for row in a)


def _expand_high(block, small):
    """Place `block` on the new highest bit, `small` on the old indices."""
    n = len(small)
    out = [[_ZERO] * (2 * n) for _ in range(2 * n)]
    for s in range(2):
        for t in range(2):
            c = block[s][t]
            if not c:
                continue
            for x in range(n):
                for y in range(n):
                    v = small[x][y]
                    if v:
                        out[x + s * n][y + t * n] = c * v
    return tuple(tuple(row) for row in out)


def _identity(n):
    return tuple(tuple(_ONE if r == c else _ZERO for c in range(n)) for r in range(n))


class CliffordTable:
    """Immutable gamma-matrix table for one frame dimension."""

    def __init__(self, n, gammas):
        self.n = n
        self.m = n // 2
        self.spinor_dim = 2 ** self.m
        self._gammas = tuple(gammas)

    def gamma(self, i):
        """Matrix of Clifford multiplication by the i-th frame vector (1-based)."""
        if not 1 <= i <= self.n:
            raise DimensionError(f"gamma index {i} outside 1..{self.n}")
        return self._gammas[i - 1]

    def apply(self, i, psi: "Spinor") -> "Spinor":
        if psi.dim != self.spinor_dim:
            raise DimensionError(
                f"spinor of dimension {psi.dim} does not match the table ({self.spinor_dim})"
            )
        g = self.gamma(i)
        out = {}
        for k, c in psi.terms.items():
            for r in range(self.spinor_dim):
                v = g[r][k]
                if not v:
                    continue
                s = out.get(r)
                s = c * v if s is None else s + c * v
                if s:
                    out[r] = s
                else:
                    out.pop(r, None)
        return Spinor(self.spinor_dim, out)


def build_clifford_table(n: int) -> CliffordTable:
    """Gamma matrices for dimension n with g_i^2 = -1 and anticommutation."""
    if n < 1:
        raise DimensionError(f"dimension must be >= 1, got {n}")
    m = n // 2
    gammas = []
    dim = 1
    for _ in range(m):
        ident = _identity(dim)
        gammas = [_expand_high(_PAD, g) for g in gammas]
        gammas.append(_expand_high(_P_A, ident))
        gammas.append(_expand_high(_P_B, ident))
        dim *= 2
    if n % 2:
        prod = _identity(dim)
        for g in gammas:
            prod = _mat_mul(prod, g)
        if m % 2 == 0:
            prod = _mat_scale(prod, _I)
        gammas.append(prod)
    return CliffordTable(n, gammas)


class Spinor:
    """A Poly-weighted combination of the basis spinors u_0..u_{2^m-1}."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        self.dim = dim
        self.terms = terms or {}

    @classmethod
    def basis(cls, dim, k):
        if not 0 <= k < dim:
            raise DimensionError(f"spinor basis index {k} outside 0..{dim - 1}")
        return cls(dim, {k: Poly.constant(1)})

    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    def _check(self, other):
        if self.dim != other.dim:
            raise DimensionError("spinors from different representations")

    def __add__(self, other):
        if not isinstance(other, Spinor):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Spinor(self.dim, out)

    def __sub__(self, other):
        if not isinstance(other, Spinor):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Spinor(self.dim, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        p = as_poly(other)
        if not p:
            return Spinor.zero(self.dim)
        return Spinor(self.dim, {k: c * p for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Spinor):
            return self.dim == other.dim and self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    __hash__ = None

    def coefficients(self):
        return [(k, self.terms[k]) for k in sorted(self.terms)]

    def substitute_scalars(self, rules):
        out = {k: c.substitute(rules) for k, c in self.terms.items()}
        return Spinor(self.dim, {k: c for k, c in out.items() if c})

    def __str__(self):
        return _print_terms((self.terms[k], f"u{k}") for k in sorted(self.terms))

    def __repr__(self):
        return f"Spinor({self})"


def clifford_mul(table: CliffordTable, v: Form, psi: Spinor) -> Spinor:
    """Clifford action of a degree-1 form (as a frame vector) on a spinor."""
    if v and not v.is_homogeneous(1):
        raise DegreeError("clifford_mul expects a degree-1 vector argument")
    out = Spinor.zero(table.spinor_dim)
    for (g,), c in v.terms.items():
        if g > table.n:
            raise DimensionError(f"frame index {g} outside the Clifford table (n={table.n})")
        out = out + table.apply(g, psi) * c
    return out
