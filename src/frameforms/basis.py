"""Flag-preserving independent generating sets with lazy dual bases.

A Basis stores the expressions it retains verbatim, in insertion order;
dependence is decided by a separately maintained scalar.Rank, which
keeps integer rows only to tell which inputs are independent, so the
flag span{x1..xk} of the first k retained inputs is never disturbed.

Duals and components come from a second, tagged echelon whose row k is
element k plus a unit tag column k.  It pivots on each row's largest
simple element and is kept across mutations: the basis is append-only,
so the first query after inserts only adds the rows of the elements
appended since the last set-up.  Let S be the set of simple elements of
the elements.  The pivots are S minus the greedy completion that extends
the elements to a basis of span S by unit vectors in simple-element
order, because that completion skips alpha exactly when some vector of
the span has alpha as its largest simple element.  With T[p] the tag
part of pivot row p, the dual x^k is sum_p T[p][k] e_p (the one dual
that vanishes on the completion) and the components of x are
sum_p x[p] T[p]; x lies in the span when the rows it pairs with also
cancel it on the non-pivot columns.  components() sums both as flat
sums: each tag column, and each non-pivot column of what is left of x,
is a term dict filled by scalar._add_scaled.

Each subclass is its own expression space: _sort_key orders its simple
elements (wedge monomials of one manifold, or symbols and then CONST),
_constant_vec reads an expression into the constant row {simple element:
GaussianRational} that the echelon takes and insert clears, keyed by
_sort_key, for the rank; _decompose keeps the Poly values for
components(), and _build makes an expression from pairs.  AffineBasis
reads inconsistency off the rank's pivots: CONST sorts last, so it is a
pivot exactly when an equation reduced to a nonzero constant.
"""

from __future__ import annotations

from .errors import NonConstantCoefficientError, NonLinearError, NotInSpanError
from .exterior import Form, _mono_key, as_form
from .scalar import _ONE, Echelon, Poly, Rank, _add_scaled, _cleared, as_poly

__all__ = ["Basis", "FormBasis", "SymbolBasis", "AffineBasis", "CONST"]


class _ConstKey:
    """Sentinel simple element for the constant coordinate of affine systems."""

    __slots__ = ()

    def __repr__(self):
        return "CONST"


CONST = _ConstKey()


class _Last:
    """Sort key that reverses another: the least _Last wraps the largest key."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key


class Basis:
    """Ordered independent generating set over the expression space of a subclass."""

    def __init__(self):
        key = self._sort_key
        self._elements = []
        self._rank = Rank()
        # Integer keys are the tag columns: they never pivot.
        self._tagged = Echelon(lambda k: None if isinstance(k, int) else _Last(key(k)))
        self._simple = set()
        self._duals = None
        self.setup_count = 0

    @property
    def setup_ops(self):
        """Multiply-subtract steps spent by every set-up so far."""
        return self._tagged.ops

    @property
    def elements(self):
        return tuple(self._elements)

    def __len__(self):
        return len(self._elements)

    def size(self):
        return len(self._elements)

    def __iter__(self):
        return iter(self._elements)

    def __getitem__(self, i):
        return self._elements[i]

    def insert(self, x) -> bool:
        """Append x verbatim when independent of the current span."""
        key = self._sort_key
        _, row = _cleared(self._constant_vec(x).items())
        if not self._rank.insert({key(k): a for k, a, _ in row if a}, {key(k): b for k, _, b in row if b}):
            return False
        self._elements.append(x)
        return True

    # -- lazy dual/component machinery ------------------------------------

    def _setup(self):
        """Extend the tagged echelon by the elements appended since the last set-up."""
        ech = self._tagged
        # Each element set up holds one row, as the elements are independent;
        # the first query counts one set-up, even on an empty basis.
        if self.setup_count and len(ech.rows) == len(self._elements):
            return
        for tag in range(len(ech.rows), len(self._elements)):
            vec = self._constant_vec(self._elements[tag])
            self._simple.update(vec)
            vec[tag] = _ONE
            ech.insert(ech.reduce(vec))
        self._duals = None
        self.setup_count += 1

    def components(self, x):
        """Exact coordinates of x in the stored basis (lazy setup)."""
        self._setup()
        rows = self._tagged.rows
        comps = [{} for _ in self._elements]
        # x minus the combination of the rows it pairs with, by non-pivot column.
        rest = {}
        for key, p in self._decompose(x).items():
            if key not in self._simple:
                raise NotInSpanError(f"{x} pairs with a simple element outside the basis span")
            row = rows.get(key)
            if row is None:
                _add_scaled(rest.setdefault(key, {}), p.terms, _ONE)
                continue
            for k, c in row.items():
                if isinstance(k, int):
                    _add_scaled(comps[k], p.terms, c)
                else:
                    _add_scaled(rest.setdefault(k, {}), p.terms, -c)
        if any(rest.values()):
            raise NotInSpanError(f"{x} is not in the span of the basis")
        return [Poly(t) for t in comps]

    def dual_basis(self):
        """The dual sequence x^1..x^m with pairing(x^i, x_j) = delta_ij."""
        if not self._elements:
            raise ValueError("dual_basis of an empty basis")
        self._setup()
        if self._duals is None:
            pairs = [[] for _ in self._elements]
            for p, row in self._tagged.rows.items():
                for k, c in row.items():
                    if isinstance(k, int):
                        pairs[k].append((p, c))
            # Each list holds distinct pivots with nonzero constants.
            self._duals = [self._build(q) for q in pairs]
        return list(self._duals)


class FormBasis(Basis):
    """Basis of differential forms over one manifold."""

    def __init__(self, manifold):
        self.manifold = manifold
        super().__init__()

    _sort_key = staticmethod(_mono_key)

    def _constant_vec(self, x):
        out = {}
        for k, p in as_form(self.manifold, x).terms.items():
            if not p.is_constant():
                raise NonConstantCoefficientError(
                    "basis elements must have constant coefficients on simple elements"
                )
            v = p.terms.get(())
            if v:
                out[k] = v
        return out

    def _decompose(self, x):
        return as_form(self.manifold, x).terms

    def _build(self, pairs):
        return Form(self.manifold, {k: Poly({(): c}) for k, c in pairs})


class SymbolBasis(Basis):
    """Basis of expressions linear in symbols (the constant counts as a coordinate)."""

    @staticmethod
    def _sort_key(key):
        return (1, 0) if key is CONST else (0, key.index)

    def _constant_vec(self, x):
        p = as_poly(x)
        out = {}
        for mono, c in p.terms.items():
            if not mono:
                out[CONST] = c
            elif len(mono) == 1 and mono[0][1] == 1:
                out[mono[0][0]] = c
            else:
                raise NonLinearError(f"{p} is not affine in its symbols")
        return out

    def _decompose(self, x):
        return {k: Poly.constant(c) for k, c in self._constant_vec(x).items()}

    def _build(self, pairs):
        return Poly({() if k is CONST else ((k, 1),): c for k, c in pairs})


class AffineBasis(SymbolBasis):
    """Rank tracker for affine equation sets with contradiction detection."""

    @property
    def inconsistent(self):
        """Whether some equation reduced to a nonzero constant; later inserts never remove that pivot."""
        return self._sort_key(CONST) in self._rank.pivots
