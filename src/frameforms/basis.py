"""Flag-preserving independent generating sets with lazy dual bases.

A Basis stores the expressions it retains verbatim, in insertion order;
dependence is decided against a separately maintained reduced-echelon
shadow, so the flag span{x1..xk} of the first k retained inputs is
never disturbed.

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
cancel it on the non-pivot columns.

Two expression spaces are supported: differential forms (simple
elements are wedge monomials of one manifold) and polynomials of degree
at most one (simple elements are symbols, plus the constant coordinate
used by AffineBasis).  Each space's constant_vec reads an expression's
terms once into the constant row {simple element: GaussianRational}
that both echelons take; decompose keeps Poly values for components().
"""

from __future__ import annotations

from .errors import NonConstantCoefficientError, NonLinearError, NotInSpanError
from .exterior import Form, _mono_key, as_form
from .scalar import _ONE, Echelon, Poly, accumulate, as_poly

__all__ = ["Basis", "FormBasis", "SymbolBasis", "AffineBasis", "CONST"]


class _ConstKey:
    """Sentinel simple element for the constant coordinate of affine systems."""

    __slots__ = ()

    def __repr__(self):
        return "CONST"


CONST = _ConstKey()


class _FormSpace:
    def __init__(self, manifold):
        self.manifold = manifold

    def decompose(self, x):
        return dict(as_form(self.manifold, x).terms)

    def constant_vec(self, x):
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

    sort_key = staticmethod(_mono_key)

    def build(self, pairs):
        return Form(self.manifold, {k: Poly({(): c}) for k, c in pairs})


class _PolySpace:
    def constant_vec(self, x):
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

    def decompose(self, x):
        return {k: Poly.constant(c) for k, c in self.constant_vec(x).items()}

    def sort_key(self, key):
        if key is CONST:
            return (1, 0)
        return (0, key.index)

    def build(self, pairs):
        return Poly({() if k is CONST else ((k, 1),): c for k, c in pairs})


class _Last:
    """Sort key that reverses another: the least _Last wraps the largest key."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key


class Basis:
    """Ordered independent generating set over one expression space."""

    def __init__(self, space):
        self._space = space
        self._elements = []
        self._echelon = Echelon(space.sort_key)
        # Made by the first query: the bases of Cartan's test never query.
        self._tagged = None
        self._simple = set()
        self._duals = None
        self.setup_count = 0

    @property
    def setup_ops(self):
        """Multiply-subtract steps spent by every set-up so far."""
        return 0 if self._tagged is None else self._tagged.ops

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

    def _append(self, x):
        """Append x when independent of the span; return its pivot, or None."""
        red = self._echelon.reduce(self._space.constant_vec(x))
        if not red:
            return None
        pivot = self._echelon.insert(red)
        self._elements.append(x)
        return pivot

    def insert(self, x) -> bool:
        """Append x verbatim when independent of the current span."""
        return self._append(x) is not None

    # -- lazy dual/component machinery ------------------------------------

    def _setup(self):
        """Extend the tagged echelon by the elements appended since the last set-up."""
        ech = self._tagged
        if ech is None:
            key = self._space.sort_key
            # Integer keys are the tag columns: they never pivot.
            ech = self._tagged = Echelon(lambda k: None if isinstance(k, int) else _Last(key(k)))
        elif len(ech.rows) == len(self._elements):
            # Set up already: each element set up holds one row, as the elements are independent.
            return
        for tag in range(len(ech.rows), len(self._elements)):
            vec = self._space.constant_vec(self._elements[tag])
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
        # x minus the combination of the rows it pairs with, on the non-pivot columns.
        rest = {}
        for key, p in self._space.decompose(x).items():
            if key not in self._simple:
                raise NotInSpanError(f"{x} pairs with a simple element outside the basis span")
            row = rows.get(key)
            if row is None:
                accumulate(rest, (((key, mono), a) for mono, a in p.terms.items()))
                continue
            for k, c in row.items():
                if isinstance(k, int):
                    accumulate(comps[k], ((mono, a * c) for mono, a in p.terms.items()))
                elif k != key:
                    accumulate(rest, (((k, mono), -a * c) for mono, a in p.terms.items()))
        if rest:
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
            self._duals = [self._space.build(q) for q in pairs]
        return list(self._duals)


class FormBasis(Basis):
    """Basis of differential forms over one manifold."""

    def __init__(self, manifold):
        super().__init__(_FormSpace(manifold))
        self.manifold = manifold


class SymbolBasis(Basis):
    """Basis of expressions linear in symbols (the constant counts as a coordinate)."""

    def __init__(self):
        super().__init__(_PolySpace())


class AffineBasis(SymbolBasis):
    """Rank tracker for affine equation sets with contradiction detection."""

    def __init__(self):
        super().__init__()
        self.inconsistent = False

    def insert(self, x) -> bool:
        pivot = self._append(x)
        if pivot is CONST:
            self.inconsistent = True
        return pivot is not None
