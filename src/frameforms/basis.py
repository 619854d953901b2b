"""Flag-preserving independent generating sets with lazy dual bases.

A Basis stores the expressions it retains verbatim, in insertion order;
dependence is decided against a separately maintained reduced-echelon
shadow, so the flag span{x1..xk} of the first k retained inputs is
never disturbed.  The first call to components() or dual_basis() sets
up the simple-element set S and a second echelon whose row k is element
k plus a unit tag column k; it extends the retained elements to a basis
of span S with the unit vectors of S that are independent of the
current span, in simple-element order.  Once every simple element is a
pivot, the tag part of row alpha is row alpha of the inverse of the
pairing matrix (a_j_alpha).  It and the dual basis stay cached until
the next mutation.

Two expression spaces are supported: differential forms (simple
elements are wedge monomials of one manifold) and polynomials of degree
at most one (simple elements are symbols, plus the constant coordinate
used by AffineBasis).  Each space's constant_vec reads an expression's
terms once into the constant row {simple element: GaussianRational}
that both echelons take; decompose keeps Poly values for components().
"""

from __future__ import annotations

from .errors import (
    FrameMismatchError,
    NonConstantCoefficientError,
    NonLinearError,
    NotInSpanError,
)
from .exterior import Form, _mono_key
from .scalar import Echelon, GaussianRational, Poly, accumulate, as_poly

__all__ = ["Basis", "FormBasis", "SymbolBasis", "AffineBasis", "CONST"]


class _ConstKey:
    """Sentinel simple element for the constant coordinate of affine systems."""

    __slots__ = ()

    def __repr__(self):
        return "CONST"


CONST = _ConstKey()

_ONE = GaussianRational(1)


class _FormSpace:
    def __init__(self, manifold):
        self.manifold = manifold

    def _form(self, x):
        if not isinstance(x, Form):
            x = Form.scalar(self.manifold, x)
        if x.manifold is not self.manifold:
            raise FrameMismatchError("form belongs to a different manifold")
        return x

    def decompose(self, x):
        return dict(self._form(x).terms)

    def constant_vec(self, x):
        out = {}
        for k, p in self._form(x).terms.items():
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


class Basis:
    """Ordered independent generating set over one expression space."""

    def __init__(self, space):
        self._space = space
        self._elements = []
        self._echelon = Echelon(space.sort_key)
        self._cache = None
        self.setup_count = 0
        self.setup_ops = 0

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
        self._cache = None
        return pivot

    def insert(self, x) -> bool:
        """Append x verbatim when independent of the current span."""
        return self._append(x) is not None

    # -- lazy dual/component machinery ------------------------------------

    def _setup(self):
        if self._cache is not None:
            return self._cache
        key = self._space.sort_key
        # Integer keys are the tag columns: they never pivot.
        ech = Echelon(lambda k: None if isinstance(k, int) else key(k))
        simple = set()
        for tag, x in enumerate(self._elements):
            vec = self._space.constant_vec(x)
            simple.update(vec)
            vec[tag] = _ONE
            ech.insert(ech.reduce(vec))
        simple = sorted(simple, key=key)
        for alpha in simple:
            if len(ech.rows) == len(simple):
                break
            ech.insert(ech.reduce({alpha: _ONE, len(ech.rows): _ONE}))
        inverse = {
            alpha: {k: c for k, c in ech.rows[alpha].items() if isinstance(k, int)}
            for alpha in simple
        }
        m = len(self._elements)
        pairs = [[] for _ in range(m)]
        for alpha in simple:
            for k, c in inverse[alpha].items():
                if k < m:
                    pairs[k].append((alpha, c))
        # Each list holds distinct simple elements with nonzero constants.
        duals = [self._space.build(p) for p in pairs]
        self._cache = (inverse, m, duals)
        self.setup_ops += ech.ops
        self.setup_count += 1
        return self._cache

    def components(self, x):
        """Exact coordinates of x in the stored basis (lazy setup)."""
        inverse, m, _ = self._setup()
        comps = [{} for _ in inverse]
        for key, p in self._space.decompose(x).items():
            if not p:
                continue
            row = inverse.get(key)
            if row is None:
                raise NotInSpanError(f"{x} pairs with a simple element outside the basis span")
            for k, c in row.items():
                accumulate(comps[k], ((mono, a * c) for mono, a in p.terms.items()))
        if any(comps[m:]):
            raise NotInSpanError(f"{x} is not in the span of the basis")
        return [Poly(t) for t in comps[:m]]

    def dual_basis(self):
        """The dual sequence x^1..x^m with pairing(x^i, x_j) = delta_ij."""
        if not self._elements:
            raise ValueError("dual_basis of an empty basis")
        return list(self._setup()[2])


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
