"""Connections on a framed manifold with declaratively constrained parameters.

A Connection owns a table of symbols G_ijk = <nabla_{f_i} f_j, f^k> for
a frame f^1..f^n of one-forms and its dual vectors f_1..f_n (one symbol
per triple in the generic case, an antisymmetric pattern in j,k for
metric connections in an orthonormal frame).  Everything else is read
off the matrix of connection one-forms omega_jk = sum_i G_ijk f^i
(Kobayashi-Nomizu, Foundations I, ch. III):

- covariant derivatives evaluate omega_jk(X) = sum_i G_ijk X^i, only
  at the entries they use, and act with it: nabla_X T = sum_{j,k}
  T^j omega_jk(X) f_k on vectors, nabla_X f^k = -sum_j omega_jk(X) f^j
  on one-forms, extended to every form by the Leibniz loop that d uses
  too, and (1/2) sum_{j<k} omega_jk(X) g_j g_k on spinors;
- torsion and curvature are Cartan's structure equations,
  Theta^k = df^k + sum_{i,j} G_ijk f^i ∧ f^j and
  Omega_jk = d omega_jk - sum_l omega_jl ∧ omega_lk.

nabla of a vector or a spinor, torsion's sum_{i,j} G_ijk f^i ∧ f^j,
and the image of one generator under nabla_X or a RiemannianManifold's
d are each one flat sum; on a form of higher degree, nabla_X and d
extend those images by the Leibniz loop.  In a flat sum every Q(i)
product is added into one dict per result, keyed by the output's basis
element (a frame monomial or a spinor index) and then by symbol
monomial, by one _add_scaled(out.setdefault(key, {}), terms, c, mono)
per term dict, mono shifting the symbol monomials when a factor has
one.  The term dicts become Poly coefficients once at the end; no
intermediate Poly or Form is built.
The constant factors come from tables built once per connection, on
first use: the frame's terms, one table of the dual
frame by generator (from the cached dual_basis), and the products f^i ∧ f^j that torsion and
a RiemannianManifold's d share.  For spinors they are the signed
permutations g_j g_k (j < k) of the Clifford table's pair_products,
built once per dimension and shared by every manifold of that
dimension; the factor 1/2 goes on the spinor.  Curvature is computed with Form
arithmetic on the omega_jk: it builds each connection_form and sums
d omega_jk and the wedge products omega_jl ∧ omega_lk.

The symbols' names are made once per (prefix, n, antisymmetric) shape
and kept; each connection makes its own symbols from them, in the same
order, so no two connections share a symbol.

Constraints are never assigned directly: declare_* methods turn nabla
expressions into scalar equations and add them to one persistent
reduced echelon form over the connection's own symbols.  That echelon
is the Gamma table: a solved symbol's row holds its non-pivot entries,
so s + row = 0, and Gamma is read off the rows as minus the row; a
symbol without a row is free.  Foreign symbols (another connection's
parameters) ride along as parameters.

Scalar equations are split into real and imaginary parts before
solving: the symbolic parameters stand for real-valued functions, and
keeping the split inside the declaration layer is what makes the
parallel-spinor conditions cut out the real solution set.

RiemannianManifold is the frame-generic mode: a manifold without a
d-table whose d operator, Lie bracket, and spinor module all come from
its built-in metric (Levi-Civita style) connection; its d is the
torsion-free structure equation de^k = -sum_{i,j} G_ijk e^i ∧ e^j.
"""

from __future__ import annotations

import functools

from .basis import FormBasis
from .errors import DegreeError, UnsupportedKindError
from .exterior import Form, _index, _indexed_name, _leibniz, as_form, wedge
from .manifold import FrameManifold
from .scalar import _ONE, Echelon, Poly, Session, _add_scaled, as_poly
from .spinors import Spinor, build_clifford_table, clifford_mul

__all__ = ["Connection", "RiemannianManifold"]

_HALF = _ONE / 2


@functools.lru_cache(maxsize=32, typed=True)
def _triples(n, antisymmetric):
    """The (i, j, k) of a connection's symbols in creation order; k > j when antisymmetric."""
    return tuple(
        (i, j, k)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for k in range(j + 1 if antisymmetric else 1, n + 1)
    )


@functools.lru_cache(maxsize=32, typed=True)
def _symbol_names(prefix, n, antisymmetric):
    """The names of a connection's symbols, in the order of _triples."""
    return tuple(_indexed_name(prefix, idx) for idx in _triples(n, antisymmetric))


def _constant_terms(form):
    """The (monomial, GaussianRational) terms of a form with constant coefficients."""
    return [(m, p.terms[()]) for m, p in form.terms.items()]


def _polys(out):
    """A flat sum's term dicts as Poly coefficients, dropping the keys that cancelled."""
    return {key: Poly(t) for key, t in out.items() if t}


class Connection:
    """A connection in a frame, parametrized by Christoffel symbols."""

    def __init__(self, manifold, frame=None, prefix="Gamma", *, antisymmetric=False):
        self.manifold = manifold
        self.prefix = prefix
        self.antisymmetric = antisymmetric
        n = manifold.dim
        frame = manifold.generators() if frame is None else list(frame)
        basis = FormBasis(manifold)
        for f in frame:
            if not f.is_homogeneous(1):
                raise DegreeError("frame elements must be one-forms")
            basis.insert(f)
        if len(basis) != n:
            raise ValueError(f"frame spans only {len(basis)} of {n} dimensions")
        if len(frame) != n:
            raise ValueError(f"frame has {len(frame)} one-forms for {n} dimensions")
        self.frame = basis
        # Each entry's symbol as its linear monomial, the key of its echelon row.
        symbol = manifold.session.symbol
        self._gamma = {
            idx: ((symbol(name), 1),)
            for idx, name in zip(_triples(n, antisymmetric), _symbol_names(prefix, n, antisymmetric))
        }
        self._echelon = Echelon.over(key[0][0] for key in self._gamma.values())

    @classmethod
    def torsion_free(cls, manifold, frame=None, prefix="Gamma"):
        """A generic connection constrained to have zero torsion.

        Solves the structure equations df^k + sum_j omega_jk ∧ f^j = 0
        for the connection symbols; the leftover symbols stay free.
        """
        conn = cls(manifold, frame, prefix)
        conn.declare_zero(conn.torsion())
        return conn

    # -- constant tables ------------------------------------------------------

    @functools.cached_property
    def _frame_terms(self):
        """Row k-1: the (monomial, constant) terms of f^k."""
        return [_constant_terms(f) for f in self.frame]

    @functools.cached_property
    def _coframe_columns(self):
        """The dual frame by generator: (g,) -> [(k, mu)], k ascending, e^g = sum_k mu f^k."""
        out = {}
        for k, dual in enumerate(self.frame.dual_basis(), 1):
            for m, mu in _constant_terms(dual):
                out.setdefault(m, []).append((k, mu))
        return out

    @functools.cached_property
    def _wedges(self):
        """[(i, j, terms of f^i ∧ f^j)] for i < j; f^j ∧ f^i is its negative."""
        frame = list(self.frame)
        return [
            (i, j, _constant_terms(wedge(frame[i - 1], frame[j - 1])))
            for i in range(1, len(frame) + 1)
            for j in range(i + 1, len(frame) + 1)
        ]

    # -- symbol bookkeeping -------------------------------------------------

    def _check_indices(self, *idx):
        """Raise FrameIndexError unless every index lies in 1..n, TypeError for a non-integer."""
        for i in idx:
            _index(i, 1, self.manifold.dim, "connection index")

    def _terms(self, i, j, k):
        """(terms, sign) with Gamma_ijk = sign * Poly(terms); empty terms for a zero entry."""
        sign = 1
        if self.antisymmetric:
            if j == k:
                return {}, 1
            if j > k:
                j, k, sign = k, j, -1
        key = self._gamma[(i, j, k)]
        row = self._echelon.rows.get(key)
        # A solved symbol's row is minus its value, uncopied: callers only read it.
        return ({key: _ONE}, sign) if row is None else (row, -sign)

    def gamma(self, i, j, k) -> Poly:
        """<nabla_{f_i} f_j, f^k>: minus the symbol's echelon row once solved, else the symbol."""
        self._check_indices(i, j, k)
        terms, sign = self._terms(i, j, k)
        return Poly(terms) if sign > 0 else -Poly(terms)

    def free_parameters(self):
        """The connection's own symbols not yet fixed by declarations."""
        return self._echelon.free()

    def connection_form(self, j, k) -> Form:
        """The one-form omega_jk = sum_i Gamma_ijk f^i."""
        self._check_indices(j, k)
        out = {}
        for i, f in enumerate(self._frame_terms, 1):
            terms, sign = self._terms(i, j, k)
            if terms:
                for m, a in f:
                    _add_scaled(out.setdefault(m, {}), terms, a if sign > 0 else -a)
        return Form(self.manifold, _polys(out))

    def _components(self, X):
        """[(i, terms of X^i)] for the nonzero components X^i = <X, f^i> of a vector."""
        X = as_form(self.manifold, X)
        if X and not X.is_homogeneous(1):
            raise DegreeError("vector arguments must be degree-1 forms")
        xt = X.terms
        out = []
        for i, f in enumerate(self._frame_terms, 1):
            acc = {}
            for m, b in f:
                p = xt.get(m)
                if p is not None:
                    _add_scaled(acc, p.terms, b)
            if acc:
                out.append((i, acc))
        return out

    def _omega_at(self, X):
        """omega(X) as a function (j, k) -> the terms of omega_jk(X) = sum_i Gamma_ijk X^i.

        An entry is computed when first asked for, so each covariant
        derivative reads only the symbols of the entries it uses.  For X
        a frame vector f_i the entry is Gamma_ijk's own terms, uncopied
        unless negated; callers only read them.
        """
        support = self._components(X)
        if len(support) == 1 and support[0][1] == {(): _ONE}:
            i = support[0][0]

            @functools.cache
            def frame_entry(j, k):
                terms, sign = self._terms(i, j, k)
                return terms if sign > 0 else {m: -c for m, c in terms.items()}

            return frame_entry

        @functools.cache
        def entry(j, k):
            out = {}
            for i, x in support:
                terms, sign = self._terms(i, j, k)
                if terms:
                    for xm, xc in x.items():
                        _add_scaled(out, terms, xc if sign > 0 else -xc, xm)
            return out

        return entry

    # -- covariant derivatives ----------------------------------------------

    def nabla_vector(self, X, T) -> Form:
        """nabla_X T = sum_{j,k} T^j omega_jk(X) f_k, over the nonzero T^j."""
        omega = self._omega_at(X)
        out = {}
        for j, t in self._components(T):
            for m, column in self._coframe_columns.items():
                for k, b in column:
                    c = omega(j, k)
                    if c:
                        for tm, tc in t.items():
                            _add_scaled(out.setdefault(m, {}), c, tc * b, tm)
        return Form(self.manifold, _polys(out))

    def nabla_form(self, X, w) -> Form:
        """nabla_X w: nabla_X f^k = -sum_j omega_jk(X) f^j, extended as an even derivation."""
        omega = self._omega_at(X)
        frame = self._frame_terms
        columns = self._coframe_columns

        def image(g):
            # e^g = sum_k mu f^k, so only the columns k with mu != 0 are read.
            out = {}
            for k, mu in columns.get((g,), ()):
                for j, f in enumerate(frame, 1):
                    c = omega(j, k)
                    if c:
                        for m, a in f:
                            _add_scaled(out.setdefault(m, {}), c, -(mu * a))
            return Form(self.manifold, _polys(out))

        return _leibniz(as_form(self.manifold, w), image, odd=False)

    def nabla_spinor(self, X, psi: Spinor) -> Spinor:
        """Spinor covariant derivative (metric connections only).

        (1/4) sum_{j,k} omega_jk(X) g_j g_k psi collapses to
        (1/2) sum_{j<k} by the antisymmetry of both factors.
        """
        table = self._clifford()
        table.check(psi)
        omega = self._omega_at(X)
        half = [(u, pm, pc * _HALF) for u, p in psi.terms.items() for pm, pc in p.terms.items()]
        out = {}
        for j, k, perm in table.pair_products:
            c = omega(j, k)
            if c:
                for u, pm, pc in half:
                    row, phase = perm[u]
                    _add_scaled(out.setdefault(row, {}), c, phase * pc, pm)
        return Spinor(table.spinor_dim, _polys(out))

    def _clifford(self):
        if not self.antisymmetric:
            raise UnsupportedKindError("spinor derivatives need a metric connection")
        table = getattr(self.manifold, "clifford", None)
        if table is None:
            raise UnsupportedKindError("the underlying manifold carries no spinor module")
        return table

    # -- declarations ---------------------------------------------------------

    def _declare(self, polys):
        """Add the real and imaginary parts of polys to the echelon.

        The rows are added to a copy that replaces the echelon only once
        every part proved linear and consistent, so a failed declaration
        leaves the connection unchanged.
        """
        ech = self._echelon.copy()
        ech.impose_linear([part for p in polys for part in p.real_imag() if part])
        self._echelon = ech

    def declare_nabla_vector(self, X, T, value):
        self.declare_zero([self.nabla_vector(X, T) - value])

    def declare_nabla_form(self, X, w, value):
        self.declare_zero([self.nabla_form(X, w) - value])

    def declare_nabla_spinor(self, X, psi, value):
        if not isinstance(value, Spinor):
            if value != 0:
                raise TypeError("spinor declaration needs a Spinor or 0 value")
            value = Spinor.zero(psi.dim)
        self.declare_zero([self.nabla_spinor(X, psi) - value])

    def declare_zero(self, exprs):
        """Force a family of expressions to vanish identically."""
        polys = []
        for x in exprs:
            if isinstance(x, (Form, Spinor)):
                polys.extend(c for _, c in x.coefficients())
            else:
                polys.append(as_poly(x))
        self._declare(polys)

    # -- torsion and curvature -------------------------------------------------

    def _add_wedges(self, out, k, sign):
        """Add sign * sum_{i,j} Gamma_ijk f^i ∧ f^j to the flat sum out.

        By f^j ∧ f^i = -f^i ∧ f^j this is sum_{i<j} (Gamma_ijk - Gamma_jik) f^i ∧ f^j.
        """
        for i, j, product in self._wedges:
            for a, (terms, s) in ((sign, self._terms(i, j, k)), (-sign, self._terms(j, i, k))):
                if terms:
                    for m, b in product:
                        _add_scaled(out.setdefault(m, {}), terms, b if a * s > 0 else -b)

    def torsion(self):
        """Cartan's first structure equation: Theta^k = df^k + sum_{i,j} Gamma_ijk f^i ∧ f^j.

        The sum is sum_j omega_jk ∧ f^j.  Zero exactly when the structure
        equations hold; the orientation matches the classical tensor
        nabla_X Y − nabla_Y X − [X,Y] read through the evaluation
        convention of lie_bracket.
        """
        out = []
        for k, f in enumerate(self.frame, 1):
            theta = {m: dict(p.terms) for m, p in self.manifold.d(f).terms.items()}
            self._add_wedges(theta, k, 1)
            out.append(Form(self.manifold, _polys(theta)))
        return out

    def curvature(self):
        """Second structure equation: Omega_jk = d omega_jk - sum_l omega_jl ∧ omega_lk."""
        n = self.manifold.dim
        omega = [[self.connection_form(j, k) for k in range(1, n + 1)] for j in range(1, n + 1)]
        return [
            [sum((-wedge(a, omega[l][k]) for l, a in enumerate(row)), self.manifold.d(w))
             for k, w in enumerate(row)]
            for row in omega
        ]


class RiemannianManifold(FrameManifold):
    """A generic framed Riemannian manifold whose d comes from its connection.

    There is no d-table: de^k = -sum_j omega_jk ∧ e^j is the torsion-free
    structure equation of the built-in metric connection, whose symbols
    are antisymmetric in the last two indices (orthonormal frame).  The
    Lie bracket is nabla_X Y − nabla_Y X, and spinors are available
    through the manifold's Clifford table.
    """

    def __init__(self, session: Session, dim: int, prefix="Gamma"):
        super().__init__(session, dim)
        self.clifford = build_clifford_table(dim)
        self.connection = Connection(self, prefix=prefix, antisymmetric=True)

    def _d_generator(self, k):
        # The connection's frame is e^1..e^n, so its f^i ∧ f^j are the e^i ∧ e^j.
        out = {}
        self.connection._add_wedges(out, k, -1)
        return Form(self, _polys(out))

    def declare_d(self, gen, value):
        """Impose a d-value as constraints on the connection symbols."""
        self.impose_d(self.e(self._gen_index(gen)), value)

    def impose_d(self, w, value):
        delta = self.d(w) - as_form(self, value)
        self.connection.declare_zero([delta])

    def declare_zero(self, exprs):
        self.connection.declare_zero(exprs)

    def declare_nabla_spinor(self, X, psi, value):
        self.connection.declare_nabla_spinor(X, psi, value)

    def lie_bracket(self, X: Form, Y: Form) -> Form:
        return self.connection.nabla_vector(X, Y) - self.connection.nabla_vector(Y, X)

    def u(self, k) -> Spinor:
        """The k-th basis spinor u_k."""
        return Spinor.basis(self.clifford.spinor_dim, k)

    def clifford_mul(self, v: Form, psi: Spinor) -> Spinor:
        return clifford_mul(self.clifford, as_form(self, v), psi)
