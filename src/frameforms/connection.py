"""Connections on a framed manifold with declaratively constrained parameters.

A Connection owns a table of symbols G_ijk = <nabla_{f_i} f_j, f^k> for
a frame f^1..f^n of one-forms and its dual vectors f_1..f_n (one symbol
per triple in the generic case, an antisymmetric pattern in j,k for
metric connections in an orthonormal frame).  Everything else is read
off the matrix of connection one-forms omega_jk = sum_i G_ijk f^i
(Kobayashi-Nomizu, Foundations I, ch. III):

- covariant derivatives evaluate omega_jk(X) = sum_i G_ijk X^i, only
  at the entries they use, and act with it: nabla_X f_j = sum_k
  omega_jk(X) f_k on vectors, nabla_X f^k = -sum_j omega_jk(X) f^j on
  one-forms, extended to every form by the Leibniz loop that d uses
  too, and (1/2) sum_{j<k} omega_jk(X) g_j g_k on spinors;
- torsion and curvature are Cartan's structure equations,
  Theta^k = df^k + sum_j omega_jk ∧ f^j and
  Omega_jk = d omega_jk + sum_l omega_jl ∧ omega_lk.

Constraints are never assigned directly: declare_* methods turn nabla
expressions into scalar equations and add them to one persistent
reduced echelon form over the connection's own symbols.  Its pivot rows
give the substitution that expresses each solved symbol through the
free ones.  Foreign symbols (another connection's parameters) ride
along as parameters.

Scalar equations are split into real and imaginary parts before
solving: the symbolic parameters stand for real-valued functions, and
keeping the split inside the declaration layer is what makes the
parallel-spinor conditions cut out the real solution set.

RiemannianManifold is the frame-generic mode: a manifold without a
d-table whose d operator, Lie bracket, and spinor module all come from
its built-in metric (Levi-Civita style) connection; its d is the
torsion-free structure equation de^k = -sum_j omega_jk ∧ e^j.
"""

from __future__ import annotations

import functools

from .basis import FormBasis
from .errors import DegreeError, UnsupportedKindError
from .exterior import Form, _leibniz, pairing, wedge
from .manifold import FrameManifold
from .scalar import Echelon, GaussianRational, Poly, Session, accumulate, as_poly
from .spinors import Spinor, build_clifford_table, clifford_mul

__all__ = ["Connection", "RiemannianManifold"]

_HALF = GaussianRational(1) / 2


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
        self.frame = basis
        self._gamma = {
            (i, j, k): manifold.session.symbol(f"{prefix}{i}{j}{k}")
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            for k in range(j + 1 if antisymmetric else 1, n + 1)
        }
        self._symbols = list(self._gamma.values())
        self._own = set(self._symbols)
        self._echelon = Echelon.over(self._symbols)
        self._subs = {}

    @classmethod
    def torsion_free(cls, manifold, frame=None, prefix="Gamma"):
        """A generic connection constrained to have zero torsion.

        Solves the structure equations df^k + sum_j omega_jk ∧ f^j = 0
        for the connection symbols; the leftover symbols stay free.
        """
        conn = cls(manifold, frame, prefix)
        conn.declare_zero(conn.torsion())
        return conn

    # -- symbol bookkeeping -------------------------------------------------

    def gamma(self, i, j, k) -> Poly:
        """The (substituted) symbol <nabla_{f_i} f_j, f^k>."""
        sign = 1
        if self.antisymmetric:
            if j == k:
                return Poly.zero()
            if j > k:
                j, k, sign = k, j, -1
        s = self._gamma[(i, j, k)]
        value = self._subs.get(s)
        if value is None:
            value = Poly.from_symbol(s)
        return value if sign > 0 else -value

    def free_parameters(self):
        """The connection's own symbols not yet fixed by declarations."""
        return [s for s in self._symbols if s not in self._subs]

    def connection_form(self, j, k) -> Form:
        """The one-form omega_jk = sum_i Gamma_ijk f^i."""
        out = {}
        for i, f in enumerate(self.frame, 1):
            accumulate(out, (f * self.gamma(i, j, k)).terms.items())
        return Form(self.manifold, out)

    def _connection_matrix(self):
        """All the omega_jk, as a 0-based n x n list of rows."""
        n = self.manifold.dim
        return [[self.connection_form(j, k) for k in range(1, n + 1)] for j in range(1, n + 1)]

    def _vector_components(self, X: Form):
        """Components of a vector (degree-1 form) along the frame vectors."""
        if X and not X.is_homogeneous(1):
            raise DegreeError("vector arguments must be degree-1 forms")
        return [pairing(X, f) for f in self.frame]

    def _omega_at(self, X: Form):
        """omega(X) as a function (j, k) -> omega_jk(X) = sum_i Gamma_ijk X^i.

        An entry is computed when first asked for, so each covariant
        derivative reads only the symbols of the entries it uses.
        """
        support = [(i, x) for i, x in enumerate(self._vector_components(X), 1) if x]

        @functools.cache
        def entry(j, k):
            return sum((self.gamma(i, j, k) * x for i, x in support), Poly.zero())

        return entry

    # -- covariant derivatives ----------------------------------------------

    def nabla_vector(self, X: Form, T: Form) -> Form:
        """nabla_X T = sum_k (sum_j T^j omega_jk(X)) f_k, over the rows j with T^j != 0."""
        omega = self._omega_at(X)
        tau = [(j, t) for j, t in enumerate(self._vector_components(T), 1) if t]
        out = {}
        for k, f in enumerate(self.frame.dual_basis(), 1):
            c = sum((t * omega(j, k) for j, t in tau), Poly.zero())
            if c:
                accumulate(out, ((m, b * c) for m, b in f.terms.items()))
        return Form(self.manifold, out)

    def nabla_form(self, X: Form, w: Form) -> Form:
        """nabla_X w: nabla_X f^k = -sum_j omega_jk(X) f^j, extended as an even derivation."""
        omega = self._omega_at(X)

        def image(g):
            # Only the columns k of e^g's nonzero frame components are read.
            out = {}
            for k, mu in enumerate(self.frame.components(self.manifold.e(g)), 1):
                if mu:
                    for j, f in enumerate(self.frame, 1):
                        c = omega(j, k)
                        if c:
                            c = -(mu * c)
                            accumulate(out, ((m, b * c) for m, b in f.terms.items()))
            return Form(self.manifold, out)

        return _leibniz(w, image, odd=False)

    def nabla_spinor(self, X: Form, psi: Spinor) -> Spinor:
        """Spinor covariant derivative (metric connections only).

        (1/4) sum_{j,k} omega_jk(X) g_j g_k psi collapses to
        (1/2) sum_{j<k} by the antisymmetry of both factors.
        """
        table = self._clifford()
        omega = self._omega_at(X)
        n = self.manifold.dim
        out = {}
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                c = omega(j, k)
                if c:
                    c = c * _HALF
                    acted = table.apply(j, table.apply(k, psi))
                    accumulate(out, ((u, a * c) for u, a in acted.terms.items()))
        return Spinor(table.spinor_dim, out)

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
        ech.impose_linear([part for p in polys for part in p.real_imag() if part], self._own)
        if len(ech.rows) == len(self._echelon.rows):
            return
        self._echelon = ech
        self._subs = ech.solved()

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

    def torsion(self):
        """Cartan's first structure equation: Theta^k = df^k + sum_j omega_jk ∧ f^j.

        Zero exactly when the structure equations hold; the orientation
        matches the classical tensor nabla_X Y − nabla_Y X − [X,Y] read
        through the evaluation convention of lie_bracket.
        """
        omega = self._connection_matrix()
        return [
            sum((wedge(omega[j][k], fj) for j, fj in enumerate(self.frame)), self.manifold.d(fk))
            for k, fk in enumerate(self.frame)
        ]

    def curvature(self):
        """Second structure equation: Omega_jk = d omega_jk + sum_l omega_jl ∧ omega_lk."""
        omega = self._connection_matrix()
        return [
            [sum((wedge(a, omega[l][k]) for l, a in enumerate(row)), self.manifold.d(w))
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
        # -omega_jk ∧ e^j = e^j ∧ omega_jk, as both are one-forms.
        out = {}
        for j in range(1, self.dim + 1):
            accumulate(out, wedge(self.e(j), self.connection.connection_form(j, k)).terms.items())
        return Form(self, out)

    def declare_d(self, gen, value):
        """Impose a d-value as constraints on the connection symbols."""
        self.impose_d(self.e(self._gen_index(gen)), value)

    def impose_d(self, w, value):
        value = value if isinstance(value, Form) else Form.scalar(self, value)
        delta = self.d(w) - value
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
        return clifford_mul(self.clifford, v, psi)
