"""Connections on a framed manifold with declaratively constrained parameters.

A Connection owns a table of symbols G_ijk = <nabla_{e_i} e_j, e^k> (one
symbol per triple in the generic case, an antisymmetric pattern in j,k
for metric connections in an orthonormal frame).  Constraints are never
assigned directly: declare_* methods turn nabla expressions into scalar
equations and add them to one persistent reduced echelon form over the
connection's own symbols.  Its pivot rows give the substitution that
expresses each solved symbol through the free ones.  Foreign symbols
(another connection's parameters) ride along as parameters.

Scalar equations are split into real and imaginary parts before
solving: the symbolic parameters stand for real-valued functions, and
keeping the split inside the declaration layer is what makes the
parallel-spinor conditions cut out the real solution set.

RiemannianManifold is the frame-generic mode: a manifold without a
d-table whose d operator, Lie bracket, and spinor module all come from
its built-in metric (Levi-Civita style) connection.
"""

from __future__ import annotations

from fractions import Fraction

from .basis import FormBasis
from .errors import DegreeError, InconsistentError, UnsupportedKindError
from .exterior import Form, pairing, wedge
from .manifold import FrameManifold
from .scalar import Echelon, Poly, Session, as_poly
from .spinors import Spinor, build_clifford_table, clifford_mul

__all__ = ["Connection", "RiemannianManifold"]


class Connection:
    """A connection in a frame, parametrized by Christoffel symbols."""

    def __init__(self, manifold, frame=None, prefix="Gamma", *, antisymmetric=False):
        self.manifold = manifold
        self.prefix = prefix
        self.antisymmetric = antisymmetric
        n = manifold.dim
        if frame is None:
            frame = manifold.generators()
        else:
            frame = list(frame)
        basis = FormBasis(manifold)
        for f in frame:
            if not f.is_homogeneous(1):
                raise DegreeError("frame elements must be one-forms")
            basis.insert(f)
        if len(basis) != n:
            raise ValueError(f"frame spans only {len(basis)} of {n} dimensions")
        self.frame = basis
        session = manifold.session
        self._gamma = {}
        self._symbols = []
        if antisymmetric:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for k in range(j + 1, n + 1):
                        s = session.symbol(f"{prefix}{i}{j}{k}")
                        self._gamma[(i, j, k)] = s
                        self._symbols.append(s)
        else:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for k in range(1, n + 1):
                        s = session.symbol(f"{prefix}{i}{j}{k}")
                        self._gamma[(i, j, k)] = s
                        self._symbols.append(s)
        self._own = set(self._symbols)
        # Only the linear monomials of the own symbols may pivot.
        position = {((s, 1),): s.index for s in self._symbols}
        self._echelon = Echelon(position.get)
        self._subs = {}

    @classmethod
    def torsion_free(cls, manifold, frame=None, prefix="Gamma"):
        """A generic connection constrained to have zero torsion.

        Solves the structure equations sum_i e^i ∧ nabla_{e_i} e^j = de^j
        for the connection symbols; the leftover symbols stay free.
        """
        conn = cls(manifold, frame, prefix)
        eqs = []
        for theta in conn.torsion():
            eqs.extend(c for _, c in theta.coefficients())
        conn._declare(eqs)
        return conn

    # -- symbol bookkeeping -------------------------------------------------

    def gamma(self, i, j, k) -> Poly:
        """The (substituted) symbol <nabla_{e_i} e_j, e^k>."""
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
        """The one-form omega_jk = sum_i Gamma_ijk e^i."""
        out = Form.zero(self.manifold)
        for i in range(1, self.manifold.dim + 1):
            g = self.gamma(i, j, k)
            if g:
                out = out + self.frame[i - 1] * g
        return out

    def _duals(self):
        return self.frame.dual_basis()

    def _vector_components(self, X: Form):
        """Components of a vector (degree-1 form) along the frame vectors."""
        if X and not X.is_homogeneous(1):
            raise DegreeError("vector arguments must be degree-1 forms")
        return [pairing(X, f) for f in self.frame]

    # -- covariant derivatives ----------------------------------------------

    def nabla_vector(self, X: Form, T: Form) -> Form:
        """nabla_X T for vectors: nabla_{e_i} e_j = sum_k Gamma_ijk e_k."""
        xi = self._vector_components(X)
        tau = self._vector_components(T)
        duals = self._duals()
        n = self.manifold.dim
        out = Form.zero(self.manifold)
        for i in range(n):
            if not xi[i]:
                continue
            for j in range(n):
                if not tau[j]:
                    continue
                coeff = xi[i] * tau[j]
                for k in range(n):
                    g = self.gamma(i + 1, j + 1, k + 1)
                    if g:
                        out = out + duals[k] * (coeff * g)
        return out

    def _nabla_generator_form(self, i, g):
        """nabla along the i-th frame vector of the generator one-form e^g."""
        mu = self.frame.components(self.manifold.e(g))
        out = Form.zero(self.manifold)
        for k in range(self.manifold.dim):
            if not mu[k]:
                continue
            for j in range(self.manifold.dim):
                gam = self.gamma(i + 1, j + 1, k + 1)
                if gam:
                    out = out - self.frame[j] * (mu[k] * gam)
        return out

    def nabla_form(self, X: Form, w: Form) -> Form:
        """nabla_X of a form, as a derivation over the wedge product."""
        xi = self._vector_components(X)
        one = Poly.constant(1)
        out = Form.zero(self.manifold)
        for i, x_comp in enumerate(xi):
            if not x_comp:
                continue
            ngen = {}
            for mono, c in w.terms.items():
                for pos, g in enumerate(mono):
                    rep = ngen.get(g)
                    if rep is None:
                        rep = self._nabla_generator_form(i, g)
                        ngen[g] = rep
                    if not rep:
                        continue
                    prefix = Form(self.manifold, {mono[:pos]: one})
                    suffix = Form(self.manifold, {mono[pos + 1 :]: one})
                    term = wedge(wedge(prefix, rep), suffix)
                    out = out + term * (c * x_comp)
        return out

    def nabla_spinor(self, X: Form, psi: Spinor) -> Spinor:
        """Spinor covariant derivative (metric connections only).

        (1/4) sum_{j,k} Gamma_ijk g_j g_k psi collapses to
        (1/2) sum_{j<k} by the antisymmetry of both factors.
        """
        table = self._clifford()
        xi = self._vector_components(X)
        n = self.manifold.dim
        out = Spinor.zero(table.spinor_dim)
        for i in range(n):
            if not xi[i]:
                continue
            for j in range(1, n + 1):
                for k in range(j + 1, n + 1):
                    g = self.gamma(i + 1, j, k)
                    if not g:
                        continue
                    acted = table.apply(j, table.apply(k, psi))
                    out = out + acted * (g * xi[i] * Fraction(1, 2))
        return out

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

        Every part is checked for linearity before any is reduced, and
        the rows are added to a copy that replaces the echelon only once
        every part proved consistent, so a failed declaration leaves the
        connection unchanged.
        """
        parts = [part for p in polys for part in p.real_imag() if part]
        for part in parts:
            part.linear_split(self._own)
        ech = self._echelon.copy()
        for part in parts:
            red = ech.reduce(part.terms)
            if red and ech.insert(red) is None:
                raise InconsistentError(f"equation reduces to {Poly(red)} = 0")
        if len(ech.rows) == len(self._echelon.rows):
            return
        self._echelon = ech
        self._subs = ech.solved()

    @staticmethod
    def _form_equations(delta: Form):
        return [c for _, c in delta.coefficients()]

    def declare_nabla_vector(self, X, T, value):
        value = value if isinstance(value, Form) else Form.scalar(self.manifold, value)
        delta = self.nabla_vector(X, T) - value
        self._declare(self._form_equations(delta))

    def declare_nabla_form(self, X, w, value):
        value = value if isinstance(value, Form) else Form.scalar(self.manifold, value)
        delta = self.nabla_form(X, w) - value
        self._declare(self._form_equations(delta))

    def declare_nabla_spinor(self, X, psi, value):
        if not isinstance(value, Spinor):
            if value != 0:
                raise TypeError("spinor declaration needs a Spinor or 0 value")
            value = Spinor.zero(psi.dim)
        delta = self.nabla_spinor(X, psi) - value
        self._declare([c for _, c in delta.coefficients()])

    def declare_zero(self, exprs):
        """Force a family of expressions to vanish identically."""
        polys = []
        for x in exprs:
            if isinstance(x, Form):
                polys.extend(c for _, c in x.coefficients())
            elif isinstance(x, Spinor):
                polys.extend(c for _, c in x.coefficients())
            else:
                polys.append(as_poly(x))
        self._declare(polys)

    # -- torsion and curvature -------------------------------------------------

    def torsion(self):
        """The frame-indexed torsion 2-forms de^j − sum_i e^i ∧ nabla_{e_i} e^j.

        Zero exactly when the structure equations hold; the orientation
        matches the classical tensor nabla_X Y − nabla_Y X − [X,Y] read
        through the evaluation convention of lie_bracket.
        """
        duals = self._duals()
        out = []
        for j in range(self.manifold.dim):
            theta = self.manifold.d(self.frame[j])
            for i in range(self.manifold.dim):
                theta = theta - wedge(self.frame[i], self.nabla_form(duals[i], self.frame[j]))
            out.append(theta)
        return out

    def curvature(self):
        """Curvature 2-forms Omega_jk = d(omega_jk) + sum_l omega_jl ∧ omega_lk."""
        n = self.manifold.dim
        omega = [[self.connection_form(j, k) for k in range(1, n + 1)] for j in range(1, n + 1)]
        out = []
        for j in range(n):
            row = []
            for k in range(n):
                w = self.manifold.d(omega[j][k])
                for l in range(n):
                    w = w + wedge(omega[j][l], omega[l][k])
                row.append(w)
            out.append(row)
        return out


class RiemannianManifold(FrameManifold):
    """A generic framed Riemannian manifold whose d comes from its connection.

    There is no d-table: de^j is computed as sum_i e^i ∧ nabla_{e_i} e^j
    from the built-in metric connection, whose symbols are antisymmetric
    in the last two indices (orthonormal frame).  The Lie bracket is
    nabla_X Y − nabla_Y X, and spinors are available through the
    manifold's Clifford table.
    """

    def __init__(self, session: Session, dim: int, prefix="Gamma"):
        super().__init__(session, dim)
        self.clifford = build_clifford_table(dim)
        self.connection = Connection(self, prefix=prefix, antisymmetric=True)

    def _d_generator(self, i):
        conn = self.connection
        out = Form.zero(self)
        for a in range(1, self.dim + 1):
            for j in range(1, self.dim + 1):
                g = conn.gamma(a, j, i)
                if g:
                    out = out - wedge(self.e(a), self.e(j)) * g
        return out

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
