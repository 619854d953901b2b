"""Linear exterior differential systems on the frame bundle.

The bundle over an n-manifold is modeled as a parallelizable manifold
of dimension n(n+1): generators 1..n are the tautological one-forms
theta^i, generator i*n+j is the connection form omega_ij, and the only
structure equations are d theta^i = sum_j theta^j ∧ omega_ij (the omega
generators are never differentiated).

On an integral n-plane each omega generator a is sum_j p_aj theta^j, so
a linear term c theta^I ∧ omega_a adds ±c p_aj to the equation of
theta^(I+j) for each j not in I: V_n is cut out by this constant map on
the index pairs (a, j), the tableau.  Reduced polar equations contract
ideal generators with flag vectors down to degree one, modulo the
theta's; Cartan's test grows one basis of them along the flag and
compares its ranks c_0..c_{n-1} with the codimension of V_n.

On a linear generator the polar equations are read from the same
tableau: contracting theta^I ∧ omega_a by the flag vectors whose set is
I leaves ±omega_a, so each equation is sum ±c omega_a over the terms
with one theta set, the sign the parity of the contraction order.
cartan_test takes them from there; reduced_polar_equations contracts
general forms with hook.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations

from .basis import AffineBasis, FormBasis
from .errors import (
    DimensionError,
    FileFormatError,
    FormParseError,
    FrameIndexError,
    NonLinearError,
    NotLinearError,
)
from .exterior import Form, _mono_key, degree, hook, parse_form
from .manifold import FrameManifold
from .scalar import Poly, Session

__all__ = [
    "FrameBundle",
    "frame_bundle",
    "is_linear",
    "equations_for_Vn",
    "reduced_polar_equations",
    "cartan_test",
    "CartanReport",
    "load_ideal",
]


class FrameBundle:
    """The frame-bundle manifold of an n-dimensional base, plus Grassmannian symbols."""

    def __init__(self, session: Session, n: int):
        if not 1 <= n <= 9:
            raise DimensionError(f"base dimension must be in 1..9, got {n}")
        self.session = session
        self.n = n
        self.manifold = FrameManifold(session, n * (n + 1))
        for i in range(1, n + 1):
            x = self.manifold.zero()
            for j in range(1, n + 1):
                x = x + self.manifold.e(j) * self.manifold.e(i * n + j)
            self.manifold.declare_d(i, x)
        self.p = {}
        for i in range(n + 1, n * (n + 1) + 1):
            for j in range(1, n + 1):
                self.p[(i, j)] = session.symbol(f"p{i}{j}")

    def theta(self, i: int) -> Form:
        if not 1 <= i <= self.n:
            raise FrameIndexError(f"theta index {i} outside 1..{self.n}")
        return self.manifold.e(i)

    def omega(self, i: int, j: int) -> Form:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise FrameIndexError(f"omega index ({i}, {j}) outside 1..{self.n}")
        return self.manifold.e(i * self.n + j)

    def d(self, w: Form) -> Form:
        return self.manifold.d(w)

    def parse(self, text: str) -> Form:
        return parse_form(self.manifold, text)

    def modulo_ic(self, w: Form) -> Form:
        """Project modulo the independence forms: drop every term with a theta factor."""
        n = self.n
        return Form(w.manifold, {m: c for m, c in w.terms.items() if not m or m[0] > n})


def frame_bundle(session: Session, n: int) -> FrameBundle:
    return FrameBundle(session, n)


def is_linear(bundle: FrameBundle, ideal) -> bool:
    """True when every monomial of every generator has exactly one omega factor."""
    return all(sum(g > bundle.n for g in mono) == 1 for form in ideal for mono in form.terms)


def _tableau(bundle: FrameBundle, form: Form):
    """The terms c theta^I ∧ omega_a of a form, as (I, a, c) with c a constant Poly.

    Raises equations_for_Vn's NonLinearError for any other term.
    """
    n = bundle.n
    rows = []
    for mono, c in form.terms.items():
        if sum(g > n for g in mono) != 1 or not c.is_constant():
            term = Form(bundle.manifold, {mono: c})
            raise NonLinearError(f"{term} is not linear in the connection forms")
        rows.append((mono[:-1], mono[-1], c))
    return rows


def equations_for_Vn(bundle: FrameBundle, ideal) -> AffineBasis:
    """Equations cutting out the integral n-planes, as an affine equation set.

    Each generator's tableau rows (see the module docstring) are inserted
    in monomial order; the size is the codimension of V_n.  The sign of
    theta^I ∧ theta^j = ±theta^(I+j) is -1 to the number of indices of I
    above j.  A term c theta^I ∧ omega_a is the only one that gives the
    row of I+j its p_aj entry, so entries are stored, never summed.
    Raises NonLinearError for a term without exactly one omega factor or
    with a symbolic coefficient.
    """
    container = AffineBasis()
    p = bundle.p
    for form in ideal:
        rows = {}
        for theta, a, c in _tableau(bundle, form):
            value = c.constant_value()
            signed = (value, -value)
            k = len(theta)
            for j in range(1, bundle.n + 1):
                pos = bisect_left(theta, j)
                if pos < k and theta[pos] == j:
                    continue
                merged = theta[:pos] + (j,) + theta[pos:]
                rows.setdefault(merged, {})[((p[(a, j)], 1),)] = signed[(k - pos) % 2]
        for merged in sorted(rows, key=_mono_key):
            container.insert(Poly(rows[merged]))
    return container


def _flag_order(bundle: FrameBundle, order):
    """The flag as a list: the identity for None, else a checked permutation of 1..n."""
    order = list(range(1, bundle.n + 1)) if order is None else list(order)
    if sorted(order) != list(range(1, bundle.n + 1)):
        raise DimensionError(f"flag order must be a permutation of 1..{bundle.n}")
    return order


def _new_polar_equations(bundle: FrameBundle, form: Form, j: int, order):
    """The reduced polar equations of `form` at j that use the j-th flag vector."""
    if j > 0 and degree(form) > 1:
        contracted = hook(bundle.theta(order[j - 1]), form)
        return reduced_polar_equations(bundle, contracted, j - 1, order)
    return [bundle.modulo_ic(form)] if j == 0 and degree(form) == 1 else []


def reduced_polar_equations(bundle: FrameBundle, form: Form, j: int, order=None):
    """All contractions of `form` by flag vectors theta_1..theta_j, reduced.

    It is the list at j - 1 followed by those that contract the j-th flag
    vector first; a contraction is kept, modulo the theta's, at degree one.
    """
    if not 0 <= j <= bundle.n:
        raise DimensionError(f"flag length {j} outside 0..{bundle.n}")
    order = _flag_order(bundle, order)
    return [eq for jj in range(j + 1) for eq in _new_polar_equations(bundle, form, jj, order)]


def _tableau_polar_equations(bundle: FrameBundle, form: Form, order):
    """_new_polar_equations of a linear form at each j = 0..n-1, read from its tableau.

    A theta-degree-0 form is its own equation at j = 0.  A form of
    theta-degree k >= 1 has at step j one equation for each choice of
    flag positions j - 1 = q_1 > q_2 > ... > q_k >= 0, in lexicographic
    order of (q_2, ..., q_k): its terms c theta^I ∧ omega_a with theta
    set {order[q]} give sum ±c omega_a.  The sign is that of hooking
    theta_order[q_1], theta_order[q_2], ... out of theta^I in turn, the
    parity of that sequence.  Raises MixedDegreeError as degree() does.
    """
    k = degree(form) - 1
    steps = [[] for _ in range(bundle.n)]
    if k == 0:
        steps[0].append(form)
    if k < 1:
        return steps
    groups = {}
    for theta, a, c in _tableau(bundle, form):
        groups.setdefault(theta, []).append((a, c))
    for j in range(1, bundle.n):
        for rest in sorted(q[::-1] for q in combinations(range(j - 1), k - 1)):
            seq = [order[q] for q in (j - 1, *rest)]
            terms = groups.get(tuple(sorted(seq)))
            if terms:
                odd = sum(t < s for s, t in combinations(seq, 2)) % 2
                eq = {(a,): -c if odd else c for a, c in terms}
                steps[j].append(Form(bundle.manifold, eq))
    return steps


@dataclass(frozen=True)
class CartanReport:
    """Polar ranks, codimension and verdict, with the equations behind them.

    vn_equations are the retained equations of V_n; polar[j] the
    retained polar equations at j in insertion order, a prefix of
    polar[j + 1].  Equality and hashing look at (c, codim, involutive) only.
    """

    c: tuple
    codim: int
    involutive: bool
    vn_equations: tuple = field(default=(), compare=False)
    polar: tuple = field(default=(), compare=False)


def cartan_test(bundle: FrameBundle, ideal, flag_order=None) -> CartanReport:
    """Cartan's involutivity test for a linear system at one flag.

    Grows one polar basis along the flag, inserting at step j the
    equations that use the j-th flag vector, read from each generator's
    tableau (see the module docstring) in the order that
    reduced_polar_equations gives them; c_j is its rank then and the
    verdict is sum(c) == codim V_n.  Raises NotLinearError for
    non-linear ideals and MixedDegreeError for a generator of mixed
    degree.
    """
    ideal = list(ideal)
    if not is_linear(bundle, ideal):
        raise NotLinearError("the ideal is not linear in the connection forms")
    order = _flag_order(bundle, flag_order)
    container = equations_for_Vn(bundle, ideal)
    codim = container.size()
    steps = [_tableau_polar_equations(bundle, form, order) for form in ideal]
    basis = FormBasis(bundle.manifold)
    polar = []
    for j in range(bundle.n):
        for form_steps in steps:
            for eq in form_steps[j]:
                basis.insert(eq)
        polar.append(basis.elements)
    c = tuple(len(eqs) for eqs in polar)
    return CartanReport(c, codim, sum(c) == codim, container.elements, tuple(polar))


def load_ideal(bundle: FrameBundle, text: str):
    """Parse an ideal file: `d: <form>` lines differentiate a theta-form,

    bare `<form>` lines are taken verbatim; all indices must be theta
    indices.  '#' starts a comment.
    """
    forms = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("d:"):
            body, differentiate = line[2:].strip(), True
        else:
            body, differentiate = line, False
        try:
            form = bundle.parse(body)
        except (FormParseError, FrameIndexError) as exc:
            raise FileFormatError(lineno, str(exc)) from None
        bad = sorted({g for mono in form.terms for g in mono if g > bundle.n})
        if bad:
            raise FileFormatError(
                lineno, f"index {bad[0]} is not a theta index (base dimension {bundle.n})"
            )
        forms.append(bundle.d(form) if differentiate else form)
    return forms
