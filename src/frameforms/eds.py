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

The polar equations are read from the same tableau: contracting
theta^I ∧ omega_a by the flag vectors of I, the last in the flag first,
leaves ±omega_a, so each theta set I gives one equation sum ±c omega_a
at the step after the flag position of I's last vector, the sign the
parity of I read from that vector down.  _tableau is the one check of a
generator, and cartan_test reads V_n and every polar step from it;
reduced_polar_equations contracts general forms with hook.
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
    MixedDegreeError,
    NonLinearError,
    NotLinearError,
)
from .exterior import Form, _mono_key, as_form, degree, hook, parse_form
from .manifold import FrameManifold, _content_lines
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
        one = Poly.constant(1)
        for i in range(1, n + 1):
            # d theta^i = sum_j theta^j ∧ omega_ij, one term per j.
            dtheta = {(j, i * n + j): one for j in range(1, n + 1)}
            self.manifold.declare_d(i, Form(self.manifold, dtheta))
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
    """True when every monomial of every generator has exactly one omega factor.

    It checks only that count; cartan_test does not call it (see _tableau).
    """
    return all(sum(g > bundle.n for g in mono) == 1 for form in ideal for mono in form.terms)


def _tableau(bundle: FrameBundle, form):
    """The terms c theta^I ∧ omega_a of a generator, as {I: [(a, c)]} with c in Q(i).

    The one check of a generator: as_form's FrameMismatchError for a form
    of another bundle, NotLinearError for a term without exactly one omega
    factor and NonLinearError for one with a symbolic coefficient.
    """
    form = as_form(bundle.manifold, form)
    n = bundle.n
    groups = {}
    for mono, c in form.terms.items():
        linear = sum(g > n for g in mono) == 1
        if not linear or not c.is_constant():
            term = Form(bundle.manifold, {mono: c})
            if not linear:
                raise NotLinearError(f"{term} is not linear in the connection forms")
            raise NonLinearError(f"{term} has a symbolic coefficient")
        groups.setdefault(mono[:-1], []).append((mono[-1], c.terms[()]))
    return groups


def equations_for_Vn(bundle: FrameBundle, ideal) -> AffineBasis:
    """Equations cutting out the integral n-planes, as an affine equation set.

    Each generator's tableau rows (see the module docstring) are inserted
    in monomial order; the size is the codimension of V_n.  The sign of
    theta^I ∧ theta^j = ±theta^(I+j) is -1 to the number of indices of I
    above j.  A term c theta^I ∧ omega_a is the only one that gives the
    row of I+j its p_aj entry, so entries are stored, never summed.
    Raises _tableau's errors for a generator that is not a linear form
    of the bundle.
    """
    container = AffineBasis()
    n, p = bundle.n, bundle.p
    for form in ideal:
        rows = {}
        for theta, terms in _tableau(bundle, form).items():
            signed = [(a, (c, -c)) for a, c in terms]
            k = len(theta)
            for j in range(1, n + 1):
                pos = bisect_left(theta, j)
                if pos < k and theta[pos] == j:
                    continue
                row = rows.setdefault(theta[:pos] + (j,) + theta[pos:], {})
                parity = (k - pos) % 2
                for a, s in signed:
                    row[((p[(a, j)], 1),)] = s[parity]
        for merged in sorted(rows, key=_mono_key):
            container.insert(Poly(rows[merged]))
    return container


def _flag_order(bundle: FrameBundle, order):
    """The flag as a list: the identity for None, else a checked permutation of 1..n."""
    order = list(range(1, bundle.n + 1)) if order is None else list(order)
    if sorted(order) != list(range(1, bundle.n + 1)):
        raise DimensionError(f"flag order must be a permutation of 1..{bundle.n}")
    return order


def reduced_polar_equations(bundle: FrameBundle, form: Form, j: int, order=None):
    """All contractions of `form` by flag vectors theta_1..theta_j, reduced.

    The list at j - 1, then that of the contraction by the j-th flag vector
    at j - 1; a contraction is kept, modulo the theta's, at degree one.
    """
    if not 0 <= j <= bundle.n:
        raise DimensionError(f"flag length {j} outside 0..{bundle.n}")
    order = _flag_order(bundle, order)
    if j == 0 or degree(form) < 2:
        return [bundle.modulo_ic(form)] if degree(form) == 1 else []
    forms = (form, hook(bundle.theta(order[j - 1]), form))
    return [eq for w in forms for eq in reduced_polar_equations(bundle, w, j - 1, order)]


def _tableau_polar_equations(bundle: FrameBundle, form, order):
    """The polar equations of a generator at each j = 0..n-1, read from its theta sets.

    A theta set I gives sum ±c omega_a over its terms at step j = 1 + the
    flag position of I's last vector (j = 0 for the empty set; a set that
    holds the n-th flag vector gives none).  The sign is the parity of I
    read from its last flag vector down, and sorting by the positions,
    last first, gives reduced_polar_equations' order.  Raises
    MixedDegreeError for theta sets of different sizes, as degree() does.
    """
    groups = _tableau(bundle, form)
    if len({len(theta) for theta in groups}) > 1:
        raise MixedDegreeError(f"form has mixed degrees {sorted({len(t) + 1 for t in groups})}")
    steps = [[] for _ in range(bundle.n)]
    for qs, theta in sorted((sorted(map(order.index, t), reverse=True), t) for t in groups):
        j = qs[0] + 1 if qs else 0
        if j < bundle.n:
            odd = sum(order[q] < order[p] for p, q in combinations(qs, 2)) % 2
            eq = {(a,): Poly({(): -c if odd else c}) for a, c in groups[theta]}
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

    Grows one polar basis along the flag, inserting at step j each
    generator's equations at j, read from its tableau's theta sets (see
    the module docstring) in reduced_polar_equations' order; c_j is its
    rank then and the verdict is sum(c) == codim V_n.  _tableau checks
    each generator first (FrameMismatchError, NotLinearError,
    NonLinearError); then a bad flag raises DimensionError and a
    generator of mixed degree MixedDegreeError.
    """
    ideal = list(ideal)
    container = equations_for_Vn(bundle, ideal)
    order = _flag_order(bundle, flag_order)
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
    for lineno, line in _content_lines(text):
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
