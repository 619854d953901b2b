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
theta's.  Contracting theta^I ∧ omega_a by the flag vectors of I, the
last in the flag first, leaves ±omega_a, so each theta set I gives the
row sum ±c omega_a at the step after the flag position of its last vector.

cartan_test reads each generator's tableau once and passes V_n's rows,
on the integer columns (a - n - 1)·n + (j - 1), and the polar rows along
the flag, on the omega indices a, through scalar.Rank; the p's, V_n's
Polys and the polar Forms are made only when the report is read.
reduced_polar_equations, which contracts general forms with hook, is kept
as the independent reference for the polar equations.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

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
from .scalar import Poly, Rank, Session

__all__ = [
    "FrameBundle",
    "frame_bundle",
    "reduced_polar_equations",
    "cartan_test",
    "CartanReport",
    "load_ideal",
]


class FrameBundle:
    """The frame-bundle manifold of an n-dimensional base, plus Grassmannian symbols p."""

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

    @cached_property
    def p(self) -> dict:
        """{(a, j): p_aj}, all n³ made on first read in (a, j) order."""
        n, omegas = self.n, range(self.n + 1, self.n * (self.n + 1) + 1)
        return {(a, j): self.session.symbol(f"p{a}{j}") for a in omegas for j in range(1, n + 1)}

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


def frame_bundle(session: Session, n: int) -> FrameBundle:
    return FrameBundle(session, n)


def _tableau(bundle: FrameBundle, form):
    """The terms c theta^I ∧ omega_a of a generator, as {I: [(a, c)]} with c in Q(i).

    The one check of a generator: as_form's FrameMismatchError for a form
    of another bundle, NotLinearError for a term without exactly one omega
    factor and NonLinearError for one with a symbolic coefficient.
    """
    form, n = as_form(bundle.manifold, form), bundle.n
    groups = {}
    for mono, c in form.terms.items():
        # Exactly one omega factor, which is then the last of the sorted monomial.
        linear = bool(mono) and mono[-1] > n and (len(mono) == 1 or mono[-2] <= n)
        if not linear or not c.is_constant():
            term = Form(bundle.manifold, {mono: c})
            if not linear:
                raise NotLinearError(f"{term} is not linear in the connection forms")
            raise NonLinearError(f"{term} has a symbolic coefficient")
        groups.setdefault(mono[:-1], []).append((mono[-1], c.terms[()]))
    return groups


def _vn_rows(n, tableaux) -> list:
    """The independent rows {column of p_aj: c} of V_n, each tableau's in monomial order.

    The sign of theta^I ∧ theta^j = ±theta^(I+j) is -1 to the number of
    indices of I above j.  A term c theta^I ∧ omega_a alone gives the row
    of I+j its p_aj entry, so entries are stored, never summed.
    """
    rank = Rank()  # a column pivots in its own order, that of the p's
    kept = []
    for groups in tableaux:
        rows = {}
        for theta, terms in groups.items():
            signed = [((a - n - 1) * n - 1, (c, -c)) for a, c in terms]
            k = len(theta)
            for j in range(1, n + 1):
                pos = bisect_left(theta, j)
                if pos < k and theta[pos] == j:
                    continue
                row = rows.setdefault(theta[:pos] + (j,) + theta[pos:], {})
                parity = (k - pos) % 2
                for column, s in signed:
                    row[column + j] = s[parity]
        for row in map(rows.get, sorted(rows, key=_mono_key)):
            if rank.insert(row):
                kept.append(row)
    return kept


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
    form = as_form(bundle.manifold, form)
    if j == 0 or degree(form) < 2:
        if degree(form) != 1:
            return []
        return [Form(form.manifold, {m: c for m, c in form.terms.items() if m[0] > bundle.n})]
    forms = (form, hook(bundle.theta(order[j - 1]), form))
    return [eq for w in forms for eq in reduced_polar_equations(bundle, w, j - 1, order)]


def _tableau_polar_equations(groups, order):
    """The polar equations of a generator's _tableau groups, as rows {a: ±c} at each j = 0..n-1.

    A theta set I gives the row of sum ±c omega_a over its terms at step
    j = 1 + the flag position of I's last vector (j = 0 for the empty set;
    a set that holds the n-th flag vector gives none).  The sign is the
    parity of I read from its last flag vector down, and sorting by the
    positions, last first, gives reduced_polar_equations' order.  Raises
    MixedDegreeError for theta sets of different sizes, as degree() does.
    """
    if len({len(theta) for theta in groups}) > 1:
        raise MixedDegreeError(f"form has mixed degrees {sorted({len(t) + 1 for t in groups})}")
    steps = [[] for _ in order]
    for qs, theta in sorted((sorted(map(order.index, t), reverse=True), t) for t in groups):
        j = qs[0] + 1 if qs else 0
        if j < len(order):
            odd = sum(order[q] < order[p] for p, q in combinations(qs, 2)) % 2
            steps[j].append({a: -c if odd else c for a, c in groups[theta]})
    return steps


@dataclass(frozen=True)
class CartanReport:
    """Polar ranks, codimension and verdict, with the equations behind them.

    vn_equations (Polys) and polar (Forms, polar[j] the first c_j retained
    polar equations) are made from the kept rows on first read, () for a
    report without its bundle.  repr, equality and hashing see (c, codim, involutive).
    """

    c: tuple
    codim: int
    involutive: bool
    _bundle: object = field(default=None, compare=False, repr=False)
    _vn_kept: tuple = field(default=(), compare=False, repr=False)
    _polar_kept: tuple = field(default=(), compare=False, repr=False)

    @cached_property
    def vn_equations(self) -> tuple:
        if not self._bundle:
            return ()
        p = list(self._bundle.p.values())
        return tuple(Poly({((p[col], 1),): c for col, c in row.items()}) for row in self._vn_kept)

    @cached_property
    def polar(self) -> tuple:
        if not self._bundle:
            return ()
        M = self._bundle.manifold
        forms = [Form(M, {(a,): Poly({(): c}) for a, c in row.items()}) for row in self._polar_kept]
        return tuple(tuple(forms[:k]) for k in self.c)


def cartan_test(bundle: FrameBundle, ideal, flag_order=None) -> CartanReport:
    """Cartan's involutivity test for a linear system at one flag.

    Reads each generator's tableau once, for its V_n rows and its polar
    rows.  One Rank takes the polar rows along the flag, at step j each
    generator's rows at j in reduced_polar_equations' order; c_j counts
    the rows kept so far and the verdict is sum(c) == codim V_n.  Every
    check runs before any elimination: _tableau checks each generator
    (FrameMismatchError, NotLinearError, NonLinearError); then a bad flag
    raises DimensionError and a generator of mixed degree MixedDegreeError.
    """
    tableaux = [_tableau(bundle, form) for form in ideal]
    order = _flag_order(bundle, flag_order)
    steps = [_tableau_polar_equations(groups, order) for groups in tableaux]
    vn_rows = _vn_rows(bundle.n, tableaux)
    rank, kept, c = Rank(), [], []
    for j in range(bundle.n):
        kept += [row for form_steps in steps for row in form_steps[j] if rank.insert(row)]
        c.append(len(kept))
    return CartanReport(tuple(c), len(vn_rows), sum(c) == len(vn_rows), bundle, vn_rows, kept)


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
