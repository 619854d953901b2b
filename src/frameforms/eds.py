"""Linear exterior differential systems on the frame bundle, or on any FrameManifold that carries n.

Generators 1..n are the independence forms theta^i and n+1..dim the
forms omega_a the ideal is linear in.  The bundle over an n-manifold is
the FrameBundle of dimension n(n+1): generator i*n+j is the connection
form omega_ij, and d theta^i = sum_j theta^j ∧ omega_ij are its only
structure equations (the omega generators are never differentiated).

On an integral n-plane each omega generator a is sum_j p_aj theta^j, so
a linear term c theta^I ∧ omega_a adds ±c p_aj to the equation of
theta^(I+j) for each j not in I: V_n is cut out by this constant map on
the index pairs (a, j), the tableau.  Reduced polar equations contract
ideal generators with flag vectors down to degree one, modulo the
theta's.  Contracting theta^I ∧ omega_a by the flag vectors of I, the
last in the flag first, leaves ±omega_a, so each theta set I gives the
row sum ±c omega_a at the step after the flag position of its last vector.

cartan_test reads and checks each generator's tableau once, cleared to
Gaussian integers over its common denominator, and makes every row from it as
(re, im, den): V_n's on the integer columns of the p's, laid out once
per (n, dim) by _p_columns, one per target monomial theta^K and in
monomial order, and the polar rows on the omega indices a, for Rank.insert.
The report keeps the rows kept; the p's, V_n's Polys and the polar Forms
are made only when read, and `eds --verbose` prints text made from rows.
reduced_polar_equations, which contracts general forms with hook, is kept
as the independent reference for the polar equations.

Every bundle over an n-manifold has the same d-table, so all of them
share one memo of d's Leibniz expansions, made once per n like the
Clifford tables.  A bundle's omega generators have no d entry, so d of
a monomial with one raises and stores no expansion: the shared memo holds
the n theta images and theta-monomials only, at most n + 2^n entries.
A later declare_d on one bundle gives that bundle a private memo
(manifold.py).  Concurrent threads can only store the same expansion
under the same key, which is benign under the GIL.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations

from .errors import (
    DimensionError,
    FileFormatError,
    FormParseError,
    FrameIndexError,
    NonLinearError,
    NotLinearError,
)
from .exterior import Form, _index, _mono_print, _sorted_term, as_form, degree, hook
from .manifold import FrameManifold, _content_lines
from .scalar import Poly, Rank, Session, _cleared, _make, _scaled_str, _signed_sum

__all__ = [
    "FrameBundle",
    "frame_bundle",
    "reduced_polar_equations",
    "cartan_test",
    "CartanReport",
    "load_ideal",
]


@lru_cache(maxsize=32)
def _p_columns(n: int, dim: int) -> tuple:
    """((a, j), name) of each p_aj at its V_n column (a - n - 1)·n + (j - 1), a = n+1..dim, j = 1..n.

    The one owner of the column layout, which is also the p's creation order.
    """
    return tuple(((a, j), f"p{a}{j}") for a in range(n + 1, dim + 1) for j in range(1, n + 1))


@lru_cache(maxsize=None)
def _shared_d_memo(n: int) -> dict:
    """The one memo of d's expansions that every untouched bundle over an n-manifold reads."""
    return {}


class FrameBundle(FrameManifold):
    """The frame bundle of an n-dimensional base, plus Grassmannian symbols p; the one class that supplies n."""

    def __init__(self, session: Session, n: int):
        n = _index(n, 1, 9, "base dimension", DimensionError)
        super().__init__(session, n * (n + 1))
        self.n = n
        one = Poly.constant(1)
        for i in range(1, n + 1):
            # d theta^i = sum_j theta^j ∧ omega_ij, one term per j.
            self.declare_d(i, Form(self, {(j, i * n + j): one for j in range(1, n + 1)}))
        self._d_memo = _shared_d_memo(n)

    @property
    def manifold(self) -> FrameBundle:
        """The bundle itself; perfbench/jobs.py reads `bundle.manifold`."""
        return self

    @cached_property
    def p(self) -> dict:
        """{(a, j): p_aj}, all n³ made on first read in _p_columns order; a session gives one bundle its p."""
        columns = _p_columns(self.n, self.dim)
        return dict(zip((key for key, _ in columns), self.session._new_symbols(name for _, name in columns)))

    def theta(self, i: int) -> Form:
        return self.e(_index(i, 1, self.n, "theta index"))

    def omega(self, i: int, j: int) -> Form:
        n = self.n
        return self.e(_index(i, 1, n, "omega index") * n + _index(j, 1, n, "omega index"))


def frame_bundle(session: Session, n: int) -> FrameBundle:
    return FrameBundle(session, n)


def _tableau(bundle: FrameBundle, form):
    """A generator's terms c theta^I ∧ omega_a as (den, {I: [(a, re, im)]}), c = (re + i*im)/den.

    The one check of a generator: as_form's FrameMismatchError for a form
    of another bundle, NotLinearError for a term without exactly one omega
    factor, NonLinearError for one with a symbolic coefficient and
    MixedDegreeError for terms of different degrees, as degree() raises it.
    """
    form, n = as_form(bundle, form), bundle.n
    for mono, c in form.terms.items():
        # Exactly one omega factor, which is then the last of the sorted monomial.
        linear = bool(mono) and mono[-1] > n and (len(mono) == 1 or mono[-2] <= n)
        if not linear or not c.is_constant():
            term = Form(bundle, {mono: c})
            if not linear:
                raise NotLinearError(f"{term} is not linear in the connection forms")
            raise NonLinearError(f"{term} has a symbolic coefficient")
    degree(form)  # MixedDegreeError for terms of different degrees
    den, terms = _cleared([(mono, c.terms[()]) for mono, c in form.terms.items()])
    groups = {}
    for mono, re, im in terms:
        groups.setdefault(mono[:-1], []).append((mono[-1], re, im))
    return den, groups


def _vn_rows(n, tableaux) -> list:
    """The independent rows (re, im, den) of V_n, each tableau's in monomial order.

    The entry of p_aj is (re + i*im)/den at its column.  A tableau with
    theta sets of size k has one row per target monomial theta^K, K of
    size k + 1, made and ranked in combinations order, which is monomial
    order.  For each i the terms c theta^I ∧ omega_a of I = K minus K[i]
    give the row their p_aj entries, j = K[i], with the sign (-1)^(k - i)
    of theta^I ∧ theta^j = ±theta^K.  Distinct (I, j) fill distinct
    columns, so entries are stored, never summed.  A zero generator has
    no theta sets and no rows.
    """
    rank = Rank()  # a column pivots in its own order, that of the p's
    kept = []
    base = -(n + 1) * n - 1  # p_aj's _p_columns column (a - n - 1)*n + j - 1 is a*n + j + base
    for den, groups in tableaux:
        if not groups:
            continue  # a zero generator
        k = len(next(iter(groups)))  # every theta set of one generator has k members
        for K in combinations(range(1, n + 1), k + 1):
            re, im = {}, {}
            # combinations(K, k) drops K[k] first and K[0] last: the t-th drops K[k - t], sign (-1)^t.
            for t, theta in enumerate(combinations(K, k)):
                terms = groups.get(theta)
                if terms:
                    shift, sign = K[k - t] + base, -1 if t & 1 else 1
                    for a, x, y in terms:
                        if x:
                            re[a * n + shift] = sign * x
                        if y:
                            im[a * n + shift] = sign * y
            if rank.insert(re, im):
                kept.append((re, im, den))
    return kept


def _flag_order(bundle: FrameBundle, order):
    """The flag as a list: the identity for None, else a checked permutation of 1..n, of ints."""
    order = list(range(1, bundle.n + 1)) if order is None else list(map(operator.index, order))
    if sorted(order) != list(range(1, bundle.n + 1)):
        raise DimensionError(f"flag order must be a permutation of 1..{bundle.n}")
    return order


def reduced_polar_equations(bundle: FrameBundle, form: Form, j: int, order=None):
    """All contractions of `form` by flag vectors theta_1..theta_j, reduced.

    The list at j - 1, then that of the contraction by the j-th flag vector
    at j - 1; a contraction is kept, modulo the theta's, at degree one.
    """
    j = _index(j, 0, bundle.n, "flag length", DimensionError)
    order = _flag_order(bundle, order)
    form = as_form(bundle, form)
    if j == 0 or degree(form) < 2:
        if degree(form) != 1:
            return []
        return [Form(form.manifold, {m: c for m, c in form.terms.items() if m[0] > bundle.n})]
    forms = (form, hook(bundle.e(order[j - 1]), form))
    return [eq for w in forms for eq in reduced_polar_equations(bundle, w, j - 1, order)]


def _tableau_polar_equations(tableau, order):
    """The polar equations of a generator's _tableau, as rows (re, im, den) at each j = 0..n-1.

    A theta set I gives the row ±sum c omega_a over its terms, c =
    (re[a] + i*im[a])/den, at step j = 1 + the flag position of I's last
    vector (j = 0 for the empty set; a set that holds the n-th flag
    vector gives none).  The sign is the
    parity of I read from its last flag vector down, and sorting by the
    positions, last first, gives reduced_polar_equations' order.
    """
    den, groups = tableau
    steps = [[] for _ in order]
    position = {v: q for q, v in enumerate(order)}.__getitem__
    for qs, theta in sorted((sorted(map(position, t), reverse=True), t) for t in groups):
        j = qs[0] + 1 if qs else 0
        if j < len(order):
            sign = _sorted_term([order[q] for q in qs], 1)[1]
            re = {a: sign * x for a, x, _ in groups[theta] if x}
            im = {a: sign * y for a, _, y in groups[theta] if y}
            steps[j].append((re, im, den))
    return steps


def _columns(row):
    """A kept row's (key, re, im) entries in key order: that of the p's for V_n, of the omegas for polar."""
    re, im, _ = row
    return [(key, re.get(key, 0), im.get(key, 0)) for key in sorted(re.keys() | im.keys())]


def _row_text(row, name):
    """A kept row (re, im, den) as str and print_form write its equation, name(key) the text of a key."""
    return _signed_sum([_scaled_str(x, y, row[2], name(key)) for key, x, y in _columns(row)])


@dataclass(frozen=True)
class CartanReport:
    """Polar ranks, codimension and verdict, with the equations behind them.

    The kept V_n and polar rows are held alike, as cartan_test makes
    them.  vn_equations (Polys) and polar (Forms, polar[j] the first c_j
    retained polar equations) are made from them on first read.  vn_text
    and polar_text are the same equations as str and print_form write
    them, formatted from the rows with no Symbol, Poly or Form made, V_n's
    columns read through _p_columns.  Each is () for a report without its
    bundle.  repr, equality and hashing see (c, codim, involutive).
    """

    c: tuple
    codim: int
    involutive: bool
    _bundle: object = field(default=None, compare=False, repr=False)
    _vn_kept: tuple = field(default=(), compare=False, repr=False)
    _polar_kept: tuple = field(default=(), compare=False, repr=False)

    def _by_step(self, eqs) -> tuple:
        """The first c_j of eqs for each j, as polar and polar_text hold them; () without the bundle."""
        return tuple(tuple(eqs[:k]) for k in self.c) if self._bundle else ()

    @cached_property
    def vn_equations(self) -> tuple:
        layout = _p_columns(self._bundle.n, self._bundle.dim) if self._bundle else ()
        return tuple(
            Poly({((self._bundle.p[layout[col][0]], 1),): _make(x, y, row[2]) for col, x, y in _columns(row)})
            for row in self._vn_kept
        )

    @cached_property
    def polar(self) -> tuple:
        return self._by_step([
            Form(self._bundle, {(a,): Poly({(): _make(x, y, row[2])}) for a, x, y in _columns(row)})
            for row in self._polar_kept
        ])

    @cached_property
    def vn_text(self) -> tuple:
        """str(eq) for each eq of vn_equations."""
        layout = _p_columns(self._bundle.n, self._bundle.dim) if self._bundle else ()
        return tuple(_row_text(row, lambda col: layout[col][1]) for row in self._vn_kept)

    @cached_property
    def polar_text(self) -> tuple:
        """print_form(eq) for each eq of each polar[j]."""
        return self._by_step([_row_text(row, lambda a: _mono_print((a,))) for row in self._polar_kept])


def cartan_test(bundle: FrameBundle, ideal, flag_order=None) -> CartanReport:
    """Cartan's involutivity test for a linear system at one flag.

    `bundle` is any FrameManifold that carries n, generators 1..n being the
    independence forms and n+1..dim appearing linearly; vn_equations also
    reads its p, which FrameBundle supplies.  Reads each generator's
    tableau once, for its V_n rows and its polar rows.  One Rank takes the
    polar rows along the flag, at step j each generator's rows at j in
    reduced_polar_equations' order; c_j counts the rows kept so far and
    the verdict is sum(c) == codim V_n.  Every check runs before any
    elimination: _tableau checks each generator
    (FrameMismatchError, NotLinearError, NonLinearError, MixedDegreeError),
    then a bad flag raises DimensionError.
    """
    tableaux = [_tableau(bundle, form) for form in ideal]
    order = _flag_order(bundle, flag_order)
    steps = [_tableau_polar_equations(tableau, order) for tableau in tableaux]
    vn_rows = _vn_rows(bundle.n, tableaux)
    rank, kept, c = Rank(), [], []
    for j in range(bundle.n):
        kept += [row for form_steps in steps for row in form_steps[j] if rank.insert(row[0], row[1])]
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
