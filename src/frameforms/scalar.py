"""Exact scalar arithmetic: symbols, Gaussian rationals, polynomials.

The scalar field of the whole engine is Q(i).  A GaussianRational holds
(a + b*i)/d as three ints normalized to gcd(a, b, d) = 1 and d > 0, so
its arithmetic runs on Python ints and builds no Fraction; `re` and
`im` give the parts as Fractions.  Polynomials are sparse maps from
multi-degree monomials over session symbols to Gaussian-rational
coefficients, kept in a unique canonical form (zero coefficients are
never stored).

Symbols are created through a Session, which assigns a strictly
increasing creation index from one process-wide counter; the index is
the total order used everywhere canonical ordering is needed.  A symbol
equals only itself and hashes by identity (copying returns it), so
symbols of different sessions never collide.  A session and every
object created in it are confined to one thread at a time.

accumulate is the one sparse-sum step: polynomials, forms, spinors and
echelon rows all add coefficients into their term dicts through it.
_SparseVector, the base of Poly, Form and Spinor, holds their shared
vector-space operators (sum, difference, negation, truth, scaling) over
that dict, so each subclass gives only its coercion, its product, its
equality and its printing.
Echelon is the one exact elimination kernel: linear_solve, the bases
and the connection declarations all reduce through it.  Echelon.over
and Echelon.impose_linear are the one affine-row step: the unknowns'
linear monomials are the only pivots, and every equation is checked to
give each unknown a constant coefficient before any is imposed.
_signed_sum is the one joiner of printed terms into a sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import InconsistentError, NonLinearError

__all__ = [
    "Session",
    "Symbol",
    "GaussianRational",
    "I",
    "Poly",
    "Echelon",
    "LinearSolution",
    "linear_solve",
]


class GaussianRational:
    """An exact complex number (a + b*i)/d with integers a, b and d.

    The triple is normalized, gcd(a, b, d) = 1 and d > 0, so each value
    has one representation (zero is (0, 0, 1)) and equality compares
    the three integers.  `re` and `im` give the parts as Fractions.
    Floats are rejected outright: everything in the engine is exact.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("floating point is not supported; use Fraction")
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        p, q = re.denominator, im.denominator
        d = p * q // gcd(p, q)
        # Over the least common denominator of two reduced fractions the
        # triple is already normalized.
        self._a, self._b, self._d = re.numerator * (d // p), im.numerator * (d // q), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        o = other if isinstance(other, GaussianRational) else _coerce(other)
        if o is None:
            return NotImplemented
        d, f = self._d, o._d
        if d == f:
            return _make(self._a + o._a, self._b + o._b, d)
        return _make(self._a * f + o._a * d, self._b * f + o._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if isinstance(other, GaussianRational) else _coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + -self

    def __mul__(self, other):
        o = other if isinstance(other, GaussianRational) else _coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        return _make(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if isinstance(other, GaussianRational) else _coerce(other)
        if o is None:
            return NotImplemented
        c, e = o._a, o._b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (a+bi)/d / ((c+ei)/f) = (a+bi)(c-ei) f / (d (c^2+e^2))
        a, b, f = self._a, self._b, o._d
        return _make((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        out = _new(GaussianRational)
        out._a, out._b, out._d = -self._a, -self._b, self._d
        return out

    def conjugate(self):
        out = _new(GaussianRational)
        out._a, out._b, out._d = self._a, -self._b, self._d
        return out

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        o = other if isinstance(other, GaussianRational) else _coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # A real value hashes as the int or Fraction it compares equal to.
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))

    def __str__(self):
        a, b, d = self._a, self._b, self._d
        if not b:
            return _ratio_str(a, d)
        im = _ratio_str(b, d)
        im = "i" if im == "1" else "-i" if im == "-1" else f"{im}*i"
        if not a:
            return im
        return f"{_ratio_str(a, d)}{'+' if b > 0 else ''}{im}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _make(a, b, d) -> GaussianRational:
    """(a + b*i)/d as a normalized GaussianRational, for ints a, b and d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    out = _new(GaussianRational)
    out._a, out._b, out._d = a, b, d
    return out


def _coerce(x):
    """An int or Fraction as a GaussianRational, or None for any other type."""
    if isinstance(x, int):
        return _make(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _make(x.numerator, 0, x.denominator)
    return None


def _unit(c: GaussianRational) -> int:
    """1 or -1 when c is that integer, else 0."""
    if c._b or c._d != 1:
        return 0
    a = c._a
    return a if a == 1 or a == -1 else 0


def _ratio_str(n, d):
    """The int ratio n/d, d > 0, in lowest terms as a Fraction prints it."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _scaled_str(c, mono):
    """The product c*mono of a nonzero GaussianRational and a monomial's text.

    A coefficient of 1 or -1 is left out and one with both parts is
    parenthesized, so every printed term reads back as one term.
    """
    unit = _unit(c)
    if unit:
        return mono if unit == 1 else "-" + mono
    cs = str(c)
    return f"({cs})*{mono}" if c._a and c._b else f"{cs}*{mono}"


I = GaussianRational(0, 1)

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


class Symbol:
    """A named atom; it equals only itself and is ordered by creation index.

    Create symbols with Session.symbol.
    """

    __slots__ = ("name", "index")

    def __init__(self, name, index):
        self.name = name
        self.index = index

    # Equality and hashing are by identity, which keeps monomial-key
    # lookups in C; so a copy must be the symbol itself.
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __lt__(self, other):
        return self.index < other.index

    def __str__(self):
        return self.name

    def __repr__(self):
        return f"Symbol({self.name!r}, {self.index})"

    # Arithmetic on symbols promotes to Poly so that expressions read
    # naturally in user code and tests.
    def _p(self):
        return Poly.from_symbol(self)

    def __add__(self, other):
        return self._p() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._p() - other

    def __rsub__(self, other):
        return -self._p() + other

    def __mul__(self, other):
        return self._p() * other

    __rmul__ = __mul__

    def __neg__(self):
        return -self._p()


# Creation indices are unique across sessions, so that symbols of two
# sessions can never be mistaken for each other.
_INDEX = itertools.count()


class Session:
    """Registry that hands out symbols with unique creation indices.

    All objects of one computation (symbols, manifolds, connections)
    should come from the same session; the creation index provides the
    stable total order behind every canonical ordering in the engine.
    """

    def next_index(self):
        return next(_INDEX)

    def symbol(self, name) -> Symbol:
        return Symbol(name, self.next_index())

    def symbols(self, names) -> list[Symbol]:
        """Create several symbols at once; names is a whitespace-separated string."""
        return [self.symbol(n) for n in names.split()]


# A monomial is a tuple of (Symbol, exponent) pairs sorted by symbol
# index, exponents >= 1.  The empty tuple is the constant monomial.
def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        s1, e1 = m1[i]
        s2, e2 = m2[j]
        if s1.index == s2.index:
            out.append((s1, e1 + e2))
            i += 1
            j += 1
        elif s1.index < s2.index:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


class _SparseVector:
    """Vector-space operators over a sparse `terms` dict with no zero values.

    A subclass gives `_coerce(x)`, the operand as a vector like self, or
    None for a type it does not take (raising for a vector of another
    frame or dimension), and `_like(terms)`, a vector like self with
    those terms.  Sums and differences fill one copy of self's dict
    through accumulate.
    """

    __slots__ = ()
    __hash__ = None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._like(accumulate(dict(self.terms), o.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._like(accumulate(dict(self.terms), ((k, -c) for k, c in o.terms.items())))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return -self + o

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def _scale(self, p):
        """self times a nonzero scalar p; polynomials over Q(i) have no zero divisors."""
        return self._like({k: c * p for k, c in self.terms.items()})


class Poly(_SparseVector):
    """A multivariate polynomial over GaussianRational in canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms is trusted to be canonical; use the constructors below.
        self.terms = terms or {}

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, c) -> "Poly":
        c = _as_gaussian(c)
        return cls({(): c} if c else {})

    @classmethod
    def from_symbol(cls, sym: Symbol) -> "Poly":
        return cls({((sym, 1),): _ONE})

    @staticmethod
    def _coerce(x):
        if isinstance(x, Poly):
            return x
        if isinstance(x, Symbol):
            return Poly.from_symbol(x)
        if isinstance(x, (int, Fraction, GaussianRational)):
            return Poly.constant(x)
        return None

    def _like(self, terms):
        return Poly(terms)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        st, ot = self.terms, o.terms
        # A constant factor scales the other side's coefficients.
        if len(st) == 1 and () in st:
            return o._scale(st[()])
        if len(ot) == 1 and () in ot:
            return self._scale(ot[()])
        pairs = (
            (_mono_mul(m1, m2), c1 * c2)
            for m1, c1 in st.items()
            for m2, c2 in ot.items()
        )
        return Poly(accumulate({}, pairs))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = Poly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def is_constant(self):
        t = self.terms
        return not t or (len(t) == 1 and () in t)

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.terms.get((), _ZERO)

    def free_symbols(self):
        out = set()
        for m in self.terms:
            for s, _ in m:
                out.add(s)
        return out

    def total_degree(self):
        if not self.terms:
            return 0
        return max(sum(e for _, e in m) for m in self.terms)

    def substitute(self, rules: dict) -> "Poly":
        """Simultaneous (non-iterated) substitution of symbols by polynomials."""
        if not rules:
            return self
        out = {}
        for m, c in self.terms.items():
            term = Poly.constant(c)
            for s, e in m:
                rep = rules.get(s)
                base = rep if rep is not None else Poly.from_symbol(s)
                term = term * base**e
            accumulate(out, term.terms.items())
        return Poly(out)

    def real_imag(self):
        """Split into (re, im) with symbols treated as real-valued quantities."""
        re = {}
        im = {}
        for m, c in self.terms.items():
            if c._a:
                re[m] = _make(c._a, 0, c._d)
            if c._b:
                im[m] = _make(c._b, 0, c._d)
        return Poly(re), Poly(im)

    def _sorted_terms(self):
        def key(item):
            m, _ = item
            return (-sum(e for _, e in m), tuple((s.index, e) for s, e in m))

        return sorted(self.terms.items(), key=key)

    def __str__(self):
        terms = self._sorted_terms()
        return _signed_sum(_scaled_str(c, _mono_str(m)) if m else str(c) for m, c in terms)

    def __repr__(self):
        return f"Poly({self})"


def _mono_str(m):
    return "*".join(s.name if e == 1 else f"{s.name}^{e}" for s, e in m)


def _signed_sum(texts) -> str:
    """Join term texts into a sum, "+" before each that does not start with "-"; "0" if none."""
    parts = []
    for t in texts:
        if parts and not t.startswith("-"):
            parts.append("+")
        parts.append(t)
    return "".join(parts) or "0"


def _as_gaussian(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


def accumulate(out: dict, pairs) -> dict:
    """Add each (key, coefficient) pair into the sparse dict out, in place.

    A key whose sum is zero is dropped, so out never stores a zero.
    Returns out.
    """
    for k, c in pairs:
        s = out.get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def as_poly(x) -> Poly:
    p = Poly._coerce(x)
    if p is None:
        raise TypeError(f"cannot interpret {x!r} as a scalar")
    return p


class Echelon:
    """Incremental, fully reduced, sparse row echelon form over Q(i).

    A row is a dict key -> GaussianRational, stored under its pivot.
    `order(key)` gives the sort key of a key that may pivot, or None for
    a key that never pivots (a parameter monomial, a bookkeeping tag).
    Each row's pivot is its least pivotable key, with coefficient one,
    and no row holds another row's pivot, so the rows are the unique
    reduced echelon form of their span in that column order.  `ops`
    counts the multiply-subtract steps spent.
    """

    __slots__ = ("order", "rows", "ops")

    def __init__(self, order, rows=None):
        self.order = order
        self.rows = {} if rows is None else rows
        self.ops = 0

    @classmethod
    def over(cls, unknowns) -> "Echelon":
        """An empty echelon whose pivots are the unknowns' linear monomials, by creation index."""
        position = {((u, 1),): u.index for u in unknowns}
        return cls(position.get)

    def copy(self) -> "Echelon":
        return Echelon(self.order, {p: dict(row) for p, row in self.rows.items()})

    def _subtract(self, v, c, row):
        """v -= c * row, in place; a unit c adds or subtracts row as it is."""
        unit = _unit(c)
        if unit == -1:
            accumulate(v, row.items())
        elif unit == 1:
            accumulate(v, ((k, -r) for k, r in row.items()))
        else:
            c = -c
            accumulate(v, ((k, c * r) for k, r in row.items()))
        self.ops += len(row)

    def reduce(self, vec) -> dict:
        """A new dict: vec with every stored pivot eliminated."""
        v = dict(vec)
        # Rows hold no other row's pivot, so one pass over vec's pivots suffices.
        for p in [k for k in v if k in self.rows]:
            self._subtract(v, v[p], self.rows[p])
        return v

    def insert(self, red):
        """Store a reduced vector as a new row and return its pivot.

        The echelon takes `red` over: a row whose pivot coefficient is
        one is stored as that very dict.  Returns None, storing nothing,
        when no key of `red` may pivot.
        """
        order = self.order
        pivot = min((k for k in red if order(k) is not None), key=order, default=None)
        if pivot is None:
            return None
        unit = _unit(red[pivot])
        if unit == 1:
            row = red
        elif unit == -1:
            row = {k: -c for k, c in red.items()}
        else:
            inv = _ONE / red[pivot]
            row = {k: c * inv for k, c in red.items()}
        for other in self.rows.values():
            c = other.get(pivot)
            if c:
                self._subtract(other, c, row)
        self.rows[pivot] = row
        return pivot

    def impose(self, vec):
        """Reduce vec and store it as a new row, unless it reduces to zero.

        Raises InconsistentError, storing nothing, when what is left has
        no key that may pivot: the equation vec = 0 contradicts the rows.
        """
        red = self.reduce(vec)
        if red and self.insert(red) is None:
            raise InconsistentError(f"equation reduces to {Poly(red)} = 0")

    def impose_linear(self, polys, unknowns):
        """Impose each Poly = 0 on an echelon made by `over(unknowns)`.

        Every term holding an unknown must be that unknown alone, to the
        first power, so the unknowns carry constant coefficients and
        other symbols appear only in the unknown-free part.  Every poly
        is checked before any is imposed: NonLinearError imposes nothing.
        """
        for p in polys:
            for m in p.terms:
                hit = [(s, e) for s, e in m if s in unknowns]
                if not hit:
                    continue
                if len(hit) > 1 or hit[0][1] > 1:
                    raise NonLinearError(f"term {_mono_str(m)} is not linear in the unknowns")
                if len(m) > 1:
                    raise NonLinearError(
                        f"unknown {hit[0][0]} carries a parametric coefficient in {_mono_str(m)}"
                    )
        for p in polys:
            self.impose(p.terms)

    def solved(self) -> dict:
        """For rows keyed by monomials: each pivot symbol's value, minus its row's rest."""
        return {p[0][0]: Poly({m: -c for m, c in row.items() if m != p}) for p, row in self.rows.items()}


@dataclass(frozen=True)
class LinearSolution:
    """Result of linear_solve: assignments plus the leftover free unknowns."""

    assignments: dict
    free: frozenset = field(default_factory=frozenset)

    def apply(self, p: Poly) -> Poly:
        return p.substitute(self.assignments)


def linear_solve(equations, unknowns) -> LinearSolution:
    """Solve a linear system over Q(i) by exact Gaussian elimination.

    Each equation must be affine in the unknowns with constant
    coefficients on the unknowns; parameters (other symbols) may appear
    only in the unknown-free part.  The result is the reduced echelon
    form with the unknowns ordered by creation index: each pivot unknown
    is assigned an expression in the free unknowns and the parameters.
    Underdetermined systems leave the other unknowns in `free`; an
    equation that reduces to a nonzero constant or a nonzero
    parameter-only polynomial raises InconsistentError.
    """
    unknown_set = set(unknowns)
    ech = Echelon.over(unknown_set)
    ech.impose_linear([as_poly(eq) for eq in equations], unknown_set)
    assignments = ech.solved()
    free = frozenset(u for u in unknown_set if u not in assignments)
    return LinearSolution(assignments, free)
