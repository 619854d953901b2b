"""Exact scalar arithmetic: symbols, Gaussian rationals, polynomials.

The scalar field of the whole engine is Q(i).  A GaussianRational holds
(a + b*i)/d as three ints normalized to gcd(a, b, d) = 1 and d > 0, so
its arithmetic runs on Python ints and builds no Fraction; `re` and
`im` give the parts as Fractions.  Polynomials are sparse maps from
multi-degree monomials over session symbols to Gaussian-rational
coefficients, kept in a unique canonical form (zero coefficients are
never stored).

Symbols are created through a Session, which gives each name one symbol
and a strictly increasing creation index from one process-wide counter;
the index is the total order used everywhere canonical ordering is
needed.  A symbol equals only itself and hashes by identity (copying
returns it), so symbols of different sessions never collide.  A session
and every object created in it are confined to one thread at a time.

accumulate is the one plain sparse-sum step: sums of polynomials, forms
and spinors, and the terms whose keys wedge, hook or the parser compute,
are added into their term dicts through it.  _add_scaled(out, terms, c,
mono) is the one scaled-add step: in one loop it adds c times each value
of a term dict into another, under its key times the symbol monomial
mono when mono is not empty, dropping zero sums as accumulate does; a
Q(i) constant c of 1 or -1 costs no multiplication.  Poly's product is
one such step per term of a factor, and echelon rows, differences, the
bases' components and the connection's flat sums are added by it too.
Rank's int rows add through their own plain int loop, its hot path.
_SparseVector, the base of Poly, Form and Spinor, holds their shared
vector-space operators (sum, difference, negation, truth) over that
dict, scaling by any scalar, substitute_scalars and repr, so each
subclass gives only its coercion, its product, its equality, its
printing and its coefficients order; Poly, whose coefficients are
Q(i) constants, scales by its product and substitutes by substitute.
Echelon is the one exact elimination kernel wherever rows are read:
linear_solve, the connection declarations and the bases' tagged
dual/components echelon.  Echelon.over(unknowns), impose_linear(polys)
and free() are the one affine-row step: the echelon keeps the unknowns,
whose linear monomials are its only pivots, checks that every equation
gives each a constant coefficient before any is imposed, and lists the
unknowns that hold no row.  Rank only decides which rows are independent
(Cartan's V_n and polar rows, every basis's insert), by
fraction-free elimination on Gaussian-integer rows held as plain ints;
_cleared is the one step that clears Q(i) coefficients to them.
_signed_sum is the one joiner of printed terms into a sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import InconsistentError, NonLinearError, RedeclarationError

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
        return _gaussian_str(self._a, self._b, self._d)

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


def _cleared(pairs) -> tuple:
    """(den, [(key, re, im)]) of Q(i) pairs (key, c), a list or dict items: c = (re + i*im)/den."""
    den = lcm(*[c._d for _, c in pairs])
    if den == 1:
        return 1, [(k, c._a, c._b) for k, c in pairs]
    return den, [(k, c._a * (den // c._d), c._b * (den // c._d)) for k, c in pairs]


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


def _gaussian_str(a, b, d):
    """The text of (a + b*i)/d, d > 0, as its normalized GaussianRational prints.

    Each part is printed in lowest terms, so (a, b, d) need not be normalized.
    """
    if not b:
        return _ratio_str(a, d)
    im = _ratio_str(b, d)
    im = "i" if im == "1" else "-i" if im == "-1" else f"{im}*i"
    if not a:
        return im
    return f"{_ratio_str(a, d)}{'+' if b > 0 else ''}{im}"


def _scaled_str(a, b, d, mono):
    """The product of the nonzero (a + b*i)/d, d > 0, and a monomial's text.

    A coefficient of 1 or -1 is left out and one with both parts is
    parenthesized, so every printed term reads back as one term.
    """
    if not b and (a == d or a == -d):
        return mono if a > 0 else "-" + mono
    cs = _gaussian_str(a, b, d)
    return f"({cs})*{mono}" if a and b else f"{cs}*{mono}"


I = GaussianRational(0, 1)

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)
_MINUS_ONE = GaussianRational(-1)


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
    """Registry of one {name: Symbol} table: each name one symbol, with a unique creation index.

    All objects of one computation (symbols, manifolds, connections)
    should come from the same session; the creation index provides the
    stable total order behind every canonical ordering in the engine.
    """

    def __init__(self):
        self._symbols = {}

    def next_index(self):
        return next(_INDEX)

    def symbol(self, name) -> Symbol:
        return self._new_symbols((name,))[0]

    def symbols(self, names) -> list[Symbol]:
        """Create several symbols at once; names is a whitespace-separated string."""
        return self._new_symbols(names.split())

    def _new_symbols(self, names):
        """The one symbol maker: new symbols in names' order, made only after every name passes its checks."""
        names, table = list(names), self._symbols
        if " ".join(names).split() != names:  # join raises TypeError for a non-str name
            bad = next(name for name in names if name.split() != [name])
            raise ValueError(f"symbol name {bad!r} is empty or holds whitespace")
        if len(set(names)) < len(names) or not table.keys().isdisjoint(names):
            bad = next(name for i, name in enumerate(names) if name in table or name in names[:i])
            raise RedeclarationError(f"symbol {bad} already declared in this session")
        made = [Symbol(name, next(_INDEX)) for name in names]
        table.update(zip(names, made))
        return made


# A monomial is a tuple of (Symbol, exponent) pairs sorted by symbol
# index, exponents >= 1.  The empty tuple is the constant monomial.
def _mono_mul(m1, m2):
    """The product of two monomials, exponents added in a dict; only _add_scaled calls it."""
    exps = dict(m1)
    for s, e in m2:
        exps[s] = exps.get(s, 0) + e
    return tuple(sorted(exps.items(), key=lambda item: item[0].index))


class _SparseVector:
    """Vector-space operators over a sparse `terms` dict with no zero values.

    A subclass gives `_coerce(x)`, the operand as a vector like self, or
    None for a type it does not take (raising for a vector of another
    frame or dimension), and `_like(terms)`, a vector like self with
    those terms.  Sums and differences fill one copy of self's dict
    through accumulate and _add_scaled.
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
        return self._like(_add_scaled(dict(self.terms), o.terms, _MINUS_ONE))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return -self + o

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def _scale(self, x):
        """self times any scalar x; polynomials over Q(i) have no zero divisors."""
        p = as_poly(x)
        return self._like({k: c * p for k, c in self.terms.items()} if p else {})

    def substitute_scalars(self, rules):
        """Apply a symbol substitution to every coefficient polynomial."""
        if not rules:
            return self
        out = {k: c.substitute(rules) for k, c in self.terms.items()}
        return self._like({k: c for k, c in out.items() if c})

    def __repr__(self):
        return f"{type(self).__name__}({self})"


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
        c = c if isinstance(c, GaussianRational) else GaussianRational(c)
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

    def _scale(self, x):
        return self * as_poly(x)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        st, ot = self.terms, o.terms
        # A constant factor, put first, scales the other side; exactly 1 returns it as it is.
        if len(ot) == 1 and () in ot:
            o, st, ot = self, ot, st
        if len(st) == 1 and _unit(st.get((), _ZERO)) == 1:
            return o
        out = {}
        for m, c in st.items():
            _add_scaled(out, ot, c, m)
        return Poly(out)

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
                base = as_poly(rep) if rep is not None else Poly.from_symbol(s)
                term = term * base**e
            accumulate(out, term.terms.items())
        return Poly(out)

    substitute_scalars = substitute

    def real_imag(self):
        """Split into (re, im) with symbols treated as real-valued quantities.

        A poly with no imaginary coefficient is its own real part.
        """
        if not any(c._b for c in self.terms.values()):
            return self, Poly()
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
        return _signed_sum(
            _scaled_str(c._a, c._b, c._d, _mono_str(m)) if m else str(c) for m, c in terms
        )


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


def _add_scaled(out: dict, terms: dict, c: GaussianRational, mono=()) -> dict:
    """Add c * v into out under mono * k for each (k, v) of terms, in place, dropping zero sums as accumulate does.

    The keys of terms are monomials when mono is not empty.  c = 1 adds
    v and c = -1 subtracts it, with no multiplication.  Returns out.
    """
    unit = _unit(c)
    get, pop = out.get, out.pop
    for k, v in terms.items():
        if mono:
            k = _mono_mul(mono, k)
        if unit != 1:
            v = -v if unit else v * c
        s = get(k)
        s = v if s is None else s + v
        if s:
            out[k] = s
        else:
            pop(k, None)
    return out


def as_poly(x) -> Poly:
    p = Poly._coerce(x)
    if p is None:
        raise TypeError(f"cannot interpret {x!r} as a scalar")
    return p


class Echelon:
    """Incremental, fully reduced, sparse row echelon form over Q(i).

    A row is a dict key -> GaussianRational of its non-pivot entries,
    stored under its pivot, whose coefficient one is implied; so a row
    keyed by a symbol's monomial is minus that symbol's value.
    `order(key)` gives the sort key of a key that may pivot, or None for
    a key that never pivots (a parameter monomial, a bookkeeping tag).
    Each row's pivot is its least pivotable key, and no row holds any
    pivot, so the rows are the unique reduced echelon form of their span
    in that column order.  `ops` counts the multiply-subtract steps spent.
    `_held` is every key that a stored row has held: a row gains keys
    only by taking on an inserted row's, and `insert` adds each new
    row's keys, so a new pivot outside that set is in no row, and the
    row is stored without visiting the others.  `_unknowns`, set by
    `over`, maps each unknown's linear monomial to its creation index.
    """

    __slots__ = ("order", "rows", "ops", "_held", "_unknowns")

    def __init__(self, order):
        self.order = order
        self.rows = {}
        self.ops = 0
        self._held = set()
        self._unknowns = {}

    @classmethod
    def over(cls, unknowns) -> "Echelon":
        """An empty echelon whose pivots are the unknowns' linear monomials, by creation index."""
        position = {((u, 1),): u.index for u in unknowns}
        ech = cls(position.get)
        ech._unknowns = position
        return ech

    def copy(self) -> "Echelon":
        new = Echelon(self.order)
        new.rows = {p: dict(row) for p, row in self.rows.items()}
        new._held = set(self._held)
        new._unknowns = self._unknowns
        return new

    def _subtract(self, v, c, row):
        """v -= c * row, in place."""
        _add_scaled(v, row, -c)
        self.ops += len(row)

    def reduce(self, vec) -> dict:
        """A new dict: vec with every stored pivot eliminated."""
        v = dict(vec)
        # Rows hold no other row's pivot, so one pass over vec's pivots suffices.
        for p in [k for k in v if k in self.rows]:
            self._subtract(v, v.pop(p), self.rows[p])
        return v

    def insert(self, red):
        """Store a reduced vector as a new row and return its pivot.

        The echelon takes `red` over: its pivot entry is popped, and the
        rest, divided by that entry, is the row; a pivot coefficient of
        one keeps that very dict.  Returns None, storing nothing, when
        no key of `red` may pivot.
        """
        order = self.order
        pivot = min((k for k in red if order(k) is not None), key=order, default=None)
        if pivot is None:
            return None
        lead = red.pop(pivot)
        unit = _unit(lead)
        row = red if unit == 1 else _add_scaled({}, red, lead if unit else _ONE / lead)  # 1/c is c for c = -1
        if pivot in self._held:
            for other in self.rows.values():
                c = other.pop(pivot, None)
                if c is not None:
                    self._subtract(other, c, row)
        self._held.update(row)
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

    def impose_linear(self, polys):
        """Impose each Poly = 0 on an echelon made by `over`.

        Every term holding an unknown must be that unknown alone, to the
        first power, so the unknowns carry constant coefficients and
        other symbols appear only in the unknown-free part.  Every poly
        is checked before any is imposed: NonLinearError imposes nothing.
        `polys` may be any iterable; it is read once.
        """
        unknowns = self._unknowns
        polys = list(polys)
        for p in polys:
            for m in p.terms:
                if not m or m in unknowns:
                    continue  # the constant, or an unknown alone
                hit = [(s, e) for s, e in m if ((s, 1),) in unknowns]
                if not hit:
                    continue
                if len(hit) > 1 or hit[0][1] > 1:
                    raise NonLinearError(f"term {_mono_str(m)} is not linear in the unknowns")
                raise NonLinearError(
                    f"unknown {hit[0][0]} carries a parametric coefficient in {_mono_str(m)}"
                )
        for p in polys:
            self.impose(p.terms)

    def solved(self) -> dict:
        """For rows keyed by monomials: each pivot symbol's value, minus its row."""
        return {p[0][0]: -Poly(row) for p, row in self.rows.items()}

    def free(self) -> list:
        """The unknowns that hold no row, in the order given to `over`."""
        return [key[0][0] for key in self._unknowns if key not in self.rows]


class Rank:
    """Which rows are independent, by fraction-free elimination over Z[i].

    Echelon's rank-only twin, for callers that read which rows are
    independent and never the rows themselves.  A row is a Gaussian
    integer vector held as two int dicts, its real and imaginary parts,
    keyed so that a plain min finds its least key.  Against the stored
    row r of that key, with lead lam there and the row's entry mu,
    v <- lam*v - mu*r cancels the key, and v is divided by its integer
    content (Bareiss, Math. Comp. 22, 1968, without the exact division
    step).  Each part product of that update, an int multiplier times a
    real or imaginary part, adds into v's parts through one plain int
    loop, which skips a zero multiplier or an empty part, so real and
    Gaussian rows take one path.  No row is made unit or back-substituted.
    `pivots` maps each stored row's least key to its (re, im) dicts; the
    set of its keys is that of Echelon's rows over the same order, since
    both are the least keys of the span.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    def insert(self, re, im) -> bool:
        """Store the row re + i*im and return True, unless it lies in the span of the stored rows.

        re and im are {key: int} dicts with no zero values; Rank reduces and keeps a copy of them.
        """
        re, im = dict(re), dict(im)
        pivots = self.pivots
        while re or im:
            lead = min(im) if not re else min(re) if not im else min(min(re), min(im))
            row = pivots.get(lead)
            if row is None:
                pivots[lead] = (re, im)
                return True
            r_re, r_im = row
            lr, li, mr, mi = r_re.get(lead, 0), r_im.get(lead, 0), re.get(lead, 0), im.get(lead, 0)
            # Scaling lam and mu by one nonzero factor keeps the span, so
            # drop their common content, and the sign of a negative real lam.
            g = gcd(lr, li, mr, mi)
            if li == 0 and lr < 0:
                g = -g
            lr, li, mr, mi = lr // g, li // g, mr // g, mi // g
            v_re, v_im = re, im
            if li or lr != 1:
                # v <- lam*v into new dicts, as each part reads both old parts;
                # for lam = 1 the parts update in place, each reading only itself.
                re = {k: lr * x for k, x in v_re.items()} if lr else {}
                im = {k: lr * x for k, x in v_im.items()} if lr else {}
            # Then out += m*part for the i*li*v parts of lam*v and the four of -mu*r.
            for out, m, part in ((re, -li, v_im), (im, li, v_re), (re, -mr, r_re),
                                 (im, -mr, r_im), (re, mi, r_im), (im, -mi, r_re)):
                if m and part:
                    for k, x in part.items():
                        s = out.get(k, 0) + m * x
                        if s:
                            out[k] = s
                        else:
                            del out[k]
            content = gcd(*re.values(), *im.values())
            if content > 1:
                re = {k: x // content for k, x in re.items()}
                im = {k: x // content for k, x in im.items()}
        return False


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
    ech = Echelon.over(unknowns)
    ech.impose_linear([as_poly(eq) for eq in equations])
    return LinearSolution(ech.solved(), frozenset(ech.free()))
