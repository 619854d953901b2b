"""The exterior algebra over frame generators.

A Form is a Poly-weighted sum of wedge monomials; a monomial is a
strictly increasing tuple of 1-based generator indices of its owner
manifold, so every stored form is fully normalized and equality is
dictionary equality.  The canonical pairing makes the monomials an
orthonormal set, which is what lets one-forms double as vector fields
throughout the engine.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from fractions import Fraction

from .errors import (
    DegreeError,
    FormParseError,
    FrameIndexError,
    FrameMismatchError,
    MixedDegreeError,
)
from .scalar import (
    GaussianRational, I, Poly, _add_scaled, _scaled_str, _signed_sum, _SparseVector, _unit, accumulate, as_poly,
)

__all__ = [
    "Form",
    "wedge",
    "hook",
    "pairing",
    "degree",
    "coefficients",
    "substitute_form",
    "parse_form",
    "print_form",
]


def _mono_key(mono):
    return (len(mono), mono)


def _index(i, lo, hi, what, error=FrameIndexError):
    """i read by operator.index and checked to lie in lo..hi, else error("<what> i outside lo..hi")."""
    i = operator.index(i)
    if not lo <= i <= hi:
        raise error(f"{what} {i} outside {lo}..{hi}")
    return i


class Form(_SparseVector):
    """A graded exterior-algebra element over one manifold's frame."""

    __slots__ = ("manifold", "terms")

    def __init__(self, manifold, terms=None):
        self.manifold = manifold
        self.terms = terms or {}

    @classmethod
    def zero(cls, manifold):
        return cls(manifold, {})

    @classmethod
    def scalar(cls, manifold, value):
        p = as_poly(value)
        return cls(manifold, {(): p} if p else {})

    @classmethod
    def generator(cls, manifold, i):
        return cls(manifold, {(_index(i, 1, manifold.dim, "generator index"),): Poly.constant(1)})

    def _coerce(self, x):
        x = x if isinstance(x, Form) else Poly._coerce(x)
        return None if x is None else as_form(self.manifold, x)

    def _like(self, terms):
        return Form(self.manifold, terms)

    def __mul__(self, other):
        """Wedge with another form; scalars multiply coefficients."""
        if isinstance(other, Form):
            return wedge(self, other)
        return self._scale(other)

    # Scalars commute past forms; Form*Form never reaches __rmul__.
    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Form):
            return self.manifold is other.manifold and self.terms == other.terms
        o = self._coerce(other)
        return NotImplemented if o is None else self.terms == o.terms

    def degree(self):
        return degree(self)

    def is_homogeneous(self, k):
        return all(len(m) == k for m in self.terms)

    def coefficient(self, mono) -> Poly:
        """The coefficient of e[mono] in any index order: an odd order negates it, a repeat gives 0."""
        term = _sorted_term([_index(i, 1, self.manifold.dim, "generator index") for i in mono], 1)
        if term is None:
            return Poly.zero()
        return term[1] * self.terms.get(term[0], Poly.zero())

    def scalar_part(self) -> Poly:
        return self.terms.get((), Poly.zero())

    def coefficients(self):
        return coefficients(self)

    def __str__(self):
        return print_form(self)


def as_form(manifold, x) -> Form:
    """x as a form of the manifold: its own form as it is, a scalar as a degree-0 form.

    A form of another manifold raises FrameMismatchError, a non-scalar TypeError.
    """
    if not isinstance(x, Form):
        return Form.scalar(manifold, x)
    if x.manifold is not manifold:
        raise FrameMismatchError("forms belong to different manifolds")
    return x


def _as_forms(a, b):
    """(a, b) as forms of the manifold of whichever is a Form (a's first); TypeError if neither is."""
    if isinstance(a, Form):
        return a, as_form(a.manifold, b)
    if isinstance(b, Form):
        return as_form(b.manifold, a), b
    raise TypeError("expected a Form argument, got two scalars")


def wedge(a: Form, b: Form) -> Form:
    """Exterior product; bilinear over Poly and graded-anticommutative.

    Each index x of a monomial m2 of b passes the len(m1) - k indices of
    a's monomial m1 above it, k = bisect_left(m1, x), one sign each; an
    index in both makes the product zero.
    """
    a, b = _as_forms(a, b)
    pairs = []
    for m1, c1 in a.terms.items():
        n1 = len(m1)
        for m2, c2 in b.terms.items():
            flips = 0
            for x in m2:
                k = bisect_left(m1, x)
                if k < n1 and m1[k] == x:
                    break
                flips += n1 - k
            else:
                pairs.append((tuple(sorted(m1 + m2)), c1 * c2 if flips % 2 == 0 else -(c1 * c2)))
    return Form(a.manifold, accumulate({}, pairs))


def hook(v: Form, w: Form) -> Form:
    """Interior product v ⌟ w for a degree-1 (or zero) first argument.

    Extends ``<v, e^j>`` as a degree -1 antiderivation: on a monomial
    a1∧...∧ak it contracts each factor in turn with alternating sign.
    """
    v, w = _as_forms(v, w)
    if v and not v.is_homogeneous(1):
        raise DegreeError("hook expects a degree-1 first argument")
    pairs = (
        (mono[:pos] + mono[pos + 1 :], -(cv * cm) if pos % 2 else cv * cm)
        for (g,), cv in v.terms.items()
        for mono, cm in w.terms.items()
        if g in mono
        for pos in [mono.index(g)]
    )
    return Form(v.manifold, accumulate({}, pairs))


def _expansion(mono, memo, image, odd):
    """One monomial's image under the derivation, before its coefficient scales it.

    A tuple of (sorted key, b, unit) triples in position, image-term
    order.  The factor at position pos becomes m∧rest for each term
    b·m of its generator's image, times (-1)^(pos·q), q = len(m) + odd:
    m moves in front of the pos factors before it, and an odd
    derivation (d) passes them too, an even one (nabla) does not.
    Sorting m into rest costs -1 per pair x in m, y in rest with y < x,
    counted by bisect; an index of m already in rest gives no triple.
    unit is the signed ±1 when b is the constant ±1, else 0 and b
    carries the sign.  memo keeps each generator's image as terms
    (m, b, q, unit) under its int index g, so image(g) is read once per memo.
    """
    out = []
    for pos, g in enumerate(mono):
        terms = memo.get(g)
        if terms is None:
            terms = memo[g] = [
                (m, b, len(m) + odd, _unit(b.terms[()]) if b.is_constant() else 0)
                for m, b in image(g).terms.items()
            ]
        rest = mono[:pos] + mono[pos + 1 :]
        for m, b, q, unit in terms:
            flips = pos * q
            for x in m:
                k = bisect_left(rest, x)
                if k < len(rest) and rest[k] == x:
                    break
                flips += k
            else:
                if flips % 2:
                    if unit:
                        unit = -unit
                    else:
                        b = -b
                out.append((tuple(sorted(rest + m)), b, unit))
    return tuple(out)


def _leibniz(w: Form, image, odd: bool, memo=None) -> Form:
    """Extend image(g), the form generator g goes to, to w as a derivation.

    Each monomial's _expansion and generator's image are made once per
    call, or once per memo, a dict {monomial: expansion, g: image terms}
    that the caller keeps and must drop whenever image changes.  A
    monomial c·mono then adds b·c under each key of its expansion: c or
    -c for a unit b, with -c made at most once per monomial, so no Poly
    is multiplied; any other b gives b·c, which is b itself for c = 1.
    Terms are added in monomial, position, image-term order.
    """
    if memo is None:
        memo = {}
    pairs = []
    for mono, c in w.terms.items():
        expansion = memo.get(mono)
        if expansion is None:
            expansion = memo[mono] = _expansion(mono, memo, image, odd)
        neg = None
        for key, b, unit in expansion:
            if not unit:
                pairs.append((key, b * c))
            elif unit > 0:
                pairs.append((key, c))
            else:
                if neg is None:
                    neg = -c
                pairs.append((key, neg))
    return Form(w.manifold, accumulate({}, pairs))


def pairing(a: Form, b: Form) -> Poly:
    """Canonical bilinear pairing; monomials form an orthonormal set.

    Each shared monomial's product c·c2 is added straight into one term
    dict, c's terms scaling c2's by _add_scaled, with no Poly between.
    """
    a, b = _as_forms(a, b)
    out = {}
    small, large = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    for m, c in small.items():
        c2 = large.get(m)
        if c2 is not None:
            for sm, x in c.terms.items():
                _add_scaled(out, c2.terms, x, sm)
    return Poly(out)


def degree(w: Form) -> int:
    """Common monomial length of a homogeneous form; 0 for scalars."""
    lengths = {len(m) for m in w.terms}
    if not lengths:
        return 0
    if len(lengths) > 1:
        raise MixedDegreeError(f"form has mixed degrees {sorted(lengths)}")
    return lengths.pop()


def coefficients(w: Form):
    """All (monomial, coefficient) pairs in canonical monomial order."""
    return [(m, w.terms[m]) for m in sorted(w.terms, key=_mono_key)]


def substitute_form(w: Form, rules: dict) -> Form:
    """Simultaneously replace generators by degree <= 1 forms.

    Keys are generator indices; each right-hand side must be a form of
    degree 1, a scalar, or zero.  Monomials are re-expanded through the
    wedge, so signs and cancellations come out normalized.
    """
    M = w.manifold
    repl = {}
    for g, f in rules.items():
        _index(g, 1, M.dim, "generator index")
        f = as_form(M, f)
        if any(len(m) > 1 for m in f.terms):
            raise DegreeError(f"replacement for e{g} must have degree <= 1")
        repl[g] = f
    out = {}
    for mono, c in w.terms.items():
        term = Form.scalar(M, c)
        for g in mono:
            factor = repl.get(g)
            if factor is None:
                factor = Form.generator(M, g)
            term = wedge(term, factor)
            if not term:
                break
        accumulate(out, term.terms.items())
    return Form(M, out)


# --- printing -------------------------------------------------------------

def _indexed_name(name, indices):
    """name and its index tuple, as digits when each is at most 9, else as a bracket list."""
    if indices and max(indices) <= 9:
        return name + "%d" * len(indices) % indices
    return name + "[" + ",".join(map(str, indices)) + "]"


def _mono_print(mono):
    # The scalar monomial prints as e[], so a scalar part parses back as one.
    return _indexed_name("e", mono)


def _coeff_print(c: Poly, mono_str: str) -> str:
    if c.is_constant():
        c = c.constant_value()
        return _scaled_str(c._a, c._b, c._d, mono_str)
    if len(c.terms) == 1:
        return f"{c}*{mono_str}"
    return f"({c})*{mono_str}"


def _print_terms(terms) -> str:
    """Join (coefficient, monomial string) pairs into a signed sum; "0" if none."""
    return _signed_sum(_coeff_print(c, mono_str) for c, mono_str in terms)


def print_form(w: Form) -> str:
    """Deterministic text rendering; inverse of parse_form on its range."""
    return _print_terms((w.terms[m], _mono_print(m)) for m in sorted(w.terms, key=_mono_key))


# --- parsing --------------------------------------------------------------

class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def error(self, reason):
        raise FormParseError(self.pos, reason)


def parse_form(frame, text: str) -> Form:
    """Parse a form string like "567-512" or "3/2*123-(1+i)*42" over a frame.

    Grammar: form := '0' | ['-'] term (('+'|'-') term)*;
    term := [coeff '*'] (['e'] digits | 'e[' [integer (',' integer)*] ']');
    coeff := scalar | '(' ['-'] scalar (('+'|'-') scalar)* ')';
    scalar := 'i' | number ['*' 'i'];  number := integer ['/' integer];
    digits := one or more of '1'..'9', each a frame index.
    '0' is the zero form and the empty list 'e[]' the scalar monomial 1.
    The optional 'e' and the bracket list, which print_form writes for
    the scalar monomial and when an index exceeds 9, let print_form
    output parse back.  A term's indices are checked as they are read
    and then sorted once, with no wedge: the sign is the parity of their
    inversions, and a repeated index makes the term zero.
    """
    sc = _Scanner(text.strip())
    if not sc.text:
        sc.error("empty form string")
    if sc.text == "0":
        return Form.zero(frame)
    pairs = []
    sign = 1
    if sc.peek() == "-":
        sc.take()
        sign = -1
    while True:
        term = _parse_term(frame, sc, sign)
        if term is not None:
            pairs.append((term[0], Poly.constant(term[1])))
        ch = sc.peek()
        if not ch:
            return Form(frame, accumulate({}, pairs))
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            sc.error(f"unexpected character {ch!r}")
        sc.take()


def _is_digit(ch):
    """Whether ch is one of the ASCII digits '0'..'9' (str.isdigit also takes '²')."""
    return "0" <= ch <= "9"


def _parse_int(sc):
    start = sc.pos
    while _is_digit(sc.peek()):
        sc.take()
    if sc.pos == start:
        sc.error("expected an integer")
    try:
        return int(sc.text[start : sc.pos]), start
    except ValueError:  # more digits than int() converts
        raise FormParseError(start, f"integer of {sc.pos - start} digits is too long") from None


def _parse_scalar(sc):
    if sc.peek() == "i":
        sc.take()
        return I
    value, _ = _parse_int(sc)
    if sc.peek() == "/":
        sc.take()
        den, start = _parse_int(sc)
        if den == 0:
            raise FormParseError(start, "zero denominator")
        value = Fraction(value, den)
    if sc.text.startswith("*i", sc.pos):
        sc.pos += 2
        return value * I
    return value


def _parse_coeff(sc):
    """A term's coefficient and its '*', or 1 if the term starts with its monomial.

    Digits followed by neither '/' nor '*' are the monomial itself, and
    are left unread.
    """
    if sc.peek() == "e":
        return 1
    if sc.peek() == "(":
        sc.take()
        value, op = GaussianRational(0), sc.take() if sc.peek() == "-" else "+"
        while op in ("+", "-"):
            term = _parse_scalar(sc)
            value = value + term if op == "+" else value - term
            op = sc.take()
        if op != ")":
            sc.error("expected '+', '-' or ')' in a coefficient")
    else:
        text, end = sc.text, sc.pos
        while _is_digit(text[end : end + 1]):
            end += 1
        if end > sc.pos and text[end : end + 1] not in ("/", "*"):
            return 1
        value = _parse_scalar(sc)
    if sc.peek() == "*":
        sc.take()
        return value
    sc.error("expected '*' after coefficient")


def _parse_term(frame, sc, sign):
    """One term as (sorted monomial, coefficient), or None for a zero term.

    Every index is checked, then the term is sorted once: its sign is
    the parity of the inversions, and a repeated index makes it zero.
    """
    ch = sc.peek()
    if not (_is_digit(ch) or ch in ("e", "i", "(")):
        sc.error("expected a term")
    coeff = sign * _parse_coeff(sc)
    indices = []
    if sc.peek() == "e":
        sc.take()
        if sc.peek() == "[":
            sc.take()
            if sc.peek() == "]":
                sc.take()
                return (), coeff
            while True:
                d, pos = _parse_int(sc)
                indices.append(_generator(frame, d, pos))
                if sc.peek() != ",":
                    break
                sc.take()
            if sc.take() != "]":
                sc.error("expected ',' or ']' in an index list")
            return _sorted_term(indices, coeff)
    digit_start = sc.pos
    while _is_digit(sc.peek()):
        indices.append(_generator(frame, int(sc.take()), sc.pos - 1))
    if sc.pos == digit_start:
        sc.error("expected frame index digits")
    return _sorted_term(indices, coeff)


def _sorted_term(indices, coeff):
    """(sorted monomial, ±coeff) of e[indices], signed by the sort's parity; None for a repeat.

    Each index is put in place by bisect, passing the indices above it
    that came before it, one sign each, as in wedge.
    """
    mono = []
    flips = 0
    for x in indices:
        k = bisect_left(mono, x)
        if k < len(mono) and mono[k] == x:
            return None
        flips += len(mono) - k
        mono.insert(k, x)
    return tuple(mono), -coeff if flips % 2 else coeff


def _generator(frame, d, pos):
    """Frame index d, read at position pos, checked to be a generator of the frame."""
    if d == 0:
        raise FormParseError(pos, "frame index must be 1 or more")
    if d > frame.dim:
        raise FrameIndexError(f"index {d} exceeds frame dimension {frame.dim} at position {pos}")
    return d
