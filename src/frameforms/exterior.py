"""The exterior algebra over frame generators.

A Form is a Poly-weighted sum of wedge monomials; a monomial is a
strictly increasing tuple of 1-based generator indices of its owner
manifold, so every stored form is fully normalized and equality is
dictionary equality.  The canonical pairing makes the monomials an
orthonormal set, which is what lets one-forms double as vector fields
throughout the engine.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DegreeError,
    FormParseError,
    FrameIndexError,
    FrameMismatchError,
    MixedDegreeError,
)
from .scalar import (
    GaussianRational, I, Poly, _scaled_str, _signed_sum, _SparseVector, accumulate, as_poly,
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


def _merge_indices(m1, m2):
    """Merge two strictly increasing index tuples, tracking the sign.

    Returns (merged, sign) with sign in {1, -1}, or (None, 0) when an
    index repeats (the wedge is zero).
    """
    if not m1:
        return m2, 1
    if not m2:
        return m1, 1
    out = []
    sign = 1
    i = j = 0
    n1 = len(m1)
    while i < n1 and j < len(m2):
        a, b = m1[i], m2[j]
        if a == b:
            return None, 0
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
            if (n1 - i) % 2:
                sign = -sign
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out), sign


def _mono_key(mono):
    return (len(mono), mono)


def _generator_index(manifold, i):
    """i, checked to be a generator index 1..dim of the manifold."""
    if not 1 <= i <= manifold.dim:
        raise FrameIndexError(f"generator index {i} outside 1..{manifold.dim}")
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
        return cls(manifold, {(_generator_index(manifold, i),): Poly.constant(1)})

    def _coerce(self, x):
        if isinstance(x, Form):
            if x.manifold is not self.manifold:
                raise FrameMismatchError("forms belong to different manifolds")
            return x
        p = Poly._coerce(x)
        return None if p is None else Form.scalar(self.manifold, p)

    def _like(self, terms):
        return Form(self.manifold, terms)

    def __mul__(self, other):
        """Wedge with another form; scalars multiply coefficients."""
        if isinstance(other, Form):
            return wedge(self, other)
        p = as_poly(other)
        return self._scale(p) if p else Form.zero(self.manifold)

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
        return self.terms.get(tuple(mono), Poly.zero())

    def scalar_part(self) -> Poly:
        return self.terms.get((), Poly.zero())

    def coefficients(self):
        return coefficients(self)

    def substitute_scalars(self, rules: dict) -> "Form":
        """Apply a symbol substitution to every coefficient polynomial."""
        if not rules:
            return self
        out = {m: c.substitute(rules) for m, c in self.terms.items()}
        return self._like({m: c for m, c in out.items() if c})

    def __str__(self):
        return print_form(self)

    def __repr__(self):
        return f"Form({print_form(self)})"


def wedge(a: Form, b: Form) -> Form:
    """Exterior product; bilinear over Poly and graded-anticommutative."""
    if b.manifold is not a.manifold:
        raise FrameMismatchError("forms belong to different manifolds")
    pairs = (
        (m, c1 * c2 if sign > 0 else -(c1 * c2))
        for m1, c1 in a.terms.items()
        for m2, c2 in b.terms.items()
        for m, sign in [_merge_indices(m1, m2)]
        if sign
    )
    return Form(a.manifold, accumulate({}, pairs))


def hook(v: Form, w: Form) -> Form:
    """Interior product v ⌟ w for a degree-1 (or zero) first argument.

    Extends ``<v, e^j>`` as a degree -1 antiderivation: on a monomial
    a1∧...∧ak it contracts each factor in turn with alternating sign.
    """
    if w.manifold is not v.manifold:
        raise FrameMismatchError("forms belong to different manifolds")
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


def _leibniz(w: Form, image, odd: bool) -> Form:
    """Extend image(g), the form generator g goes to, to w as a derivation.

    _merge_indices merges the image of the generator at position pos
    with the rest of the monomial as if it stood in front, which costs
    (-1)^(pos*q) for an image monomial of degree q; an odd derivation
    (d) picks up a further (-1)^pos, an even one (nabla) none.
    """
    images = {}
    out = {}
    for mono, c in w.terms.items():
        for pos, g in enumerate(mono):
            if g not in images:
                images[g] = image(g)
            rest = mono[:pos] + mono[pos + 1 :]
            for m, b in images[g].terms.items():
                merged, sign = _merge_indices(m, rest)
                if not sign:
                    continue
                if pos * (len(m) + odd) % 2:
                    sign = -sign
                accumulate(out, [(merged, b * c if sign > 0 else -(b * c))])
    return Form(w.manifold, out)


def pairing(a: Form, b: Form) -> Poly:
    """Canonical bilinear pairing; monomials form an orthonormal set."""
    if b.manifold is not a.manifold:
        raise FrameMismatchError("forms belong to different manifolds")
    out = {}
    small, large = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    for m, c in small.items():
        c2 = large.get(m)
        if c2 is not None:
            accumulate(out, (c * c2).terms.items())
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
        _generator_index(M, g)
        f = f if isinstance(f, Form) else Form.scalar(M, f)
        if f.manifold is not M:
            raise FrameMismatchError("replacement form from a different manifold")
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

def _mono_print(mono):
    # The scalar monomial prints as e[], so a scalar part parses back as one.
    if mono and all(i <= 9 for i in mono):
        return "e" + "".join(str(i) for i in mono)
    return "e[" + ",".join(str(i) for i in mono) + "]"


def _coeff_print(c: Poly, mono_str: str) -> str:
    if c.is_constant():
        return _scaled_str(c.constant_value(), mono_str)
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
    output parse back.
    """
    sc = _Scanner(text.strip())
    if not sc.text:
        sc.error("empty form string")
    if sc.text == "0":
        return Form.zero(frame)
    out = {}
    sign = 1
    if sc.peek() == "-":
        sc.take()
        sign = -1
    while True:
        accumulate(out, _parse_term(frame, sc, sign).terms.items())
        ch = sc.peek()
        if not ch:
            return Form(frame, out)
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            sc.error(f"unexpected character {ch!r}")
        sc.take()


def _parse_int(sc):
    start = sc.pos
    while sc.peek().isdigit():
        sc.take()
    if sc.pos == start:
        sc.error("expected an integer")
    return int(sc.text[start : sc.pos]), start


def _parse_scalar(sc):
    if sc.peek() == "i":
        sc.take()
        return I
    value, _ = _parse_int(sc)
    if sc.peek() == "/":
        sc.take()
        den, _ = _parse_int(sc)
        if den == 0:
            sc.error("zero denominator")
        value = Fraction(value, den)
    if sc.text.startswith("*i", sc.pos):
        sc.pos += 2
        return value * I
    return value


def _parse_coeff(sc):
    """A term's coefficient and its '*', or 1 if the term starts with its monomial."""
    start = sc.pos
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
        value = _parse_scalar(sc)
    if sc.peek() == "*":
        sc.take()
        return value
    if not sc.text[start : sc.pos].isdigit():
        sc.error("expected '*' after coefficient")
    # The integer was the digit string of the monomial itself.
    sc.pos = start
    return 1


def _parse_term(frame, sc, sign):
    ch = sc.peek()
    if not (ch.isdigit() or ch in ("e", "i", "(")):
        sc.error("expected a term")
    mono = Form.scalar(frame, sign * _parse_coeff(sc))
    if sc.peek() == "e":
        sc.take()
        if sc.peek() == "[":
            sc.take()
            if sc.peek() == "]":
                sc.take()
                return mono
            while True:
                d, pos = _parse_int(sc)
                mono = wedge(mono, _generator(frame, d, pos))
                if sc.peek() != ",":
                    break
                sc.take()
            if sc.take() != "]":
                sc.error("expected ',' or ']' in an index list")
            return mono
    digit_start = sc.pos
    while sc.peek().isdigit():
        mono = wedge(mono, _generator(frame, int(sc.take()), sc.pos - 1))
    if sc.pos == digit_start:
        sc.error("expected frame index digits")
    return mono


def _generator(frame, d, pos):
    """The generator of frame index d, read at position pos."""
    if d == 0:
        raise FormParseError(pos, "frame index must be 1 or more")
    if d > frame.dim:
        raise FrameIndexError(f"index {d} exceeds frame dimension {frame.dim} at position {pos}")
    return Form.generator(frame, d)
