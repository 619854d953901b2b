"""Parallelizable manifolds given by a global coframe e^1..e^n.

The exterior derivative is defined by a d-table assigning a 2-form to
each generator and extends to arbitrary forms by linearity over the
scalars (symbols are d-constants) and the graded Leibniz rule.  The Lie
bracket and Lie derivative are derived from d through the canonical
pairing, with the 2-form evaluation convention
(α∧β)(X,Y) = α(X)β(Y) − α(Y)β(X) fixed by the double hook.
"""

from __future__ import annotations

import operator
import re

from .errors import (
    DegreeError,
    DimensionError,
    FileFormatError,
    FormParseError,
    FrameIndexError,
    MissingDeclarationError,
    NotNilpotentError,
    RedeclarationError,
)
from .exterior import Form, _index, _leibniz, as_form, hook, parse_form, print_form
from .scalar import Session

__all__ = ["FrameManifold", "load_manifold"]


class FrameManifold:
    """A manifold presented by n coframe generators and a d-table."""

    def __init__(self, session: Session, dim: int):
        if operator.index(dim) < 1:
            raise DimensionError(f"manifold dimension must be >= 1, got {dim}")
        self.session = session
        self.dim = dim
        self.d_table = {}
        self._closed = False  # set by load_manifold: a generator without an entry has d e^i = 0
        self._gens = {}

    def e(self, i: int) -> Form:
        """The i-th coframe generator (doubles as the i-th frame vector).

        Only an int index reads the cache, so one that is not, such as 2.0,
        raises TypeError whether or not e^2 is cached.
        """
        g = self._gens.get(i) if type(i) is int else None
        if g is None:
            g = Form.generator(self, i)
            self._gens[i] = g
        return g

    def generators(self) -> list[Form]:
        return [self.e(i) for i in range(1, self.dim + 1)]

    def zero(self) -> Form:
        return Form.zero(self)

    def scalar(self, value) -> Form:
        return Form.scalar(self, value)

    def parse(self, text: str) -> Form:
        return parse_form(self, text)

    def _gen_index(self, gen) -> int:
        if isinstance(gen, Form):
            gen = as_form(self, gen)
            if len(gen.terms) != 1:
                raise FrameIndexError("expected a single generator")
            (mono, c), = gen.terms.items()
            if len(mono) != 1 or c != 1:
                raise FrameIndexError("expected a single generator")
            return mono[0]
        return _index(gen, 1, self.dim, "generator index")

    def declare_d(self, gen, value):
        """Record d(e^i) = value, a 2-form or zero.

        An entry made to a complete table (one entry per generator, or a
        loaded one) checks d∘d = 0 and is not kept on NotNilpotentError.
        """
        i = self._gen_index(gen)
        w = as_form(self, value)
        if i in self.d_table:
            raise RedeclarationError(f"d(e{i}) already declared")
        if w and not w.is_homogeneous(2):
            raise DegreeError(f"d(e{i}) must be a 2-form or zero")
        self.d_table[i] = w
        if self._closed or len(self.d_table) == self.dim:
            try:
                self._check_nilpotent()
            except NotNilpotentError:
                del self.d_table[i]
                raise

    def _check_nilpotent(self):
        """Raise NotNilpotentError, naming the first declared generator, when d(d e^i) is not zero."""
        for i in sorted(self.d_table):
            dd = self.d(self.d_table[i])
            if dd:
                raise NotNilpotentError(f"d(d(e{i})) = {print_form(dd)} is not zero")

    def _d_generator(self, i: int) -> Form:
        try:
            return self.d_table[i]
        except KeyError:
            if self._closed:
                return self.zero()
            raise MissingDeclarationError(f"d(e{i}) has not been declared") from None

    def d(self, w) -> Form:
        """Exterior derivative: the d-table on generators, extended as an odd derivation."""
        return _leibniz(as_form(self, w), self._d_generator, odd=True)

    def lie_bracket(self, X: Form, Y: Form) -> Form:
        """Constant-coefficient Lie bracket: <[X,Y], e^k> = −(de^k)(X,Y).

        A loaded manifold's omitted generators are closed, so only its
        declared entries are read and the cost follows them, not dim.
        """
        declared = sorted(self.d_table) if self._closed else range(1, self.dim + 1)
        out = {}
        for k in declared:
            dk = self._d_generator(k)
            if not dk:
                continue
            val = hook(Y, hook(X, dk)).scalar_part()
            if val:
                out[(k,)] = -val
        return Form(self, out)

    def lie_derivative(self, X: Form, w) -> Form:
        """Cartan formula: L_X ω = X ⌟ dω + d(X ⌟ ω)."""
        w = as_form(self, w)
        return hook(X, self.d(w)) + self.d(hook(X, w))

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dim}>"


def _content_lines(text):
    """(number from 1, text) of each input-file line left non-blank once its '#' comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


_DIM_RE = re.compile(r"^dim\s+(\d+)$", re.ASCII)
_D_RE = re.compile(r"^d\s+(\d+)\s*=\s*(\S+)$", re.ASCII)


def _read_int(lineno, digits):
    """A digit string as an int; one too long for int() is a FileFormatError."""
    try:
        return int(digits)
    except ValueError:
        raise FileFormatError(lineno, f"integer of {len(digits)} digits is too long") from None


def load_manifold(session: Session, text: str) -> FrameManifold:
    """Build a manifold from its definition file.

    Lines: ``dim <n>`` once, then ``d <i> = <form-string>`` entries in
    the parse_form grammar; '#' starts a comment.  All lines are read
    before any entry is declared.  A generator the file omits is closed:
    its d reads as zero and it stays undeclared, so the cost follows the
    entries, not n.  Raises NotNilpotentError, naming the first declared
    generator, when d(d e^i) is not zero, at the last new generator of a
    file that declares them all; a later declare_d is checked as well.
    """
    manifold = None
    entries = []
    for lineno, line in _content_lines(text):
        m = _DIM_RE.match(line)
        if m:
            if manifold is not None:
                raise FileFormatError(lineno, "duplicate dim line")
            try:
                manifold = FrameManifold(session, _read_int(lineno, m.group(1)))
            except DimensionError as exc:
                raise FileFormatError(lineno, str(exc)) from None
            continue
        m = _D_RE.match(line)
        if m:
            if manifold is None:
                raise FileFormatError(lineno, "d entry before dim line")
            entries.append((lineno, _read_int(lineno, m.group(1)), m.group(2)))
            continue
        raise FileFormatError(lineno, f"unrecognized line: {line}")
    if manifold is None:
        raise FileFormatError(0, "missing dim line")
    for lineno, idx, text_form in entries:
        try:
            form = parse_form(manifold, text_form)
            manifold.declare_d(idx, form)
        except (FormParseError, FrameIndexError, DegreeError, RedeclarationError) as exc:
            raise FileFormatError(lineno, str(exc)) from None
    manifold._closed = True
    manifold._check_nilpotent()
    return manifold
