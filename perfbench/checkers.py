"""Independent checks for the benchmark's outputs, in the standard library only.

Nothing here calls frameforms arithmetic.  Program objects are first
converted to plain dictionaries over Q(i), where a number is a pair of
Fractions, and every check works on those: a sparse echelon form for
ranks, an exterior derivative from structure constants, reconstruction
of a form from its components and the pairing of a dual basis.

A polynomial is a dict {monomial: number}, a monomial being a tuple of
(symbol index, exponent) pairs; a form is a dict {wedge monomial:
polynomial}.  A failed check raises CheckError saying what differed.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


class CheckError(AssertionError):
    """An output of the program disagrees with an independent computation."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


# --- Q(i) numbers --------------------------------------------------------------

def q(re, im=0):
    return (Fraction(re), Fraction(im))


def qadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def qmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def qinv(a):
    n = a[0] * a[0] + a[1] * a[1]
    if not n:
        raise ZeroDivisionError("inverse of zero in Q(i)")
    return (a[0] / n, -a[1] / n)


def qnonzero(a):
    return bool(a[0]) or bool(a[1])


# --- sparse vectors, polynomials and forms -------------------------------------

def axpy(acc, factor, vec):
    """acc += factor * vec in place, for dicts of Q(i) numbers."""
    for k, v in vec.items():
        s = qadd(acc.get(k, ZERO), qmul(factor, v))
        if qnonzero(s):
            acc[k] = s
        else:
            acc.pop(k, None)
    return acc


def pscale(poly, c):
    """A polynomial times a Q(i) constant."""
    return axpy({}, c, poly)


def padd(a, b):
    return axpy(dict(a), ONE, b)


def psub(a, b):
    return axpy(dict(a), q(-1), b)


def form_axpy(acc, factor, form):
    """acc += factor * form in place; factor is a Q(i) constant."""
    for mono, poly in form.items():
        s = axpy(dict(acc.get(mono, {})), factor, poly)
        if s:
            acc[mono] = s
        else:
            acc.pop(mono, None)
    return acc


# --- conversions from program objects -------------------------------------------

def from_gaussian(g):
    return (Fraction(g.re), Fraction(g.im))


def from_poly(p):
    out = {}
    for mono, c in p.terms.items():
        v = from_gaussian(c)
        if qnonzero(v):
            out[tuple((getattr(s, "index", s), e) for s, e in mono)] = v
    return out


def from_form(w):
    return {mono: from_poly(c) for mono, c in w.coefficients() if c}


def constant_form(w):
    """A constant-coefficient form as {wedge monomial: Q(i)}."""
    out = {}
    for mono, poly in from_form(w).items():
        require(set(poly) <= {()}, f"coefficient of {mono} is not constant")
        if poly:
            out[mono] = poly[()]
    return out


def affine_row(p):
    """An affine polynomial with constant coefficients as {symbol index or 'const': Q(i)}."""
    out = {}
    for mono, v in from_poly(p).items():
        require(len(mono) <= 1 and all(e == 1 for _, e in mono), f"{p} is not affine")
        out[mono[0][0] if mono else "const"] = v
    return out


# --- rank by sparse echelon form --------------------------------------------------

def echelon_rank(rows):
    """Rank over Q(i) of sparse rows given as dicts key -> Q(i) number.

    Each stored pivot row is reduced by the earlier ones, so reducing a
    new row by every stored row in turn clears all pivot keys.
    """
    pivots = []
    for row in rows:
        r = {k: v for k, v in row.items() if qnonzero(v)}
        for key, prow in pivots:
            c = r.get(key)
            if c is not None:
                axpy(r, qmul(q(-1), c), prow)
        if r:
            key = next(iter(r))
            pivots.append((key, pscale(r, qinv(r[key]))))
    return len(pivots)


# --- exterior algebra from structure constants ------------------------------------

def wedge_sign(left, right):
    """Sort left + right; returns (sorted tuple, sign) or (None, 0) on a repeat."""
    seq = tuple(left) + tuple(right)
    if len(set(seq)) != len(seq):
        return None, 0
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return tuple(sorted(seq)), -1 if inversions % 2 else 1


def exterior_d(form, table):
    """d of a form given table[g] = {(i, j): Q(i)} with de^g = sum c_ij e^i e^j.

    Symbols are constants for d, so d acts on the monomials alone, by
    the graded Leibniz rule.
    """
    out = {}
    for mono, coeff in form.items():
        for pos, g in enumerate(mono):
            for pair, c in table.get(g, {}).items():
                merged, s1 = wedge_sign(mono[:pos], pair)
                if not s1:
                    continue
                merged, s2 = wedge_sign(merged, mono[pos + 1 :])
                if not s2:
                    continue
                sign = s1 * s2 * (-1 if pos % 2 else 1)
                form_axpy(out, qmul(c, q(sign)), {merged: coeff})
    return out


# --- the checks ----------------------------------------------------------------------

def check_cartan(c, codim, *, expected_codim, identity_flag, polar_ranks, vn_rank):
    """Cartan characters against the mathematics and an independent rank count."""
    c = tuple(c)
    require(codim == expected_codim, f"codim {codim} != n*(dim so(n) - dim H) = {expected_codim}")
    require(codim == vn_rank, f"codim {codim} != echelon rank {vn_rank} of the V_n equations")
    require(c == tuple(polar_ranks), f"c {c} != echelon ranks {tuple(polar_ranks)} of the polar equations")
    require(all(a <= b for a, b in zip(c, c[1:])), f"c {c} is not nondecreasing")
    require(sum(c) <= codim, f"sum(c) = {sum(c)} exceeds codim {codim} (Cartan's inequality)")
    if identity_flag:
        require(sum(c) == codim, f"sum(c) = {sum(c)} != codim {codim} at the identity flag")


def check_verbose_listing(text, c, codim):
    """An eds --verbose listing: codim V_n lines and c_j polar lines for each j."""
    lines = text.splitlines()
    vn = sum(1 for line in lines if line.startswith("# Vn equation: "))
    require(vn == codim, f"{vn} V_n lines for codim {codim}")
    for j, cj in enumerate(c):
        got = sum(1 for line in lines if line.startswith(f"# polar[j={j}]: "))
        require(got == cj, f"{got} polar lines at j={j}, expected c_{j} = {cj}")
    tail = [f"c_{j}={cj}" for j, cj in enumerate(c)] + [f"codim(V_{len(c)})={codim}"]
    require(lines[-len(tail) - 1 : -1] == tail, "the summary lines disagree with the Cartan test")


def check_reconstruction(elements, comps, target):
    """sum_j comps_j * x_j == target for constant elements {mono: Q(i)}."""
    require(len(comps) == len(elements), f"{len(comps)} components for {len(elements)} elements")
    acc = {}
    for x, cj in zip(elements, comps):
        for mono, v in x.items():
            form_axpy(acc, v, {mono: cj})
    require(acc == target, "the components do not reproduce the queried form")


def check_pairing(duals, elements):
    """pairing(dual_i, x_j) == delta_ij for constant forms {mono: Q(i)}."""
    require(len(duals) == len(elements), f"{len(duals)} duals for {len(elements)} elements")
    for i, a in enumerate(duals):
        for j, b in enumerate(elements):
            s = ZERO
            for mono, v in a.items():
                if mono in b:
                    s = qadd(s, qmul(v, b[mono]))
            require(s == (ONE if i == j else ZERO), f"pairing(dual_{i}, x_{j}) = {s}")
