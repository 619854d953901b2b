"""Command-line driver: built-in examples, EDS checking, one-off d computations.

Exit codes: 0 when the computation ran (whatever the verdict), 1 for
input errors (bad flags, unreadable or malformed files, unparseable
forms), 2 for mathematical errors (non-linear systems, inconsistent
declarations, missing d-table entries, a d-table with d(d e^i) != 0).
Output is plain ASCII, one fact per line, byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from itertools import islice

from .basis import FormBasis
from .connection import Connection, RiemannianManifold
from .eds import _flag_order, cartan_test, frame_bundle, load_ideal
from .errors import (
    EngineError,
    FileFormatError,
    FormParseError,
    FrameIndexError,
    DimensionError,
)
from .exterior import hook, parse_form, print_form
from .manifold import FrameManifold, load_manifold
from .scalar import Session

__all__ = ["main", "run", "run_example", "EXAMPLE_NAMES"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# --- built-in examples ------------------------------------------------------

def _nilpotent_manifold(session):
    M = FrameManifold(session, 4)
    M.declare_d(1, 0)
    M.declare_d(2, 0)
    M.declare_d(3, M.e(1) * M.e(2))
    M.declare_d(4, M.e(1) * M.e(3))
    return M


def _iwasawa_manifold(session):
    M = FrameManifold(session, 6)
    for i in (1, 2, 3, 4):
        M.declare_d(i, 0)
    M.declare_d(5, M.e(1) * M.e(3) + M.e(4) * M.e(2))
    M.declare_d(6, M.e(1) * M.e(4) + M.e(2) * M.e(3))
    return M


def almost_complex_torsion(session):
    """Torsion of the canonical almost-complex connection on the nilpotent group."""
    M = _nilpotent_manifold(session)
    h = Connection.torsion_free(M, prefix="Gamma")
    two_form = M.e(1) * M.e(2) + M.e(3) * M.e(4)

    def J(Y):
        return hook(Y, two_form)

    def A(X, Y):
        return h.nabla_vector(X, J(Y)) - J(h.nabla_vector(X, Y))

    def Q(X, Y):
        return (A(J(Y), X) + J(A(Y, X)) + 2 * J(A(X, Y))) * Fraction(1, 4)

    k = Connection(M, prefix="Gammat")
    for i in range(1, 5):
        for j in range(1, 5):
            k.declare_nabla_vector(
                M.e(i), M.e(j), h.nabla_vector(M.e(i), M.e(j)) - Q(M.e(i), M.e(j))
            )
    return M, h, k, k.torsion()


def example_nilpotent_torsion():
    session = Session()
    _, _, _, torsion = almost_complex_torsion(session)
    return [f"Theta_{j + 1} = {print_form(t)}" for j, t in enumerate(torsion)]


def su2_spinor_forms(M):
    return [
        M.e(1) * M.e(2) + M.e(3) * M.e(4),
        M.e(1) * M.e(3) + M.e(4) * M.e(2),
        M.e(1) * M.e(4) + M.e(2) * M.e(3),
    ]


def example_su2_spinor():
    session = Session()
    M = RiemannianManifold(session, 4)
    for i in range(1, 5):
        M.declare_nabla_spinor(M.e(i), M.u(0), 0)
    return [print_form(M.d(w)) for w in su2_spinor_forms(M)]


def bilagrangian_brackets(session):
    """Brackets of the bilagrangian distributions after the symplectic-connection

    declarations and the zero-torsion condition."""
    M = RiemannianManifold(session, 4)
    omega = Connection(M, prefix="Gamma'")
    sympl = M.e(1) * M.e(2) + M.e(3) * M.e(4)
    for k in range(1, 5):
        omega.declare_nabla_form(M.e(k), sympl, 0)
        for i in range(1, 5):
            for j in range(i % 2 + 1, 5, 2):
                omega.declare_zero([hook(M.e(j), omega.nabla_form(M.e(k), M.e(i)))])
    for k in range(1, 5):
        for i in range(k % 2 + 1, 5, 2):
            for j in range(k % 2 + 1, 5, 2):
                omega.declare_zero(
                    [
                        hook(
                            M.e(j),
                            omega.nabla_vector(M.e(k), M.e(i)) - M.lie_bracket(M.e(k), M.e(i)),
                        )
                    ]
                )
    M.declare_zero(omega.torsion())
    return M, M.lie_bracket(M.e(1), M.e(3)), M.lie_bracket(M.e(2), M.e(4))


def example_bilagrangian():
    session = Session()
    _, b13, b24 = bilagrangian_brackets(session)
    return [f"[e1,e3] = {print_form(b13)}", f"[e2,e4] = {print_form(b24)}"]


def iwasawa_exact_basis(session):
    M = _iwasawa_manifold(session)
    b = FormBasis(M)
    for i in range(1, 7):
        for j in range(i + 1, 7):
            b.insert(M.d(M.e(i) * M.e(j)))
    return M, b


def example_iwasawa():
    session = Session()
    M, b = iwasawa_exact_basis(session)
    lines = [print_form(x) for x in b]
    comps = b.components(M.d(M.e(4) * M.e(5)))
    lines.append("components(d(e45)) = (" + ",".join(str(c) for c in comps) + ")")
    return lines


G2_PHI = "567-512-534-613-642-714-723"
G2_STAR_PHI = "1234-6712-6734-7513-7542-5614-5623"


def g2_ideal(bundle):
    return [bundle.d(bundle.parse(G2_PHI)), bundle.d(bundle.parse(G2_STAR_PHI))]


def example_g2():
    session = Session()
    bundle = frame_bundle(session, 7)
    report = cartan_test(bundle, g2_ideal(bundle))
    return _cartan_lines(report)


def _cartan_lines(report):
    lines = [f"c_{j}={cj}" for j, cj in enumerate(report.c)]
    lines.append(f"codim(V_{len(report.c)})={report.codim}")
    lines.append("INVOLUTIVE" if report.involutive else "NOT INVOLUTIVE (at this flag)")
    return lines


EXAMPLES = {
    "nilpotent-torsion": example_nilpotent_torsion,
    "su2-spinor": example_su2_spinor,
    "bilagrangian": example_bilagrangian,
    "iwasawa": example_iwasawa,
    "g2": example_g2,
}

EXAMPLE_NAMES = tuple(EXAMPLES)


def run_example(name: str) -> str:
    return "\n".join(EXAMPLES[name]()) + "\n"


# --- generic commands ---------------------------------------------------------

def _cmd_example(args, out):
    out.write(run_example(args.name))
    return 0


def _parse_flag(text, bundle):
    """The --flag order; whether it is a permutation is `_flag_order`'s to decide."""
    n = bundle.n
    try:
        order = [int(p) for p in text.split(",")]
    except ValueError:
        raise _UsageError(f"--flag must be a comma-separated permutation of 1..{n}") from None
    try:
        return _flag_order(bundle, order)
    except DimensionError:
        raise _UsageError(f"--flag must be a permutation of 1..{n}") from None


def _read_text(path):
    """A UTF-8 input file's text; an undecodable byte is a FileFormatError on its line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            line = exc.object.count(b"\n", 0, exc.start) + 1
            reason = f"cannot decode byte {exc.object[exc.start]:#04x} as UTF-8 ({exc.reason})"
            raise FileFormatError(line, reason) from None


def _cmd_eds(args, out):
    session = Session()
    bundle = frame_bundle(session, args.dim)
    ideal = load_ideal(bundle, _read_text(args.ideal_file))
    flag = None if args.flag is None else _parse_flag(args.flag, bundle)
    report = cartan_test(bundle, ideal, flag)
    if args.verbose:
        for text in report.vn_text:
            out.write(f"# Vn equation: {text}\n")
        for j, texts in enumerate(report.polar_text):
            for text in texts:
                out.write(f"# polar[j={j}]: {text}\n")
    out.write("\n".join(_cartan_lines(report)) + "\n")
    return 0


def _cmd_dform(args, out):
    session = Session()
    M = load_manifold(session, _read_text(args.manifold_file))
    form = parse_form(M, args.form)
    out.write(print_form(M.d(form)) + "\n")
    return 0


def _build_parser():
    parser = _Parser(prog="frameforms", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="run a built-in worked example")
    p.add_argument("name", choices=EXAMPLE_NAMES)
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("eds", help="Cartan involutivity test for an ideal file")
    p.add_argument("--dim", type=int, required=True, help="base manifold dimension")
    p.add_argument("--ideal-file", required=True)
    p.add_argument("--flag", help="flag order as a permutation like 2,1,3")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_eds)

    p = sub.add_parser("dform", help="exterior derivative of a form on a manifold file")
    p.add_argument("--manifold-file", required=True)
    p.add_argument("form", help="form string, e.g. 12+3/2*34")
    p.set_defaults(func=_cmd_dform)
    return parser


# Built once per process: parse_args fills a new namespace at each call.
_PARSER = _build_parser()

_INPUT_ERRORS = (FileFormatError, FormParseError, FrameIndexError, DimensionError)


def _dform_argv(argv):
    """dform's arguments with a form that starts with "-" moved behind "--".

    argparse takes such a form (-e45, -1/2*45) for an option.  No form
    starts with "--", so each single-dash argument other than -h is the
    form, unless it is the value of --manifold-file.
    """
    if argv[:1] != ["dform"] or "--" in argv:
        return argv
    head, forms, args = ["dform"], [], iter(argv[1:])
    for arg in args:
        if arg[:1] == "-" and arg[:2] != "--" and arg != "-h":
            forms.append(arg)
        else:
            head.append(arg)
            if arg[:2] == "--" and "=" not in arg:
                head.extend(islice(args, 1))  # the value of --manifold-file
    return head + ["--"] + forms if forms else argv


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _PARSER.parse_args(_dform_argv(sys.argv[1:] if argv is None else list(argv)))
        return args.func(args, out)
    except _UsageError as exc:
        err.write(f"frameforms: {exc}\n")
        return 1
    except _INPUT_ERRORS as exc:
        err.write(f"frameforms: input error: {exc}\n")
        return 1
    except OSError as exc:
        err.write(f"frameforms: {exc}\n")
        return 1
    except EngineError as exc:
        err.write(f"frameforms: {type(exc).__name__}: {exc}\n")
        return 2


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
