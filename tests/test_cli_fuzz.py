"""The eds and dform grammars on derandomized random inputs, through cli.main.

Form strings, manifold files and ideal files are short, built from the
grammar's own tokens (often well-formed terms, sometimes token soup),
but the numbers in them may be long.  Whatever the input, the command
answers with exit status 0, 1 or 2 and never with a traceback.
"""

import io
import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from frameforms.cli import main  # noqa: E402

SEEDED = settings(
    derandomize=True,
    database=None,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

numbers = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(0, 10**40).map(str),
    st.integers(0, 99).map(lambda k: "0" + str(k)),
)
# A new file per example: rewriting one file truncates it each time, which
# costs tens of milliseconds on some file systems.  Repeated strategies in a
# one_of below weight the draw towards well-formed input.
_names = itertools.count()

tokens = st.one_of(numbers, st.sampled_from(list("e[],+-*/()i ") + ["²", "١", "*i", "e["]))


@st.composite
def terms(draw, first=False):
    sign = draw(st.sampled_from(["", "", "-"] if first else ["+", "-"]))
    coeff = draw(st.one_of(
        st.just(""),
        numbers.map(lambda k: k + "*"),
        st.tuples(numbers, numbers).map(lambda q: f"{q[0]}/{q[1]}*"),
        st.tuples(numbers, numbers).map(lambda q: f"({q[0]}-{q[1]}*i)*"),
        st.just("i*"),
    ))
    index = st.one_of(st.integers(1, 4), st.integers(1, 9)).map(str)
    mono = draw(st.one_of(
        st.lists(index, min_size=1, max_size=3).map("".join),
        st.lists(index, min_size=1, max_size=3).map(lambda d: "e" + "".join(d)),
        st.lists(st.one_of(index, numbers), max_size=3).map(lambda d: "e[" + ",".join(d) + "]"),
    ))
    return sign + coeff + mono


# Mostly well-formed sums of terms, sometimes token soup.
forms = st.one_of(
    st.tuples(terms(first=True), st.lists(terms(), max_size=2)).map(lambda t: t[0] + "".join(t[1])),
    st.tuples(terms(first=True), st.lists(terms(), max_size=2)).map(lambda t: t[0] + "".join(t[1])),
    st.lists(tokens, max_size=8).map("".join),
)
small_dims = st.integers(1, 4)


@st.composite
def manifold_files(draw):
    head = draw(st.one_of(
        small_dims.map(lambda k: f"dim {k}"),
        small_dims.map(lambda k: f"dim {k}"),
        numbers.map(lambda k: f"dim {k}"),
        st.just(""),
    ))
    line = st.one_of(
        st.tuples(small_dims, forms).map(lambda p: f"d {p[0]} = {p[1]}"),
        st.tuples(small_dims, forms).map(lambda p: f"d {p[0]} = {p[1]}"),
        st.tuples(numbers, forms).map(lambda p: f"d {p[0]} = {p[1]}"),
        forms.map(lambda f: "# " + f),
        tokens,
    )
    return "\n".join([head] + draw(st.lists(line, max_size=3))) + "\n"


@st.composite
def ideal_files(draw):
    line = st.one_of(
        forms.map(lambda f: "d: " + f),
        forms.map(lambda f: "d: " + f),
        forms,
        forms.map(lambda f: "# " + f),
    )
    return "\n".join(draw(st.lists(line, max_size=3))) + "\n"


def _answers_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    rc = main(argv, out=out, err=err)
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue(), argv
    if rc:
        assert err.getvalue().startswith("frameforms: "), argv


@SEEDED
@given(manifold=manifold_files(), form=forms)
def test_dform_answers_every_input(tmp_path, manifold, form):
    path = tmp_path / f"{next(_names)}.mfd"
    path.write_text(manifold, encoding="utf-8")
    _answers_cleanly(["dform", "--manifold-file", str(path), form])


@SEEDED
@given(
    ideal=ideal_files(),
    dim=st.one_of(small_dims, small_dims, st.integers(-1, 10), st.integers(0, 10**40)).map(str),
    flag=st.one_of(st.none(), st.lists(numbers, max_size=4).map(",".join)),
    verbose=st.booleans(),
)
def test_eds_answers_every_input(tmp_path, ideal, dim, flag, verbose):
    path = tmp_path / f"{next(_names)}.ideal"
    path.write_text(ideal, encoding="utf-8")
    argv = ["eds", "--dim", dim, "--ideal-file", str(path)]
    argv += [] if flag is None else ["--flag", flag]
    argv += ["--verbose"] if verbose else []
    _answers_cleanly(argv)
