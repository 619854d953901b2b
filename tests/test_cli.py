import hashlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import frameforms
from frameforms.cli import EXAMPLE_NAMES, main, run_example

NILPOTENT_FILE = "dim 4\nd 3 = 12\nd 4 = 13\n"
IWASAWA_FILE = "dim 6\nd 5 = 13+42\nd 6 = 14+23\n"
G2_IDEAL_FILE = (
    "d: 567-512-534-613-642-714-723\n"
    "d: 1234-6712-6734-7513-7542-5614-5623\n"
)
SPIN7_IDEAL_FILE = "d: 1234+1256+1278+3456+3478+5678+1357-1368-1458-1467-2358-2367-2457+2468\n"
# Calabi-Yau 3-fold forms with complex coefficients: V_n and polar lines print i.
CY3_COMPLEX_FILE = (Path(__file__).with_name("data") / "cy3_complex.ideal").read_text()
# Denominators 2, 3 and 5 inside one generator and a Gaussian coefficient on n = 4.
FRACTIONAL_FILE = (Path(__file__).with_name("data") / "fractional.ideal").read_text()
# A zero generator, which has no tableau terms, and a purely imaginary one.
ZERO_IMAGINARY_FILE = "0\nd: i*12\nd: 3\n"

GOLDEN = {
    "nilpotent-torsion": (
        "Theta_1 = 0\n"
        "Theta_2 = 0\n"
        "Theta_3 = 1/4*e14+1/4*e23\n"
        "Theta_4 = 1/4*e13-1/4*e24\n"
    ),
    "su2-spinor": "0\n0\n0\n",
    "bilagrangian": (
        "[e1,e3] = (-Gamma124+Gamma223+Gamma412)*e1+(-Gamma324+Gamma414+Gamma423)*e3\n"
        "[e2,e4] = -Gamma224*e2-Gamma424*e4\n"
    ),
    "iwasawa": (
        "e124\n"
        "-e123\n"
        "-e234\n"
        "e134\n"
        "e136-e145-e235-e246\n"
        "components(d(e45)) = (0,0,0,-1,0)\n"
    ),
    "g2": (
        "c_0=0\nc_1=0\nc_2=0\nc_3=1\nc_4=5\nc_5=15\nc_6=28\n"
        "codim(V_7)=49\nINVOLUTIVE\n"
    ),
}


def _run(args):
    out, err = io.StringIO(), io.StringIO()
    rc = main(args, out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_example_golden(name):
    rc, out, err = _run(["example", name])
    assert rc == 0 and err == ""
    assert out == GOLDEN[name]


def test_bilagrangian_example_matches_engine():
    from frameforms import Session, print_form
    from frameforms.cli import bilagrangian_brackets

    rc, out, err = _run(["example", "bilagrangian"])
    assert rc == 0 and err == ""
    _, b13, b24 = bilagrangian_brackets(Session())
    assert out == f"[e1,e3] = {print_form(b13)}\n[e2,e4] = {print_form(b24)}\n"


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_examples_deterministic(name):
    runs = {run_example(name) for _ in range(3)}
    assert len(runs) == 1


def test_eds_command_g2(tmp_path):
    ideal = tmp_path / "g2.ideal"
    ideal.write_text(G2_IDEAL_FILE)
    rc, out, err = _run(["eds", "--dim", "7", "--ideal-file", str(ideal)])
    assert rc == 0 and err == ""
    assert out == GOLDEN["g2"]


def test_eds_command_empty_ideal(tmp_path):
    ideal = tmp_path / "empty.ideal"
    ideal.write_text("# nothing here\n")
    rc, out, err = _run(["eds", "--dim", "3", "--ideal-file", str(ideal)])
    assert rc == 0
    assert out == "c_0=0\nc_1=0\nc_2=0\ncodim(V_3)=0\nINVOLUTIVE\n"


def test_eds_command_flag_and_verbose(tmp_path):
    ideal = tmp_path / "g2.ideal"
    ideal.write_text(G2_IDEAL_FILE)
    rc, out, _ = _run(
        ["eds", "--dim", "7", "--ideal-file", str(ideal), "--flag", "2,1,3,4,5,6,7"]
    )
    assert rc == 0
    assert "codim(V_7)=49" in out
    rc, out, _ = _run(["eds", "--dim", "7", "--ideal-file", str(ideal), "--verbose"])
    assert rc == 0
    assert out.startswith(
        "# Vn equation: -p362+p371-p384+p393-p433+p444+p451-p462-p504-p513+p522+p531\n"
    )
    assert out.count("# Vn equation:") == 49
    assert out.count("# polar[j=6]:") == 28
    assert out.endswith("INVOLUTIVE\n")


@pytest.mark.parametrize(
    "ideal_text, dim, flag, digest",
    [
        (
            G2_IDEAL_FILE,
            7,
            None,
            "a13cdef4b866cc9e509bd24d957f9417e74470a2d461c12dfdde7c6c60ccc48d",
        ),
        (
            G2_IDEAL_FILE,
            7,
            "3,1,2,7,5,6,4",
            "884b83a1ad892347927fd39ac0cbd88a39d9f0151ed4bc4b16c9717308bc73f8",
        ),
        (
            SPIN7_IDEAL_FILE,
            8,
            None,
            "fbcfcd5ab914deef828c0e41bd4d891f203017bc625d350d729486fa174b1fc9",
        ),
        (
            CY3_COMPLEX_FILE,
            6,
            None,
            "909b0c11ae52180aa4b7898638cc81588fc311dc0e2511388cbc6c3292ca607b",
        ),
        (
            CY3_COMPLEX_FILE,
            6,
            "4,6,1,2,3,5",
            "738bb0af01ad02816f933252dfe865e384872579a9df0a5664ce35e974decf80",
        ),
        (
            FRACTIONAL_FILE,
            4,
            None,
            "0cf2e54d539d77d178e9f686db397a40ea2ab33944da9ae3e730c26ae5d106db",
        ),
        (
            FRACTIONAL_FILE,
            4,
            "3,1,4,2",
            "553c4e5c6cb4c7fc295f6d09a9623b4b40845ef6da46af0570526ea7c1a4a8e3",
        ),
        (
            ZERO_IMAGINARY_FILE,
            3,
            None,
            "6bc5aa9a767cd38413f3414f2f23af72afcb7d0c1e337002cbbee95062858630",
        ),
        (
            ZERO_IMAGINARY_FILE,
            3,
            "3,1,2",
            "3ae72a7ca6cce2fe61043c12f00a7db3928c7a54f290c1a35a90e431448aefba",
        ),
    ],
    ids=[
        "g2", "g2-flag", "spin7", "cy3-complex", "cy3-complex-flag", "fractional", "fractional-flag",
        "zero-imaginary", "zero-imaginary-flag",
    ],
)
def test_eds_verbose_output_pinned(tmp_path, ideal_text, dim, flag, digest):
    """The whole --verbose stdout, V_n and polar lines included, byte for byte."""
    ideal = tmp_path / "system.ideal"
    ideal.write_text(ideal_text)
    args = ["eds", "--dim", str(dim), "--ideal-file", str(ideal), "--verbose"]
    rc, out, err = _run(args + (["--flag", flag] if flag else []))
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "ideal_text, dim, flag",
    [
        (G2_IDEAL_FILE, 7, None),
        (G2_IDEAL_FILE, 7, [3, 1, 2, 7, 5, 6, 4]),
        (SPIN7_IDEAL_FILE, 8, None),
        (CY3_COMPLEX_FILE, 6, [4, 6, 1, 2, 3, 5]),
        (FRACTIONAL_FILE, 4, None),
        (FRACTIONAL_FILE, 4, [3, 1, 4, 2]),
    ],
    ids=["g2", "g2-flag", "spin7", "cy3-complex-flag", "fractional", "fractional-flag"],
)
def test_eds_verbose_listing_is_the_report_equations(tmp_path, ideal_text, dim, flag):
    """Each V_n line is str of a vn_equations Poly and each polar line print_form of a polar Form."""
    from frameforms import Session, cartan_test, frame_bundle, load_ideal, print_form

    ideal = tmp_path / "system.ideal"
    ideal.write_text(ideal_text)
    args = ["eds", "--dim", str(dim), "--ideal-file", str(ideal), "--verbose"]
    rc, out, err = _run(args + (["--flag", ",".join(map(str, flag))] if flag else []))
    assert rc == 0 and err == ""
    bundle = frame_bundle(Session(), dim)
    report = cartan_test(bundle, load_ideal(bundle, ideal_text), flag)
    expected = [f"# Vn equation: {eq}" for eq in report.vn_equations]
    for j, eqs in enumerate(report.polar):
        expected += [f"# polar[j={j}]: {print_form(eq)}" for eq in eqs]
    assert out.splitlines()[: len(expected)] == expected
    assert len(out.splitlines()) == len(expected) + dim + 2


def test_eds_verbose_makes_no_symbol_poly_text_or_form_text(tmp_path, monkeypatch):
    """The listing is formatted from the report's rows: FrameBundle.p stays unread.

    No Symbol is made, and neither Poly.__str__ nor print_form runs.
    """
    from frameforms import Poly, Session, cli, eds, exterior

    ideal = tmp_path / "g2.ideal"
    ideal.write_text(G2_IDEAL_FILE)
    calls = []

    def forbidden(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return call

    monkeypatch.setattr(eds.FrameBundle, "p", property(forbidden("FrameBundle.p")))
    monkeypatch.setattr(Session, "symbol", forbidden("Session.symbol"))
    monkeypatch.setattr(Poly, "__str__", forbidden("Poly.__str__"))
    monkeypatch.setattr(exterior, "print_form", forbidden("print_form"))
    monkeypatch.setattr(cli, "print_form", forbidden("print_form"))
    rc, out, err = _run(["eds", "--dim", "7", "--ideal-file", str(ideal), "--verbose"])
    monkeypatch.undo()
    assert calls == [] and rc == 0 and err == ""
    assert out.count("# Vn equation: ") == 49 and out.endswith("INVOLUTIVE\n")


def test_parser_is_built_once_and_keeps_no_arguments(tmp_path, monkeypatch):
    """main parses with one module-level parser, and no option of a call leaks into the next.

    Plain eds after eds --verbose --flag prints what a fresh interpreter prints.
    """
    from frameforms import cli

    ideal = tmp_path / "g2.ideal"
    ideal.write_text(G2_IDEAL_FILE)
    plain = ["eds", "--dim", "7", "--ideal-file", str(ideal)]

    def no_rebuild():
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(cli, "_build_parser", no_rebuild)
    rc, out, err = _run(plain + ["--verbose", "--flag", "3,1,2,7,5,6,4"])
    assert rc == 0 and err == "" and out.startswith("# Vn equation: ")
    second = _run(plain)
    monkeypatch.undo()
    src = os.path.dirname(os.path.dirname(frameforms.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run(
        [sys.executable, "-m", "frameforms.cli", *plain], capture_output=True, env=env, check=True
    )
    assert second == (0, fresh.stdout.decode(), fresh.stderr.decode())
    assert second[1] == GOLDEN["g2"]


BIG = "9" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize(
    "manifold_text, form, message",
    [
        (f"dim {BIG}\n", "12", "line 1: integer of 5000 digits is too long"),
        (f"dim 4\nd {BIG} = 12\n", "12", "line 2: integer of 5000 digits is too long"),
        ("dim 4\nd 3 = 12\n", f"{BIG}*12", "parse error at position 0: integer of 5000 digits is too long"),
        ("dim 4\nd 3 = 12\n", f"1/{BIG}*12", "parse error at position 2: integer of 5000 digits is too long"),
        ("dim 4\nd 3 = 12\n", f"e[{BIG}]", "parse error at position 2: integer of 5000 digits is too long"),
        ("dim 4\nd 3 = 12\n", "e[\u00b2]", "parse error at position 2: expected an integer"),
    ],
    ids=["dim-line", "d-line", "coefficient", "denominator", "index-list", "superscript-digit"],
)
def test_dform_overlong_integer_is_an_input_error(tmp_path, manifold_text, form, message):
    """An integer too long for int() exits 1 with one error line, raising nothing."""
    mfd = tmp_path / "m.mfd"
    mfd.write_text(manifold_text)
    rc, out, err = _run(["dform", "--manifold-file", str(mfd), form])
    assert (rc, out, err) == (1, "", f"frameforms: input error: {message}\n")


def test_dform_zero_denominator_names_its_position(tmp_path):
    mfd = tmp_path / "iwasawa.mfd"
    mfd.write_text(IWASAWA_FILE)
    for form, position in (("1/0*e1", 2), ("(1/0)*e1", 3)):
        assert _run(["dform", "--manifold-file", str(mfd), form]) == (
            1, "", f"frameforms: input error: parse error at position {position}: zero denominator\n"
        )


def test_dform_long_digit_monomial_is_not_read_as_an_integer(tmp_path):
    """Digits without '*' or '/' are a monomial, however many: 5000 repeated indices are zero."""
    mfd = tmp_path / "m.mfd"
    mfd.write_text("dim 4\nd 3 = 12\n")
    assert _run(["dform", "--manifold-file", str(mfd), "1" * 5000]) == (0, "0\n", "")
    assert _run(["dform", "--manifold-file", str(mfd), BIG]) == (
        1, "", "frameforms: input error: index 9 exceeds frame dimension 4 at position 0\n"
    )


def test_eds_overlong_integer_is_an_input_error(tmp_path):
    ideal = tmp_path / "big.ideal"
    ideal.write_text(f"d: 12\nd: {BIG}*13\n")
    rc, out, err = _run(["eds", "--dim", "3", "--ideal-file", str(ideal)])
    assert (rc, out) == (1, "")
    assert err == (
        "frameforms: input error: line 2: parse error at position 0: integer of 5000 digits is too long\n"
    )


def test_eds_command_not_linear_exits_2(tmp_path):
    ideal = tmp_path / "bad.ideal"
    ideal.write_text("12\n")
    rc, out, err = _run(["eds", "--dim", "2", "--ideal-file", str(ideal)])
    assert rc == 2 and out == ""
    assert err == "frameforms: NotLinearError: e12 is not linear in the connection forms\n"


def test_eds_command_mixed_degree_exits_2(tmp_path):
    ideal = tmp_path / "mixed.ideal"
    ideal.write_text("d: 1+12\n")
    rc, out, err = _run(["eds", "--dim", "2", "--ideal-file", str(ideal)])
    assert rc == 2 and out == ""
    assert err == "frameforms: MixedDegreeError: form has mixed degrees [2, 3]\n"


def test_eds_command_input_errors(tmp_path):
    rc, _, err = _run(["eds", "--dim", "7", "--ideal-file", str(tmp_path / "missing")])
    assert rc == 1
    ideal = tmp_path / "broken.ideal"
    ideal.write_text("d: 1x\n")
    rc, _, err = _run(["eds", "--dim", "7", "--ideal-file", str(ideal)])
    assert rc == 1 and "line 1" in err
    ideal.write_text("d: 12\n")
    rc, _, err = _run(["eds", "--dim", "0", "--ideal-file", str(ideal)])
    assert rc == 1
    rc, _, err = _run(["eds", "--dim", "7", "--ideal-file", str(ideal), "--flag", "1,2"])
    assert rc == 1
    rc, _, err = _run(["nonsense"])
    assert rc == 1
    rc, _, err = _run(["example", "bogus"])
    assert rc == 1


@pytest.mark.parametrize(
    "flag, message",
    [
        ("a,b", "--flag must be a comma-separated permutation of 1..7"),
        ("1,2", "--flag must be a permutation of 1..7"),
        ("1,1,3,4,5,6,7", "--flag must be a permutation of 1..7"),
        ("", "--flag must be a comma-separated permutation of 1..7"),
    ],
    ids=["not-integers", "too-short", "repeated", "empty"],
)
def test_eds_command_bad_flag(tmp_path, flag, message):
    ideal = tmp_path / "g2.ideal"
    ideal.write_text(G2_IDEAL_FILE)
    rc, out, err = _run(["eds", "--dim", "7", "--ideal-file", str(ideal), "--flag", flag])
    assert (rc, out, err) == (1, "", f"frameforms: {message}\n")


def test_dform_command(tmp_path):
    mfd = tmp_path / "nil.mfd"
    mfd.write_text(NILPOTENT_FILE)
    rc, out, err = _run(["dform", "--manifold-file", str(mfd), "4"])
    assert rc == 0 and out == "e13\n"
    iwa = tmp_path / "iwa.mfd"
    iwa.write_text(IWASAWA_FILE)
    rc, out, err = _run(["dform", "--manifold-file", str(iwa), "45"])
    assert rc == 0 and out == "-e134\n"
    rc, _, err = _run(["dform", "--manifold-file", str(iwa), ""])
    assert rc == 1 and "parse error" in err


@pytest.mark.parametrize(
    "form, expected",
    [("-e45", "e134\n"), ("-1/2*45", "1/2*e134\n"), ("-(1+i)*45", "(1+i)*e134\n")],
)
def test_dform_reads_a_leading_minus_as_the_form(tmp_path, form, expected):
    """A form that starts with '-' is the form, before or after --manifold-file."""
    iwa = tmp_path / "iwa.mfd"
    iwa.write_text(IWASAWA_FILE)
    for argv in (
        ["dform", "--manifold-file", str(iwa), form],
        ["dform", form, "--manifold-file", str(iwa)],
        ["dform", "--manifold-file", str(iwa), "--", form],
    ):
        assert _run(argv) == (0, expected, ""), argv
    rc, out, err = _run(["dform", "--manifold-file", str(iwa), form, "-e12"])
    assert (rc, out) == (1, "") and "unrecognized arguments: -e12" in err


def test_dform_rejects_d_squared_nonzero(tmp_path):
    mfd = tmp_path / "bad.mfd"
    mfd.write_text("dim 4\nd 4 = 12\nd 1 = 34\n")
    rc, out, err = _run(["dform", "--manifold-file", str(mfd), "4"])
    assert (rc, out) == (2, "")
    assert err == "frameforms: NotNilpotentError: d(d(e1)) = -e123 is not zero\n"


def test_dform_on_a_huge_dim_line_runs_in_bounded_memory(tmp_path):
    """The 15-byte file "dim 1000000000" costs what its entries cost, not its dim.

    Omitted generators are closed and only declared entries are d²-checked,
    so nothing is made per generator; the traced peak stays under 1 MB.
    """
    mfd = tmp_path / "huge.mfd"
    mfd.write_text("dim 1000000000\n")
    assert mfd.stat().st_size == 15
    wide = tmp_path / "wide.mfd"
    wide.write_text("dim 1000000000\nd 1000000000 = e[1,2]\n")
    tracemalloc.start()
    try:
        results = [
            _run(["dform", "--manifold-file", str(mfd), "12"]),
            _run(["dform", "--manifold-file", str(wide), "e[999999999,1000000000]"]),
            _run(["dform", "--manifold-file", str(wide), "e[3,1000000001]"]),
        ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert results[0] == (0, "0\n", "")
    assert results[1] == (0, "-e[1,2,999999999]\n", "")
    assert results[2] == (
        1, "", "frameforms: input error: index 1000000001 exceeds frame dimension 1000000000 at position 4\n"
    )
    assert peak < 2**20


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("eds", b"\xff\xfe d: 123\n", "line 1: cannot decode byte 0xff as UTF-8 (invalid"),
        ("dform", b"dim 4\nd 3 = 12\nd 4 = 1\xe93\n", "line 3: cannot decode byte 0xe9"),
    ],
    ids=["eds", "dform"],
)
def test_non_utf8_input_file_is_an_input_error(tmp_path, command, content, message):
    path = tmp_path / "input"
    path.write_bytes(content)
    if command == "eds":
        args = ["eds", "--dim", "3", "--ideal-file", str(path)]
    else:
        args = ["dform", "--manifold-file", str(path), "4"]
    rc, out, err = _run(args)
    assert rc == 1 and out == ""
    assert err.startswith(f"frameforms: input error: {message}")


def test_cli_deterministic_across_processes(tmp_path):
    """Fresh interpreters with different hash seeds produce identical bytes.

    Symbols hash by identity, so output that followed the iteration order
    of a set of symbols would differ from one process to the next.
    """
    ideal = tmp_path / "g2.ideal"
    ideal.write_text(G2_IDEAL_FILE)
    commands = [["example", name] for name in EXAMPLE_NAMES]
    commands.append(["eds", "--dim", "7", "--ideal-file", str(ideal), "--verbose"])
    # The child imports the same frameforms, whether or not PYTHONPATH names it.
    src = os.path.dirname(os.path.dirname(frameforms.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for args in commands:
        outputs = set()
        for seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
            proc = subprocess.run(
                [sys.executable, "-m", "frameforms.cli", *args],
                capture_output=True,
                env=env,
                check=True,
            )
            outputs.add((proc.stdout.decode(), proc.stderr.decode()))
        assert len(outputs) == 1, args
        assert outputs == {_run(args)[1:]}, args


def test_cli_outputs_byte_identical(tmp_path):
    mfd = tmp_path / "iwa.mfd"
    mfd.write_text(IWASAWA_FILE)
    ideal = tmp_path / "g2.ideal"
    ideal.write_text(G2_IDEAL_FILE)
    commands = [["example", n] for n in EXAMPLE_NAMES]
    commands.append(["eds", "--dim", "7", "--ideal-file", str(ideal)])
    commands.append(["dform", "--manifold-file", str(mfd), "45"])
    for args in commands:
        outs = set()
        for _ in range(3):
            rc, out, err = _run(args)
            assert rc == 0 and err == ""
            outs.add(out.encode())
        assert len(outs) == 1, args
