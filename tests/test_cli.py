import hashlib
import io
import os
import subprocess
import sys

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

GOLDEN = {
    "nilpotent-torsion": (
        "Theta_1 = 0\n"
        "Theta_2 = 0\n"
        "Theta_3 = 1/4*e14+1/4*e23\n"
        "Theta_4 = 1/4*e13-1/4*e24\n"
    ),
    "su2-spinor": "0\n0\n0\n",
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
    ],
    ids=["g2", "g2-flag", "spin7"],
)
def test_eds_verbose_output_pinned(tmp_path, ideal_text, dim, flag, digest):
    """The whole --verbose stdout, V_n and polar lines included, byte for byte."""
    ideal = tmp_path / "system.ideal"
    ideal.write_text(ideal_text)
    args = ["eds", "--dim", str(dim), "--ideal-file", str(ideal), "--verbose"]
    rc, out, err = _run(args + (["--flag", flag] if flag else []))
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_eds_command_not_linear_exits_2(tmp_path):
    ideal = tmp_path / "bad.ideal"
    ideal.write_text("12\n")
    rc, out, err = _run(["eds", "--dim", "2", "--ideal-file", str(ideal)])
    assert rc == 2
    assert "NotLinearError" in err


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


def test_dform_rejects_d_squared_nonzero(tmp_path):
    mfd = tmp_path / "bad.mfd"
    mfd.write_text("dim 4\nd 4 = 12\nd 1 = 34\n")
    rc, out, err = _run(["dform", "--manifold-file", str(mfd), "4"])
    assert (rc, out) == (2, "")
    assert err == "frameforms: NotNilpotentError: d(d(e1)) = -e123 is not zero\n"


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
