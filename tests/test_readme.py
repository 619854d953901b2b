"""The README's library tour and command-line section run, and state what the code gives."""

import io
import re
import shlex
from pathlib import Path

from frameforms import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# Tour lines of the form `expression  # value ...`: the printed value of
# the expression, which the comment must start with.
STATED = {
    "M.d(M.e(4))": "e13",
    "M.lie_bracket(M.e(1), M.e(2))": "-e3",
    "hook(M.e(1), M.e(1) * M.e(2))": "e2",
    "len(h.free_parameters())": "40",
    "X.d(X.e(1) * X.e(2) + X.e(3) * X.e(4))": "0",
    "report.c": "(0, 0, 0, 1, 5, 15, 28)",
    "report.codim": "49",
    "report.involutive": "True",
    "len(report.vn_equations)": "49",
    "len(report.polar[6])": "28",
}


def test_readme_tour():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 3
    ns = {}
    comments = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
        for line in block.splitlines():
            code, _, comment = line.partition("#")
            comments[code.strip()] = comment.strip()
    for expr, value in STATED.items():
        assert comments[expr].startswith(value), expr
        assert str(eval(expr, ns)) == value, expr
    assert comments["h.torsion()"] == "four zero 2-forms"
    torsion = ns["h"].torsion()
    assert len(torsion) == 4 and not any(torsion)


def test_readme_command_line(tmp_path, monkeypatch):
    """The section's manifold and ideal files, run by its dform and eds commands."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line") : text.index("## Design notes")]
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", section, re.M | re.S)
    assert [lang for lang, _ in blocks] == ["sh", "", ""]
    (_, shell), (_, manifold_file), (_, ideal_file) = blocks
    (tmp_path / "iwasawa.mfd").write_text(manifold_file)
    (tmp_path / "g2.ideal").write_text(ideal_file)
    monkeypatch.chdir(tmp_path)
    outputs = {}
    for line in re.findall(r"^frameforms (.*)$", shell, re.M):
        # Drop the comment and the optional [...] arguments.
        argv = shlex.split(re.sub(r"\[[^]]*\]", "", line.partition("#")[0]))
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(argv, out, err) == 0, argv
        assert err.getvalue() == ""
        outputs[argv[0]] = out.getvalue()
    assert outputs["dform"] == "-e134\n"
    c = [int(x) for x in re.findall(r"\d+", STATED["report.c"])]
    g2 = [f"c_{j}={cj}" for j, cj in enumerate(c)]
    g2 += [f"codim(V_7)={STATED['report.codim']}", "INVOLUTIVE"]
    assert STATED["report.involutive"] == "True"
    assert outputs["eds"] == outputs["example"] == "\n".join(g2) + "\n"
