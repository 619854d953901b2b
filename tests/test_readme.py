"""The README's library tour runs, and its comments state what the code gives."""

import re
from pathlib import Path

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
