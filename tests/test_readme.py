"""The README's Python example runs as written."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns: dict = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    assert ns["r"].pre[ns["space"].state_at(0)] == Fraction(1, 2)
    assert len(ns["pres"]) == len(ns["fam"])
    assert ns["a"].expected_flips == 4
