"""The README's library quick start runs as shown and names the public API."""

import ast
import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import gaprenorm

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_quick_start_runs_as_documented():
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(_quick_start(), str(README), "exec"), {})
    identity, symbols, mass = out.getvalue().splitlines()
    rho, halfsum, xi = map(int, identity.split())
    assert rho == halfsum + xi and abs(xi) <= 5
    assert symbols == "AACACAACACABCACACAAC"
    assert abs(float(mass) - 0.3869) < 5e-5


def test_public_api_is_the_quick_start():
    imported = [
        alias.name
        for node in ast.parse(_quick_start()).body
        if isinstance(node, ast.ImportFrom) and node.module == "gaprenorm"
        for alias in node.names
    ]
    assert gaprenorm.__all__ == imported + ["levels"]
    for name in gaprenorm.__all__:
        assert callable(getattr(gaprenorm, name))
