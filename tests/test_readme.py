"""The README's library quick start runs as shown and names the public API;
its command lines parse as shown."""

import ast
import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import gaprenorm
from gaprenorm import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    return blocks[0]


def command_lines() -> list[list[str]]:
    """The arguments of each distinct `gaprenorm ...` line in the README's sh
    blocks, with `\\` continuations joined and comments dropped."""
    argvs = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["gaprenorm"] and argv[1:] not in argvs:
                argvs.append(argv[1:])
    return argvs


def test_command_lines_parse():
    # a renamed or removed flag fails here; nothing is run
    lines = command_lines()
    assert len(lines) >= 11
    for argv in lines:
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: gaprenorm {' '.join(argv)}")
        assert args.verb == argv[0] and callable(args.fn)


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


def test_top_level_names_resolve_to_their_submodules():
    from gaprenorm import cf, measure, orbit, substitution

    home = {"parse_theta_spec": cf, "gap_trajectory": cf, "cf_value": cf,
            "renorm_identity": substitution, "levels": substitution,
            "encode_orbit": orbit, "build_ulam": measure,
            "stationary_density": measure}
    assert sorted(gaprenorm.__all__) == sorted(home)
    for name, module in home.items():
        assert getattr(gaprenorm, name) is getattr(module, name)
    assert set(gaprenorm.__all__) <= set(dir(gaprenorm))
    with pytest.raises(AttributeError):
        gaprenorm.nope
    assert (cf.__name__, measure.__name__) == ("gaprenorm.cf", "gaprenorm.measure")
