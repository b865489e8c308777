"""Every public module-level name of the package has a user outside tests/.

A user is one of: code in a `src/gaprenorm` module outside the name's own
definition, the README's code (its sh/python blocks and inline code), code
in `benchmarks/*.py`, or an entry of `benchmarks/spans.py:TRACED`.  The
benchmark files are parsed, never imported.  A function that only tests
call belongs in `tests/`, as the gap-map oracles in `oracles.py` and the
reference surds in `surds.py` do.
"""

import ast
import re
from pathlib import Path

from test_bench_contract import _traced

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gaprenorm"


def _module_of(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from (`__init__` for the package
    itself), or None outside the package."""
    if node.level == 1:
        return node.module or "__init__"
    if node.level == 0 and node.module and node.module.split(".")[0] == "gaprenorm":
        return node.module.partition(".")[2] or "__init__"
    return None


def _definitions(tree: ast.Module):
    """(name, index) for each public name a module's top level binds, index
    being the statement that binds it."""
    for index, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, index) for name in names if not name.startswith("_"))


def _uses(module: str, tree: ast.Module, own: set[str]) -> set[tuple[str, str, int]]:
    """(module, name, index) for each name the code of one file reads, index
    being the top-level statement the read sits in.

    A bare name resolves through the file's imports from the package, or to
    the file's own top-level names (`own`, empty outside the package); an
    attribute `x.name` counts for a name of any module, `*` standing for
    the module.
    """
    imported = {alias.asname or alias.name: (_module_of(node), alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and _module_of(node) is not None for alias in node.names}
    found = set()
    for index, stmt in enumerate(tree.body):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute):
                found.add(("*", node.attr, index))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imported:
                    found.add((*imported[node.id], index))
                elif node.id in own:
                    found.add((module, node.id, index))
    return found


def _public_names() -> dict[tuple[str, str], tuple[str, int]]:
    """Each public (module, name) of the package, with the file and the
    top-level statement index that define it."""
    names = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, index in _definitions(tree):
            names[(path.stem, name)] = (str(path), index)
    return names


def _readme_words() -> set[str]:
    """Identifiers in the README's fenced blocks and inline code spans."""
    text = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```", text, flags=re.S)
    code += re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def _users() -> tuple[set[tuple[str, str, str, int]], set[str]]:
    """Uses in code as (module, name, file, statement index), and the names
    that the README or TRACED give."""
    code = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        own = {name for name, _ in _definitions(tree)}
        code |= {(m, n, str(path), i) for m, n, i in _uses(path.stem, tree, own)}
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        tree = ast.parse(path.read_text())
        code |= {(m, n, str(path), i) for m, n, i in _uses(path.stem, tree, set())}
    named = _readme_words()
    named |= {name for names in _traced().values() for name in names}
    return code, named


def _unused(names, code, named) -> list[str]:
    out = []
    for (module, name), (path, index) in sorted(names.items()):
        if name in named:
            continue
        if any((m, n) in ((module, name), ("*", name)) and (p, i) != (path, index)
               for m, n, p, i in code):
            continue
        out.append(f"gaprenorm.{module}.{name}")
    return out


def test_every_public_name_has_a_user():
    names = _public_names()
    assert ("cf", "gap_trajectory") in names and ("orbit", "GRID_MAX") in names
    unused = _unused(names, *_users())
    assert not unused, (
        "public names with no user in src/, the README or benchmarks/ "
        f"(move test-only code to tests/): {unused}")


def test_a_name_used_only_by_its_own_definition_has_no_user():
    # a name read only inside its own definition (recursion) has no user
    tree = ast.parse("def orphan(n):\n    return orphan(n - 1) if n else 0\n"
                     "def used():\n    return 1\nX = used()\n")
    own = {name for name, _ in _definitions(tree)}
    names = {("m", name): ("m.py", index) for name, index in _definitions(tree)}
    code = {(m, n, "m.py", i) for m, n, i in _uses("m", tree, own)}
    assert _unused(names, code, set()) == ["gaprenorm.m.X", "gaprenorm.m.orphan"]
