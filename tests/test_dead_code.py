"""Every top-level function and class in src/, and every method of such a
class, is reached from the program, and no src/ module imports a name it
does not use.

A definition is reached when code that is itself reached names it: the
module-level statements of each src/ module, the `torushom` console entry
point (`cli.main`), every file under bench/, and the body of every reached
definition. A reached class brings its bases, decorators, class-level
statements and dunder methods along; any other method is reached only by
its own name. Names are matched by identifier alone (a variable or
attribute of the same name counts), so the check can miss dead code but
never flags reached code. Tests do not count: what only tests use belongs
in tests/references.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "torushom"
BENCH = ROOT / "bench"
ENTRY_POINT = "main"  # pyproject.toml: torushom = "torushom.cli:main"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def modules():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def names_in(node) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def is_method(node: ast.AST) -> bool:
    """A method that the class does not bring along: not a dunder."""
    return isinstance(node, FUNCTIONS) and not (
        node.name.startswith("__") and node.name.endswith("__")
    )


def definitions(tree: ast.Module) -> list[tuple[str, list[ast.AST]]]:
    """(name, the nodes it reaches) for each top-level function and class,
    and for each method of a class."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [n for n in node.body if is_method(n)]
            parts = node.bases + node.keywords + node.decorator_list
            out.append((node.name, parts + [n for n in node.body if n not in methods]))
            out += [(m.name, [m]) for m in methods]
        elif isinstance(node, FUNCTIONS):
            out.append((node.name, [node]))
    return out


def reached_from(start: set[str], defs: dict[str, list[ast.AST]]) -> set[str]:
    """The definitions that the names in `start` reach."""
    frontier, reached = set(start), set()
    while frontier:
        name = frontier.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for node in defs[name]:
            frontier |= names_in(node)
    return reached


def test_every_definition_is_reached():
    defs: dict[str, list[ast.AST]] = {}
    roots = {ENTRY_POINT}
    for tree in modules().values():
        for name, nodes in definitions(tree):
            defs.setdefault(name, []).extend(nodes)
        for node in tree.body:
            if not isinstance(node, (*DEFINITIONS, ast.Import, ast.ImportFrom)):
                roots |= names_in(node)
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        roots |= names_in(tree)
        roots |= {
            a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
            for a in n.names
        }
    unreached = sorted(set(defs) - reached_from(roots, defs))
    assert not unreached, f"defined in src/ but reached by no program code: {unreached}"


def test_no_unused_import():
    unused = []
    for module, tree in modules().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    bound = a.asname or a.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert not unused, f"unused imports: {unused}"
