"""Every top-level function and class in src/, and every method of such a
class, is reached from the program, and no src/ module imports a name it
does not use.

A definition is reached when code that is itself reached names it: the
module-level statements of each src/ module, the `torushom` console entry
point (`cli.main`), every file under bench/, and the body of every reached
definition. A reached class brings its bases, decorators, class-level
statements and dunder methods along; any other method is reached only by
attribute access (`x.name`), and a top-level definition by its bare name
or by attribute access. A bench file reaches src/ names only through
attribute access or `from` imports, so a bench variable that shares a
name with a src/ definition does not reach it. Names are matched by
identifier alone (an attribute of any object counts), so the check can
miss dead code but never flags reached code. Tests do not count: what only
tests use belongs in tests/references.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "torushom"
BENCH = ROOT / "bench"
ENTRY_POINT = ("top", "main")  # pyproject.toml: torushom = "torushom.cli:main"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def modules():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def attributes_in(node) -> set[tuple[str, str]]:
    """The definitions that attribute access in node can reach: a method or
    a top-level definition of each attribute name."""
    attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    return {(kind, a) for a in attrs for kind in ("top", "method")}


def names_in(node) -> set[tuple[str, str]]:
    """The definitions that node can reach: top-level ones by bare name,
    and whatever its attribute access reaches."""
    bare = {("top", n.id) for n in ast.walk(node) if isinstance(n, ast.Name)}
    return bare | attributes_in(node)


def is_method(node: ast.AST) -> bool:
    """A method that the class does not bring along: not a dunder."""
    return isinstance(node, FUNCTIONS) and not (
        node.name.startswith("__") and node.name.endswith("__")
    )


def definitions(tree: ast.Module) -> list[tuple[tuple[str, str], list[ast.AST]]]:
    """((kind, name), the nodes it reaches) for each top-level function and
    class, of kind "top", and for each method of a class, of kind "method"."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [n for n in node.body if is_method(n)]
            parts = node.bases + node.keywords + node.decorator_list
            body = [n for n in node.body if n not in methods]
            out.append((("top", node.name), parts + body))
            out += [(("method", m.name), [m]) for m in methods]
        elif isinstance(node, FUNCTIONS):
            out.append((("top", node.name), [node]))
    return out


def reached_from(start: set, defs: dict[tuple[str, str], list[ast.AST]]) -> set:
    """The definitions that the keys in `start` reach."""
    frontier, reached = set(start), set()
    while frontier:
        key = frontier.pop()
        if key in reached or key not in defs:
            continue
        reached.add(key)
        for node in defs[key]:
            frontier |= names_in(node)
    return reached


def test_every_definition_is_reached():
    defs: dict[tuple[str, str], list[ast.AST]] = {}
    roots = {ENTRY_POINT}
    for tree in modules().values():
        for key, nodes in definitions(tree):
            defs.setdefault(key, []).extend(nodes)
        for node in tree.body:
            if not isinstance(node, (*DEFINITIONS, ast.Import, ast.ImportFrom)):
                roots |= names_in(node)
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        roots |= attributes_in(tree)
        roots |= {
            ("top", a.name) for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
            for a in n.names
        }
    unreached = sorted(name for _, name in set(defs) - reached_from(roots, defs))
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
