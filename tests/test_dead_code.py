"""Every top-level function and class in src/ is reached from the program,
and no src/ module imports a name it does not use.

A definition is reached when code that is itself reached names it: the
module-level statements of each src/ module, the `torushom` console entry
point (`cli.main`), every file under bench/, and the body of every reached
definition. Names are matched by identifier alone (a variable or attribute
of the same name counts), so the check can miss dead code but never flags
reached code. Tests do not count, except for the references below, which
stay because tests compare against them or acceptance criteria compute
with them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "torushom"
BENCH = ROOT / "bench"
ENTRY_POINT = "main"  # pyproject.toml: torushom = "torushom.cli:main"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

TEST_REFERENCES = {
    "all_adjacent": "the definition of an admissible pair the extremal scan is checked against",
    "pure_coloring_weight": "(lambda_A lambda_B)^(n/2), the weight pure classes are compared with",
    "check_global_bounds": "the eta^(n/2) bounds on |Hom| that criterion 1 checks",
    "near_pure_one_defect_count": "a closed form the exact counts are checked against",
    "exact_not_ideal_probability": "the enumeration twin of the not-ideal estimator (criterion 8)",
    "ideal_edge_map": "the ideal edges of one coloring, which the hand examples read",
    "influence_ratio": "the exact finite-torus influence ratio of criterion 9",
    "coloring_count_prediction": "the q-coloring count prediction criterion 6 compares with",
}


def modules():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def names_in(node) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


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
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                defs.setdefault(node.name, []).append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= names_in(node)
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        roots |= names_in(tree)
        roots |= {
            a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
            for a in n.names
        }
    program = reached_from(roots, defs)
    unreached = sorted(set(defs) - reached_from(roots | set(TEST_REFERENCES), defs))
    assert not unreached, f"defined in src/ but reached by no program code: {unreached}"
    # every test reference is still defined and still needs its entry
    stale = sorted(n for n in TEST_REFERENCES if n not in defs or n in program)
    assert not stale, f"test references to drop from the list: {stale}"


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
