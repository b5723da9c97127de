"""The package's internal import graph: acyclic, module-level, public names
only; and every public definition used by something other than the tests."""

import ast
import re
from pathlib import Path

import sparse_lab

PACKAGE = Path(sparse_lab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def is_type_checking_block(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def internal_imports(tree: ast.Module):
    """(target module, imported names, inside a function) for each import of a package module.

    Imports under ``if TYPE_CHECKING:`` never run, so they are skipped.
    """
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if is_type_checking_block(child):
                continue
            nested = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            if isinstance(child, ast.ImportFrom):
                if child.level == 0 and (child.module or "").split(".")[0] != "sparse_lab":
                    continue
                parts = (child.module or "").split(".")
                module = parts[-1] if child.level else (parts[1] if len(parts) > 1 else "")
                if module:
                    found.append((module, [a.name for a in child.names], nested))
                else:  # `from . import reporting`
                    found.extend((a.name, [], nested) for a in child.names if a.name in MODULES)
            elif isinstance(child, ast.Import):
                found.extend((a.name.split(".")[1], [], nested) for a in child.names
                             if a.name.startswith("sparse_lab."))
            visit(child, nested)

    visit(tree, False)
    return found


def import_table():
    return {m: internal_imports(ast.parse((PACKAGE / f"{m}.py").read_text())) for m in MODULES}


def test_parser_sees_the_package_structure():
    table = import_table()
    assert ("reporting", [], False) in table["sketch"]
    nested = "def f():\n    from .sketch import run_sketch\n"
    assert internal_imports(ast.parse(nested)) == [("sketch", ["run_sketch"], True)]


def test_import_graph_has_no_cycle():
    graph = {m: {target for target, _, _ in imports} for m, imports in import_table().items()}
    done, on_path = set(), []

    def walk(m):
        if m in on_path:
            raise AssertionError("import cycle: " + " -> ".join(on_path[on_path.index(m):] + [m]))
        if m in done:
            return
        on_path.append(m)
        for target in sorted(graph.get(m, ())):
            walk(target)
        on_path.pop()
        done.add(m)

    for m in MODULES:
        walk(m)


def test_no_module_imports_inside_functions():
    nested = {m for m, imports in import_table().items() if any(n for _, _, n in imports)}
    assert nested == set()


def test_no_module_imports_a_private_name():
    private = [
        f"{m} imports {target}.{name}"
        for m, imports in import_table().items()
        for target, names, _ in imports
        for name in names
        if name.startswith("_") and not name.startswith("__")
    ]
    assert private == []


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name and attribute ``tree`` refers to in code, outside ``skip``."""
    names = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if child is skip:
                continue
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                names.add(child.attr)
            visit(child)

    visit(tree)
    return names


def test_every_public_definition_is_used_outside_the_tests():
    # used: referenced in the package's code (not only by its own definition
    # or a re-export), by bench/ (code or an attribute string such as the
    # tracer's table), or named in an inline code span of the README
    trees = {m: ast.parse((PACKAGE / f"{m}.py").read_text()) for m in MODULES}
    bench = set()
    for path in (ROOT / "bench").glob("*.py"):
        tree = ast.parse(path.read_text())
        bench |= referenced_names(tree)
        bench |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    readme = {word for span in re.findall(r"`([^`\n]+)`", prose) for word in re.findall(r"\w+", span)}
    names = {m: referenced_names(tree) for m, tree in trees.items()}
    unused = []
    for m, tree in trees.items():
        others = bench.union(readme, *(n for o, n in names.items() if o != m))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and node.name not in others and node.name not in referenced_names(tree, node)):
                unused.append(f"{m}.{node.name}")
    assert unused == [], unused
