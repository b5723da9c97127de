"""A configuration error is a type: every record check raises ConfigError, the CLI maps it once.

``cli_main`` turns a ``ConfigError`` into exit 1 and anything else into exit 2,
so a range check that raised a plain ``ValueError`` would exit 2 after the
run directory was written.  These tests read the source, so a new check
(a new ``DatasetSpec`` field, say) is held to the rule before it ever runs.
"""

import ast
from pathlib import Path

import pytest

import sparse_lab

PACKAGE = Path(sparse_lab.__file__).resolve().parent

# (module, definition) whose every raise is a configuration error
CONFIG_CHECKS = [
    ("nn", "MlpArchitecture"),
    ("nn", "TrainConfig"),
    ("rundir", "DatasetSpec"),
    ("rundir", "SketchConfig"),
    ("sketch", "sweep"),
    ("reporting", "check_curves"),
]


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def definition(tree: ast.Module, name: str) -> ast.AST:
    return next(n for n in tree.body if getattr(n, "name", None) == name)


def raised(node: ast.AST) -> list[str]:
    """The exception each ``raise`` under ``node`` names, in source order."""
    names = []
    for n in ast.walk(node):
        if isinstance(n, ast.Raise):
            exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            names.append("" if exc is None else ast.unparse(exc))
    return names


def handled(node: ast.AST) -> list[str]:
    """Each exception name an ``except`` clause under ``node`` catches."""
    names = []
    for n in ast.walk(node):
        if isinstance(n, ast.ExceptHandler) and n.type is not None:
            types = n.type.elts if isinstance(n.type, ast.Tuple) else [n.type]
            names.extend(ast.unparse(t) for t in types)
    return names


def test_parser_sees_raises_and_handlers():
    source = ast.parse(
        "class R:\n"
        "    def __post_init__(self):\n"
        "        if self.x < 0:\n"
        "            raise ValueError('x')\n"
        "        try:\n"
        "            pass\n"
        "        except (ValueError, KeyError):\n"
        "            raise\n"
    )
    assert raised(definition(source, "R")) == ["ValueError", ""]
    assert handled(source) == ["ValueError", "KeyError"]


@pytest.mark.parametrize("module,name", CONFIG_CHECKS)
def test_every_check_raises_config_error(module, name):
    names = raised(definition(parse(module), name))
    assert names, f"{module}.{name} has no checks"
    assert set(names) == {"ConfigError"}, f"{module}.{name} raises {names}"


def test_cli_converts_value_error_once():
    # the config-file converter parses outside text; every other check raises ConfigError
    assert handled(parse("cli")).count("ValueError") == 1


def test_config_error_is_defined_once():
    defined = [m.stem for m in PACKAGE.glob("*.py")
               if any(isinstance(n, ast.ClassDef) and n.name == "ConfigError" for n in parse(m.stem).body)]
    assert defined == ["util"]
