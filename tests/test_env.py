"""Process-level environment contracts."""

import ast
import os
import subprocess
import sys
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_clean(code: str, **extra_env: str) -> str:
    """Run a snippet in a subprocess whose env carries no thread settings."""
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_VARS and k != "SPARSE_LAB_THREADS"}
    env.update(extra_env)
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip()


def test_thread_cap_env_applied_on_import():
    # the cap must land in the BLAS env vars before numpy loads
    code = ("import sparse_lab, os;"
            "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])")
    assert run_clean(code, SPARSE_LAB_THREADS="3").split() == ["3", "3"]


def test_thread_cap_defaults_to_one():
    code = "import sparse_lab, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_clean(code) == "1"


def test_existing_blas_setting_respected():
    code = "import sparse_lab, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_clean(code, OPENBLAS_NUM_THREADS="7") == "7"


def import_warnings(first: str, **extra_env: str) -> list[str]:
    """Warnings raised by ``import sparse_lab`` after the statement ``first``."""
    code = (f"import warnings\n{first}\n"
            "with warnings.catch_warnings(record=True) as seen:\n"
            "    warnings.simplefilter('always')\n"
            "    import sparse_lab\n"
            "for w in seen: print(w.category.__name__, w.message)\n")
    out = run_clean(code, **extra_env)
    return out.splitlines() if out else []


def test_numpy_imported_first_warns_once():
    seen = import_warnings("import numpy")
    assert len(seen) == 1
    assert seen[0].startswith("RuntimeWarning")
    assert "SPARSE_LAB_THREADS" in seen[0] and "import sparse_lab first" in seen[0]


def test_sparse_lab_imported_first_is_silent():
    assert import_warnings("") == []


def test_preset_thread_variables_are_silent():
    # a child process that inherits every variable gets its cap without sparse_lab
    assert import_warnings("import numpy", **{v: "1" for v in BLAS_VARS}) == []


def test_conftest_imports_sparse_lab_before_numpy():
    # a numpy import ahead of sparse_lab loads BLAS before the cap is set
    tree = ast.parse((Path(__file__).parent / "conftest.py").read_text())
    order = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            order += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            order.append(node.module.split(".")[0])
    assert "sparse_lab" in order
    assert "numpy" not in order[: order.index("sparse_lab")]
