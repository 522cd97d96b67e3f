"""The import boundary of the `hici` package, read from its source.

Every module imports only numpy and the standard library, and one module,
`hici.parallel`, owns every thread, fork and CPU query: no other module
imports `threading`, `concurrent.futures`, `pickle` or `signal`, or
reaches `os.fork`, `os.register_at_fork` or `os.sched_getaffinity`.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hici"
MODULES = sorted(PACKAGE.glob("*.py"))
CPU_IMPORTS = ("threading", "concurrent.futures", "pickle", "signal")
CPU_CALLS = ("fork", "register_at_fork", "sched_getaffinity")


def _absolute_imports(tree):
    """Every name an absolute import of `tree` brings in, dotted: `import a.b`
    gives a.b, `from a import b` gives a and a.b."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_module_is_read():
    assert {"parallel.py", "tensor.py", "gradcheck.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_absolute_imports_are_numpy_or_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"numpy"}
    assert sorted({name for name in _absolute_imports(_tree(path))
                   if name.split(".")[0] not in allowed}) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "parallel.py"],
                         ids=lambda p: p.name)
def test_only_parallel_touches_threads_forks_and_cpus(path):
    tree = _tree(path)
    imported = sorted(name for name in _absolute_imports(tree)
                      if any(name == m or name.startswith(m + ".") for m in CPU_IMPORTS)
                      or name in {f"os.{call}" for call in CPU_CALLS})
    reached = sorted(f"os.{node.attr}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr in CPU_CALLS
                     and isinstance(node.value, ast.Name) and node.value.id == "os")
    assert imported == [] and reached == []
