"""The library never imports the benchmark: perfbench's exact oracle must stay
an independent reference for what the library computes."""

import ast
from pathlib import Path

BENCHMARK_MODULES = {"oracle", "perfbench", "tracer", "workloads", "worker"}


def _benchmark_imports(source: str) -> list[str]:
    """Every imported dotted name in source that has a benchmark module among its parts."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.extend(f"{base}.{alias.name}" for alias in node.names)
    return [name for name in names if BENCHMARK_MODULES & set(name.split("."))]


def test_the_guard_sees_every_import_form():
    source = "import perfbench.oracle\nfrom . import tracer\nfrom .workloads import x\nfrom worker import *\n"
    assert len(_benchmark_imports(source)) == 4
    assert _benchmark_imports("import numpy\nfrom .dist import Dist\n") == []


def test_the_library_never_imports_the_benchmark():
    files = sorted((Path(__file__).resolve().parents[1] / "src" / "probfold").glob("*.py"))
    assert files
    found = {f.name: bad for f in files if (bad := _benchmark_imports(f.read_text()))}
    assert found == {}
