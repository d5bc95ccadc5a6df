"""Every module-level import in src/dubins3d is used by its module, or its
line says why it is kept: `# noqa: F401` followed by a reason."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dubins3d"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
KEPT = re.compile(r"#\s*noqa:\s*F401\s+\S")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of source that it never
    reads, except on lines marked KEPT; `from __future__` binds nothing."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and not KEPT.search(lines[alias.lineno - 1]):
                unused.append(name)
    return unused


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_what_it_uses(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_kept_imports_are_the_known_three():
    # oracle keeps two names for bench/tracing.py to wrap; solver re-exports
    # the tolerance its roots meet
    kept = []
    for module in MODULES:
        source = (SRC / module).read_text()
        lines = source.splitlines()
        imports = [node for node in ast.parse(source).body if isinstance(node, (ast.Import, ast.ImportFrom))]
        kept += [f"{module[:-3]}.{a.asname or a.name}" for node in imports for a in node.names if KEPT.search(lines[a.lineno - 1])]
    assert sorted(kept) == ["oracle.eval_residuals", "oracle.solve_type", "solver.DEFAULT_RESIDUAL_TOL"]


def test_checker_flags_an_unused_import_and_a_reasonless_mark():
    source = "from __future__ import annotations\nimport math\nimport os\nimport re  # noqa: F401\nimport sys  # noqa: F401  re-exported\nfrom a import b as c, d\nos.sep, d\n"
    assert unused_imports(source) == ["math", "re", "c"]
