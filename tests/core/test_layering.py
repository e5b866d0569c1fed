"""The core layer decides Comp-C on its own: no module under
``repro/core`` imports ``repro.lint``, at module level or inside a
function.  Lint builds on core, never the other way round."""

import ast
from pathlib import Path

CORE = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"


def _lint_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                # ``from ..lint import x`` inside ``repro.core``
                package = ["repro", "core"][: 3 - node.level]
                module = ".".join(package + ([module] if module else []))
            names = [module] + [
                f"{module}.{alias.name}" for alias in node.names
            ]
        else:
            continue
        for name in names:
            if name == "repro.lint" or name.startswith("repro.lint."):
                yield node.lineno, name
                break


def test_core_never_imports_lint():
    modules = sorted(CORE.glob("*.py"))
    assert modules, f"no modules found under {CORE}"
    offenders = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in _lint_imports(path)
    ]
    assert offenders == []
