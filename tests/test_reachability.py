"""Every module under ``src/repro`` is reachable from a shipped entry point.

Walks the import graph with ``ast`` — lazy imports inside functions
included — from ``repro.api`` and the shipped CLIs, and pins the set of
modules no walk reaches.  A module that nothing imports fails the test
until it is deleted or wired in; an allowlisted package that becomes
reachable, or is deleted, fails it too, so the allowlist only shrinks by
a visible edit here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ROOTS = ("repro.api",) + tuple(
    f"repro.tools.{cli}"
    for cli in ("deploy", "trace", "cluster", "resume", "fsck", "benchcheck")
)

#: Packages no entry point imports yet.  ROADMAP item 24 gives each a
#: deadline of the next re-anchor, after which it is deleted with its
#: tests: ``loaders`` must run live in item 6 (the paper's DALI/PyTorch
#: baselines), ``sim`` must drive item 13's first slice, and ``train``
#: must drive item 22's consumer.
UNREACHED_PACKAGES = {"repro.loaders", "repro.sim", "repro.train"}


def _modules() -> dict[str, Path]:
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out[".".join(parts)] = path
    return out


def _imported_names(name: str, path: Path):
    """Every dotted name an import statement in the module could load."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: package.count(".") + 2 - node.level]
                base = ".".join(anchor + [base] if base else anchor)
            yield base
            # ``from pkg import mod`` loads a submodule; a plain name
            # matches no module and drops out below.
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _reached(modules: dict[str, Path]) -> set[str]:
    seen: set[str] = set()
    todo = list(ROOTS)
    while todo:
        parts = todo.pop().split(".")
        # Importing a.b.c runs a/__init__ and a/b/__init__ first.
        for i in range(1, len(parts) + 1):
            name = ".".join(parts[:i])
            if name in modules and name not in seen:
                seen.add(name)
                todo.extend(_imported_names(name, modules[name]))
    return seen


def _package_of(module: str) -> str:
    return ".".join(module.split(".")[:2])


def test_roots_exist():
    modules = _modules()
    assert [r for r in ROOTS if r not in modules] == []


def test_unreached_modules_are_exactly_the_allowlisted_packages():
    modules = _modules()
    unreached = set(modules) - _reached(modules)
    allowlisted = {m for m in modules if _package_of(m) in UNREACHED_PACKAGES}
    assert {_package_of(m) for m in allowlisted} == UNREACHED_PACKAGES, (
        "an allowlisted package was deleted: drop it from UNREACHED_PACKAGES"
    )
    assert sorted(unreached - allowlisted) == [], (
        "no entry point imports these modules: delete them or wire them in"
    )
    assert sorted(allowlisted - unreached) == [], (
        "an allowlisted module is now reachable: drop its package from "
        "UNREACHED_PACKAGES"
    )
