"""The docs name only what exists: every relative Markdown link resolves
to a file in the tree, and every backticked ``Class.member`` of a
``repro`` class to a member of that class."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
     ROOT / "perf" / "README.md", *(ROOT / "docs").glob("*.md")]
)
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
MEMBER = re.compile(r"`([A-Z]\w*)\.(\w+)(?:\(\))?`")


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_relative_links_resolve(doc):
    dead = []
    for target in LINK.findall(doc.read_text()):
        if re.match(r"[a-z][a-z0-9+.-]*:", target) or target.startswith("#"):
            continue  # external URL or in-page anchor
        path = target.split("#", 1)[0]
        if not (doc.parent / path).exists():
            dead.append(target)
    assert not dead, f"{doc.relative_to(ROOT)}: dead links {dead}"


def _repro_classes() -> dict:
    """Every class defined in a ``repro`` module, by name."""
    classes: dict = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                classes.setdefault(name, []).append(obj)
    return classes


def _oracle_functions() -> set:
    """Functions of the ``tests/**/reference_*.py`` oracles, which keep
    the replaced code the docs may still describe."""
    return {
        node.name
        for path in (ROOT / "tests").rglob("reference_*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }


def _has(cls, member: str) -> bool:
    """*cls* has *member* as an attribute, a field or an annotation."""
    return hasattr(cls, member) or any(
        member in getattr(k, "__annotations__", {}) for k in cls.__mro__
    )


def test_member_names_resolve():
    classes, oracle = _repro_classes(), _oracle_functions()
    stale = [
        f"{doc.relative_to(ROOT)}:{n}: {cls}.{member}"
        for doc in DOCS
        for n, line in enumerate(doc.read_text().splitlines(), 1)
        for cls, member in MEMBER.findall(line)
        if cls in classes and member not in oracle
        and not any(_has(c, member) for c in classes[cls])
    ]
    assert not stale, f"docs name members that do not exist: {stale}"
