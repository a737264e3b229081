"""Every relative Markdown link in the docs resolves to a file in the tree."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
     ROOT / "perf" / "README.md", *(ROOT / "docs").glob("*.md")]
)
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


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
