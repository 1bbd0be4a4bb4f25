"""Documented examples must run: doctest over docs/*.md and README.md.

The CI docs job runs the same command (``python -m doctest``) standalone;
collecting it here too means the tier-1 suite catches documentation rot in
the same run that changed the code.
"""

from __future__ import annotations

import doctest
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
DOCUMENTS = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
)


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.name)
def test_documented_examples_run(path):
    results = doctest.testfile(str(path), module_relative=False, verbose=False)
    assert results.failed == 0, f"{path.name}: {results.failed} doctest failures"


def test_docs_are_discovered():
    names = {path.name for path in DOCUMENTS}
    assert {"README.md", "ARCHITECTURE.md", "API.md", "SERVING.md"} <= names
