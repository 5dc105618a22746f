"""Rules about where a decision lives in the source, checked by reading the modules."""

import re
from pathlib import Path

import pdakit

PACKAGE = Path(pdakit.__file__).parent


def test_only_errors_decides_that_an_allocation_failed():
    # errors.allocating is the one rule that turns numpy refusing an
    # allocation into an input error; a module naming MemoryError has its own copy.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "errors.py" in modules
    naming = [str(path.relative_to(PACKAGE)) for path in modules
              if path.name != "errors.py"
              and re.search(r"\bMemoryError\b", path.read_text(encoding="utf-8"))]
    assert naming == []
