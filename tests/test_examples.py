"""Every example script imports cleanly against the current API.

Each example keeps its work behind a ``__main__`` guard, so importing one
runs nothing; it only resolves the example's imports and module-level
definitions, which is where a renamed or deleted API would break it.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
