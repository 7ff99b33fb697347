"""Every example script imports cleanly against the current public API.

The examples are the user-facing entry points, but running them takes
seconds to minutes, so this only imports each module (its ``main()`` is
guarded by ``if __name__ == "__main__"``).  A public name removed from
``repro`` without updating an example then fails here instead of silently.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
