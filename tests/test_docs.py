"""Documentation stays honest: link and doctest checks in the tier-1 suite.

Mirrors the CI ``docs`` job (``tools/check_docs.py``): intra-repo links in
``README.md`` / ``docs/*.md`` must resolve, and the fenced doctest examples
must execute.  Running it here means a branch cannot break the docs and
still pass the default test run.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


def test_docs_exist_and_are_linked_from_readme():
    readme = (REPO_ROOT / "README.md").read_text()
    for name in ("docs/architecture.md", "docs/performance.md"):
        assert (REPO_ROOT / name).exists(), f"{name} is missing"
        assert name in readme, f"README does not link {name}"


def test_no_broken_links():
    checker = _load_checker()
    errors = []
    for path in checker.doc_files():
        errors.extend(checker.check_links(path))
    assert not errors, "\n".join(errors)


def test_fenced_doctests_pass():
    checker = _load_checker()
    files = checker.doc_files()
    n_blocks = sum(len(checker.doctest_blocks(path)) for path in files)
    assert n_blocks >= 2, "expected doctest examples in the docs"
    errors = []
    for path in files:
        errors.extend(checker.check_doctests(path))
    assert not errors, "\n".join(errors)


def test_knob_table_matches_the_code():
    checker = _load_checker()
    assert checker.check_knob_table() == []


def test_knob_table_flags_a_deleted_knob(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "performance.md"
    doc.write_text(
        "## The knobs at a glance\n\n"
        "| Knob | Where | Default | What it trades |\n"
        "|------|-------|---------|----------------|\n"
        "| `chunk_traces` | `TvlaConfig` | `2048` | memory |\n"
        "| `streaming` | `TvlaConfig` | `None` | two-pass matrices |\n"
        "| `noise` | `NoSuchThing` | `1` | nothing |\n")
    errors = checker.check_knob_table(doc)
    assert len(errors) == 2, errors
    assert "performance.md:6: knob `streaming`" in errors[0]
    assert "NoSuchThing" in errors[1]
    (tmp_path / "empty.md").write_text("# No table here\n")
    assert checker.check_knob_table(tmp_path / "empty.md")
