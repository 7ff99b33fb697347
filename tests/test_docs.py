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


def test_fenced_repro_imports_resolve():
    checker = _load_checker()
    files = checker.doc_files()
    assert sum(len(names) for path in files
               for _, _, names in checker.repro_imports(path)) >= 10
    errors = []
    for path in files:
        errors.extend(checker.check_imports(path))
    assert not errors, "\n".join(errors)


def test_import_check_flags_a_deleted_name(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "guide.md"
    doc.write_text(
        "# Guide\n\n"
        "```python\n"
        "from repro.campaign import QueueExecutor  # deleted\n"
        "from repro.tvla import (TvlaConfig,\n"
        "                        assess_leakage as run)\n"
        "```\n\n"
        "```pycon\n"
        ">>> from repro.simulation import compiled, NoSuchName\n"
        ">>> from repro.nosuchmodule import anything\n"
        "```\n\n"
        "```bash\n"
        "from repro.campaign import IgnoredOutsidePython\n"
        "```\n")
    assert [(line, module, names)
            for line, module, names in checker.repro_imports(doc)] == [
        (4, "repro.campaign", ["QueueExecutor"]),
        (5, "repro.tvla", ["TvlaConfig", "assess_leakage"]),
        (10, "repro.simulation", ["compiled", "NoSuchName"]),
        (11, "repro.nosuchmodule", ["anything"]),
    ]
    assert checker.check_imports(doc) == [
        "guide.md:4: `from repro.campaign import QueueExecutor` does not "
        "resolve",
        "guide.md:10: `from repro.simulation import NoSuchName` does not "
        "resolve",
        "guide.md:11: `from repro.nosuchmodule import anything` does not "
        "resolve",
    ]


def test_documented_names_occur_in_the_code():
    checker = _load_checker()
    words = checker.code_words()
    files = checker.doc_files()
    assert sum(len(checker.documented_names(path)) for path in files) >= 100
    errors = []
    for path in files:
        errors.extend(checker.check_names(path, words))
    assert not errors, "\n".join(errors)


def test_name_check_flags_a_planted_name(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "guide.md"
    doc.write_text(
        "# Guide\n\n"
        "`assess_leakage` folds with `repro.tvla._fold_stale_chunks()`;\n"
        "``PlantedRemovedClass`` and `TvlaConfig.n_traces` are spans,\n"
        "`short`, `Tiny`, `--flag` and `a b_c` are not checked.\n\n"
        "```\n"
        "`Fenced_missing_name` is inside a fence\n"
        "```\n")
    assert [name for _, name in checker.documented_names(doc)] == [
        "assess_leakage", "_fold_stale_chunks", "PlantedRemovedClass",
        "TvlaConfig", "n_traces"]
    known = {"assess_leakage", "TvlaConfig", "n_traces"}
    assert checker.check_names(doc, known) == [
        "guide.md:3: `_fold_stale_chunks` occurs in no file under src, "
        "tests, tools, perfbench, benchmarks, examples",
        "guide.md:4: `PlantedRemovedClass` occurs in no file under src, "
        "tests, tools, perfbench, benchmarks, examples",
    ]
