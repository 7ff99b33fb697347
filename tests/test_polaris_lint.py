"""Unit tests of the ``polaris-lint`` static-analysis engine.

Every rule (PL001-PL006) is exercised with a failing fixture **and** a
passing fixture, plus the engine-level contracts: inline suppressions
require a written justification, PL000 meta-findings are not suppressible,
and the JSON document shape is stable for CI consumption.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
TOOLS_DIR = REPO_ROOT / "tools"
if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))

from polaris_lint import RULES, Severity, lint_paths  # noqa: E402
from polaris_lint import rules as _rules  # noqa: E402,F401  (registers rules)
from polaris_lint.cli import main as cli_main  # noqa: E402
from polaris_lint.contracts import PICKLE_SEAM_CLASSES  # noqa: E402


def run_lint(tmp_path, files, rule_ids=None, paths=None):
    """Write ``files`` (rel path -> source) under ``tmp_path`` and lint."""
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    lint_targets = paths if paths is not None else sorted(files)
    return lint_paths(tmp_path, lint_targets, rule_ids=rule_ids)


def codes(result):
    return [finding.rule for finding in result.findings]


# ----------------------------------------------------------------------
# Engine basics
# ----------------------------------------------------------------------
class TestEngine:
    def test_registry_has_all_seven_rules(self):
        assert set(RULES) == {"PL001", "PL002", "PL003", "PL004",
                              "PL005", "PL006", "PL007"}
        for rule_cls in RULES.values():
            assert rule_cls.title
            assert rule_cls.severity in (Severity.ERROR, Severity.WARNING)

    def test_unparsable_file_is_a_meta_error(self, tmp_path):
        result = run_lint(tmp_path, {"bad.py": "def broken(:\n"},
                          rule_ids=["PL001"])
        assert codes(result) == ["PL000"]
        assert "does not parse" in result.findings[0].message
        assert not result.clean

    def test_clean_file_is_clean(self, tmp_path):
        result = run_lint(tmp_path, {"ok.py": "x = 1\n"},
                          rule_ids=["PL001", "PL006"])
        assert result.clean
        assert result.files_checked == 1

    def test_json_document_shape(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/mod.py":
             "import numpy as np\nrng = np.random.default_rng()\n"},
            rule_ids=["PL001"])
        doc = result.as_dict()
        assert set(doc) == {"tool", "files_checked", "suppressed",
                            "counts", "clean", "findings"}
        assert doc["tool"] == "polaris-lint"
        assert doc["counts"] == {"error": 1, "warning": 0}
        assert doc["clean"] is False
        (finding,) = doc["findings"]
        assert set(finding) == {"rule", "severity", "path", "line",
                                "col", "message"}
        assert finding["rule"] == "PL001"
        assert finding["path"] == "src/repro/mod.py"
        json.dumps(doc)  # must be serialisable as-is


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_trailing_suppression_with_reason_is_honoured(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/mod.py":
             "import numpy as np\n"
             "rng = np.random.default_rng()"
             "  # polaris-lint: disable=PL001 test stub, determinism n/a\n"},
            rule_ids=["PL001"])
        assert result.clean
        assert result.suppressed == 1
        assert result.suppression_reasons == {
            "PL001": ["src/repro/mod.py:2"]}

    def test_comment_only_line_covers_the_next_line(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/mod.py":
             "import numpy as np\n"
             "# polaris-lint: disable=PL001 test stub, determinism n/a\n"
             "rng = np.random.default_rng()\n"},
            rule_ids=["PL001"])
        assert result.clean
        assert result.suppressed == 1

    def test_suppression_without_reason_is_an_error(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/mod.py":
             "import numpy as np\n"
             "rng = np.random.default_rng()  # polaris-lint: disable=PL001\n"},
            rule_ids=["PL001"])
        # The PL001 finding is NOT silenced and the bare suppression is
        # itself a PL000 error.
        assert sorted(codes(result)) == ["PL000", "PL001"]
        meta = next(f for f in result.findings if f.rule == "PL000")
        assert "no written justification" in meta.message

    def test_malformed_suppression_is_an_error(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py": "x = 1  # polaris-lint: plzignore\n"},
            rule_ids=["PL006"])
        assert codes(result) == ["PL000"]
        assert "malformed" in result.findings[0].message

    def test_unknown_rule_in_suppression_is_an_error(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py": "x = 1  # polaris-lint: disable=PL999 because\n"},
            rule_ids=["PL006"])
        assert codes(result) == ["PL000"]
        assert "unknown rule PL999" in result.findings[0].message

    def test_meta_findings_are_not_suppressible(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "# polaris-lint: disable=PL000 nice try\n"
             "x = 1  # polaris-lint: disable=PL006\n"},
            rule_ids=["PL006"])
        # Line 2's bare suppression stays an error even though line 1
        # "covers" it with a PL000 disable.
        assert codes(result) == ["PL000"]

    def test_suppression_only_silences_named_codes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/mod.py":
             "import numpy as np\n"
             "# polaris-lint: disable=PL006 wrong code on purpose\n"
             "rng = np.random.default_rng()\n"},
            rule_ids=["PL001"])
        assert codes(result) == ["PL001"]
        assert result.suppressed == 0

    def test_prose_mentioning_the_tool_is_not_a_suppression(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py": "x = 1  # see polaris-lint docs for the rule table\n"},
            rule_ids=["PL006"])
        assert result.clean


# ----------------------------------------------------------------------
# PL001 — determinism: RNG discipline and stable sorts
# ----------------------------------------------------------------------
class TestPL001Rng:
    def test_unseeded_default_rng_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/mod.py":
             "import numpy as np\nrng = np.random.default_rng()\n"},
            rule_ids=["PL001"])
        assert codes(result) == ["PL001"]
        assert "unseeded" in result.findings[0].message

    def test_default_rng_with_literal_none_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/mod.py":
             "import numpy as np\nrng = np.random.default_rng(None)\n"},
            rule_ids=["PL001"])
        assert codes(result) == ["PL001"]

    def test_seeded_default_rng_passes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/mod.py":
             "import numpy as np\n"
             "rng = np.random.default_rng(1234)\n"
             "seq = np.random.SeedSequence(7)\n"
             "child = np.random.default_rng(seq.spawn(1)[0])\n"},
            rule_ids=["PL001"])
        assert result.clean

    def test_global_state_api_is_flagged_everywhere(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"tools/helper.py":
             "import numpy as np\nnp.random.seed(0)\n"
             "x = np.random.rand(4)\n"},
            rule_ids=["PL001"])
        assert codes(result) == ["PL001", "PL001"]
        assert "global RNG state" in result.findings[0].message

    def test_aliased_global_state_attribute_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/mod.py":
             "import numpy as np\nshuffler = np.random.shuffle\n"},
            rule_ids=["PL001"])
        assert codes(result) == ["PL001"]

    def test_stdlib_random_banned_only_in_src_repro(self, tmp_path):
        banned = run_lint(
            tmp_path,
            {"src/repro/mod.py": "import random\nx = random.random()\n"},
            rule_ids=["PL001"])
        assert "PL001" in codes(banned)
        tolerated = run_lint(
            tmp_path,
            {"tools/helper.py": "import random\nx = random.random()\n"},
            rule_ids=["PL001"])
        assert tolerated.clean

    def test_from_random_import_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/mod.py": "from random import choice\n"},
            rule_ids=["PL001"])
        assert codes(result) == ["PL001"]

    def test_bare_philox_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/mod.py":
             "import numpy as np\nbg = np.random.Philox()\n"},
            rule_ids=["PL001"])
        assert codes(result) == ["PL001"]
        assert "without a seed or key" in result.findings[0].message

    def test_philox_with_literal_none_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/mod.py":
             "import numpy as np\nbg = np.random.Philox(None)\n"},
            rule_ids=["PL001"])
        assert codes(result) == ["PL001"]

    def test_coordinate_keyed_philox_passes(self, tmp_path):
        # The ctrsample seam: Philox keyed/countered from campaign
        # coordinates is the sanctioned counter-sampler construction.
        result = run_lint(
            tmp_path,
            {"src/repro/mod.py":
             "import numpy as np\n"
             "bg = np.random.Philox(key=0x1234, counter=[0, 1, 2, 3])\n"
             "seeded = np.random.Philox(7)\n"
             "from_seq = np.random.Philox(np.random.SeedSequence(9))\n"},
            rule_ids=["PL001"])
        assert result.clean

    def test_philox_counter_alone_is_not_a_seed(self, tmp_path):
        # counter= fixes the block position, not the keystream: without a
        # key the construction still draws OS entropy.
        result = run_lint(
            tmp_path,
            {"src/repro/mod.py":
             "import numpy as np\n"
             "bg = np.random.Philox(counter=[0, 0, 0, 0])\n"},
            rule_ids=["PL001"])
        assert codes(result) == ["PL001"]


    def test_unstable_sorts_are_flagged_in_src_repro(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/mod.py":
             "import numpy as np\n"
             "a = np.argsort(x)\n"
             "b = np.sort(x, axis=0)\n"
             "c = x.argsort(axis=1)\n"
             "d = np.argsort(x, kind='quicksort')\n"
             "e = np.argsort(-x, 0, None)\n"},
            rule_ids=["PL001"])
        assert codes(result) == ["PL001"] * 5
        assert 'without kind="stable"' in result.findings[0].message

    def test_test_oracles_keep_the_src_discipline(self, tmp_path):
        # Oracles moved out of src/repro keep its seeded-RNG and
        # stable-sort rules; other test modules do not.
        source = ("import random\n"
                  "import numpy as np\n"
                  "order = np.argsort(x)\n")
        result = run_lint(tmp_path, {"tests/oracles/mod.py": source,
                                     "tests/test_mod.py": source},
                          rule_ids=["PL001"])
        assert [(f.rule, f.path) for f in result.findings] == [
            ("PL001", "tests/oracles/mod.py")] * 2

    def test_stable_sorts_pass(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/mod.py":
             "import numpy as np\n"
             "a = np.argsort(x, kind='stable')\n"
             "b = np.sort(x, axis=0, kind='mergesort')\n"
             "c = x.argsort(axis=1, kind='stable')\n"
             "d = np.argsort(x, -1, 'stable')\n"
             "e = x.argsort(0, 'mergesort')\n"
             "f = np.argsort(x, **options)\n"
             "names.sort()\n"},
            rule_ids=["PL001"])
        assert result.clean

    def test_unstable_sorts_tolerated_outside_src_repro(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"tools/helper.py":
             "import numpy as np\na = np.argsort(x)\nb = x.argsort()\n"},
            rule_ids=["PL001"])
        assert result.clean


# ----------------------------------------------------------------------
# PL002 — oracle pairing (cross-file)
# ----------------------------------------------------------------------
def _oracle_repo_files(tmp_path):
    """A miniature repo satisfying every registered oracle pair."""
    return {
        "src/repro/tvla/moments.py":
            "class OnePassMoments:\n"
            "    def update_batch(self):\n"
            "        pass\n"
            "    def update_batch_naive(self):\n"
            "        pass\n",
        "src/repro/power/traces.py":
            "class TraceEngine:\n"
            "    def generate(self):\n"
            "        pass\n",
        "src/repro/tvla/assessment.py":
            "def _fold_chunk():\n"
            "    pass\n",
        "src/repro/simulation/simulator.py":
            "class LogicSimulator:\n"
            "    pass\n",
        "src/repro/ml/tree.py":
            "class TreeBuilder:\n"
            "    def _best_split(self):\n"
            "        pass\n"
            "class FittedTree:\n"
            "    def predict_batch(self):\n"
            "        pass\n"
            "class Classifier:\n"
            "    def fit(self):\n"
            "        pass\n"
            "class Regressor:\n"
            "    def _fit_fixed_weights(self):\n"
            "        pass\n"
            "def _fit_lockstep():\n"
            "    pass\n",
        "src/repro/xai/tree_shap.py":
            "class _LeafTable:\n"
            "    def shap_block(self):\n"
            "        pass\n",
        "src/repro/power/ctrsample.py":
            "def philox_raw():\n"
            "    pass\n",
        "src/repro/power/bitops.py":
            "def popcount16_inplace():\n"
            "    pass\n"
            "def popcount16():\n"
            "    pass\n",
        "tests/oracles/simulation.py":
            "class LoopSimulator:\n"
            "    pass\n",
        "tests/oracles/power.py":
            "def generate_loop():\n"
            "    pass\n",
        "tests/oracles/tree.py":
            "def best_split_loop():\n"
            "    pass\n"
            "def predict_value():\n"
            "    pass\n",
        "tests/oracles/forest.py":
            "def fit_forest_per_tree():\n"
            "    pass\n",
        "tests/oracles/tree_shap.py":
            "def explain_per_sample():\n"
            "    pass\n",
        "tests/oracles/ctrsample.py":
            "def philox_blocks_reference():\n"
            "    pass\n",
        "src/repro/netlist/graph.py":
            "def neighborhood():\n"
            "    pass\n",
        "tests/oracles/graph.py":
            "def neighborhood():\n"
            "    pass\n",
        "tests/test_oracles.py": _ORACLE_REFERENCES,
        # The chunk-fold pair shares its oracle with trace-engine, so it
        # is referenced from its own module: edits to the trace-engine
        # line above leave it satisfied.
        "tests/test_chunk_fold.py": "# _fold_chunk generate_loop\n",
    }


#: A test module naming both sides of every registered pair.
_ORACLE_REFERENCES = (
    "# references: update_batch update_batch_naive\n"
    "# LogicSimulator LoopSimulator generate generate_loop\n"
    "# _best_split best_split_loop _fit_lockstep fit_forest_per_tree fit\n"
    "# _fit_fixed_weights\n"
    "# predict_batch predict_value\n"
    "# shap_block explain_per_sample\n"
    "# philox_raw philox_blocks_reference\n"
    "# popcount16_inplace popcount16\n"
    "# neighborhood\n")


class TestPL002Oracle:
    def test_complete_pairs_pass(self, tmp_path):
        result = run_lint(tmp_path, _oracle_repo_files(tmp_path),
                          rule_ids=["PL002"], paths=["src"])
        assert result.clean

    def test_missing_module_is_flagged(self, tmp_path):
        files = _oracle_repo_files(tmp_path)
        del files["src/repro/simulation/simulator.py"]
        result = run_lint(tmp_path, files, rule_ids=["PL002"], paths=["src"])
        assert codes(result) == ["PL002"]
        assert "missing or unparsable" in result.findings[0].message

    def test_dropped_oracle_symbol_is_flagged(self, tmp_path):
        files = _oracle_repo_files(tmp_path)
        files["src/repro/tvla/moments.py"] = (
            "class OnePassMoments:\n"
            "    def update_batch(self):\n"
            "        pass\n")
        result = run_lint(tmp_path, files, rule_ids=["PL002"], paths=["src"])
        assert codes(result) == ["PL002"]
        assert "'update_batch_naive' no longer exists" \
            in result.findings[0].message

    def test_dropped_fast_side_is_flagged(self, tmp_path):
        files = _oracle_repo_files(tmp_path)
        files["src/repro/simulation/simulator.py"] = "class Simulator:\n    pass\n"
        result = run_lint(tmp_path, files, rule_ids=["PL002"], paths=["src"])
        assert codes(result) == ["PL002"]
        finding = result.findings[0]
        assert finding.path == "src/repro/simulation/simulator.py"
        assert "fast-path 'LogicSimulator' no longer exists" in finding.message

    def test_dropped_oracle_side_under_tests_is_flagged(self, tmp_path):
        files = _oracle_repo_files(tmp_path)
        files["tests/oracles/power.py"] = "def generate_slowly():\n    pass\n"
        result = run_lint(tmp_path, files, rule_ids=["PL002"], paths=["src"])
        # Both pairs whose oracle is generate_loop lose it.
        assert codes(result) == ["PL002", "PL002"]
        pairs = set()
        for finding in result.findings:
            assert finding.path == "tests/oracles/power.py"
            assert "oracle 'generate_loop' no longer exists" in finding.message
            pairs.add(finding.message.split("'")[1])
        assert pairs == {"trace-engine", "chunk-fold"}

    def test_missing_oracle_module_under_tests_is_flagged(self, tmp_path):
        files = _oracle_repo_files(tmp_path)
        del files["tests/oracles/ctrsample.py"]
        result = run_lint(tmp_path, files, rule_ids=["PL002"], paths=["src"])
        assert codes(result) == ["PL002"]
        assert result.findings[0].path == "tests/oracles/ctrsample.py"
        assert "missing or unparsable" in result.findings[0].message

    def test_oracle_module_naming_both_sides_is_not_a_test(self, tmp_path):
        # The oracle's docstring names its fast path; that pins nothing.
        files = _oracle_repo_files(tmp_path)
        files["tests/oracles/power.py"] = (
            '"""Reference loop of generate."""\n'
            "def generate_loop():\n"
            "    pass\n")
        files["tests/test_oracles.py"] = _ORACLE_REFERENCES.replace(
            " generate generate_loop", "")
        result = run_lint(tmp_path, files, rule_ids=["PL002"], paths=["src"])
        assert codes(result) == ["PL002"]
        assert "'trace-engine'" in result.findings[0].message
        assert "untested" in result.findings[0].message
        # Another oracle module naming both sides still counts as a test.
        files["tests/oracles/simulation.py"] += "# generate generate_loop\n"
        result = run_lint(tmp_path, files, rule_ids=["PL002"], paths=["src"])
        assert result.clean

    def test_untested_pair_is_flagged(self, tmp_path):
        files = _oracle_repo_files(tmp_path)
        # generate_loop dropped.
        files["tests/test_oracles.py"] = _ORACLE_REFERENCES.replace(
            "generate generate_loop", "generate")
        result = run_lint(tmp_path, files, rule_ids=["PL002"], paths=["src"])
        assert codes(result) == ["PL002"]
        assert "untested" in result.findings[0].message

    def test_untested_chunk_fold_is_flagged(self, tmp_path):
        files = _oracle_repo_files(tmp_path)
        files["tests/test_chunk_fold.py"] = "# _fold_chunk\n"
        result = run_lint(tmp_path, files, rule_ids=["PL002"], paths=["src"])
        assert codes(result) == ["PL002"]
        assert "'chunk-fold'" in result.findings[0].message
        assert result.findings[0].path == "src/repro/tvla/assessment.py"

    def test_word_boundary_no_substring_credit(self, tmp_path):
        # 'generate_loop' alone must not satisfy the 'generate' side.
        files = _oracle_repo_files(tmp_path)
        files["tests/test_oracles.py"] = _ORACLE_REFERENCES.replace(
            "generate generate_loop", "generate_loop")
        result = run_lint(tmp_path, files, rule_ids=["PL002"], paths=["src"])
        assert codes(result) == ["PL002"]

    def test_real_repo_satisfies_every_pair(self):
        result = lint_paths(REPO_ROOT, ["src"], rule_ids=["PL002"])
        assert result.clean, [f.render() for f in result.findings]


# ----------------------------------------------------------------------
# PL003 — buffer safety
# ----------------------------------------------------------------------
class TestPL003Buffers:
    def test_unfrozen_cache_store_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "import numpy as np\n"
             "_TABLE_CACHE = {}\n"
             "def build(key):\n"
             "    table = np.zeros(4)\n"
             "    _TABLE_CACHE[key] = table\n"
             "    return table\n"},
            rule_ids=["PL003"])
        assert codes(result) == ["PL003"]
        assert "without setflags(write=False)" in result.findings[0].message

    def test_frozen_cache_store_passes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "import numpy as np\n"
             "_TABLE_CACHE = {}\n"
             "def build(key):\n"
             "    table = np.zeros(4)\n"
             "    table.setflags(write=False)\n"
             "    _TABLE_CACHE[key] = table\n"
             "    return table\n"},
            rule_ids=["PL003"])
        assert result.clean

    def test_anonymous_cache_store_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "import numpy as np\n"
             "_TABLE_CACHE = {}\n"
             "def build(key):\n"
             "    _TABLE_CACHE[key] = np.zeros(4)\n"},
            rule_ids=["PL003"])
        assert codes(result) == ["PL003"]

    def test_module_level_table_must_be_frozen(self, tmp_path):
        flagged = run_lint(
            tmp_path,
            {"mod.py": "import numpy as np\nTABLE = np.arange(16)\n"},
            rule_ids=["PL003"])
        assert codes(flagged) == ["PL003"]
        frozen = run_lint(
            tmp_path,
            {"ok.py":
             "import numpy as np\n"
             "TABLE = np.arange(16)\n"
             "TABLE.setflags(write=False)\n"},
            rule_ids=["PL003"], paths=["ok.py"])
        assert frozen.clean

    def test_parameter_mutation_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "def scale(values, factor):\n"
             "    values *= factor\n"
             "    return values\n"},
            rule_ids=["PL003"])
        assert codes(result) == ["PL003"]
        assert "caller-owned parameter" in result.findings[0].message

    def test_mutation_after_copy_rebind_passes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "def scale(values, factor):\n"
             "    values = values.copy()\n"
             "    values *= factor\n"
             "    return values\n"},
            rule_ids=["PL003"])
        assert result.clean

    def test_documented_or_named_mutation_contracts_pass(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "def scale_inplace(values, factor):\n"
             "    values *= factor\n"
             "\n"
             "def accumulate(total, out):\n"
             "    out[0] = total\n"
             "\n"
             "def normalise(values):\n"
             "    \"\"\"Normalise ``values`` in place.\"\"\"\n"
             "    values /= 2\n"},
            rule_ids=["PL003"])
        assert result.clean

    def test_out_kwarg_on_parameter_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "import numpy as np\n"
             "def accumulate(values, extra):\n"
             "    np.add(values, extra, out=values)\n"},
            rule_ids=["PL003"])
        assert codes(result) == ["PL003"]


# ----------------------------------------------------------------------
# PL004 — pickle hygiene
# ----------------------------------------------------------------------
class TestPL004Pickle:
    def test_scratch_attr_without_getstate_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "class Worker:\n"
             "    def __init__(self):\n"
             "        self._scratch_buffers = []\n"},
            rule_ids=["PL004"])
        assert codes(result) == ["PL004"]
        assert "no __getstate__" in result.findings[0].message

    def test_getstate_not_mentioning_scratch_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "class Worker:\n"
             "    def __init__(self):\n"
             "        self._scratch_buffers = []\n"
             "    def __getstate__(self):\n"
             "        return dict(self.__dict__)\n"},
            rule_ids=["PL004"])
        assert codes(result) == ["PL004"]
        assert "_scratch_buffers" in result.findings[0].message

    def test_getstate_excluding_scratch_passes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "class Worker:\n"
             "    def __init__(self):\n"
             "        self._scratch_buffers = []\n"
             "    def __getstate__(self):\n"
             "        state = dict(self.__dict__)\n"
             "        state['_scratch_buffers'] = []\n"
             "        return state\n"},
            rule_ids=["PL004"])
        assert result.clean

    def test_registry_class_is_checked_by_name(self, tmp_path, monkeypatch):
        # A class registered in PICKLE_SEAM_CLASSES has its registered
        # attribute enforced even without 'scratch' fuzzy-matching.
        monkeypatch.setitem(PICKLE_SEAM_CLASSES, "Accumulator",
                            ("_workspace",))
        result = run_lint(
            tmp_path,
            {"mod.py":
             "class Accumulator:\n"
             "    def __init__(self):\n"
             "        self._workspace = [None, None]\n"},
            rule_ids=["PL004"])
        assert codes(result) == ["PL004"]
        assert "_workspace" in result.findings[0].message

    def test_class_without_scratch_passes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "class Plain:\n"
             "    def __init__(self):\n"
             "        self.value = 1\n"},
            rule_ids=["PL004"])
        assert result.clean


# ----------------------------------------------------------------------
# PL005 — resource lifecycle
# ----------------------------------------------------------------------
class TestPL005Resources:
    def test_leaked_executor_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "from concurrent.futures import ThreadPoolExecutor\n"
             "def run():\n"
             "    pool = ThreadPoolExecutor(max_workers=2)\n"
             "    return pool.submit(print)\n"},
            rule_ids=["PL005"])
        assert codes(result) == ["PL005"]
        assert "without a guaranteed release" in result.findings[0].message

    def test_with_block_passes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "from concurrent.futures import ThreadPoolExecutor\n"
             "def run():\n"
             "    with ThreadPoolExecutor(max_workers=2) as pool:\n"
             "        return pool.submit(print).result()\n"},
            rule_ids=["PL005"])
        assert result.clean

    def test_closing_wrapper_passes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "import sqlite3\n"
             "from contextlib import closing\n"
             "def query(path):\n"
             "    with closing(sqlite3.connect(path)) as conn:\n"
             "        return conn.execute('select 1').fetchone()\n"},
            rule_ids=["PL005"])
        assert result.clean

    def test_try_finally_close_passes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "import sqlite3\n"
             "def query(path):\n"
             "    conn = sqlite3.connect(path)\n"
             "    try:\n"
             "        return conn.execute('select 1').fetchone()\n"
             "    finally:\n"
             "        conn.close()\n"},
            rule_ids=["PL005"])
        assert result.clean

    def test_ownership_transfer_by_return_passes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "from concurrent.futures import ProcessPoolExecutor\n"
             "def make_pool(n):\n"
             "    return ProcessPoolExecutor(max_workers=n)\n"
             "def make_pool_tuple(n):\n"
             "    return ProcessPoolExecutor(max_workers=n), True\n"},
            rule_ids=["PL005"])
        assert result.clean

    def test_self_attribute_ownership_passes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "import sqlite3\n"
             "class Store:\n"
             "    def __init__(self, path):\n"
             "        self._conn = sqlite3.connect(path)\n"
             "    def close(self):\n"
             "        self._conn.close()\n"},
            rule_ids=["PL005"])
        assert result.clean

    def test_unreleased_sqlite_connection_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "import sqlite3\n"
             "def query(path):\n"
             "    conn = sqlite3.connect(path)\n"
             "    return conn.execute('select 1').fetchone()\n"},
            rule_ids=["PL005"])
        assert codes(result) == ["PL005"]

    # -- asyncio resources (service layer) -----------------------------
    def test_leaked_asyncio_server_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "import asyncio\n"
             "async def serve(handler):\n"
             "    server = await asyncio.start_server(handler, 'x', 0)\n"
             "    await asyncio.sleep(60)\n"},
            rule_ids=["PL005"])
        assert codes(result) == ["PL005"]
        assert "start_server" in result.findings[0].message

    def test_finally_closed_asyncio_server_passes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "import asyncio\n"
             "async def serve(handler):\n"
             "    server = await asyncio.start_server(handler, 'x', 0)\n"
             "    try:\n"
             "        await server.serve_forever()\n"
             "    finally:\n"
             "        server.close()\n"
             "        await server.wait_closed()\n"},
            rule_ids=["PL005"])
        assert result.clean

    def test_async_with_server_passes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "import asyncio\n"
             "async def serve(handler):\n"
             "    async with await asyncio.start_server(handler, 'x', 0) "
             "as server:\n"
             "        await server.serve_forever()\n"},
            rule_ids=["PL005"])
        assert result.clean

    def test_leaked_background_task_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "import asyncio\n"
             "async def main(work):\n"
             "    task = asyncio.create_task(work())\n"
             "    await asyncio.sleep(1)\n"},
            rule_ids=["PL005"])
        assert codes(result) == ["PL005"]

    def test_cancelled_background_task_passes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "import asyncio\n"
             "async def main(work):\n"
             "    task = asyncio.create_task(work())\n"
             "    try:\n"
             "        await asyncio.sleep(1)\n"
             "    finally:\n"
             "        task.cancel()\n"},
            rule_ids=["PL005"])
        assert result.clean

    def test_attribute_ownership_transfer_passes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "import asyncio\n"
             "class Service:\n"
             "    async def start(self, handler):\n"
             "        self._server = await asyncio.start_server(\n"
             "            handler, 'x', 0)\n"
             "def attach(connection, work):\n"
             "    connection.sender = asyncio.create_task(work())\n"},
            rule_ids=["PL005"])
        assert result.clean

    def test_stream_pair_writer_close_passes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "import asyncio\n"
             "async def ping(host, port):\n"
             "    reader, writer = await asyncio.open_connection(host, "
             "port)\n"
             "    try:\n"
             "        return await reader.readline()\n"
             "    finally:\n"
             "        writer.close()\n"
             "        await writer.wait_closed()\n"},
            rule_ids=["PL005"])
        assert result.clean

    def test_stream_pair_unreleased_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "import asyncio\n"
             "async def ping(host, port):\n"
             "    reader, writer = await asyncio.open_connection(host, "
             "port)\n"
             "    return await reader.readline()\n"},
            rule_ids=["PL005"])
        assert codes(result) == ["PL005"]


# ----------------------------------------------------------------------
# PL006 — float equality
# ----------------------------------------------------------------------
class TestPL006FloatEquality:
    def test_float_literal_equality_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "def check(x):\n"
             "    return x == 1.5 or x != -2.5\n"},
            rule_ids=["PL006"])
        assert codes(result) == ["PL006", "PL006"]

    def test_float_reduction_equality_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "def check(a, b):\n"
             "    return a.mean() == b.mean()\n"},
            rule_ids=["PL006"])
        assert codes(result) == ["PL006"]

    def test_integer_and_ordering_comparisons_pass(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "def check(x, a):\n"
             "    return x == 1 and x >= 1.5 and a.mean() > 0.0\n"},
            rule_ids=["PL006"])
        assert result.clean

    def test_justified_suppression_silences_sentinel(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"mod.py":
             "def record(scale):\n"
             "    # polaris-lint: disable=PL006 exact default sentinel\n"
             "    if scale != 1.0:\n"
             "        return scale\n"},
            rule_ids=["PL006"])
        assert result.clean
        assert result.suppressed == 1


# ----------------------------------------------------------------------
# PL007 — durable writes
# ----------------------------------------------------------------------
class TestPL007DurableWrites:
    def test_bare_write_open_in_campaign_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/campaign/mod.py":
             "def save(path, data):\n"
             "    with open(path, 'wb') as handle:\n"
             "        handle.write(data)\n"},
            rule_ids=["PL007"])
        assert codes(result) == ["PL007"]
        assert "atomic_write_bytes" in result.findings[0].message

    def test_write_text_in_service_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/service/mod.py":
             "def save(path, text):\n"
             "    path.write_text(text)\n"},
            rule_ids=["PL007"])
        assert codes(result) == ["PL007"]

    def test_hand_rolled_atomic_publish_is_flagged(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/campaign/mod.py":
             "import os\n"
             "import tempfile\n"
             "def publish(path, data):\n"
             "    fd, temp = tempfile.mkstemp(dir='.')\n"
             "    os.write(fd, data)\n"
             "    os.close(fd)\n"
             "    os.replace(temp, path)\n"},
            rule_ids=["PL007"])
        assert codes(result) == ["PL007", "PL007"]  # mkstemp + replace
        assert "hand-rolled" in result.findings[0].message

    def test_dynamic_mode_is_flagged(self, tmp_path):
        # The rule cannot prove a computed mode read-only.
        result = run_lint(
            tmp_path,
            {"src/repro/campaign/mod.py":
             "def touch(path, mode):\n"
             "    return open(path, mode)\n"},
            rule_ids=["PL007"])
        assert codes(result) == ["PL007"]

    def test_read_mode_open_passes(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/campaign/mod.py":
             "def load(path):\n"
             "    with open(path) as handle:\n"
             "        first = handle.read()\n"
             "    with open(path, 'rb') as handle:\n"
             "        return first, handle.read()\n"},
            rule_ids=["PL007"])
        assert result.clean

    def test_helper_calls_pass(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/campaign/mod.py":
             "from repro.reliability.atomic import atomic_write_bytes\n"
             "from repro.reliability.atomic import publish_exclusive\n"
             "def save(path, data):\n"
             "    atomic_write_bytes(path, data)\n"
             "    return publish_exclusive(path, data)\n"},
            rule_ids=["PL007"])
        assert result.clean

    def test_outside_guarded_prefixes_is_untouched(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"tools/helper.py":
             "def save(path, data):\n"
             "    with open(path, 'wb') as handle:\n"
             "        handle.write(data)\n",
             "src/repro/reliability/atomic.py":
             "import os\n"
             "def atomic_write_bytes(path, data):\n"
             "    os.replace('tmp', path)\n"},
            rule_ids=["PL007"])
        assert result.clean

    def test_justified_suppression_is_honoured(self, tmp_path):
        result = run_lint(
            tmp_path,
            {"src/repro/campaign/mod.py":
             "def trace(path, line):\n"
             "    # polaris-lint: disable=PL007 append-only debug log\n"
             "    with open(path, 'a') as handle:\n"
             "        handle.write(line)\n"},
            rule_ids=["PL007"])
        assert result.clean
        assert result.suppressed == 1

    def test_real_repo_campaign_and_service_are_clean(self):
        result = lint_paths(REPO_ROOT, ["src/repro/campaign",
                                        "src/repro/service"],
                            rule_ids=["PL007"])
        assert result.clean, [f.render() for f in result.findings]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("PL001", "PL002", "PL003", "PL004", "PL005",
                        "PL006", "PL007"):
            assert rule_id in out

    def test_unknown_rule_id_exits_2(self, capsys):
        assert cli_main(["--rules", "PL042", "--root",
                         str(REPO_ROOT)]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_failing_path_exits_1_with_findings(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\n"
                       "rng = np.random.default_rng()\n", encoding="utf-8")
        code = cli_main([str(bad), "--root", str(tmp_path),
                         "--rules", "PL001"])
        out = capsys.readouterr().out
        assert code == 1
        assert "PL001" in out and "FAILED" in out

    def test_json_format_round_trips(self, tmp_path, capsys):
        good = tmp_path / "ok.py"
        good.write_text("x = 1\n", encoding="utf-8")
        code = cli_main([str(good), "--root", str(tmp_path),
                         "--format", "json", "--rules", "PL006"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["clean"] is True
        assert doc["tool"] == "polaris-lint"
