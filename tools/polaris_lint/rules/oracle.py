"""PL002 — oracle pairing.

Every fast path in this repo is pinned to a bit-identical slow oracle
(``update_batch``/``update_batch_naive``, ``LogicSimulator``/
``LoopSimulator``, ``generate``/``generate_loop``, ...).  Oracles that only
tests call live under ``tests/oracles/``.  The registry in
:mod:`polaris_lint.contracts` names those pairs; this rule verifies that

1. both sides of each pair still exist in the modules that own them (a
   refactor must not silently drop an oracle), and
2. at least one module under ``tests/`` other than the oracle's own
   references the pair together (an oracle nobody compares against pins
   nothing, and an oracle's docstring naming its fast path is not a
   test).
"""

from __future__ import annotations

import ast
import re
from typing import Optional

from ..contracts import ORACLE_PAIRS, OraclePair
from ..core import Finding, ProjectRule, Severity, SourceFile, register


def _symbol_line(file: SourceFile, name: str) -> Optional[int]:
    """Line of a function, method or class definition called ``name``."""
    assert file.tree is not None
    for node in ast.walk(file.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name == name:
            return node.lineno
    return None


def _references_pair(text: str, pair: OraclePair) -> bool:
    """Whether one test module mentions both sides of the pair."""
    return (re.search(rf"\b{re.escape(pair.fast)}\b", text) is not None
            and re.search(rf"\b{re.escape(pair.oracle)}\b", text) is not None)


@register
class OraclePairingRule(ProjectRule):
    """Fast paths must keep their bit-identical oracles, and tests must
    exercise the pair."""

    rule_id = "PL002"
    severity = Severity.ERROR
    title = "oracle pairing: every fast path keeps a tested oracle"

    def _finding(self, path: str, line: int, message: str) -> None:
        self.findings.append(Finding(
            rule=self.rule_id, severity=self.severity, path=path, line=line,
            col=0, message=message))

    def _locate(self, project, pair: OraclePair, path: str,
                name: str, side: str) -> Optional[int]:
        """Line of ``name`` in ``path``, or None after recording why not."""
        module = project.file(path)
        if module is None or module.tree is None:
            self._finding(path, 1, f"oracle pair '{pair.pair_id}': module "
                                   f"{path} is missing or unparsable")
            return None
        line = _symbol_line(module, name)
        if line is None:
            detail = ("" if side == "fast-path" else
                      " — fast paths must keep their bit-identical reference")
            self._finding(path, 1, f"oracle pair '{pair.pair_id}': {side} "
                                   f"{name!r} no longer exists{detail}")
        return line

    def run_project(self, project) -> list:
        self.findings = []
        for pair in ORACLE_PAIRS:
            fast_line = self._locate(project, pair, pair.module, pair.fast,
                                     "fast-path")
            oracle_line = self._locate(project, pair, pair.oracle_path,
                                       pair.oracle, "oracle")
            if fast_line is None or oracle_line is None:
                continue
            if not any(_references_pair(text, pair)
                       for path, text in project.test_texts().items()
                       if path != pair.oracle_path):
                self._finding(
                    pair.module, fast_line,
                    f"oracle pair '{pair.pair_id}': no module under tests/ "
                    f"other than the oracle's own references {pair.fast!r} "
                    f"and {pair.oracle!r} together — the oracle is untested")
        return self.findings
