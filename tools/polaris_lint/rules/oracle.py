"""PL002 — oracle pairing.

Every fast path in this repo is pinned to a bit-identical slow oracle
(``update_batch``/``update_batch_naive``, ``backend="compiled"``/
``"loop"``, ``generate``/``generate_loop``, ...).  The registry in
:mod:`polaris_lint.contracts` names those pairs; this rule verifies that

1. both sides of each pair still exist in the module that owns them (a
   refactor must not silently drop an oracle), and
2. at least one module under ``tests/`` references the pair together (an
   oracle nobody compares against pins nothing).
"""

from __future__ import annotations

import ast
import re
from typing import Optional

from ..contracts import ORACLE_PAIRS, OraclePair
from ..core import Finding, ProjectRule, Severity, SourceFile, register


def _symbol_line(file: SourceFile, name: str) -> Optional[int]:
    """Line of a function/method definition called ``name``, or None."""
    assert file.tree is not None
    for node in ast.walk(file.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == name:
            return node.lineno
    return None


def _string_line(file: SourceFile, value: str) -> Optional[int]:
    """Line of a string constant equal to ``value``, or None."""
    assert file.tree is not None
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Constant) and node.value == value:
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

    def run_project(self, project) -> list:
        self.findings = []
        for pair in ORACLE_PAIRS:
            module = project.file(pair.module)
            if module is None or module.tree is None:
                self.findings.append(Finding(
                    rule=self.rule_id, severity=self.severity,
                    path=pair.module, line=1, col=0,
                    message=f"oracle pair '{pair.pair_id}': module "
                            f"{pair.module} is missing or unparsable"))
                continue
            locate = _symbol_line if pair.kind == "symbol" else _string_line
            fast_line = locate(module, pair.fast)
            oracle_line = locate(module, pair.oracle)
            what = ("function/method" if pair.kind == "symbol"
                    else "selector string")
            if fast_line is None:
                self.findings.append(Finding(
                    rule=self.rule_id, severity=self.severity,
                    path=pair.module, line=1, col=0,
                    message=f"oracle pair '{pair.pair_id}': fast-path "
                            f"{what} {pair.fast!r} no longer exists"))
            if oracle_line is None:
                self.findings.append(Finding(
                    rule=self.rule_id, severity=self.severity,
                    path=pair.module, line=fast_line or 1, col=0,
                    message=f"oracle pair '{pair.pair_id}': oracle {what} "
                            f"{pair.oracle!r} no longer exists — fast paths "
                            f"must keep their bit-identical reference"))
            if fast_line is None or oracle_line is None:
                continue
            if not any(_references_pair(text, pair)
                       for text in project.test_texts().values()):
                self.findings.append(Finding(
                    rule=self.rule_id, severity=self.severity,
                    path=pair.module, line=fast_line, col=0,
                    message=f"oracle pair '{pair.pair_id}': no module under "
                            f"tests/ references {pair.fast!r} and "
                            f"{pair.oracle!r} together — the oracle is "
                            f"untested"))
        return self.findings
