"""polaris-lint: AST-based invariant checker for the POLARIS reproduction.

Enforces the repo's load-bearing conventions as static-analysis rules:
determinism, i.e. RNG discipline and stable sorts (PL001), oracle pairing
(PL002), buffer safety (PL003), pickle hygiene at the executor seam
(PL004), resource lifecycle (PL005) and float equality (PL006).  See ``docs/static-analysis.md`` for the
invariant behind each rule.

Programmatic entry points::

    from polaris_lint import lint_paths, RULES
    result = lint_paths(repo_root, ["src", "tools", "benchmarks"])
    assert result.clean, result.findings
"""

from . import rules as _rules  # noqa: F401  (registers every rule)
from .core import (
    Finding,
    LintResult,
    RULES,
    Severity,
    lint_paths,
)

__version__ = "1.0.0"

__all__ = ["Finding", "LintResult", "RULES", "Severity", "lint_paths",
           "__version__"]
