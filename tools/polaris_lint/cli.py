"""Command-line interface of ``polaris-lint``.

Usage::

    polaris-lint [PATH ...] [--root DIR] [--format human|json]
                 [--rules PL001,PL003] [--list-rules]

With no paths, lints the repo's default surface (``src``, ``tools``,
``benchmarks``, ``tests/oracles``) relative to ``--root``.  Exits 0 only when no
non-suppressed finding remains — the contract the CI ``static-analysis``
job and ``tests/test_lint_clean.py`` both gate on.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import rules as _rules  # noqa: F401  (imports register every rule)
from .core import RULES, LintResult, lint_paths

#: Default lint surface, relative to the project root.
DEFAULT_PATHS = ("src", "tools", "benchmarks", "tests/oracles")


def find_project_root(start: Path) -> Path:
    """Walk up from ``start`` to the directory containing ``setup.py``."""
    current = start.resolve()
    for candidate in (current, *current.parents):
        if (candidate / "setup.py").is_file():
            return candidate
    return current


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polaris-lint",
        description="AST-based invariant checker for the POLARIS repo: "
                    "determinism, oracle pairing, buffer and pickle "
                    "hygiene, resource lifecycle, float equality.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: "
                             f"{' '.join(DEFAULT_PATHS)} under --root)")
    parser.add_argument("--root", default=None,
                        help="project root (default: auto-detected from the "
                             "first path or the working directory)")
    parser.add_argument("--format", choices=("human", "json"),
                        default="human", help="output format")
    parser.add_argument("--rules", default=None, metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    return parser


def list_rules() -> str:
    lines = []
    for rule_id, rule_cls in sorted(RULES.items()):
        lines.append(f"{rule_id}  [{rule_cls.severity.value:7s}] "
                     f"{rule_cls.title}")
    return "\n".join(lines)


def render_human(result: LintResult) -> str:
    lines = [finding.render() for finding in result.findings]
    verdict = "clean" if result.clean else "FAILED"
    lines.append(f"polaris-lint: {verdict} — {result.errors} error(s), "
                 f"{result.warnings} warning(s) in {result.files_checked} "
                 f"file(s); {result.suppressed} suppression(s) honoured")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0

    if args.root is not None:
        root = Path(args.root).resolve()
    elif args.paths:
        first = Path(args.paths[0]).resolve()
        root = find_project_root(first if first.is_dir() else first.parent)
    else:
        root = find_project_root(Path.cwd())
    paths: List[str] = list(args.paths) or list(DEFAULT_PATHS)

    rule_ids = None
    if args.rules is not None:
        rule_ids = [rule_id.strip() for rule_id in args.rules.split(",")
                    if rule_id.strip()]
        unknown = [rule_id for rule_id in rule_ids if rule_id not in RULES]
        if unknown:
            print(f"polaris-lint: unknown rule id(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    result = lint_paths(root, paths, rule_ids=rule_ids)
    if args.format == "json":
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(render_human(result))
    return 0 if result.clean else 1


if __name__ == "__main__":
    sys.exit(main())
