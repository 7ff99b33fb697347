#!/usr/bin/env python
"""Documentation checker: intra-repo links and fenced doctest examples.

Run by the CI ``docs`` job (and by ``tests/test_docs.py`` in the tier-1
suite) over ``README.md`` and ``docs/*.md``:

1. **Link check** — every relative markdown link ``[text](target)`` must
   resolve to an existing file (anchors are stripped; ``http(s)://`` and
   ``mailto:`` targets are skipped).
2. **Doctest check** — every fenced ```` ```python ```` / ```` ```pycon ````
   block that contains ``>>>`` prompts is executed with
   :mod:`doctest`; outputs must match.  Fenced blocks without prompts are
   illustrative snippets and are not executed.
3. **Knob-table check** — every backticked knob in a row of the "knobs at
   a glance" table of ``docs/performance.md`` must be a dataclass field or
   a signature parameter of the row's backticked ``Where``, so a deleted
   knob cannot linger in the table.
4. **Import check** — every ``from repro... import ...`` in a fenced
   ``python`` / ``pycon`` block, executed or not, must resolve: the module
   imports and each name is an attribute or submodule of it, so an
   illustrative snippet cannot keep importing a deleted name.
5. **Name check** — every backticked identifier outside fenced blocks
   (a name or dotted path, optionally called: ``fold_trace_range``,
   ``TvlaConfig.n_traces``, ``run_worker()``) whose dotted parts are
   longer than five characters and contain ``_`` or start with a capital
   letter must occur in a file under ``src/``, ``tests/``, ``tools/``,
   ``perfbench/``, ``benchmarks/`` or ``examples/``, so prose cannot keep
   naming a deleted function, class or module constant.

Exits non-zero with a per-failure report; prints a one-line summary on
success.  Builds nothing heavy — a full run takes a couple of seconds.
"""

from __future__ import annotations

import dataclasses
import doctest
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path
from typing import List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Markdown inline links: [text](target).  Images ![alt](target) match too
#: (the leading "!" is irrelevant for resolution).
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Fenced code blocks with an explicit language tag.
_FENCE_RE = re.compile(r"```(\w+)\n(.*?)```", re.DOTALL)
#: Link targets that are not repo files.
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")
#: The document holding the knob table, and the heading the table follows.
KNOB_DOC = REPO_ROOT / "docs" / "performance.md"
_KNOB_HEADING = "## The knobs at a glance"
#: Inline code spans: the knob and ``Where`` names of a table row.
_CODE_RE = re.compile(r"`([^`]+)`")
#: ``from repro... import ...`` after an optional doctest prompt; a
#: parenthesised name list may span lines.
_IMPORT_RE = re.compile(
    r"^[ \t]*(?:(?:>>>|\.\.\.)[ \t]+)?from[ \t]+(repro(?:\.\w+)*)[ \t]+"
    r"import[ \t]+(\([^)]*\)|[^\n]*)", re.MULTILINE)

#: Every fenced block, with or without a language tag.
_ANY_FENCE_RE = re.compile(r"^[ \t]*```.*?^[ \t]*```[^\n]*$",
                           re.DOTALL | re.MULTILINE)
#: An inline code span delimited by a run of one or more backticks.
_SPAN_RE = re.compile(r"(`+)(.+?)\1", re.DOTALL)
#: A backticked identifier: a dotted name, optionally called.
_NAME_SPAN_RE = re.compile(r"([A-Za-z_][\w.]*)(?:\([^`]*\))?")
#: Where a documented name must occur.
CODE_DIRS = ("src", "tests", "tools", "perfbench", "benchmarks", "examples")


def doc_files() -> List[Path]:
    """The markdown files covered by the checker."""
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def check_links(path: Path) -> List[str]:
    """Return one error string per broken intra-repo link in ``path``."""
    errors = []
    for match in _LINK_RE.finditer(path.read_text()):
        target = match.group(1)
        if target.startswith(_EXTERNAL_PREFIXES):
            continue
        resolved, _, _anchor = target.partition("#")
        if not resolved:
            continue  # pure in-page anchor
        candidate = (path.parent / resolved).resolve()
        if not candidate.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: broken link "
                          f"-> {target}")
    return errors


def doctest_blocks(path: Path) -> List[Tuple[int, str]]:
    """(line number, source) of every fenced doctest block in ``path``."""
    text = path.read_text()
    blocks = []
    for match in _FENCE_RE.finditer(text):
        language, body = match.group(1).lower(), match.group(2)
        if language in ("python", "pycon") and ">>>" in body:
            line = text.count("\n", 0, match.start()) + 1
            blocks.append((line, body))
    return blocks


def check_doctests(path: Path) -> List[str]:
    """Run ``path``'s fenced doctest blocks; return one error per failure."""
    errors = []
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(verbose=False,
                                   optionflags=doctest.ELLIPSIS)
    for line, body in doctest_blocks(path):
        name = f"{path.relative_to(REPO_ROOT)}:{line}"
        test = parser.get_doctest(body, {}, name, str(path), line)
        result = runner.run(test, clear_globs=True)
        if result.failed:
            errors.append(f"{name}: {result.failed} doctest failure(s) "
                          f"(run `python tools/check_docs.py` for details)")
    return errors


def repro_imports(path: Path) -> List[Tuple[int, str, List[str]]]:
    """(line number, module, names) of every ``from repro... import`` in
    the fenced ``python`` / ``pycon`` blocks of ``path``."""
    text = path.read_text()
    imports = []
    for fence in _FENCE_RE.finditer(text):
        if fence.group(1).lower() not in ("python", "pycon"):
            continue
        for match in _IMPORT_RE.finditer(fence.group(2)):
            names = re.sub(r"#[^\n]*|^\s*\.\.\.|[()\\]", "",
                           match.group(2), flags=re.MULTILINE)
            line = text.count("\n", 0, fence.start(2) + match.start()) + 1
            imports.append((line, match.group(1),
                            [name.split(" as ")[0].strip()
                             for name in names.split(",") if name.strip()]))
    return imports


def _resolves(module_name: str, name: str) -> bool:
    """Whether ``from module_name import name`` would succeed."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    if name == "*" or hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def check_imports(path: Path) -> List[str]:
    """Return one error per fenced ``from repro`` import that fails."""
    return [f"{path.name}:{line}: `from {module} import {name}` does not "
            f"resolve"
            for line, module, names in repro_imports(path)
            for name in names if not _resolves(module, name)]


def knob_rows(text: str) -> List[Tuple[int, List[str], List[str]]]:
    """(line number, knob names, where names) of every knob-table row.

    The table is the first run of ``|`` lines after :data:`_KNOB_HEADING`;
    its header and separator rows are skipped.
    """
    lines = text.splitlines()
    try:
        start = lines.index(_KNOB_HEADING)
    except ValueError:
        return []
    rows = []
    in_table = False
    for number, line in enumerate(lines[start + 1:], start=start + 2):
        if not line.startswith("|"):
            if in_table:
                break
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        header = not in_table
        in_table = True
        if header or set(cells[0]) <= set("-: "):
            continue
        rows.append((number, _CODE_RE.findall(cells[0]),
                     _CODE_RE.findall(cells[1])))
    return rows


def _find_public(name: str) -> Optional[object]:
    """The object ``name`` exported by a subpackage of ``repro``."""
    import repro
    for module in pkgutil.iter_modules(repro.__path__):
        if module.ispkg:
            package = importlib.import_module(f"repro.{module.name}")
            if hasattr(package, name):
                return getattr(package, name)
    return None


def _knob_names(target: object) -> Set[str]:
    """Dataclass fields of a dataclass, else signature parameters."""
    if dataclasses.is_dataclass(target):
        return {field.name for field in dataclasses.fields(target)}
    return set(inspect.signature(target).parameters)


def check_knob_table(path: Path = KNOB_DOC) -> List[str]:
    """Return one error per knob-table knob its ``Where`` does not take."""
    rows = knob_rows(path.read_text())
    if not rows:
        return [f"{path.name}: no knob table under {_KNOB_HEADING!r}"]
    errors = []
    for line, knobs, wheres in rows:
        where = wheres[0] if wheres else None
        target = _find_public(where) if where else None
        if target is None:
            errors.append(f"{path.name}:{line}: knob table names no "
                          f"importable Where ({where!r})")
            continue
        for knob in knobs:
            if knob not in _knob_names(target):
                errors.append(f"{path.name}:{line}: knob `{knob}` is not a "
                              f"field or parameter of `{where}`")
    return errors


def _checked_name(part: str) -> bool:
    """Whether the name check covers one dotted part of a span."""
    return len(part) > 5 and ("_" in part or part[0].isupper())


def documented_names(path: Path) -> List[Tuple[int, str]]:
    """(line number, name) of every checked part of a backticked
    identifier outside the fenced blocks of ``path``."""
    text = _ANY_FENCE_RE.sub(
        lambda fence: "\n" * fence.group(0).count("\n"), path.read_text())
    names = []
    for span in _SPAN_RE.finditer(text):
        match = _NAME_SPAN_RE.fullmatch(span.group(2).strip())
        if match is None:
            continue
        line = text.count("\n", 0, span.start()) + 1
        names.extend((line, part) for part in match.group(1).split(".")
                     if _checked_name(part))
    return names


def code_words(root: Path = REPO_ROOT) -> Set[str]:
    """Every word of every file under :data:`CODE_DIRS`."""
    words: Set[str] = set()
    for directory in CODE_DIRS:
        for path in (root / directory).rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                words.update(re.findall(
                    r"\w+", path.read_text(errors="ignore")))
    return words


def check_names(path: Path, words: Set[str]) -> List[str]:
    """Return one error per backticked name of ``path`` that no code file
    contains."""
    return [f"{path.name}:{line}: `{name}` occurs in no file under "
            f"{', '.join(CODE_DIRS)}"
            for line, name in documented_names(path) if name not in words]


def main() -> int:
    """Check all documentation files; return a process exit code."""
    files = doc_files()
    errors: List[str] = []
    n_blocks = n_imports = n_names = 0
    words = code_words()
    for path in files:
        errors.extend(check_links(path))
        n_blocks += len(doctest_blocks(path))
        errors.extend(check_doctests(path))
        n_imports += sum(len(names) for _, _, names in repro_imports(path))
        errors.extend(check_imports(path))
        n_names += len(documented_names(path))
        errors.extend(check_names(path, words))
    errors.extend(check_knob_table())
    if errors:
        for error in errors:
            print(f"ERROR: {error}", file=sys.stderr)
        return 1
    print(f"docs ok: {len(files)} file(s), {n_blocks} doctest block(s), "
          f"{n_imports} repro import(s), {n_names} documented name(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
