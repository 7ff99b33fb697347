"""PL004 — pickle hygiene at the process-executor seam.

Objects crossing the ``ProcessPoolExecutor`` / campaign queue / campaign
checkpoint seam are pickled; per-chunk scratch buffers are multi-megabyte
workspaces that must never ride along (PR 5 dropped them from
``OnePassMoments`` pickles — a regression here silently bloats every queue
message and shard checkpoint).  A class with scratch-buffer attributes
(``*scratch*`` naming, or listed in ``PICKLE_SEAM_CLASSES``) must define
``__getstate__`` (or ``__reduce__``) and mention each scratch attribute in
it, as evidence the attribute is excluded or reset.
"""

from __future__ import annotations

import ast
from typing import Optional, Set

from ..contracts import PICKLE_SEAM_CLASSES
from ..core import FileRule, Severity, register

_STATE_METHODS = ("__getstate__", "__reduce__", "__reduce_ex__")


def _instance_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attribute names assigned to ``self`` anywhere in the class body."""
    attrs: Set[str] = set()
    for node in ast.walk(cls):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == "self":
                attrs.add(target.attr)
    return attrs


def _state_method(cls: ast.ClassDef) -> Optional[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in _STATE_METHODS:
            return node
    return None


def _mentions(func: ast.FunctionDef, attr: str) -> bool:
    """Whether ``attr`` appears in ``func`` as a string or attribute."""
    for node in ast.walk(func):
        if isinstance(node, ast.Constant) and node.value == attr:
            return True
        if isinstance(node, ast.Attribute) and node.attr == attr:
            return True
    return False


@register
class PickleSeamRule(FileRule):
    """Scratch buffers must not cross the pickle seam."""

    rule_id = "PL004"
    severity = Severity.ERROR
    title = "pickle hygiene: scratch buffers excluded via __getstate__"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        attrs = _instance_attrs(node)
        scratch = {attr for attr in attrs if "scratch" in attr.lower()}
        scratch.update(attr for attr in PICKLE_SEAM_CLASSES.get(node.name, ())
                       if attr in attrs)
        if scratch:
            state = _state_method(node)
            if state is None:
                self.report(self.file, node,
                            f"class {node.name} holds scratch buffer(s) "
                            f"{sorted(scratch)} but defines no __getstate__/"
                            f"__reduce__; pickling it ships multi-megabyte "
                            f"workspaces across the executor seam")
            else:
                for attr in sorted(scratch):
                    if not _mentions(state, attr):
                        self.report(self.file, state,
                                    f"{node.name}.{state.name} does not "
                                    f"mention scratch attribute {attr!r}; "
                                    f"it must be excluded or reset before "
                                    f"pickling")
        self.generic_visit(node)
