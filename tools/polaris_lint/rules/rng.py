"""PL001 — RNG discipline.

Every random stream in ``src/repro`` must be reproducible from campaign
coordinates: generators are injected parameters, seeded explicitly, or
built by seam functions such as ``philox_bit_generator`` (shard-layout
invariance depends on it).
Therefore:

* ``np.random.default_rng()`` without a seed (or with a literal ``None``)
  is forbidden — it silently draws OS entropy and makes results
  unreproducible;
* the legacy global-state API (``np.random.seed``, ``np.random.rand``,
  ``np.random.RandomState``, ...) is forbidden everywhere the linter runs;
* the stdlib :mod:`random` module is forbidden inside ``src/repro``;
* inside ``src/repro``, ``np.argsort``, ``np.sort`` and ``.argsort()``
  must pass ``kind="stable"`` (or ``"mergesort"``): the default kind is
  unstable and, on AVX-512 hosts, dispatches to a SIMD sort, so the order
  of ties would depend on the CPU.
"""

from __future__ import annotations

import ast

from ..contracts import (NP_RANDOM_ALLOWED, RNG_STRICT_PREFIXES,
                         STABLE_SORT_KINDS)
from ..core import FileRule, Severity, register


def _in_strict_scope(rel_path: str) -> bool:
    return rel_path.startswith(RNG_STRICT_PREFIXES)


@register
class RngDisciplineRule(FileRule):
    """Unseeded/global randomness and unstable sorts break
    reproducibility."""

    rule_id = "PL001"
    severity = Severity.ERROR
    title = ("Determinism: injected or SeedSequence-derived generators, "
             "stable sorts")

    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] == "random" \
                    and _in_strict_scope(self.file.rel_path):
                self.report(self.file, node,
                            "stdlib 'random' is banned in src/repro: use an "
                            "injected numpy Generator derived from "
                            "SeedSequence coordinates")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module \
                and node.module.split(".")[0] == "random" \
                and _in_strict_scope(self.file.rel_path):
            self.report(self.file, node,
                        "stdlib 'random' is banned in src/repro: use an "
                        "injected numpy Generator derived from SeedSequence "
                        "coordinates")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.file.resolve_dotted(node.func)
        if dotted is not None:
            self._check_call(node, dotted)
        if _in_strict_scope(self.file.rel_path):
            self._check_sort_kind(node, dotted)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Non-call references to banned global-state attributes (e.g.
        # aliasing ``np.random.shuffle`` into a variable) are just as bad.
        parent = self.file.parent(node)
        is_call_func = isinstance(parent, ast.Call) and parent.func is node
        if not is_call_func and not isinstance(parent, ast.Attribute):
            dotted = self.file.resolve_dotted(node)
            if dotted is not None:
                self._check_global_state(node, dotted)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    def _check_call(self, node: ast.Call, dotted: str) -> None:
        if dotted.endswith("numpy.random.Philox") \
                or dotted == "numpy.random.Philox":
            # Philox is counter-based: a construction keyed from campaign
            # coordinates (key=/counter=, or an explicit non-None seed) is
            # the sanctioned ctrsample seam.  A bare Philox() falls back
            # to OS entropy exactly like an unseeded default_rng().
            if any(kw.arg is None for kw in node.keywords):
                return  # **kwargs: cannot see the seed statically

            def _entropy(value: ast.expr) -> bool:
                return isinstance(value, ast.Constant) and value.value is None

            seeded = bool(node.args) and not _entropy(node.args[0])
            seeded = seeded or any(kw.arg in ("seed", "key")
                                   and not _entropy(kw.value)
                                   for kw in node.keywords)
            if not seeded:
                self.report(self.file, node,
                            "np.random.Philox() without a seed or key draws "
                            "OS entropy; key it from campaign coordinates "
                            "(see repro.power.ctrsample."
                            "philox_bit_generator)")
            return
        if dotted.endswith("numpy.random.default_rng") \
                or dotted == "numpy.random.default_rng":
            unseeded = not node.args and not node.keywords
            literal_none = (node.args
                            and isinstance(node.args[0], ast.Constant)
                            and node.args[0].value is None)
            if unseeded or literal_none:
                self.report(self.file, node,
                            "unseeded np.random.default_rng(): results "
                            "become silently nondeterministic; inject an "
                            "rng parameter or derive a seed from "
                            "SeedSequence coordinates")
            return
        self._check_global_state(node, dotted)
        if dotted.split(".")[0] == "random" \
                and _in_strict_scope(self.file.rel_path) \
                and dotted.count(".") == 1:
            self.report(self.file, node,
                        f"stdlib '{dotted}' is banned in src/repro: use an "
                        f"injected numpy Generator")

    def _check_sort_kind(self, node: ast.Call, dotted) -> None:
        if dotted in ("numpy.argsort", "numpy.sort"):
            name, kind_position = "np." + dotted.split(".")[1], 2
        elif isinstance(node.func, ast.Attribute) \
                and node.func.attr == "argsort":
            name, kind_position = ".argsort()", 1
        else:
            return
        if any(kw.arg is None for kw in node.keywords):
            return  # **kwargs: cannot see the kind statically
        kind = next((kw.value for kw in node.keywords if kw.arg == "kind"),
                    None)
        if kind is None and len(node.args) > kind_position:
            kind = node.args[kind_position]
        if isinstance(kind, ast.Constant) and kind.value in STABLE_SORT_KINDS:
            return
        self.report(self.file, node,
                    f'{name} without kind="stable": the default sort is '
                    f"unstable (a SIMD kernel on AVX-512 hosts), so the "
                    f"order of ties depends on the CPU")

    def _check_global_state(self, node: ast.AST, dotted: str) -> None:
        prefix = "numpy.random."
        if not dotted.startswith(prefix):
            return
        member = dotted[len(prefix):].split(".")[0]
        if member not in NP_RANDOM_ALLOWED:
            self.report(self.file, node,
                        f"np.random.{member} uses hidden global RNG state; "
                        f"construct a Generator via default_rng(seed) / "
                        f"SeedSequence instead")
