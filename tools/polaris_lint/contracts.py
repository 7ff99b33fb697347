"""Repo-specific contract registries consumed by the rules.

These encode conventions established by earlier PRs — the linter's job is
to keep them from rotting as the codebase grows.  When a new fast path,
pickle-seam class or RNG seam lands, extend the matching registry here (and
``docs/static-analysis.md``) in the same PR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Paths (relative, posix) under which PL001's strict RNG discipline
#: applies: every generator must be injected, seeded explicitly or derived
#: from a coordinate-keyed seam.  The test oracles keep the discipline of
#: the library code they were moved out of.  Tools and benchmarks may
#: construct their own seeded generators but are still barred from global
#: RNG state.
RNG_STRICT_PREFIXES: Tuple[str, ...] = ("src/repro/", "tests/oracles/")

#: ``numpy.random`` attributes that are part of the sanctioned Generator
#: API.  Everything else (``np.random.seed``, ``np.random.rand``,
#: ``np.random.RandomState``, ...) is hidden global state: it breaks the
#: shard-layout invariance, where every stream derives from campaign
#: coordinates.
NP_RANDOM_ALLOWED: Tuple[str, ...] = (
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "Philox", "PCG64", "PCG64DXSM", "MT19937", "SFC64",
)

#: Sort kinds PL001 accepts inside ``src/repro``: both are the stable
#: merge/radix/timsort family, whose tie order is the input order on every
#: CPU.
STABLE_SORT_KINDS: Tuple[str, ...] = ("stable", "mergesort")

#: Seam functions that mint seeded generators; calling through them (or
#: accepting an injected ``rng`` parameter) is the sanctioned way to get
#: randomness inside ``src/repro``.
RNG_SEAM_FUNCTIONS: Tuple[str, ...] = (
    # PR 8: the counter sampler's single BitGenerator seam — Philox keyed
    # by (seed, class, group, chunk, lane) coordinates, seedless by design.
    "philox_bit_generator",
)


@dataclass(frozen=True)
class OraclePair:
    """A fast path and the bit-identical oracle it must stay pinned to.

    Both sides are names of functions, methods or classes.

    Attributes:
        pair_id: Short identifier used in findings.
        module: Repo-relative path of the module defining the fast path.
        fast: The fast path's name.
        oracle: The reference implementation's name.
        oracle_module: Repo-relative path of the module defining the
            oracle, usually under ``tests/oracles/``; ``None`` when
            ``module`` defines both sides.
    """

    pair_id: str
    module: str
    fast: str
    oracle: str
    oracle_module: Optional[str] = None

    @property
    def oracle_path(self) -> str:
        """The module that defines the oracle."""
        return self.oracle_module or self.module


#: Every fast path and the oracle that pins it.  PL002 verifies both sides
#: still exist and that at least one test module other than the oracle's
#: own references the pair together.
ORACLE_PAIRS: Tuple[OraclePair, ...] = (
    # Gate-blocked moment fold vs the naive power-chain reference.
    OraclePair("moments-update", "src/repro/tvla/moments.py",
               "update_batch", "update_batch_naive"),
    # Fused levelised simulation kernel vs the per-gate loop.  The
    # oracle module also runs the trace engine on the loop simulator with
    # bool-matrix toggle extraction, so this pair pins packed extraction
    # against its oracle as well.
    OraclePair("sim-backend", "src/repro/simulation/simulator.py",
               "LogicSimulator", "LoopSimulator",
               oracle_module="tests/oracles/simulation.py"),
    # PR 1: vectorised trace engine vs the per-gate reference loop.
    OraclePair("trace-engine", "src/repro/power/traces.py",
               "generate", "generate_loop",
               oracle_module="tests/oracles/power.py"),
    # The TVLA chunk fold, which fills and folds each gate block of a
    # chunk in reused buffers, vs the per-gate reference loop's traces
    # folded by update_batch.
    OraclePair("chunk-fold", "src/repro/tvla/assessment.py",
               "_fold_chunk", "generate_loop",
               oracle_module="tests/oracles/power.py"),
    # PR 7: flat-array batch tree descent vs the per-sample node walk.
    OraclePair("tree-predict", "src/repro/ml/tree.py",
               "predict_batch", "predict_value",
               oracle_module="tests/oracles/tree.py"),
    # Exact Tree SHAP from one leaf-path table for every tree family vs
    # coalition enumeration per tree and sample (agree to round-off).
    OraclePair("tree-shap-explain", "src/repro/xai/tree_shap.py",
               "shap_block", "explain_per_sample",
               oracle_module="tests/oracles/tree_shap.py"),
    # Presorted all-features CART split search vs the per-feature
    # argsort-and-scan loop.
    OraclePair("tree-split", "src/repro/ml/tree.py",
               "_best_split", "best_split_loop",
               oracle_module="tests/oracles/tree.py"),
    # Lockstep random forest (all trees grown together over rank-coded
    # features) vs the per-tree DecisionTreeClassifier.fit on each
    # bootstrap with the per-feature split search.
    OraclePair("forest-lockstep", "src/repro/ml/tree.py",
               "_fit_lockstep", "fit_forest_per_tree",
               oracle_module="tests/oracles/forest.py"),
    # Gradient-boosting rounds on the fit's fixed-weight presort, whose
    # split-path memo caches each node's weight state, vs
    # DecisionTreeRegressor.fit on each round's gradient and weights.
    OraclePair("boosting-fixed-weights", "src/repro/ml/tree.py",
               "_fit_fixed_weights", "fit"),
    # PR 8: native Philox word production vs the pure-numpy 10-round
    # reference implementation of the 4x64 block function.
    OraclePair("ctr-philox", "src/repro/power/ctrsample.py",
               "philox_raw", "philox_blocks_reference",
               oracle_module="tests/oracles/ctrsample.py"),
    # BFS neighbourhood over the integer gate graph vs the networkx BFS;
    # the oracle module also pins the topological order, levels, delay,
    # depth and feature matrices to networkx.
    OraclePair("gate-neighborhood", "src/repro/netlist/graph.py",
               "neighborhood", "neighborhood",
               oracle_module="tests/oracles/graph.py"),
    # In-place noise-word popcount (SIMD uint8 counts folded into 16-bit
    # lanes) vs the per-element uint16 popcount.
    OraclePair("popcount-fold", "src/repro/power/bitops.py",
               "popcount16_inplace", "popcount16"),
)


#: Classes shipped across the process-executor / campaign pickle seam,
#: mapped to the scratch-buffer attributes their ``__getstate__`` must
#: exclude (multi-megabyte per-chunk workspaces must not bloat queue
#: messages or shard checkpoints).  Empty today: the gate-blocked
#: ``OnePassMoments.update_batch`` keeps its work buffers call-local.
#: PL004 also flags *any* ``src/repro`` class whose attribute names mark
#: them as scratch (``*scratch*``) when no ``__getstate__``/``__reduce__``
#: excludes them.
PICKLE_SEAM_CLASSES: Dict[str, Tuple[str, ...]] = {}

#: Resource constructors PL005 tracks: every acquisition must be closed on
#: all paths (``with``/``closing``/try-finally) or have its ownership
#: transferred (returned, stored on ``self``).
RESOURCE_CONSTRUCTORS: Tuple[str, ...] = (
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "sqlite3.connect",
    "multiprocessing.shared_memory.SharedMemory",
    "shared_memory.SharedMemory",
    # asyncio resources (the service layer): servers need close() +
    # wait_closed(), stream pairs need the writer closed, background
    # tasks need cancel() — or ownership transferred, same as above.
    "asyncio.start_server",
    "asyncio.open_connection",
    "asyncio.create_task",
    "socket.create_connection",
)

#: Paths (relative, posix) under which PL007's durable-write discipline
#: applies: every file write must go through the fsync-before-rename
#: helpers in ``repro.reliability.atomic`` (PR 10 — a torn write here is
#: a corrupt checkpoint or store object after a crash).  The reliability
#: package itself hosts the helpers and is deliberately outside the
#: guarded surface.
ATOMIC_WRITE_PREFIXES: Tuple[str, ...] = (
    "src/repro/campaign/",
    "src/repro/service/",
)

#: The sanctioned write helpers (named in PL007 findings).
ATOMIC_WRITE_HELPERS: Tuple[str, ...] = (
    "repro.reliability.atomic.atomic_write_bytes",
    "repro.reliability.atomic.publish_exclusive",
)
