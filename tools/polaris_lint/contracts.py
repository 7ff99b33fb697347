"""Repo-specific contract registries consumed by the rules.

These encode conventions established by earlier PRs — the linter's job is
to keep them from rotting as the codebase grows.  When a new fast path,
pickle-seam class or RNG seam lands, extend the matching registry here (and
``docs/static-analysis.md``) in the same PR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Paths (relative, posix) under which PL001's strict RNG discipline
#: applies: every generator must be injected or derived from a seeded
#: ``SeedSequence``-based seam.  Tools and benchmarks may construct their
#: own seeded generators but are still barred from global RNG state.
RNG_STRICT_PREFIXES: Tuple[str, ...] = ("src/repro/",)

#: ``numpy.random`` attributes that are part of the sanctioned Generator
#: API.  Everything else (``np.random.seed``, ``np.random.rand``,
#: ``np.random.RandomState``, ...) is hidden global state: it breaks the
#: shard-layout invariance built in PR 2, where every stream derives from
#: ``SeedSequence.spawn`` coordinates.
NP_RANDOM_ALLOWED: Tuple[str, ...] = (
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "Philox", "PCG64", "PCG64DXSM", "MT19937", "SFC64",
)

#: Seam functions that mint seeded generators; calling through them (or
#: accepting an injected ``rng`` parameter) is the sanctioned way to get
#: randomness inside ``src/repro``.
RNG_SEAM_FUNCTIONS: Tuple[str, ...] = (
    "chunk_seed_streams",
    # PR 8: the counter sampler's single BitGenerator seam — Philox keyed
    # by (seed, class, group, chunk, lane) coordinates, seedless by design.
    "philox_bit_generator",
)


@dataclass(frozen=True)
class OraclePair:
    """A fast path and the bit-identical oracle it must stay pinned to.

    Attributes:
        pair_id: Short identifier used in findings.
        module: Repo-relative path of the module defining both sides.
        fast: Fast-path symbol (``kind="symbol"``) or selector string
            (``kind="string"``).
        oracle: The reference implementation's symbol or selector string.
        kind: ``"symbol"`` — both names must be defined functions/methods
            in ``module``; ``"string"`` — both must appear as string
            constants in ``module`` (backend selector tuples).
    """

    pair_id: str
    module: str
    fast: str
    oracle: str
    kind: str = "symbol"


#: Every fast path introduced by PRs 1-5 and the oracle that pins it.
#: PL002 verifies both sides still exist and that at least one test module
#: references the pair together.
ORACLE_PAIRS: Tuple[OraclePair, ...] = (
    # PR 5: fused Horner moment update vs the naive power-chain reference.
    OraclePair("moments-update", "src/repro/tvla/moments.py",
               "update_batch", "update_batch_naive"),
    # PR 5: packed toggle extraction vs the bool-matrix oracle.
    OraclePair("power-backend", "src/repro/power/traces.py",
               "packed", "unpacked", kind="string"),
    # PR 3: fused levelised simulation kernel vs the per-gate loop.
    OraclePair("sim-backend", "src/repro/simulation/simulator.py",
               "compiled", "loop", kind="string"),
    # PR 1: vectorised trace engine vs the per-gate reference loop.
    OraclePair("trace-engine", "src/repro/power/traces.py",
               "generate", "generate_loop"),
    # PR 7: flat-array batch tree descent vs the per-sample node walk.
    OraclePair("tree-predict", "src/repro/ml/tree.py",
               "predict_batch", "predict_value"),
    # PR 7: bottom-up batched conditional expectation vs the recursive walk.
    OraclePair("tree-shap-expectation", "src/repro/xai/tree_shap.py",
               "expectation_batch", "expectation"),
    # PR 7: batched SHAP matrix vs the per-sample explainer.
    OraclePair("tree-shap-explain", "src/repro/xai/tree_shap.py",
               "explain_matrix", "explain"),
    # Presorted all-features CART split search vs the per-feature
    # argsort-and-scan loop.
    OraclePair("tree-split", "src/repro/ml/tree.py",
               "_best_split", "_best_split_loop"),
    # PR 8: native Philox word production vs the pure-numpy 10-round
    # reference implementation of the 4x64 block function.
    OraclePair("ctr-philox", "src/repro/power/ctrsample.py",
               "philox_raw", "philox_blocks_reference"),
    # PR 8: counter-based sampling discipline vs the frozen SeedSequence
    # stream discipline (different draws by design — the sequence side is
    # the stateless-contract oracle pinned byte-for-byte by regression).
    OraclePair("mask-sampler", "src/repro/power/ctrsample.py",
               "counter", "sequence", kind="string"),
)


#: Classes shipped across the process-executor / campaign pickle seam,
#: mapped to the scratch-buffer attributes their ``__getstate__`` must
#: exclude (PR 5 dropped these from pickles: multi-megabyte per-chunk
#: workspaces must not bloat queue messages or shard checkpoints).
#: PL004 also flags *any* ``src/repro`` class whose attribute names mark
#: them as scratch (``*scratch*``) when no ``__getstate__``/``__reduce__``
#: excludes them.
PICKLE_SEAM_CLASSES: Dict[str, Tuple[str, ...]] = {
    "OnePassMoments": ("_batch_scratch",),
}

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
