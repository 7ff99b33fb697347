"""Rule modules; importing this package registers every rule.

Rule ids are stable and documented in ``docs/static-analysis.md``:

========  ========================================================
PL001     determinism (no unseeded / global randomness, no unstable sorts)
PL002     oracle pairing (fast paths keep tested bit-identical oracles)
PL003     buffer safety (frozen shared arrays, no parameter mutation)
PL004     pickle hygiene (scratch buffers excluded from the seam)
PL005     resource lifecycle (close/shutdown on all paths)
PL006     float equality (tolerances, not ==)
PL007     durable writes (campaign/service use the atomic helpers)
========  ========================================================
"""

from . import buffers, floatcmp, oracle, pickle_seam, resources, rng, writes

__all__ = ["buffers", "floatcmp", "oracle", "pickle_seam", "resources",
           "rng", "writes"]
