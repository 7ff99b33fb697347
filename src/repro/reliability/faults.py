"""Seeded, coordinate-addressed fault injection (``FaultPlan``).

A fault plan is a list of rules, each bound to a named **site** — a
labelled point in the campaign/service stack where a failure can be
injected (see :data:`FAULT_SITES`).  Whether the *k*-th evaluation of a
site fires is a pure function of ``(plan seed, site, k)``: the decision
word comes from the same Philox-4x64 engine as the counter sampler
(:func:`repro.power.ctrsample.philox_raw`), with the site hashed into the
class/group coordinates, the evaluation index as the chunk coordinate,
and a fault-framework lane separating these streams from every sampler
lane.  Two processes running the same plan therefore fail at the same
deterministic points — a chaos run is exactly as reproducible as a clean
one.

Plans are activated per process via the ``POLARIS_FAULT_PLAN``
environment variable (grammar below), via ``polaris-campaign work
--fault-plan``, or in-process with :func:`set_fault_plan`.  A shard
delay is the rule ``worker.shard:mode=delay,delay=SECONDS``.

Plan grammar (``;``-separated, optional leading ``seed=N``)::

    seed=42;checkpoint.write:mode=corrupt,max=1;queue.ack:mode=error,p=0.5

Each rule is ``site:key=value,key=value`` with keys ``mode`` (required),
``p`` (fire probability, default 1), ``max`` (total fires, default
unbounded), ``delay`` (seconds, for ``mode=delay``), and ``after``
(skip the first N evaluations of the site).
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Type

from ..power.ctrsample import philox_raw

#: Environment variable holding a plan in the grammar above.
FAULT_PLAN_ENV = "POLARIS_FAULT_PLAN"

#: Named injection sites wired through the stack.
FAULT_SITES = (
    "checkpoint.write",   # shard checkpoint publication (runner)
    "store.write",        # result-store publication (store)
    "queue.claim",        # task claim (queue) — transient OperationalError
    "queue.ack",          # task ack (queue) — transient OperationalError
    "service.send",       # client frame send (drop / delay / sever)
    "service.recv",       # client frame receive (delay / sever)
    "worker.shard",       # shard execution entry (delay / crash / error)
)

#: Supported failure modes (not every mode is meaningful at every site;
#: the site wiring documents which it honours).
FAULT_MODES = ("truncate", "corrupt", "error", "drop", "delay", "sever",
               "crash")

#: Fault-framework Philox lane ("FLT" in ASCII, shifted well clear of
#: NOISE_LANE/GAUSS_LANE/MASK_LANE_BASE + subgroup); per-rule offsets are
#: added so rules on one site draw independent decision streams.
_FAULT_LANE = 0x464C5400


def _site_coordinates(site: str) -> Tuple[int, int]:
    """(class_index, group_index) pair addressing a site's streams."""
    word = int.from_bytes(hashlib.sha256(site.encode("utf-8")).digest()[:8],
                          "little")
    return word & 0xFFFFFFFF, (word >> 32) & 0xFFFFFFFF


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: at ``site``, fail in ``mode``.

    ``p`` is the per-evaluation fire probability, ``max_count`` bounds the
    total number of fires (None = unbounded), ``delay`` is the sleep for
    ``mode="delay"``, and ``after`` skips the site's first evaluations.
    """

    site: str
    mode: str
    p: float = 1.0
    max_count: Optional[int] = None
    delay: float = 0.0
    after: int = 0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"expected one of {FAULT_SITES}")
        if self.mode not in FAULT_MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}; "
                             f"expected one of {FAULT_MODES}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"fire probability must be in [0, 1], "
                             f"got {self.p}")
        if self.max_count is not None and self.max_count < 0:
            raise ValueError("max fire count must be >= 0")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if self.after < 0:
            raise ValueError("after must be >= 0")


class FaultPlan:
    """A seed plus fault rules, with per-site evaluation counters.

    Counters are per plan instance (i.e. per process for the env-activated
    plan), guarded by a lock so threaded workers share one deterministic
    evaluation sequence per site.
    """

    def __init__(self, seed: int = 0,
                 rules: Tuple[FaultRule, ...] = ()) -> None:
        self.seed = int(seed)
        self.rules = tuple(rules)
        self._evaluations: Dict[str, int] = {}
        self._fires: Dict[int, int] = {}
        self._lock = threading.Lock()

    # -- construction --------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``seed=N;site:k=v,...`` grammar (see module doc)."""
        seed = 0
        rules = []
        for token in text.split(";"):
            token = token.strip()
            if not token:
                continue
            if token.startswith("seed="):
                seed = int(token[len("seed="):])
                continue
            site, separator, options = token.partition(":")
            if not separator:
                raise ValueError(f"malformed fault rule {token!r}: "
                                 f"expected 'site:key=value,...'")
            fields: Dict[str, object] = {}
            for pair in options.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, separator, value = pair.partition("=")
                if not separator:
                    raise ValueError(f"malformed option {pair!r} in fault "
                                     f"rule {token!r}")
                if key == "mode":
                    fields["mode"] = value
                elif key == "p":
                    fields["p"] = float(value)
                elif key == "max":
                    fields["max_count"] = int(value)
                elif key == "delay":
                    fields["delay"] = float(value)
                elif key == "after":
                    fields["after"] = int(value)
                else:
                    raise ValueError(f"unknown option {key!r} in fault "
                                     f"rule {token!r}")
            if "mode" not in fields:
                raise ValueError(f"fault rule {token!r} is missing "
                                 f"'mode='")
            rules.append(FaultRule(site=site.strip(), **fields))
        return cls(seed=seed, rules=tuple(rules))

    def to_text(self) -> str:
        """Round-trippable plan text in the grammar :meth:`parse` reads."""
        tokens = [f"seed={self.seed}"]
        for rule in self.rules:
            options = [f"mode={rule.mode}"]
            if rule.p < 1.0:
                options.append(f"p={rule.p}")
            if rule.max_count is not None:
                options.append(f"max={rule.max_count}")
            if rule.delay:
                options.append(f"delay={rule.delay}")
            if rule.after:
                options.append(f"after={rule.after}")
            tokens.append(f"{rule.site}:{','.join(options)}")
        return ";".join(tokens)

    # -- evaluation ----------------------------------------------------
    def _fires_at(self, rule_index: int, site: str, evaluation: int) -> bool:
        rule = self.rules[rule_index]
        if rule.p >= 1.0:
            return True
        if rule.p <= 0.0:
            return False
        class_index, group_index = _site_coordinates(site)
        word = int(philox_raw(self.seed, class_index, group_index,
                              evaluation, _FAULT_LANE + rule_index, 1)[0])
        return word < int(rule.p * 2.0 ** 64)

    def evaluate(self, site: str) -> Optional[FaultRule]:
        """Advance the site's counter; return the rule that fires, if any.

        The first matching rule (plan order) whose ``after``/``max``
        window admits this evaluation and whose decision word fires wins.
        """
        with self._lock:
            evaluation = self._evaluations.get(site, 0)
            self._evaluations[site] = evaluation + 1
            for index, rule in enumerate(self.rules):
                if rule.site != site or evaluation < rule.after:
                    continue
                fired = self._fires.get(index, 0)
                if rule.max_count is not None and fired >= rule.max_count:
                    continue
                if self._fires_at(index, site, evaluation):
                    self._fires[index] = fired + 1
                    return rule
            return None


# -- process-wide active plan ------------------------------------------
_state_lock = threading.Lock()
_override: Optional[FaultPlan] = None
_cached: Optional[FaultPlan] = None
_cached_key: Optional[str] = None


def set_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Install an in-process plan override (``None`` restores env-driven
    activation)."""
    global _override
    with _state_lock:
        _override = plan


def active_plan() -> Optional[FaultPlan]:
    """The process's current plan: the override if set, else the plan
    described by ``POLARIS_FAULT_PLAN``.

    The env-derived plan is cached on the exact variable value, so its
    evaluation counters persist across calls until the environment
    changes.
    """
    global _cached, _cached_key
    with _state_lock:
        if _override is not None:
            return _override
        key = os.environ.get(FAULT_PLAN_ENV, "")
        if key != _cached_key:
            _cached_key = key
            _cached = FaultPlan.parse(key) if key else None
        return _cached


# -- site helpers (what instrumented code calls) -----------------------
def evaluate(site: str) -> Optional[FaultRule]:
    """Evaluate a site against the active plan (no side effects)."""
    plan = active_plan()
    return None if plan is None else plan.evaluate(site)


def perturb(site: str) -> Optional[FaultRule]:
    """Evaluate a site and apply process-level modes in place.

    ``delay`` sleeps here; ``crash`` SIGKILLs the current process (the
    worker-kill injection — no cleanup handlers run, exactly like the
    external kill it models).  Every other mode is returned to the caller
    to apply at its own seam.
    """
    rule = evaluate(site)
    if rule is None:
        return None
    if rule.mode == "delay":
        time.sleep(rule.delay)
    elif rule.mode == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    return rule


def mangle(site: str, data: bytes) -> bytes:
    """Apply a byte-level fault to an outgoing payload.

    ``truncate`` drops the second half (a torn write), ``corrupt`` flips
    one middle byte (silent tampering), ``error`` raises ``OSError`` as a
    failed write.  Other modes fall through unchanged.
    """
    rule = perturb(site)
    if rule is None:
        return data
    if rule.mode == "error":
        raise OSError(f"injected fault at {site}: write failed")
    if rule.mode == "truncate":
        return data[:len(data) // 2]
    if rule.mode == "corrupt" and data:
        index = len(data) // 2
        return data[:index] + bytes([data[index] ^ 0xFF]) + data[index + 1:]
    return data


def maybe_error(site: str, exc_type: Type[BaseException],
                message: str) -> Optional[FaultRule]:
    """Evaluate a site, raising ``exc_type`` when an ``error`` rule fires
    (the transient-failure injection for queue claim/ack)."""
    rule = perturb(site)
    if rule is not None and rule.mode == "error":
        raise exc_type(f"injected fault at {site}: {message}")
    return rule
