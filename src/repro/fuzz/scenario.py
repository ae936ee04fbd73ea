"""Deterministic seed -> scenario expansion.

A :class:`Scenario` is a complete, JSON-serializable description of one
fuzz run: topology, workload phases, synchronization algorithm, link
faults, and crash schedule.  :func:`generate` is a *pure function* of
``(seed, constrain)`` — the same inputs always yield the same scenario,
so any failure replays from its seed alone and corpus entries stay
meaningful across machines.

Legality rules (enforced by :func:`_legalize`, re-applied after any
directed ``constrain`` overrides so self-test mutants cannot produce an
unrunnable scenario):

* rank 0 / node 0 / NIC 0 never die — rank 0 is every lock's home and
  the lowest survivor that folds dead ranks' barrier contributions;
* at least two ranks survive the whole crash schedule;
* ``ticket``/``lh`` locks place every rank on one node (the algorithms
  require it) and therefore only take plain rank crashes;
* phase lists end with a barrier so the final memory check is fenced;
* scenarios always run the reliable delivery layer (drops/dups/delays
  are recovered, not silently lost — that is the property under test);
* partition windows are pairwise disjoint, never cut off node 0, and
  leave a strict majority of nodes connected even if every scheduled
  node crash lands on the majority side — so a majority component
  exists during every window and frozen minority ranks always thaw;
* stalls never pause rank 0 or a rank already scheduled to die.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "Scenario",
    "WORKLOADS",
    "generate",
    "scenario_from_json",
    "scenario_to_json",
]

#: Workload families the fuzzer composes phases from.
WORKLOADS = ("strips", "locks", "mixed")

#: Host barrier algorithms eligible for fuzzing ("auto" is excluded: its
#: per-rank cost-model choice is not a collective agreement and the CLI
#: documents it as unsafe under divergent views).
_BARRIERS = ("exchange", "linear", "nic")

#: Topology-aware barrier algorithms (:mod:`repro.topo.algorithms`),
#: drawn from a separate RNG stream so pre-existing seeds keep their
#: historical expansions.
_TOPO_BARRIERS = ("twolevel", "kary", "dissemination")

_LOCK_KINDS = ("ticket", "lh", "server", "hybrid", "mcs", "raymond", "naimi")

#: Lock algorithms that require all ranks on the lock's home node.
_LOCAL_LOCKS = ("ticket", "lh")


@dataclass(frozen=True)
class Scenario:
    """One fully-expanded fuzz scenario (pure data, JSON round-trips)."""

    seed: int
    nprocs: int = 4
    procs_per_node: int = 1
    workload: str = "strips"
    barrier_algorithm: str = "exchange"
    nic_algorithm: str = "exchange"
    lock_kind: Optional[str] = None
    #: Ordered phases; each is ``"puts"``, ``"lock"``, or ``"barrier"``.
    phases: Tuple[str, ...] = ("puts", "barrier")
    cells: int = 4
    lock_iters: int = 2
    #: Uniform per-transmission fault rates (reliable layer always on).
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    delay_rate: float = 0.0
    delay_spike_us: float = 0.0
    #: If non-empty, faults apply only on these directed node pairs.
    fault_links: Tuple[Tuple[int, int], ...] = ()
    #: Crash schedule: ``(kind, target, at_us)`` with kind rank|node|nic.
    crashes: Tuple[Tuple[str, int, float], ...] = ()
    #: Partition windows: ``(nodes, from_us, until_us)`` — the node group
    #: is cut off from the rest for the half-open window, then heals.
    #: Legalization guarantees the remainder keeps a strict majority of
    #: nodes (even against scheduled node crashes) and windows are
    #: disjoint, so exactly one cut is active at a time.
    partitions: Tuple[Tuple[Tuple[int, ...], float, float], ...] = ()
    #: Transient process stalls: ``(rank, from_us, until_us)`` — the rank
    #: pauses (no crash) and resumes at the window end.
    stalls: Tuple[Tuple[int, float, float], ...] = ()
    #: Hierarchical topology: 0 = flat network, >= 2 = a two-level
    #: hierarchy with ``hier_arity`` nodes per leaf switch.
    hier_arity: int = 0

    def has_faults(self) -> bool:
        return any(
            r > 0.0 for r in (self.drop_rate, self.dup_rate, self.delay_rate)
        )

    def has_transients(self) -> bool:
        """Any partition or stall window (freeze/rejoin machinery active)."""
        return bool(self.partitions or self.stalls)

    def dead_ranks_planned(self) -> Tuple[int, ...]:
        """Ranks guaranteed dead by the schedule (nic kills excluded —
        NIC deaths only escalate to rank deaths when traffic hits them)."""
        ppn = self.procs_per_node
        dead = set()
        for kind, target, _at in self.crashes:
            if kind == "rank":
                dead.add(target)
            elif kind == "node":
                dead.update(range(target * ppn, (target + 1) * ppn))
        return tuple(sorted(d for d in dead if d < self.nprocs))


def scenario_to_json(scenario: Scenario) -> str:
    """Canonical JSON text (sorted keys, tuples as lists)."""
    return json.dumps(dataclasses.asdict(scenario), sort_keys=True)


def scenario_from_json(text: str) -> Scenario:
    data = json.loads(text)
    data["phases"] = tuple(data["phases"])
    data["fault_links"] = tuple((a, b) for a, b in data["fault_links"])
    data["crashes"] = tuple((k, t, float(at)) for k, t, at in data["crashes"])
    # Transient axes postdate the first corpus entries; default to none.
    data["partitions"] = tuple(
        (tuple(int(n) for n in nodes), float(f), float(u))
        for nodes, f, u in data.get("partitions", ())
    )
    data["stalls"] = tuple(
        (int(r), float(f), float(u)) for r, f, u in data.get("stalls", ())
    )
    # The topology axis also postdates the first corpus entries.
    data["hier_arity"] = int(data.get("hier_arity", 0))
    return Scenario(**data)


def generate(seed: int, constrain: Optional[Dict[str, Any]] = None) -> Scenario:
    """Expand ``seed`` into a scenario, deterministically.

    ``constrain`` overrides generated fields *before* legalization — the
    self-test uses it to steer generation toward the protocol family a
    seeded mutant lives in, without giving up determinism or legality.
    """
    rng = random.Random(f"fuzz:{seed}")
    choice: Dict[str, Any] = {"seed": seed}

    choice["nprocs"] = rng.choice((3, 4, 5, 6, 8))
    choice["procs_per_node"] = rng.choice((1, 1, 2))
    choice["workload"] = rng.choice(WORKLOADS)
    choice["barrier_algorithm"] = rng.choice(_BARRIERS)
    choice["nic_algorithm"] = rng.choice(("exchange", "tree"))
    choice["lock_kind"] = rng.choice(_LOCK_KINDS)
    choice["cells"] = rng.choice((2, 4, 8))
    choice["lock_iters"] = rng.choice((1, 2, 3))
    choice["phases"] = _pick_phases(rng, choice["workload"])

    # Link faults: half the scenarios are fault-free so crash handling is
    # also fuzzed on a clean network.
    if rng.random() < 0.5:
        for key in ("drop_rate", "dup_rate", "delay_rate", "delay_spike_us"):
            choice[key] = 0.0
        choice["fault_links"] = ()
    else:
        # Rates are capped so the reliable layer's retry budget cannot
        # plausibly exhaust against a *live* peer (which would read as a
        # false hang); crashed peers are detected via the same budget.
        choice["drop_rate"] = rng.choice((0.0, 0.05, 0.15))
        choice["dup_rate"] = rng.choice((0.0, 0.05, 0.15))
        choice["delay_rate"] = rng.choice((0.0, 0.2, 1.0))
        choice["delay_spike_us"] = (
            rng.choice((80.0, 200.0, 600.0)) if choice["delay_rate"] else 0.0
        )
        if rng.random() < 0.4:
            # Concentrate the faults on a few directed node pairs.
            nnodes = max(
                2, choice["nprocs"] // choice["procs_per_node"]
            )
            pairs = set()
            for _ in range(rng.choice((1, 2, 3))):
                a = rng.randrange(nnodes)
                b = rng.randrange(nnodes)
                if a != b:
                    pairs.add((a, b))
            choice["fault_links"] = tuple(sorted(pairs))
        else:
            choice["fault_links"] = ()

    choice["crashes"] = _pick_crashes(rng, choice)

    # Transient faults draw from a *separate* stream so pre-existing seeds
    # expand to the same topology/workload/crash schedule they always did.
    transient_rng = random.Random(f"fuzz-transient:{seed}")
    choice["partitions"] = _pick_partitions(transient_rng)
    choice["stalls"] = _pick_stalls(transient_rng)

    # Topology axis, also from its own stream: a minority of scenarios
    # run on a two-level hierarchy and/or swap in a topology-aware
    # barrier, leaving all other draws untouched.
    topo_rng = random.Random(f"fuzz-topo:{seed}")
    choice["hier_arity"] = (
        topo_rng.choice((2, 2, 4)) if topo_rng.random() < 0.3 else 0
    )
    if topo_rng.random() < 0.3 and choice["barrier_algorithm"] != "nic":
        choice["barrier_algorithm"] = topo_rng.choice(_TOPO_BARRIERS)

    if constrain:
        choice.update(constrain)
        if "workload" in constrain and "phases" not in constrain:
            # The phase list was drawn for the *unconstrained* workload;
            # re-derive it (seeded separately, still a pure function).
            choice["phases"] = _pick_phases(
                random.Random(f"fuzz-phases:{seed}"), choice["workload"]
            )
    return _legalize(choice)


def _pick_phases(rng: random.Random, workload: str) -> Tuple[str, ...]:
    if workload == "strips":
        return ("puts", "barrier") * rng.choice((1, 2, 3))
    if workload == "locks":
        return ("lock", "barrier") * rng.choice((1, 2))
    phases = []
    for _ in range(rng.choice((2, 3, 4))):
        phases.append(rng.choice(("puts", "lock", "barrier")))
    phases.append("barrier")
    return tuple(phases)


def _pick_crashes(
    rng: random.Random, choice: Dict[str, Any]
) -> Tuple[Tuple[str, int, float], ...]:
    n_crashes = rng.choice((0, 1, 1, 2))
    crashes = []
    for _ in range(n_crashes):
        kind = rng.choice(("rank", "rank", "rank", "node", "nic"))
        at_us = round(rng.uniform(20.0, 1500.0), 1)
        crashes.append((kind, 0, at_us))  # target filled by _legalize
    return tuple(crashes)


def _pick_partitions(
    rng: random.Random,
) -> Tuple[Tuple[Any, float, float], ...]:
    """Draw partition windows; node groups are size *hints* (ints) that
    :func:`_legalize` resolves against the final topology."""
    if rng.random() >= 0.25:
        return ()
    windows = []
    for _ in range(rng.choice((1, 1, 2))):
        from_us = round(rng.uniform(30.0, 1200.0), 1)
        duration = rng.choice((120.0, 300.0, 700.0))
        windows.append((rng.choice((1, 1, 2)), from_us, round(from_us + duration, 1)))
    return tuple(windows)


def _pick_stalls(rng: random.Random) -> Tuple[Tuple[int, float, float], ...]:
    if rng.random() >= 0.15:
        return ()
    from_us = round(rng.uniform(30.0, 1200.0), 1)
    duration = rng.choice((150.0, 400.0))
    return ((rng.randrange(64), from_us, round(from_us + duration, 1)),)


def _legalize(choice: Dict[str, Any]) -> Scenario:
    """Repair the choice dict into a runnable scenario (deterministic)."""
    rng = random.Random(f"fuzz-legalize:{choice['seed']}")
    nprocs = int(choice["nprocs"])
    ppn = int(choice["procs_per_node"])
    if nprocs % ppn:
        ppn = 1

    workload = choice["workload"]
    lock_kind = choice["lock_kind"]
    phases = tuple(choice["phases"])
    if workload == "strips" or "lock" not in phases:
        lock_kind = None
    if lock_kind in _LOCAL_LOCKS:
        ppn = nprocs  # single node: the algorithms require it
    if not phases or phases[-1] != "barrier":
        phases = phases + ("barrier",)

    nnodes = nprocs // ppn
    fault_links = tuple(
        (a, b)
        for a, b in choice["fault_links"]
        if a != b and a < nnodes and b < nnodes
    )

    # Crash schedule: assign targets sparing rank 0 / node 0 / NIC 0,
    # keep >= 2 survivors, one crash per target.  The generator's
    # placeholder target 0 is never legal, so it always draws one.
    crashes = []
    used_targets = set()
    planned_dead = set()
    single_node = nnodes <= 1
    for kind, target, at_us in choice["crashes"]:
        if kind in ("node", "nic") and single_node:
            kind = "rank"  # node 0 is protected; retarget to a rank
        if kind == "rank":
            candidates = [r for r in range(1, nprocs) if ("rank", r) not in used_targets]
            rng.shuffle(candidates)
            if target in candidates:  # an explicit legal target stands
                candidates.insert(0, target)
            picked = None
            for r in candidates:
                if len(planned_dead | {r}) <= nprocs - 2:
                    picked = r
                    break
            if picked is None:
                continue
            planned_dead.add(picked)
            used_targets.add(("rank", picked))
            crashes.append(("rank", picked, at_us))
        else:
            candidates = [
                n for n in range(1, nnodes) if (kind, n) not in used_targets
            ]
            rng.shuffle(candidates)
            if target in candidates:
                candidates.insert(0, target)
            picked = None
            for n in candidates:
                hosted = set(range(n * ppn, (n + 1) * ppn))
                if len(planned_dead | hosted) <= nprocs - 2:
                    picked = n
                    break
            if picked is None:
                continue
            # NIC kills only escalate to rank deaths when traffic hits
            # the dead device, but budget for the worst case anyway so
            # two ranks always survive.
            planned_dead.update(range(picked * ppn, (picked + 1) * ppn))
            used_targets.add((kind, picked))
            crashes.append((kind, picked, at_us))
    crashes.sort(key=lambda c: (c[2], c[0], c[1]))

    # Partition windows (satellite of the partition-tolerance work): the
    # un-partitioned remainder must hold a *strict majority* of nodes even
    # if every scheduled node crash lands on the majority side, so the
    # minority never exceeds (surviving_nodes - 1) // 2 and node 0 (every
    # lock's home) is never cut off.  Windows are kept pairwise disjoint —
    # one active cut means exactly two components, so a majority always
    # exists and every frozen rank is guaranteed to thaw.
    node_crashes = sum(1 for k, _t, _at in crashes if k == "node")
    max_minority = (nnodes - node_crashes - 1) // 2
    partitions = []
    used_windows = []
    for nodes, from_us, until_us in choice.get("partitions", ()):
        if max_minority < 1:
            break
        from_us, until_us = float(from_us), float(until_us)
        if until_us <= from_us:
            continue
        if any(from_us < u and until_us > f for f, u in used_windows):
            continue
        if isinstance(nodes, int):
            size = max(1, min(nodes, max_minority))
            pool = list(range(1, nnodes))
            rng.shuffle(pool)
            group = tuple(sorted(pool[:size]))
        else:
            group = tuple(
                sorted({int(n) for n in nodes if 0 < int(n) < nnodes})
            )[:max_minority]
        if not group:
            continue
        used_windows.append((from_us, until_us))
        partitions.append((group, round(from_us, 1), round(until_us, 1)))
    partitions.sort(key=lambda p: (p[1], p[2], p[0]))

    # Stalls: never pause rank 0, one window per rank, windows well-formed.
    stalls = []
    stalled_ranks = set()
    for rank, from_us, until_us in choice.get("stalls", ()):
        if nprocs < 3:
            break  # a 2-rank run has no majority once one rank pauses
        from_us, until_us = float(from_us), float(until_us)
        if until_us <= from_us:
            continue
        rank = 1 + (int(rank) % (nprocs - 1))
        if rank in stalled_ranks or rank in planned_dead:
            continue
        stalled_ranks.add(rank)
        stalls.append((rank, round(from_us, 1), round(until_us, 1)))
    stalls.sort(key=lambda s: (s[1], s[0]))

    return Scenario(
        seed=int(choice["seed"]),
        nprocs=nprocs,
        procs_per_node=ppn,
        workload=workload,
        barrier_algorithm=choice["barrier_algorithm"],
        nic_algorithm=choice["nic_algorithm"],
        lock_kind=lock_kind,
        phases=phases,
        cells=int(choice["cells"]),
        lock_iters=int(choice["lock_iters"]),
        drop_rate=float(choice["drop_rate"]),
        dup_rate=float(choice["dup_rate"]),
        delay_rate=float(choice["delay_rate"]),
        delay_spike_us=float(choice["delay_spike_us"]),
        fault_links=fault_links,
        crashes=tuple(crashes),
        partitions=tuple(partitions),
        stalls=tuple(stalls),
        hier_arity=(
            int(choice.get("hier_arity", 0))
            if int(choice.get("hier_arity", 0)) >= 2
            else 0
        ),
    )
