"""Fault ablation: synchronization cost and retry volume vs. drop rate.

The paper's numbers assume GM's perfectly reliable, in-order network.  This
experiment measures what reliability *costs* when the network misbehaves: a
put/acc/barrier assembly epoch is run under increasing link drop rates with
the ACK/retransmit/resequencing layer enabled, and we report

* the mean epoch time (how much the retransmission machinery stretches the
  paper's optimized synchronization),
* the transport's work (retransmits, timeouts, suppressed duplicates,
  ACK frames), and
* a built-in correctness check: the final memory state and per-rank
  ``op_done`` counters must be identical to the fault-free run — the
  reliability layer's whole job is to make faults invisible to the
  protocols above it.

The workload writes rank-disjoint slots (puts) and commutative accumulates,
so the correct final state is interleaving-independent; any divergence is a
genuine delivery bug (lost, duplicated, or double-applied operation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..net.faults import FaultPlan
from ..net.params import NetworkParams
from ..runtime.cluster import ClusterRuntime
from ..runtime.memory import GlobalAddress
from .common import default_params, format_table
from .parallel import budget_note, within_budget

__all__ = [
    "FaultBenchConfig",
    "FaultPoint",
    "FaultBenchResult",
    "fault_workload",
    "run_fault_point",
    "run_faultbench",
]

#: Duplicate-injection rate as a fraction of the drop rate (networks that
#: lose packets usually also replay them).
DUP_FRACTION = 0.5


@dataclass(frozen=True)
class FaultBenchConfig:
    """Sweep configuration."""

    nprocs: int = 16
    procs_per_node: int = 1
    drop_rates: Tuple[float, ...] = (0.0, 0.01, 0.02, 0.05, 0.1)
    epochs: int = 4
    puts_per_peer: int = 2
    cells: int = 8
    fault_seed: int = 20030422
    retry_timeout_us: Optional[float] = None
    params: Optional[NetworkParams] = None


@dataclass
class FaultPoint:
    """One row of the sweep."""

    drop_rate: float
    epoch_us: float
    retransmits: int
    timeouts: int
    dup_suppressed: int
    acks: int
    frames_dropped: int
    frames_duplicated: int
    state_ok: bool


@dataclass
class FaultBenchResult:
    title: str
    points: List[FaultPoint] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def to_rows(self) -> List[List[str]]:
        rows = [
            [
                "drop",
                "epoch (us)",
                "slowdown",
                "retx",
                "timeouts",
                "dups supp.",
                "acks",
                "lost",
                "state",
            ]
        ]
        base = self.points[0].epoch_us if self.points else 1.0
        for p in self.points:
            rows.append(
                [
                    f"{p.drop_rate:.2f}",
                    f"{p.epoch_us:.1f}",
                    f"{p.epoch_us / base:.2f}x",
                    str(p.retransmits),
                    str(p.timeouts),
                    str(p.dup_suppressed),
                    str(p.acks),
                    str(p.frames_dropped),
                    "ok" if p.state_ok else "DIVERGED",
                ]
            )
        return rows

    def render(self) -> str:
        lines = [f"== {self.title} ==", format_table(self.to_rows())]
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)

    def all_ok(self) -> bool:
        return all(p.state_ok for p in self.points)


def fault_workload(ctx, cfg: FaultBenchConfig):
    """Assembly epochs: disjoint puts + commutative accs + combined barrier.

    Returns ``(mean_epoch_us, final_state)`` where ``final_state`` is the
    (put slots, acc cell, op_done) triple used for cross-run comparison.
    """
    slot_cells = cfg.cells
    base = ctx.region.alloc_named("faultbench.slots", ctx.nprocs * slot_cells, initial=0)
    acc_addr = ctx.region.alloc_named("faultbench.acc", 1, initial=0)
    stopwatch = ctx.stopwatch("epoch")
    for epoch in range(cfg.epochs):
        stopwatch.start()
        payload_seed = epoch * ctx.nprocs + ctx.rank + 1
        for peer in range(ctx.nprocs):
            if peer == ctx.rank:
                continue
            slot = base + ctx.rank * slot_cells
            for i in range(cfg.puts_per_peer):
                values = [payload_seed * 10 + i] * slot_cells
                yield from ctx.armci.put(GlobalAddress(peer, slot), values)
            yield from ctx.armci.acc(GlobalAddress(peer, acc_addr), [payload_seed])
        yield from ctx.armci.barrier()
        stopwatch.stop()
    final_state = (
        tuple(ctx.region.read_many(base, ctx.nprocs * slot_cells)),
        ctx.region.read(acc_addr),
        ctx.armci.server.op_done(ctx.rank),
    )
    return stopwatch.mean(), final_state


def _make_params(cfg: FaultBenchConfig, drop_rate: float) -> NetworkParams:
    params = default_params(cfg.params)
    overrides: Dict[str, Any] = {}
    if cfg.retry_timeout_us is not None:
        overrides["retry_timeout_us"] = cfg.retry_timeout_us
    if drop_rate > 0.0:
        overrides["faults"] = FaultPlan.uniform(
            drop_rate=drop_rate,
            dup_rate=drop_rate * DUP_FRACTION,
            seed=cfg.fault_seed,
        )
    return params.with_(**overrides) if overrides else params


def run_fault_point(cfg: FaultBenchConfig, drop_rate: float):
    """Run one drop-rate point; returns (mean epoch us, states, runtime)."""
    runtime = ClusterRuntime(
        cfg.nprocs,
        procs_per_node=cfg.procs_per_node,
        params=_make_params(cfg, drop_rate),
    )
    per_rank = runtime.run_spmd(fault_workload, cfg)
    epochs = [us for us, _state in per_rank]
    states = [state for _us, state in per_rank]
    return sum(epochs) / len(epochs), states, runtime


def run_faultbench(
    cfg: Optional[FaultBenchConfig] = None, budget_s: Optional[float] = None
) -> FaultBenchResult:
    """The drop-rate sweep.  ``budget_s`` starts no point once that many
    wall-clock seconds have passed; the skipped points are noted."""
    cfg = cfg or FaultBenchConfig()
    rates = list(cfg.drop_rates)
    if not rates or rates[0] != 0.0:
        rates.insert(0, 0.0)  # the fault-free reference always runs first
    result = FaultBenchResult(
        title=(
            f"Fault ablation: {cfg.nprocs}-process put/acc/barrier epoch vs "
            "link drop rate (reliable delivery on)"
        )
    )
    baseline_states: Optional[List[Any]] = None
    skipped: List[float] = []
    for rate in within_budget(rates, budget_s, skipped):
        epoch_us, states, runtime = run_fault_point(cfg, rate)
        if baseline_states is None:
            baseline_states = states
        stats = runtime.fabric.stats
        injector = runtime.fabric.faults
        result.points.append(
            FaultPoint(
                drop_rate=rate,
                epoch_us=epoch_us,
                retransmits=stats.retransmits,
                timeouts=stats.timeouts,
                dup_suppressed=stats.dup_suppressed,
                acks=stats.acks,
                frames_dropped=injector.stats.dropped if injector else 0,
                frames_duplicated=injector.stats.duplicated if injector else 0,
                state_ok=(states == baseline_states),
            )
        )
    result.notes.append(
        f"workload: {cfg.epochs} epochs x {cfg.puts_per_peer} puts/peer "
        f"({cfg.cells} cells) + 1 acc/peer + ARMCI_Barrier; "
        f"retry_timeout={_make_params(cfg, 0.0).retry_timeout_us}us, "
        f"fault seed {cfg.fault_seed}"
    )
    result.notes.append(
        "state column compares final memory and op_done against the "
        "fault-free run (must be ok at every drop rate)"
    )
    if skipped:
        result.notes.append(budget_note(budget_s, (f"drop {r:.2f}" for r in skipped)))
    return result
