"""The ARMCI server thread (paper Figure 1).

One server thread runs per SMP node.  It owns a request mailbox registered
on the fabric as ``("srv", node)`` and serves put/get/accumulate/rmw/fence
requests *in FIFO order* on behalf of remote user processes, operating
directly on the memory regions of the user processes hosted on its node
(which it shares with them).

Two behaviours from the paper are modeled explicitly because the evaluation
depends on them:

* **Blocking receive / wake-up cost.**  "In order to reduce the processor
  usage by the server thread when the server is idle, the server will use
  blocking receives and sleep while waiting for incoming requests."  A
  request arriving at a sleeping server pays ``server_wake_us`` before any
  processing; back-to-back requests do not.

* **Completion counters.**  The server keeps an ``op_done`` counter per
  hosted process (the number of completed memory operations targeting that
  process's region), stored in shared memory so the local user process can
  poll it — this is stage 2 of the new ``ARMCI_Barrier()``.

The server also implements the server side of the *hybrid* lock algorithm
(ticket state lives in the home process's region; the queue of waiting
remote requesters lives here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..armci.requests import (
    AccRequest,
    FenceRequest,
    GetRequest,
    LockRequest,
    PutRequest,
    RmwRequest,
    UnlockRequest,
)
from ..net.fabric import Fabric
from ..net.message import server_endpoint
from ..net.params import NetworkParams
from ..net.topology import Topology
from ..sim.core import Environment
from ..sim.primitives import Store
from . import atomics
from .memory import Region

__all__ = ["ServerThread", "ServerStats"]

#: Request type -> the :class:`ServerThread` method serving it (a put is
#: applied in the server loop itself).  Resolved by name per request, so a
#: handler can be replaced on the class or on one server.
_HANDLERS = {
    GetRequest: "_handle_get",
    AccRequest: "_handle_acc",
    RmwRequest: "_handle_rmw",
    FenceRequest: "_handle_fence",
    LockRequest: "_handle_lock",
    UnlockRequest: "_handle_unlock",
}


@dataclass
class ServerStats:
    """Per-server activity counters."""

    requests: int = 0
    sleeps: int = 0
    wakes: int = 0
    #: Requests caught during the spin window (no wake cost paid).
    spins: int = 0
    #: Total µs the server spent processing (wake + dequeue + dispatch +
    #: copies + replies); divide by elapsed time for utilization.
    busy_us: float = 0.0
    puts: int = 0
    gets: int = 0
    accs: int = 0
    rmws: int = 0
    fences: int = 0
    locks: int = 0
    unlocks: int = 0
    grants: int = 0
    #: Retransmitted/duplicated requests caught by idempotent dispatch
    #: (never double-applied, never double-bumping ``op_done``).
    dup_requests: int = 0
    #: Cached responses re-sent for duplicates whose original reply was lost.
    replayed_replies: int = 0
    by_type: Dict[str, int] = field(default_factory=dict)


class ServerThread:
    """Simulated per-node ARMCI server thread."""

    def __init__(
        self,
        env: Environment,
        node: int,
        fabric: Fabric,
        topology: Topology,
        params: NetworkParams,
        regions: Dict[int, Region],
    ):
        self.env = env
        self.node = node
        self.fabric = fabric
        self.topology = topology
        self.params = params
        #: All process regions in the system (the server touches only those
        #: hosted on its node, but resolves by rank).
        self.regions = regions
        self.mailbox = Store(env, name=f"srv{node}.mailbox")
        fabric.register(server_endpoint(node), self.mailbox)
        self.stats = ServerStats()
        #: True while blocked in the blocking receive with an empty queue.
        self.sleeping = False
        #: Shared-memory counters region: one op_done cell per hosted rank.
        self.counters = Region(env, owner_rank=-1, name=f"srv{node}.counters")
        self._op_done_addr: Dict[int, int] = {
            rank: self.counters.alloc(1, initial=0)
            for rank in topology.ranks_on(node)
        }
        #: Hybrid-lock wait queues: (home_rank, base_addr) -> ticket -> waiter.
        self._lock_waiters: Dict[Tuple[int, int], Dict[int, LockRequest]] = {}
        #: Idempotent dispatch (only when faults can duplicate requests):
        #: envelopes are deduplicated by (src_rank, fabric seq) so a
        #: retransmitted put/acc never double-applies or double-bumps
        #: ``op_done`` — a double bump silently corrupts stage 2 of the
        #: combined ARMCI_Barrier.
        self._dedup = params.faults is not None
        self._applied: set = set()
        #: NIC co-processor on this node (None until the NIC-offloaded
        #: barrier is first requested; see :mod:`repro.nic.engine`).  When
        #: attached, every op_done bump is DMA'd down to the NIC's mirror.
        self._nic_engine = None
        #: Crash-stop membership service (None unless the fault plan
        #: schedules ProcessCrash events; attached to the fabric before
        #: servers are built).
        self._membership = getattr(fabric, "_membership", None)
        #: RMCSan monitor (installed on env before the runtime is wired).
        self._monitor = getattr(env, "_sync_monitor", None)
        if self._monitor is not None:
            # op_done counters have release/acquire semantics: stage 2 of
            # the combined barrier polls them; they are not data cells.
            for addr in self._op_done_addr.values():
                self._monitor.mark_sync(self.counters, addr)
        #: At-most-once reply cache: dedup key -> (src_rank, event, value,
        #: payload_cells), used to re-send a response whose original was
        #: lost on the way back.
        self._reply_cache: Dict[Tuple[int, int], Tuple[int, Any, Any, int]] = {}
        self._current_key: Optional[Tuple[int, int]] = None
        self._proc = None

    def __repr__(self) -> str:
        return f"<ServerThread node={self.node} handled={self.stats.requests}>"

    # -- counters --------------------------------------------------------------

    def op_done_cell(self, rank: int) -> Tuple[Region, int]:
        """(region, addr) of the op_done counter for hosted process ``rank``."""
        try:
            return self.counters, self._op_done_addr[rank]
        except KeyError:
            raise ValueError(
                f"rank {rank} is not hosted on node {self.node}"
            ) from None

    def op_done(self, rank: int) -> int:
        region, addr = self.op_done_cell(rank)
        return region.read(addr)

    def _bump_op_done(self, rank: int) -> None:
        region, addr = self.op_done_cell(rank)
        value = region.read(addr) + 1
        region.write(addr, value)
        if self._monitor is not None:
            self._monitor.emit("op_done", rank=rank, value=value)
        if self._nic_engine is not None:
            self._nic_engine.mirror_push(rank, value)

    def _hosted_region(self, rank: int) -> Region:
        if self.topology.node_of(rank) != self.node:
            raise ValueError(
                f"request targets rank {rank}, which is hosted on node "
                f"{self.topology.node_of(rank)}, not this server's node {self.node}"
            )
        return self.regions[rank]

    # -- main loop ---------------------------------------------------------------

    def start(self):
        """Spawn the server loop process."""
        if self._proc is not None:
            raise RuntimeError(f"server {self.node} already started")
        self._proc = self.env.process(self._run(), name=f"server{self.node}")
        if self._monitor is not None:
            self._monitor.register_process(self._proc, f"s{self.node}")
        return self._proc

    def kill(self) -> None:
        """Machine crash: stop serving for good (no-op once stopped)."""
        if self._proc is not None:
            self._proc.kill()

    def _run(self):
        p = self.params
        env = self.env
        mailbox = self.mailbox
        stats = self.stats
        spin_us = p.server_spin_us
        wake_us = p.server_wake_us
        proc_us = p.server_proc_us
        shm_us = p.shm_access_us
        o_recv_us = p.o_recv_us
        dedup = self._dedup
        monitor = self._monitor
        while True:
            get_ev = mailbox.get()
            if not get_ev.triggered and spin_us > 0.0:
                # Spin-then-block: busy-poll before giving up the CPU.  A
                # message arriving inside the window is picked up without
                # the wake-up penalty.
                spin_deadline = env.timeout(spin_us)
                yield get_ev | spin_deadline
                if not get_ev.triggered:
                    mailbox.cancel_get(get_ev)
                    get_ev = None
                else:
                    stats.spins += 1
            if get_ev is None:
                # Spun dry: block in the blocking receive.
                get_ev = mailbox.get()
            if not get_ev.triggered:
                self.sleeping = True
                stats.sleeps += 1
                envelope = yield get_ev
                self.sleeping = False
                stats.wakes += 1
                if wake_us > 0.0:
                    yield wake_us
            else:
                envelope = yield get_ev
            busy_from = env.now
            dequeue_cost = shm_us if envelope.intra_node else o_recv_us
            if dequeue_cost > 0.0:
                yield dequeue_cost
            if proc_us > 0.0:
                yield proc_us
            stats.requests += 1
            req = envelope.payload
            kind = type(req)
            name = kind.__name__
            stats.by_type[name] = stats.by_type.get(name, 0) + 1
            key = (envelope.src_rank, envelope.seq) if dedup else None
            if key is not None and key in self._applied:
                stats.dup_requests += 1
                yield from self._replay_reply(key)
            else:
                if key is not None:
                    self._applied.add(key)
                    self._current_key = key
                # RMCSan: bracket the application of an identified remote
                # memory operation — "apply" joins the issuer's clock (program
                # order at issue time orders the server's writes),
                # "apply_done" snapshots the server clock for the
                # fence/barrier/completion edges.
                op_id = None if monitor is None else getattr(req, "san_id", None)
                if op_id is not None:
                    monitor.emit("apply", op_id=op_id)
                if kind is PutRequest:
                    # The put — the dominant request — is applied here, in
                    # the loop's own frame (no handler generator between the
                    # kernel and its yields).  The client only ships
                    # ``segments``; a contiguous addr/values request is the
                    # one-run case.
                    region = self._hosted_region(req.dst_rank)
                    segments = req.segments
                    if segments is None:
                        segments = ((req.addr, req.values),)
                    ncells = req.total_cells()
                    cost = self._copy_cost(ncells)
                    if cost > 0.0:
                        yield cost
                    for addr, values in segments:
                        region.write_many(addr, values)
                    self._bump_op_done(req.dst_rank)
                    if self._membership is not None:
                        self._membership.note_apply(req.src_rank, req.dst_rank)
                    stats.puts += 1
                    if req.ack is not None:
                        yield from self._reply(req.src_rank, req.ack, value=ncells)
                else:
                    handler = _HANDLERS.get(kind)
                    if handler is None:
                        raise TypeError(f"server {self.node}: unknown request {req!r}")
                    yield from getattr(self, handler)(req)
                if op_id is not None:
                    monitor.emit("apply_done", op_id=op_id)
            stats.busy_us += env.now - busy_from

    # -- request handlers -----------------------------------------------------

    def _copy_cost(self, ncells: int) -> float:
        return ncells * Region.CELL_BYTES * self.params.mem_copy_per_byte_us

    def _replay_reply(self, key: Tuple[int, int]):
        """Re-send the cached response for a duplicate of an applied request.

        Requests without a response (fire-and-forget put/acc/unlock) cache
        nothing; duplicates of those are simply ignored.  If the original
        response already reached the requester, the duplicate needs no
        answer either.
        """
        cached = self._reply_cache.get(key)
        if cached is None:
            return
        src_rank, event, value, payload_cells = cached
        if event is None or event.triggered:
            return
        self.stats.replayed_replies += 1
        self._current_key = key
        yield from self._reply(src_rank, event, value, payload_cells=payload_cells)

    def _reply(self, req_src_rank: int, reply_event, value=None, payload_cells: int = 0):
        """Charge send overhead and post a response to the requester."""
        if payload_cells < 0:
            raise ValueError(f"payload_cells must be >= 0, got {payload_cells}")
        p = self.params
        same_node = self.topology.node_of(req_src_rank) == self.node
        overhead = p.shm_access_us if same_node else p.o_send_us
        if overhead > 0.0:
            yield overhead
        if self._dedup and self._current_key is not None:
            self._reply_cache[self._current_key] = (
                req_src_rank,
                reply_event,
                value,
                payload_cells,
            )
        self.fabric.post_reply(
            self.node,
            req_src_rank,
            reply_event,
            value,
            payload_bytes=payload_cells * Region.CELL_BYTES,
        )

    def _handle_get(self, req: GetRequest):
        region = self._hosted_region(req.dst_rank)
        ncells = req.total_cells()
        cost = self._copy_cost(ncells)
        if cost > 0.0:
            yield cost
        if req.segments is not None:
            values: List[Any] = []
            for addr, count in req.segments:
                values.extend(region.read_many(addr, count))
        else:
            values = region.read_many(req.addr, req.count)
        self.stats.gets += 1
        yield from self._reply(
            req.src_rank, req.reply, value=values, payload_cells=ncells
        )

    def _handle_acc(self, req: AccRequest):
        region = self._hosted_region(req.dst_rank)
        # Accumulate reads and writes each cell: charge both directions.
        cost = 2 * self._copy_cost(len(req.values))
        if cost > 0.0:
            yield cost
        atomics.accumulate(region, req.addr, req.values, req.scale)
        self._bump_op_done(req.dst_rank)
        if self._membership is not None:
            self._membership.note_apply(req.src_rank, req.dst_rank)
        self.stats.accs += 1
        if req.ack is not None:
            yield from self._reply(req.src_rank, req.ack, value=len(req.values))

    def _handle_rmw(self, req: RmwRequest):
        region = self._hosted_region(req.dst_rank)
        self.stats.rmws += 1
        result = atomics.apply_rmw(region, req.addr, req.op, req.args)
        yield from self._reply(req.src_rank, req.reply, value=result, payload_cells=2)

    def _handle_fence(self, req: FenceRequest):
        # FIFO processing + in-order delivery mean every memory operation
        # this requester issued to this node before the fence has already
        # been completed; the server still pays to verify/flush its
        # per-client completion state before confirming (paper §3.1.1, GM
        # case).
        self.stats.fences += 1
        if self.params.server_fence_check_us > 0.0:
            yield self.params.server_fence_check_us
        yield from self._reply(req.src_rank, req.reply, value=True)

    # -- hybrid lock server side ------------------------------------------------

    def _handle_lock(self, req: LockRequest):
        """Take a ticket on behalf of a remote requester (paper Figure 3)."""
        region = self._hosted_region(req.home_rank)
        self.stats.locks += 1
        if self.params.server_lock_op_us > 0.0:
            yield self.params.server_lock_op_us
        ticket = atomics.fetch_and_add(region, req.base_addr, 1)
        counter = region.read(req.base_addr + 1)
        if ticket == counter:
            self.stats.grants += 1
            yield from self._reply(req.src_rank, req.reply, value=ticket)
        else:
            self.lock_waiters(req.home_rank, req.base_addr)[ticket] = req

    def _handle_unlock(self, req: UnlockRequest):
        """Increment the counter; grant the queued head if it now holds it."""
        region = self._hosted_region(req.home_rank)
        self.stats.unlocks += 1
        if self.params.server_lock_op_us > 0.0:
            yield self.params.server_lock_op_us
        counter_addr = req.base_addr + 1
        new_counter = region.read(counter_addr) + 1
        if self._membership is not None:
            # Skip ticket numbers revoked by crash recovery (dead waiters).
            new_counter = self._membership.skip_revoked(
                req.home_rank, req.base_addr, new_counter
            )
        yield from self.advance_lock_counter(req.home_rank, req.base_addr, new_counter)

    def advance_lock_counter(self, home_rank: int, base_addr: int, new_counter: int):
        """Pass the lock on: write ``counter``, grant the queued head if it
        now holds it.  The one grant path — a release and crash recovery's
        ghost-advance past dead tickets both end here."""
        # The write wakes local pollers through the region watcher.
        self.regions[home_rank].write(base_addr + 1, new_counter)
        pending = self.lock_waiters(home_rank, base_addr).pop(new_counter, None)
        if pending is not None:
            self.stats.grants += 1
            if self.env.active_process is not self._proc:
                # Out of band (lock recovery): no request of ours is being
                # dispatched, so there is no key to cache this reply under.
                self._current_key = None
            yield from self._reply(pending.src_rank, pending.reply, value=new_counter)

    # -- introspection -----------------------------------------------------------

    def lock_waiters(self, home_rank: int, base_addr: int) -> Dict[int, LockRequest]:
        """The live wait queue of one lock: ticket -> queued request."""
        return self._lock_waiters.setdefault((home_rank, base_addr), {})

    def queued_lock_waiters(self, home_rank: int, base_addr: int) -> List[int]:
        """Tickets currently queued for a lock (diagnostics/tests)."""
        return sorted(self.lock_waiters(home_rank, base_addr))
