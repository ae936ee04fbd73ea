"""Per-node programmable NIC co-processor running the offloaded barrier.

One :class:`NicEngine` models the LANai-style embedded processor on a
node's NIC.  The host side of ``armci.barrier(algorithm="nic")`` posts a
single *doorbell* carrying its cumulative ``op_init`` row and then blocks
on a completion event — it never spins on remote progress.  The NICs run
the three stages of the combined fence+barrier among themselves:

1. each NIC folds the doorbell rows of its hosted ranks and runs an
   elementwise-sum over nodes (pairwise recursive doubling, or a binary
   combining tree with ``nic_algorithm="tree"`` — the host algorithms'
   own patterns from :mod:`repro.mp.collectives`, run over NIC frames);
2. stage 2 is satisfied against a NIC-resident *mirror* of the server's
   ``op_done`` counters, pushed down over DMA by the server thread on
   every completion (see :meth:`mirror_push`);
3. a node-level barrier (dissemination or tree), after which each hosted
   rank's completion event is written back over DMA.

Every protocol step charges ``nic_proc_us``; host<->NIC crossings charge
``nic_doorbell_us`` / ``nic_dma_us`` (+ per-byte).  NIC-to-NIC frames ride
the ordinary fabric — including the fault injector and the reliable
ACK/retransmit layer when those are configured — addressed to the
``("nic", node)`` endpoint, so NIC-level retransmit state comes from the
same transport machinery the host protocols use.

Engines are built lazily by :func:`ensure_engines`; configurations that
never request the NIC path construct nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..mp.collectives import dissemination_pattern, sum_pattern, tree_pattern
from ..mp.vector import CountVector
from ..net.message import nic_endpoint
from ..sim.core import Event
from ..sim.primitives import Broadcast, FilterStore

if TYPE_CHECKING:  # pragma: no cover
    from ..armci.api import Armci

__all__ = ["NicEngine", "NicFrame", "ensure_engines", "STAGE_PATTERNS"]

#: Bytes per counter slot in a doorbell/frame vector (one long each).
SLOT_BYTES = 8


@dataclass
class NicFrame:
    """One NIC-to-NIC protocol frame of the offloaded barrier."""

    epoch: int
    phase: str
    src_node: int
    #: The vector, or None for a control frame (named as on
    #: :class:`~repro.mp.comm.MPMessage`: the shared patterns read it).
    payload: Optional[CountVector] = None


# -- DMA completions -----------------------------------------------------------
#
# The engine's three DMA transfers are Call rows (``env.call``), not events:
# nothing waits on them.  Their handlers are module functions and their
# callbacks tuples exist once, not once per engine (one engine per node).


def _doorbell_landed(dma) -> None:
    """A doorbell row reached NIC ``dma.a``: ``dma.b`` is ``(epoch, rank,
    row)``."""
    engine = dma.a
    if engine.dead:
        return
    epoch, rank, row = dma.b
    state = engine._epochs.get(epoch)
    if state is None:
        return
    state.rows[rank] = row
    if len(state.rows) == len(engine.hosted) and not state.all_rows.triggered:
        state.all_rows.succeed()


def _mirror_landed(dma) -> None:
    """A fresh ``op_done`` value reached NIC ``dma.a``: ``dma.b`` is
    ``(rank, value)``."""
    engine = dma.a
    if engine.dead:
        return
    rank, value = dma.b
    if value > engine.mirror.get(rank, 0):
        engine.mirror[rank] = value
        engine._mirror_signal.fire((rank, value))


def _release_landed(dma) -> None:
    """The completion write-back reached the host: ``dma.a`` is the rank's
    release event, ``dma.b`` its value."""
    if not dma.a.triggered:
        dma.a.succeed(dma.b)


_DOORBELL_DMA = (_doorbell_landed,)
_MIRROR_DMA = (_mirror_landed,)
_RELEASE_DMA = (_release_landed,)


#: ``nic_algorithm`` -> the NICs' ``(stage 1, stage 3)`` patterns, each called
#: as ``(node, nodes, send, recv, vector or None)``.
STAGE_PATTERNS = {
    "exchange": (sum_pattern, dissemination_pattern),
    "tree": (functools.partial(tree_pattern, radix=2),) * 2,
}


class _EpochState:
    """Per-barrier-epoch NIC state: doorbell rows and release events.

    It lives while the epoch owes a host something: the rows go once the
    local combine has folded them, the state itself with its last release
    (``NicEngine.committed`` is what remembers a finished epoch).
    """

    __slots__ = ("rows", "release", "all_rows", "proc", "totals")

    def __init__(self, env):
        self.rows: Dict[int, CountVector] = {}
        self.release: Dict[int, Event] = {}
        self.all_rows = env.event()
        self.proc = None
        #: Stage-1 result, published so crash recovery can complete a
        #: committed epoch on behalf of an engine wedged in stage 3.
        self.totals: Optional[CountVector] = None


def ensure_engines(armci: "Armci") -> Dict[int, "NicEngine"]:
    """Build (once) and return the per-node NIC engines for this fabric.

    Construction is synchronous — no virtual time passes — so the op_done
    mirror seeds and the server hooks cannot race with in-flight bumps.
    """
    fabric = armci.fabric
    engines = fabric.nic_engines
    if engines is None:
        engines = {}
        for node in range(armci.topology.nnodes):
            engine = NicEngine(
                armci.env,
                fabric,
                armci.topology,
                armci.params,
                node,
                armci.servers[node],
                monitor=armci._monitor,
            )
            # A node that crashed before the first NIC barrier has a dead
            # NIC from the start: the co-processor never runs an epoch.
            if fabric.endpoint_dead(nic_endpoint(node)):
                engine.dead = True
            engines[node] = engine
        fabric.attach_nic_engines(engines)
    return engines


class NicEngine:
    """The programmable NIC co-processor of one node."""

    def __init__(self, env, fabric, topology, params, node, server, monitor=None):
        self.env = env
        self.fabric = fabric
        self.topology = topology
        self.params = params
        self.node = node
        self.server = server
        self.nprocs = topology.nprocs
        self.hosted = tuple(topology.ranks_on(node))
        self._monitor = monitor
        self.dead = False
        self.mailbox = FilterStore(env, name=f"nic{node}.rx")
        fabric.register(nic_endpoint(node), self.mailbox)
        # NIC-resident mirror of the server's op_done counters, seeded from
        # the live values and pushed forward by the server on every bump.
        self.mirror: Dict[int, int] = {
            rank: server.op_done(rank) for rank in self.hosted
        }
        self._mirror_signal = Broadcast(env, name=f"nic{node}.mirror")
        server._nic_engine = self
        self._epochs: Dict[int, _EpochState] = {}
        #: Epochs this engine finished (stage 3 done, releases issued).
        #: Commit evidence for view-change resolution: once *any* engine
        #: committed an epoch, every engine had drained stage 2, so peers
        #: wedged in stage 3 by a crashed NIC can be released too.
        self.committed: set = set()

    def __repr__(self) -> str:
        return f"<NicEngine node={self.node} hosted={self.hosted}>"

    # -- host side -----------------------------------------------------------

    def post_doorbell(self, epoch: int, rank: int, row: CountVector) -> Event:
        """Ring the doorbell for ``rank``'s barrier ``epoch``.

        Called from the host process after it charged ``nic_doorbell_us``.
        The ``op_init`` row crosses the PCI bus by DMA (``nic_dma_us`` +
        per-byte); the returned event fires when the NIC writes back the
        barrier completion.  The host never polls remote state.
        """
        p = self.params
        membership = getattr(self.fabric, "_membership", None)
        if (
            membership is not None
            and membership.transient
            and not membership.in_view(rank)
        ):
            # Fencing at the doorbell: a partition-excluded rank must not
            # seed a barrier epoch the majority view is running without
            # it.  The host sees ``None`` and degrades to the resilient
            # exchange, whose freeze gate queues it until rejoin.
            if self._monitor is not None:
                self._monitor.emit(
                    "nic_doorbell_rejected", epoch=epoch, rank=rank,
                    node=self.node,
                )
            return None
        if self._monitor is not None:
            self._monitor.emit(
                "nic_doorbell", epoch=epoch, rank=rank, node=self.node,
                n=self.nprocs,
            )
        state = self._epoch_state(epoch)
        release = self.env.event()
        state.release[rank] = release
        release.callbacks.append(lambda _ev: self._released(epoch, state))
        delay = p.nic_dma_us + SLOT_BYTES * len(row) * p.nic_dma_per_byte_us
        self.env.call(delay, _DOORBELL_DMA, self, (epoch, rank, row))
        if state.proc is None:
            state.proc = self.env.process(
                self._run_epoch(epoch, state), name=f"nic{self.node}.e{epoch}"
            )
            if self._monitor is not None:
                self._monitor.register_process(state.proc, f"n{self.node}")
        return release

    def mirror_push(self, rank: int, value: int) -> None:
        """Server-side hook: DMA a fresh ``op_done`` value down to the NIC."""
        if self.dead:
            return
        p = self.params
        delay = p.nic_dma_us + SLOT_BYTES * p.nic_dma_per_byte_us
        self.env.call(delay, _MIRROR_DMA, self, (rank, value))

    def shutdown(self) -> None:
        """Node/NIC crash: stop the co-processor, abandon in-flight epochs.

        The *state* of every epoch that still owes a release (its release
        events, its stage-1 totals) is kept so that :meth:`force_release`
        can complete a globally-committed epoch for hosted ranks that
        survive a NIC-only crash.
        """
        self.dead = True
        for state in self._epochs.values():
            if state.proc.is_alive:
                state.proc.kill()

    def force_release(self, epoch: int) -> None:
        """Complete ``epoch`` on behalf of the (wedged or dead) engine.

        Called by membership recovery when a view change interrupted the
        epoch but some engine already committed it: commitment implies the
        inter-NIC barrier was *entered* by every engine, i.e. every rank's
        remote operations had drained, so releasing the hosts is safe.
        """
        state = self._epochs.get(epoch)
        if state is None or state.totals is None:
            return
        self.committed.add(epoch)
        for rank, release in state.release.items():
            if not release.triggered:
                self._emit(
                    "nic_release", epoch=epoch, node=self.node, rank=rank,
                    n=self.nprocs, forced=True,
                )
                release.succeed(state.totals[rank])

    # -- NIC-internal --------------------------------------------------------

    def _epoch_state(self, epoch: int) -> _EpochState:
        state = self._epochs.get(epoch)
        if state is None:
            state = self._epochs[epoch] = _EpochState(self.env)
        return state

    def _released(self, epoch: int, state: _EpochState) -> None:
        """A release fired (by DMA completion or by force): drop the
        epoch's state with the last one."""
        if all(release.processed for release in state.release.values()):
            del self._epochs[epoch]

    def _emit(self, kind: str, **data) -> None:
        if self._monitor is not None:
            self._monitor.emit(kind, **data)

    def _run_epoch(self, epoch: int, state: _EpochState):
        """Coordinator for one barrier epoch on this node's NIC."""
        p = self.params
        yield state.all_rows

        # Local combine: fold each hosted rank's doorbell row.
        partial = CountVector.zeros(self.nprocs)
        for rank in sorted(state.rows):
            if p.nic_proc_us > 0.0:
                yield p.nic_proc_us
            partial = partial + state.rows[rank]
            self._emit(
                "nic_combine", epoch=epoch, node=self.node,
                src="doorbell", rank=rank,
            )
        state.rows.clear()

        # Stage 1: elementwise sum over nodes.
        nodes = range(self.topology.nnodes)
        stage1, stage3 = STAGE_PATTERNS[p.nic_algorithm]
        send, recv = self._port(epoch, "s1")
        totals = yield from stage1(self.node, nodes, send, recv, partial)
        state.totals = totals

        # Stage 2: wait on the op_done mirror for every hosted rank.
        for rank in self.hosted:
            target = totals[rank]
            while self.mirror[rank] < target:
                yield self._mirror_signal.wait()
            if p.nic_proc_us > 0.0:
                yield p.nic_proc_us
            self._emit(
                "nic_combine", epoch=epoch, node=self.node,
                src="mirror", rank=rank, value=self.mirror[rank],
            )

        # Stage 3: node-level barrier among the NICs.
        send, recv = self._port(epoch, "s3")
        yield from stage3(self.node, nodes, send, recv, None)

        # Release: DMA the completion back to each hosted rank.  Committing
        # first means a view change landing inside the DMA window still
        # resolves this epoch as completed everywhere (see force_release).
        self.committed.add(epoch)
        self._emit("nic_commit", epoch=epoch, node=self.node, n=self.nprocs)
        for rank in self.hosted:
            if p.nic_proc_us > 0.0:
                yield p.nic_proc_us
            self._emit(
                "nic_release", epoch=epoch, node=self.node, rank=rank,
                n=self.nprocs,
            )
            self._schedule_release(
                state.release[rank], totals[rank],
                p.nic_dma_us + p.poll_detect_us,
            )

    def _schedule_release(self, release: Event, value: int, delay: float) -> None:
        self.env.call(delay, _RELEASE_DMA, release, value)

    # -- NIC-to-NIC transport ------------------------------------------------

    def _send_frame(self, epoch: int, phase: str, dst_node: int, values=None):
        """Build a descriptor (``nic_proc_us``) and inject one frame."""
        if self.params.nic_proc_us > 0.0:
            yield self.params.nic_proc_us
        self._emit(
            "nic_combine", epoch=epoch, node=self.node,
            src="send", phase=phase, peer=dst_node,
        )
        payload = NicFrame(epoch, phase, self.node, values)
        nbytes = SLOT_BYTES * (len(values) if values is not None else 1)
        # src identity ("nic", node) keeps reliable-delivery channels (and
        # their retransmit state) distinct per sending NIC, and is invisible
        # to rank-liveness bookkeeping.
        self.fabric.post(
            ("nic", self.node), nic_endpoint(dst_node), payload,
            payload_bytes=nbytes, src_node=self.node,
        )

    def _recv_frame(self, epoch: int, phase: str, src_node: int):
        """Match one frame (MPI-style on epoch/phase/source) and dequeue it."""

        def match(envelope):
            f = envelope.payload
            return (
                isinstance(f, NicFrame)
                and f.epoch == epoch
                and f.phase == phase
                and f.src_node == src_node
            )

        envelope = yield self.mailbox.get(match)
        if self.params.nic_proc_us > 0.0:
            yield self.params.nic_proc_us
        self._emit(
            "nic_combine", epoch=epoch, node=self.node,
            src="recv", phase=phase, peer=src_node,
        )
        return envelope.payload

    def _port(self, epoch: int, stage: str):
        """The NIC port of the shared patterns: round ``r`` of ``stage``
        travels as frame phase ``"<stage>-<r>"`` (an opaque match key)."""

        def send(dst_node, vector, round_no):
            return self._send_frame(epoch, f"{stage}-{round_no}", dst_node, vector)

        def recv(src_node, round_no):
            return self._recv_frame(epoch, f"{stage}-{round_no}", src_node)

        return send, recv
