"""Per-process ARMCI client API.

:class:`Armci` is the facade a simulated user process programs against.  It
follows ARMCI's rules:

* remote memory is addressed by ``(rank, address)`` tuples
  (:class:`~repro.runtime.memory.GlobalAddress`);
* **local fast path** — get/put/atomic operations on memory hosted on the
  caller's own SMP node are performed directly on the shared region (no
  server involvement, shared-memory costs only);
* remote operations are shipped to the target node's server thread; puts and
  accumulates are **non-blocking and one-sided** (they return once injected;
  completion is observed through fences), gets and read-modify-writes are
  blocking round trips;
* fences come in the two flavors of §3.1.1 — ``confirm`` (GM: a fence sends
  an explicit confirmation request) and ``ack`` (LAPI/VIA: every put is
  acknowledged and a fence just drains outstanding acks);
* :meth:`allfence` is the paper's *original* linear algorithm (contact every
  server in rank order — the convoy this produces is what the new operation
  removes); :meth:`barrier` is the paper's new combined fence+barrier.

All public operations are sub-generators (``yield from armci.put(...)``),
and each charges the configured per-call library overhead.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..mp.vector import OpCounts
from ..net.fabric import Fabric
from ..net.message import server_endpoint
from ..net.params import SMALL_MSG_BYTES, NetworkParams
from ..net.topology import Topology
from ..runtime import atomics
from ..runtime.memory import GlobalAddress, Region
from ..sim.core import Environment, Event
from ..sim.primitives import Broadcast
from . import barrier as barrier_mod
from . import fence as fence_mod
from .requests import AccRequest, GetRequest, PutRequest, RmwRequest

__all__ = ["Armci", "FENCE_MODES"]

#: Supported fence subsystems: ``confirm`` models GM (no put acks; fences
#: request explicit confirmation), ``ack`` models LAPI/VIA (every put is
#: acknowledged for flow control; fences wait for acks).
FENCE_MODES = ("confirm", "ack")


class Armci:
    """ARMCI client endpoint for one user process."""

    def __init__(
        self,
        env: Environment,
        rank: int,
        topology: Topology,
        fabric: Fabric,
        params: NetworkParams,
        regions: Dict[int, Region],
        servers: Dict[int, Any],
        comm: Optional[Any] = None,
        fence_mode: str = "confirm",
    ):
        if fence_mode not in FENCE_MODES:
            raise ValueError(
                f"fence_mode must be one of {FENCE_MODES}, got {fence_mode!r}"
            )
        self.env = env
        self.rank = rank
        self.topology = topology
        self.fabric = fabric
        self.params = params
        self.regions = regions
        self.servers = servers
        #: The message-passing communicator (needed by :meth:`barrier`).
        self.comm = comm
        self.fence_mode = fence_mode
        self.node = topology.node_of(rank)
        self.server = servers[self.node]
        nprocs = topology.nprocs
        #: Cumulative count of server-shipped memory ops per target rank —
        #: the paper's ``op_init[]`` array (reads as a list of ``nprocs``
        #: ints, stores only the ranks this process wrote to).
        self.op_init = OpCounts(nprocs)
        #: Nodes with ops issued since the last fence covering them.
        self._dirty_nodes: set = set()
        #: Ack-mode: outstanding unacknowledged ops per node.
        self._outstanding: Dict[int, int] = {}
        self._ack_signal = Broadcast(env, name=f"armci[{rank}].acks")
        #: Cumulative notify counts sent per peer (see armci.collective).
        self._notify_sent: Dict[int, int] = {}
        #: RMCSan monitor (installed on env before the runtime was wired);
        #: None keeps every operation on the uninstrumented fast path.
        self._monitor = getattr(env, "_sync_monitor", None)
        #: Client-side barrier epoch counter for RMCSan (SPMD programs call
        #: barriers collectively, so equal counts identify the same epoch).
        self._san_barrier_epoch = 0
        #: Crash-stop membership service (None unless the fault plan has
        #: ProcessCrash events); None keeps barriers/fences construct-free.
        self.membership = getattr(fabric, "_membership", None)
        #: Three-stage barrier sequence (every host algorithm but linear,
        #: and the survivor-view exchange): one bump per barrier keeps
        #: successive barriers' tags distinct across every rank regardless
        #: of its role in the algorithm (SPMD call order makes equal counts
        #: identify the same instance across ranks).
        self._barrier_seq = 0
        #: Extra barrier_exit event data from the last resilient barrier.
        self._chaos_barrier_info: Optional[Dict[str, int]] = None
        #: NIC-offloaded barrier epoch counter (same SPMD-order contract).
        self._nic_barrier_seq = 0
        #: Operation counters (diagnostics / tests).
        self.stats: Dict[str, int] = {
            "puts_local": 0,
            "puts_remote": 0,
            "gets_local": 0,
            "gets_remote": 0,
            "accs_local": 0,
            "accs_remote": 0,
            "rmws_local": 0,
            "rmws_remote": 0,
            "fences": 0,
            "allfences": 0,
            "barriers": 0,
        }

    def __repr__(self) -> str:
        return f"<Armci rank={self.rank} node={self.node} mode={self.fence_mode}>"

    # -- helpers ---------------------------------------------------------------

    @property
    def region(self) -> Region:
        """The caller's own memory region."""
        return self.regions[self.rank]

    def is_local(self, ga: GlobalAddress) -> bool:
        """True if ``ga`` is on the caller's node (direct-access eligible)."""
        return self.topology.node_of(ga.rank) == self.node

    def _api(self):
        if self.params.api_call_us > 0.0:
            yield self.params.api_call_us

    def _shm(self, cost: float):
        if cost > 0.0:
            yield cost

    def _san_issue(self, op: str, req, dst_rank: int, node: int) -> None:
        """RMCSan: tag a shipped request and record its issue point."""
        mon = self._monitor
        if mon is None:
            return
        req.san_id = mon.next_op_id()
        mon.emit("issue", op=op, op_id=req.san_id, dst_rank=dst_rank, node=node)

    def _san_complete(self, req) -> None:
        """RMCSan: record the blocking completion (reply received)."""
        mon = self._monitor
        if mon is not None and req.san_id is not None:
            mon.emit("complete", op_id=req.san_id)

    def _account_remote_op(self, dst_rank: int, node: int) -> Optional[Event]:
        """op_init / dirty / ack bookkeeping for a shipped write op."""
        self.op_init[dst_rank] += 1
        self._dirty_nodes.add(node)
        if self.fence_mode != "ack":
            return None
        ack = self.env.event()
        self._outstanding[node] = self._outstanding.get(node, 0) + 1

        def _on_ack(_ev: Event) -> None:
            self._outstanding[node] -= 1
            if self._outstanding[node] == 0:
                self._ack_signal.fire(node)

        ack.callbacks.append(_on_ack)
        return ack

    # -- data movement -----------------------------------------------------------

    def put(self, dst: GlobalAddress, values: Sequence[Any]):
        """Non-blocking put of ``values`` starting at ``dst``.

        A contiguous put is the one-run case of :meth:`put_segments`, except
        that ``values`` is copied (the caller may reuse its buffer at once).
        Returns once the operation is injected (locally complete); use
        :meth:`fence`/:meth:`allfence`/:meth:`barrier` for remote completion.
        """
        return self._put(dst.rank, [(dst.addr, list(values))])

    def put_segments(
        self, dst_rank: int, segments: List[Tuple[int, Sequence[Any]]]
    ):
        """Vector (non-contiguous) put: several ``(addr, values)`` runs in one op.

        This is ARMCI's strided-transfer strength — one message, one server
        visit, regardless of the number of runs.

        Ownership of the per-segment value lists transfers to the call (the
        request ships them as-is; callers build fresh lists, so a defensive
        copy here would only burn the hot path).
        """
        return self._put(dst_rank, segments)

    def _put(self, dst_rank: int, segments, handle=None):
        """The one put: contiguous, vector and handle-based puts are all this.

        ``handle`` (:meth:`nb_put`) is an ``NbHandle`` to bind to the shipped
        request's completion; a put that completes locally leaves it done.
        """
        # One pass: normalize non-list values, drop empty runs, and total
        # the cells (vector puts dominate the GA workloads).
        norm = []
        total = 0
        for addr, vals in segments:
            if type(vals) is not list:
                vals = list(vals)
            if vals:
                norm.append((addr, vals))
                total += len(vals)
        segments = norm
        if not segments:
            return
        # The paths below are the _api/_shm/fabric.send helpers
        # inlined: every delegated sub-generator is one more frame each
        # resume must traverse.
        env = self.env
        p = self.params
        if p.api_call_us > 0.0:
            yield p.api_call_us
        node = self.topology.node_of(dst_rank)
        if node == self.node:
            region = self.regions[dst_rank]
            cost = p.shm_access_us + total * Region.CELL_BYTES * p.mem_copy_per_byte_us
            if cost > 0.0:
                yield cost
            for addr, vals in segments:
                region.write_many(addr, vals)
            self.stats["puts_local"] += 1
            return
        # In ack mode the fence-accounting ack doubles as a handle's event
        # (its bookkeeping callback was registered first, so by the time a
        # waiter resumes, the outstanding-ack counter is already settled); in
        # confirm mode a handle gets a dedicated per-operation ack.
        ack = self._account_remote_op(dst_rank, node)
        if handle is not None and ack is None:
            ack = env.event()
        req = PutRequest(
            src_rank=self.rank, dst_rank=dst_rank, segments=segments, ack=ack
        )
        self._san_issue("put", req, dst_rank, node)
        self.stats["puts_remote"] += 1
        if p.o_send_us > 0.0:
            yield p.o_send_us
        self.fabric.post(
            self.rank,
            server_endpoint(node),
            req,
            payload_bytes=total * Region.CELL_BYTES,
            src_node=self.node,
        )
        if handle is not None:
            handle.bind(req, ack)

    def get(self, src: GlobalAddress, count: int = 1):
        """Blocking get of ``count`` cells; returns the list of values.

        A contiguous get is the one-run case of :meth:`get_segments`.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        return self._get(src.rank, [(src.addr, count)])

    def get_segments(self, src_rank: int, segments: List[Tuple[int, int]]):
        """Vector (non-contiguous) get: several ``(addr, count)`` runs in one op.

        Returns the concatenated values in segment order.
        """
        return self._get(src_rank, segments)

    def _get(self, src_rank: int, segments, handle=None):
        """The one get: returns the fetched values.

        With ``handle`` (:meth:`nb_get`) a remote get stops short of the
        blocking wait: it binds the ``NbHandle`` to the shipped request's
        reply and returns None.
        """
        segments = [(addr, count) for addr, count in segments if count > 0]
        if not segments:
            return []
        yield from self._api()
        p = self.params
        total = sum(count for _a, count in segments)
        node = self.topology.node_of(src_rank)
        if node == self.node:
            region = self.regions[src_rank]
            cost = p.shm_access_us + total * Region.CELL_BYTES * p.mem_copy_per_byte_us
            yield from self._shm(cost)
            self.stats["gets_local"] += 1
            values: List[Any] = []
            for addr, count in segments:
                values.extend(region.read_many(addr, count))
            return values
        reply = self.env.event()
        req = GetRequest(
            src_rank=self.rank, dst_rank=src_rank, segments=segments, reply=reply
        )
        self._san_issue("get", req, src_rank, node)
        self.stats["gets_remote"] += 1
        yield from self.fabric.send(self.rank, server_endpoint(node), req)
        if handle is not None:
            handle.bind(req, reply)
            return None
        values = yield reply
        self._san_complete(req)
        return values

    def acc(self, dst: GlobalAddress, values: Sequence[Any], scale: Any = 1):
        """Non-blocking atomic accumulate: ``mem[dst+i] += scale * values[i]``."""
        values = list(values)
        if not values:
            return
        yield from self._api()
        p = self.params
        if self.is_local(dst):
            region = self.regions[dst.rank]
            cost = (
                p.shm_atomic_us
                + 2 * len(values) * Region.CELL_BYTES * p.mem_copy_per_byte_us
            )
            yield from self._shm(cost)
            atomics.accumulate(region, dst.addr, values, scale)
            self.stats["accs_local"] += 1
            return
        node = self.topology.node_of(dst.rank)
        ack = self._account_remote_op(dst.rank, node)
        req = AccRequest(
            src_rank=self.rank,
            dst_rank=dst.rank,
            addr=dst.addr,
            values=values,
            scale=scale,
            ack=ack,
        )
        self._san_issue("acc", req, dst.rank, node)
        self.stats["accs_remote"] += 1
        yield from self.fabric.send(
            self.rank,
            server_endpoint(node),
            req,
            payload_bytes=len(values) * Region.CELL_BYTES,
        )

    # -- atomics -------------------------------------------------------------------

    def rmw(self, op: str, dst: GlobalAddress, *args: Any):
        """Blocking atomic read-modify-write at ``dst``; returns the result.

        ``op`` is one of :data:`repro.armci.requests.RMW_OPS`; the pair
        operations and ``cas`` are the ones the paper added for the MCS
        lock's global pointers.
        """
        yield from self._api()
        p = self.params
        if self.is_local(dst):
            region = self.regions[dst.rank]
            yield from self._shm(p.shm_atomic_us)
            self.stats["rmws_local"] += 1
            return atomics.apply_rmw(region, dst.addr, op, args, self.rank)
        node = self.topology.node_of(dst.rank)
        reply = self.env.event()
        req = RmwRequest(
            src_rank=self.rank, dst_rank=dst.rank, addr=dst.addr, op=op, args=args, reply=reply
        )
        self._san_issue("rmw", req, dst.rank, node)
        self.stats["rmws_remote"] += 1
        yield from self.fabric.send(self.rank, server_endpoint(node), req)
        result = yield reply
        self._san_complete(req)
        return result

    # -- raw same-node access (lock fast paths) -------------------------------------

    def store(self, ga: GlobalAddress, value: Any):
        """Direct same-node write of one cell (asserts locality)."""
        if not self.is_local(ga):
            raise ValueError(f"store to non-local address {ga}")
        yield from self._shm(self.params.shm_access_us)
        self.regions[ga.rank].write(ga.addr, value)

    def load_pair(self, ga: GlobalAddress):
        """Read a (long, long) pair — direct if same-node, atomic rmw if remote."""
        if self.is_local(ga):
            yield from self._shm(self.params.shm_access_us)
            region = self.regions[ga.rank]
            return (region.read(ga.addr), region.read(ga.addr + 1))
        result = yield from self.rmw("read_pair", ga)
        return tuple(result)

    def store_pair(self, ga: GlobalAddress, pair):
        """Write a (long, long) pair — direct if same-node, one put if remote."""
        first, second = pair
        if self.is_local(ga):
            yield from self._shm(self.params.shm_access_us)
            region = self.regions[ga.rank]
            region.write(ga.addr, first)
            region.write(ga.addr + 1, second)
            return
        yield from self.put(ga, [first, second])

    # -- synchronization -------------------------------------------------------------

    def fence(self, rank: int):
        """ARMCI_Fence: wait until all prior puts to ``rank``'s server completed."""
        yield from self._api()
        self.stats["fences"] += 1
        yield from fence_mod.fence_node(self, self.topology.node_of(rank))

    def allfence(self):
        """ARMCI_AllFence: the paper's original linear global fence."""
        yield from self._api()
        self.stats["allfences"] += 1
        yield from fence_mod.allfence_linear(self)

    def barrier(self, algorithm: str = "exchange"):
        """ARMCI_Barrier: the paper's combined global fence + barrier.

        ``algorithm`` selects between the new 3-stage binary-exchange
        operation (``"exchange"``), the original ``allfence`` + MPI barrier
        (``"linear"``), or the programmer-selectable ``"auto"`` the paper
        suggests (§3.1.2's crossover note): the argmin of the priced
        message patterns of every host algorithm the configuration offers, the
        linear one priced with this rank's dirty-server count (see
        :func:`repro.armci.barrier.estimate_us`).
        """
        yield from self._api()
        self.stats["barriers"] += 1
        yield from barrier_mod.armci_barrier(self, algorithm=algorithm)

    # -- extended API (explicit non-blocking, strided, collective, notify) -----------

    def nb_put(self, dst: GlobalAddress, values):
        """Explicit non-blocking put; returns an ``NbHandle`` (ARMCI_NbPut)."""
        from . import nonblocking

        return nonblocking.nb_put(self, dst, values)

    def nb_get(self, src: GlobalAddress, count: int = 1):
        """Explicit non-blocking get; returns an ``NbHandle`` (ARMCI_NbGet)."""
        from . import nonblocking

        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        return nonblocking.nb_get(self, src, count)

    def put_strided(self, dst_rank, base_addr, strides, counts, values):
        """Strided put (ARMCI_PutS): one message for the whole patch."""
        from . import strided

        yield from strided.put_strided(
            self, dst_rank, base_addr, strides, counts, values
        )

    def get_strided(self, src_rank, base_addr, strides, counts):
        """Strided get (ARMCI_GetS); returns cells in run order."""
        from . import strided

        values = yield from strided.get_strided(
            self, src_rank, base_addr, strides, counts
        )
        return values

    def malloc(self, count: int, key: str):
        """Collective allocation (ARMCI_Malloc); returns the address table."""
        from . import collective

        table = yield from collective.armci_malloc(self, count, key)
        return table

    def notify(self, peer: int):
        """Pairwise notify: bump this rank's counter at ``peer``."""
        from . import collective

        yield from collective.notify(self, peer)

    def notify_wait(self, peer: int, count: int = 1):
        """Block until ``peer`` has notified ``count`` times (cumulative)."""
        from . import collective

        yield from collective.notify_wait(self, peer, count)

    # -- internals shared with fence/barrier modules ----------------------------------

    @property
    def dirty_nodes(self) -> set:
        return self._dirty_nodes

    def wait_acks_drained(self, node: int):
        """Ack-mode: block until no unacknowledged ops remain for ``node``."""
        while self._outstanding.get(node, 0) > 0:
            yield self._ack_signal.wait()
