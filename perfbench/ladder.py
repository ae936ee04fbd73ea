"""The layer ladder: eight synthetic closed loops, each adding one layer.

Every rung runs a fixed number of iterations of a two-party loop through the
public functions of one more layer than the rung below, so the difference
between adjacent rungs' ``host_us_per_iter`` is what that layer costs the
host per iteration.  From ``r3_reliable`` up the reliable transport stays on
(a :class:`FaultPlan` with no fault rates), so the rungs stay cumulative.

The ladder belongs to no workload and carries no end-to-end metric; no
performance claim may name it.  It exists to say *where* a change to one
layer should show before the workloads are measured.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

#: Timed repeats per rung; the median is reported.
REPEATS = 3

#: Simulated gap between unfenced puts on ``r4_server``: longer than one
#: delivery plus dispatch, so one request is in flight at a time.
_PUT_GAP_US = 60.0


def _r0_kernel(iters: int):
    from repro.sim.core import Environment

    env = Environment()

    def player():
        for _ in range(iters):
            yield env.timeout(1.0)

    env.process(player())
    env.process(player())
    return env, env.run


def _r1_store(iters: int):
    from repro.sim.core import Environment
    from repro.sim.primitives import Store

    env = Environment()
    to_ping, to_pong = Store(env, "ping"), Store(env, "pong")

    def ping():
        for i in range(iters):
            yield env.timeout(1.0)
            to_pong.put(i)
            yield to_ping.get()

    def pong():
        for _ in range(iters):
            item = yield to_pong.get()
            yield env.timeout(1.0)
            to_ping.put(item)

    env.process(ping())
    env.process(pong())
    return env, env.run


def _fabric_pingpong(iters: int, params):
    from repro.net.fabric import Fabric
    from repro.net.message import mp_endpoint
    from repro.net.topology import Topology
    from repro.sim.core import Environment
    from repro.sim.primitives import Store

    env = Environment()
    fabric = Fabric(env, Topology(2), params)
    boxes = [Store(env, "ping"), Store(env, "pong")]
    for rank, box in enumerate(boxes):
        fabric.register(mp_endpoint(rank), box)

    def ping():
        for i in range(iters):
            fabric.post(0, mp_endpoint(1), i)
            yield boxes[0].get()

    def pong():
        for _ in range(iters):
            envelope = yield boxes[1].get()
            fabric.post(1, mp_endpoint(0), envelope.payload)

    env.process(ping())
    env.process(pong())
    return env, env.run


def _reliable_params():
    from repro.net.faults import FaultPlan
    from repro.net.params import myrinet2000

    return myrinet2000().with_(faults=FaultPlan())


def _r2_fabric(iters: int):
    from repro.net.params import myrinet2000

    return _fabric_pingpong(iters, myrinet2000())


def _r3_reliable(iters: int):
    return _fabric_pingpong(iters, _reliable_params())


def _spmd(program: Callable, iters: int, monitor=None):
    from repro.runtime.cluster import ClusterRuntime

    runtime = ClusterRuntime(2, params=_reliable_params(), monitor=monitor)
    return runtime.env, lambda: runtime.run_spmd(program, iters)


def _server_puts(ctx, iters: int):
    from repro.armci.requests import PutRequest
    from repro.net.message import server_endpoint

    peer = 1 - ctx.rank
    addr = ctx.regions[peer].alloc_named("ladder", 1, initial=0)
    endpoint = server_endpoint(ctx.topology.node_of(peer))
    for i in range(iters):
        ctx.fabric.post(ctx.rank, endpoint, PutRequest(ctx.rank, peer, addr, [i]))
        yield ctx.env.timeout(_PUT_GAP_US)


def _armci_put_fence(ctx, iters: int):
    peer = 1 - ctx.rank
    target = ctx.ga(peer, ctx.regions[peer].alloc_named("ladder", 1, initial=0))
    for i in range(iters):
        yield from ctx.armci.put(target, [i])
        yield from ctx.armci.fence(peer)


def _put_fence_sync(ctx, iters: int):
    from repro.ga.sync import ga_sync

    peer = 1 - ctx.rank
    target = ctx.ga(peer, ctx.regions[peer].alloc_named("ladder", 1, initial=0))
    for i in range(iters):
        yield from ctx.armci.put(target, [i])
        yield from ctx.armci.fence(peer)
        yield from ga_sync(ctx, "new")


def _r4_server(iters: int):
    return _spmd(_server_puts, iters)


def _r5_armci(iters: int):
    return _spmd(_armci_put_fence, iters)


def _r6_ga_sync(iters: int):
    return _spmd(_put_fence_sync, iters)


def _r7_monitored(iters: int):
    from repro.analysis.monitor import SyncMonitor

    return _spmd(_put_fence_sync, iters, monitor=SyncMonitor())


#: (rung, iterations, builder): fewer iterations where one does more.  A
#: builder returns the rung's environment and the function that runs it.
RUNGS: Tuple[Tuple[str, int, Callable], ...] = (
    ("r0_kernel", 3000, _r0_kernel),
    ("r1_store", 3000, _r1_store),
    ("r2_fabric", 3000, _r2_fabric),
    ("r3_reliable", 1500, _r3_reliable),
    ("r4_server", 800, _r4_server),
    ("r5_armci", 500, _r5_armci),
    ("r6_ga_sync", 300, _r6_ga_sync),
    ("r7_monitored", 300, _r7_monitored),
)


def run_ladder(scale: float = 1.0) -> Dict[str, float]:
    """Run every rung; returns ``ladder.R.host_us_per_iter`` (median of
    :data:`REPEATS`) and ``ladder.R.events_per_iter`` per rung.

    ``scale`` shrinks the iteration counts (the tests use a small one).
    Raises if a rung's event count differs between repeats.
    """
    out: Dict[str, float] = {}
    for name, full_iters, build in RUNGS:
        iters = max(int(full_iters * scale), 10)
        times, events = [], set()
        for _ in range(REPEATS):
            env, run = build(iters)
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
            events.add(env.events_processed)
        if len(events) != 1:
            raise AssertionError(f"ladder rung {name}: event count varies {events}")
        out[f"ladder.{name}.host_us_per_iter"] = statistics.median(times) / iters * 1e6
        out[f"ladder.{name}.events_per_iter"] = events.pop() / iters
    return out
