"""Every form of a one-sided operation is the same operation.

``put``/``put_segments``/``nb_put`` (and the three gets) are one issue
path observed differently, so they must be indistinguishable wherever the
observation does not differ: RMCSan sees a handle-based operation exactly
as it sees the implicit one, and a contiguous transfer leaves the
simulation in the state its one-run vector twin leaves.
"""

from __future__ import annotations

import pytest

from repro.analysis import SyncMonitor
from repro.mp import collectives
from repro.net.params import myrinet2000
from repro.runtime.cluster import ClusterRuntime


def _monitored(main, *args):
    monitor = SyncMonitor()
    ClusterRuntime(2, params=myrinet2000(), monitor=monitor).run_spmd(main, *args)
    return monitor


def _analyzed(main, *args):
    return _monitored(main, *args).analyze()


class TestHandlesAreVisibleToRMCSan:
    def test_nb_put_wait_barrier_read_is_clean(self):
        def main(ctx):
            addr = ctx.region.alloc_named("cell", 1, initial=0)
            yield from collectives.barrier(ctx.comm)
            if ctx.rank == 0:
                handle = yield from ctx.armci.nb_put(ctx.ga(1, addr), [7])
                yield from handle.wait()
            yield from ctx.armci.barrier()
            return ctx.region.read(addr)

        report = _analyzed(main)
        assert report.ok(), report.render()

    def test_nb_get_wait_is_clean_and_has_the_lifecycle_of_get(self):
        def main(ctx, blocking):
            addr = ctx.region.alloc_named("cell", 1, initial=ctx.rank)
            yield from collectives.barrier(ctx.comm)
            if ctx.rank == 0 and blocking:
                assert (yield from ctx.armci.get(ctx.ga(1, addr), 1)) == [1]
            elif ctx.rank == 0:
                handle = yield from ctx.armci.nb_get(ctx.ga(1, addr), 1)
                assert (yield from handle.wait()) == [1]

        def lifecycle(monitor):
            kinds = ("issue", "apply", "apply_done", "complete")
            return [(e.kind, e.actor) for e in monitor.events if e.kind in kinds]

        by_handle = _monitored(main, False)
        assert by_handle.analyze().ok(), by_handle.analyze().render()
        assert len(lifecycle(by_handle)) == 4
        assert lifecycle(by_handle) == lifecycle(_monitored(main, True))

    def test_wait_on_a_put_handle_orders_the_remote_read(self):
        """``wait()`` is a completion edge: a message sent after it orders
        the target's read without any fence."""

        def main(ctx):
            addr = ctx.region.alloc_named("cell", 1, initial=0)
            yield from collectives.barrier(ctx.comm)
            if ctx.rank == 0:
                handle = yield from ctx.armci.nb_put(ctx.ga(1, addr), [7])
                yield from handle.wait()
            yield from collectives.barrier(ctx.comm)
            return ctx.region.read(addr)

        report = _analyzed(main)
        assert report.ok(), report.render()

    @staticmethod
    def _unsynchronised(ctx, form):
        addr = ctx.region.alloc_named("cell", 1, initial=0)
        yield from collectives.barrier(ctx.comm)
        if ctx.rank == 0:
            yield from getattr(ctx.armci, form)(ctx.ga(1, addr), [7])
        # A message-passing barrier alone does not complete the put.
        yield from collectives.barrier(ctx.comm)
        return ctx.region.read(addr)

    def test_unsynchronised_nb_put_is_flagged_like_put(self):
        by_put = _analyzed(self._unsynchronised, "put").counts
        by_handle = _analyzed(self._unsynchronised, "nb_put").counts
        assert set(by_put) == {"data-race"}
        assert by_handle == by_put


def _contiguous(ctx, peer, addr, values):
    yield from ctx.armci.put(ctx.ga(peer, addr), values)
    yield from ctx.armci.barrier()
    fetched = yield from ctx.armci.get(ctx.ga(peer, addr), len(values))
    return fetched


def _one_run_vector(ctx, peer, addr, values):
    yield from ctx.armci.put_segments(peer, [(addr, values)])
    yield from ctx.armci.barrier()
    fetched = yield from ctx.armci.get_segments(peer, [(addr, len(values))])
    return fetched


def _handles(ctx, peer, addr, values):
    handle = yield from ctx.armci.nb_put(ctx.ga(peer, addr), values)
    yield from handle.wait()
    yield from ctx.armci.barrier()
    handle = yield from ctx.armci.nb_get(ctx.ga(peer, addr), len(values))
    fetched = yield from handle.wait()
    return fetched


def _observe(form, **runtime_kwargs):
    def main(ctx):
        addr = ctx.region.alloc_named("cells", 3, initial=0)
        yield from collectives.barrier(ctx.comm)
        fetched = []
        for round_ in range(3):
            for peer in range(ctx.nprocs):
                values = [ctx.rank, peer, round_]
                fetched.append((yield from form(ctx, peer, addr, values)))
        return fetched

    runtime = ClusterRuntime(4, procs_per_node=2, **runtime_kwargs)
    state = {
        "results": runtime.run_spmd(main),
        "stats": [dict(a.stats) for a in runtime.armcis.values()],
        "op_init": [list(a.op_init) for a in runtime.armcis.values()],
        "memory": [region.read_many(0, 3) for region in runtime.regions.values()],
    }
    clock = (runtime.env.now, runtime.env.events_processed)
    return state, clock


@pytest.mark.parametrize(
    "runtime_kwargs",
    [
        {"params": myrinet2000()},
        {"params": myrinet2000(), "fence_mode": "ack"},
    ],
    ids=["fault-free", "ack-mode"],
)
class TestFormsLeaveTheSameState:
    def test_contiguous_is_the_one_run_vector(self, runtime_kwargs):
        """Same simulation, event for event: clock and event count too."""
        assert _observe(_contiguous, **runtime_kwargs) == _observe(
            _one_run_vector, **runtime_kwargs
        )

    def test_handles_move_the_same_data_with_the_same_accounting(
        self, runtime_kwargs
    ):
        """``wait()`` costs its own API call, so only the clock may differ."""
        assert _observe(_handles, **runtime_kwargs)[0] == _observe(
            _contiguous, **runtime_kwargs
        )[0]
