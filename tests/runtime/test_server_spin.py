"""Tests for the server's spin-then-block receive mode."""

import pytest

from repro.net.params import myrinet2000
from repro.runtime.memory import GlobalAddress
from repro.sim.primitives import Store


class TestCancelGet:
    def test_cancelled_get_never_consumes(self, env):
        store = Store(env)
        ev = store.get()
        assert store.cancel_get(ev)
        store.put("item")
        assert not ev.triggered
        assert store.items.popleft() == "item"

    def test_cancel_after_fire_returns_false(self, env):
        store = Store(env)
        ev = store.get()
        store.put("x")
        assert not store.cancel_get(ev)
        assert ev.value == "x"

    def test_cancel_unknown_event_false(self, env):
        store = Store(env)
        assert not store.cancel_get(env.event())


class TestSpinThenBlock:
    def params(self, spin):
        return myrinet2000(server_spin_us=spin, server_wake_us=40.0)

    def request_after_gap(self, make_cluster, spin, gap):
        """Client idles ``gap`` µs, then issues a get; returns (RT, stats)."""

        def main(ctx):
            base = ctx.region.alloc(1)
            if ctx.rank == 0:
                # Prime the server so it enters its post-request spin.
                yield from ctx.armci.get(GlobalAddress(1, base), 1)
                yield ctx.compute(gap)
                t0 = ctx.now
                yield from ctx.armci.get(GlobalAddress(1, base), 1)
                return ctx.now - t0
            yield ctx.compute(1)
            return None

        rt = make_cluster(nprocs=2, params=self.params(spin))
        rtt = rt.run_spmd(main)[0]
        return rtt, rt.servers[1].stats

    def test_request_within_spin_window_skips_wake(self, make_cluster):
        fast_rtt, stats = self.request_after_gap(make_cluster, spin=200.0, gap=50.0)
        assert stats.spins >= 1
        slow_rtt, _ = self.request_after_gap(make_cluster, spin=0.0, gap=50.0)
        # The spin saves the 40us wake on the second request.
        assert fast_rtt <= slow_rtt - 35.0

    def test_request_after_spin_window_pays_wake(self, make_cluster):
        rtt_late, stats = self.request_after_gap(
            make_cluster, spin=30.0, gap=500.0
        )
        rtt_never, _ = self.request_after_gap(make_cluster, spin=0.0, gap=500.0)
        assert rtt_late == pytest.approx(rtt_never, rel=0.01)

    def test_no_messages_lost_when_spin_expires(self, make_cluster):
        """The cancelled spin get must not swallow later requests."""

        def main(ctx):
            base = ctx.region.alloc(1, 0)
            if ctx.rank == 0:
                for i in range(5):
                    yield ctx.compute(100.0)  # > spin window each time
                    yield from ctx.armci.put(GlobalAddress(1, base), [i])
                yield from ctx.armci.fence(1)
                return None
            yield ctx.compute(1)
            return None

        rt = make_cluster(nprocs=2, params=self.params(30.0))
        rt.run_spmd(main)
        assert rt.servers[1].stats.puts == 5
        assert rt.regions[1].read(0) == 4

    def test_default_is_block_immediately(self):
        assert myrinet2000().server_spin_us == 0.0

    def test_spin_softens_the_fig7_convoy(self, make_cluster):
        """With a generous spin window, AllFence avoids most wake-ups — one
        reason real deployments saw less than the worst case."""
        from repro.experiments.fig7_sync import Fig7Config, run_fig7

        base_cfg = Fig7Config(nprocs_list=(8,), iterations=8)
        plain = run_fig7(base_cfg)
        spun = run_fig7(
            Fig7Config(
                nprocs_list=(8,), iterations=8,
                params=myrinet2000(server_spin_us=150.0),
            )
        )
        assert spun.get("current", 8) < plain.get("current", 8)
        # The new barrier barely touches servers, so it moves far less.
        assert abs(spun.get("new", 8) - plain.get("new", 8)) < 0.2 * plain.get("new", 8)