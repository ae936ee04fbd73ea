"""Function-level tests for the standalone ga_sync entry point."""

import pytest

from repro.ga.sync import ga_sync
from repro.runtime.memory import GlobalAddress


class TestGaSyncFunction:
    @pytest.mark.parametrize("mode", ["current", "new", "auto"])
    def test_completes_outstanding_puts(self, make_cluster, mode):
        """ga_sync works without any GlobalArray — it is the context-level
        GA_Sync over whatever ARMCI traffic is outstanding."""

        def main(ctx):
            base = ctx.region.alloc(1, initial=0)
            peer = (ctx.rank + 1) % ctx.nprocs
            yield from ctx.armci.put(GlobalAddress(peer, base), [ctx.rank + 1])
            yield from ga_sync(ctx, mode)
            return ctx.region.read(base)

        rt = make_cluster(nprocs=4)
        assert rt.run_spmd(main) == [4, 1, 2, 3]

    def test_unknown_mode_rejected(self, make_cluster):
        def main(ctx):
            yield from ga_sync(ctx, "turbo")

        rt = make_cluster(nprocs=2)
        with pytest.raises(ValueError, match="GA_Sync mode"):
            rt.run_spmd(main)

    def test_unknown_mode_message_lists_every_mode(self):
        with pytest.raises(ValueError) as excinfo:
            next(ga_sync(None, "turbo"))
        assert str(excinfo.value) == (
            "unknown GA_Sync mode 'turbo'; use "
            "current/new/auto/nic/kary/dissemination/twolevel"
        )

    def test_current_mode_uses_allfence(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1)
            peer = (ctx.rank + 1) % ctx.nprocs
            yield from ctx.armci.put(GlobalAddress(peer, base), [1])
            yield from ga_sync(ctx, "current")

        rt = make_cluster(nprocs=4)
        rt.run_spmd(main)
        total_fences = sum(s.stats.fences for s in rt.servers.values())
        assert total_fences == 4  # one dirty server per rank

    def test_new_mode_sends_no_fence_requests(self, make_cluster):
        def main(ctx):
            base = ctx.region.alloc(1)
            peer = (ctx.rank + 1) % ctx.nprocs
            yield from ctx.armci.put(GlobalAddress(peer, base), [1])
            yield from ga_sync(ctx, "new")

        rt = make_cluster(nprocs=4)
        rt.run_spmd(main)
        assert sum(s.stats.fences for s in rt.servers.values()) == 0
