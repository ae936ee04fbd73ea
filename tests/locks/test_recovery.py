"""Each lock's ``recover()`` coordinator, driven directly.

No failure detector, no heartbeats, no fault plan: a small fault-free
runtime builds the queue state (a holder that never releases, a waiter
whose process is killed, a half-finished enqueue), a stub stands in for
the membership service — exactly the reads and two writes a coordinator
may use — and the test runs ``Cls.recover(svc, handles, dead, transient)``
as one more simulated process.

The ticket family and MCS are the exceptions: the home records their
queue order (who took each ticket, each swap on the MCS tail word) only
under a membership service, so their tests declare or exclude a rank on a
real one (a crash-stop plan whose one crash never comes) at a chosen
instant.
"""

import dataclasses
import pathlib

import pytest

from repro.fuzz.campaign import load_corpus_entry
from repro.fuzz.runner import run_scenario
from repro.locks import make_lock
from repro.locks.lh import LHLock
from repro.locks.mcs import MCSLock
from repro.locks.token_base import TokenLockBase
from repro.net.faults import FaultPlan, ProcessCrash
from repro.net.params import myrinet2000
from repro.runtime.memory import NULL_PTR


class StubService:
    """The slice of ``MembershipService`` a recovery coordinator may use."""

    def __init__(self, nprocs, dead=(), excluded=(), epoch=1):
        self.nprocs = nprocs
        self.epoch = epoch
        self.dead = set(dead)
        self.excluded = set(excluded)
        self.leases = {}
        self.regens = {}

    def is_alive(self, rank):
        return rank not in self.dead

    def in_view(self, rank):
        return rank not in self.dead and rank not in self.excluded

    def alive_ranks(self):
        return tuple(r for r in range(self.nprocs) if self.in_view(r))

    def lock_key(self, handle):
        return (handle.kind, handle.name, handle.home_rank)

    def lease_holder(self, key):
        return self.leases.get(key)

    def record_token_regen(self, key, payload):
        self.regens[key] = (self.epoch, dict(payload))


class Scenario:
    """A runtime whose ranks each build one lock handle and run a script."""

    def __init__(self, make_cluster, kind, nprocs, ppn=1, home=0, **cluster):
        self.rt = make_cluster(nprocs=nprocs, procs_per_node=ppn, **cluster)
        self.env = self.rt.env
        self.kind = kind
        self.home = home
        self.handles = {}
        self.granted = {}
        self.procs = {}

    def start(self, scripts):
        """``scripts[rank](ctx, lock)`` is that rank's generator body."""

        def program(ctx):
            lock = make_lock(self.kind, ctx, home_rank=self.home, name="mx")
            self.handles[ctx.rank] = lock
            yield from scripts[ctx.rank](ctx, lock)

        self.procs = self.rt.spawn(program)

    def hold_forever(self, ctx, lock):
        yield from lock.acquire()
        self.granted[ctx.rank] = ctx.now

    def hold_until(self, when):
        def script(ctx, lock):
            yield from lock.acquire()
            self.granted[ctx.rank] = ctx.now
            yield ctx.env.timeout(when - ctx.now)
            yield from lock.release()

        return script

    def acquire_at(self, when, then_release=True):
        def script(ctx, lock):
            yield ctx.env.timeout(when)
            yield from lock.acquire()
            self.granted[ctx.rank] = ctx.now
            if then_release:
                yield ctx.env.timeout(2.0)
                yield from lock.release()

        return script

    @staticmethod
    def idle(ctx, lock):
        yield ctx.env.timeout(0.0)

    def recover_at(self, when, cls, svc, dead, transient=False):
        done = {}

        def coordinator():
            yield self.env.timeout(when)
            yield from cls.recover(svc, self.handles, dead, transient)
            done["at"] = self.env.now

        self.env.process(coordinator(), name="recover")
        return done

    def leave_at(self, when, rank, transient=False):
        """Declare ``rank`` dead (or exclude it) on the runtime's membership
        service at ``when``: the service runs the lock's recovery."""
        svc = self.rt.membership

        def leave():
            yield self.env.timeout(when)
            if transient:
                svc.exclude(rank, self.env.now, "test")
            else:
                svc.declare(rank, self.env.now, "test")

        self.env.process(leave(), name="leave")

    def kill_at(self, when, *procs):
        def killer():
            yield self.env.timeout(when)
            for proc in procs:
                proc.kill()

        self.env.process(killer(), name="kill")

    def run(self, until=2000.0):
        # Not rt.run(): a rank parked forever is the point, not a deadlock.
        self.env.run(until=until)


# -- ticket / hybrid / server ---------------------------------------------------

TICKET_FAMILY = [("ticket", 3), ("hybrid", 1), ("server", 1)]


def membership_cluster(make_cluster):
    """``make_cluster`` with a membership service whose one planned crash
    never comes, so only the test's own declarations change the view."""
    plan = FaultPlan(crashes=(ProcessCrash(at_us=1e9, rank=2),), seed=7)

    def make(**kwargs):
        return make_cluster(params=dataclasses.replace(myrinet2000(), faults=plan), **kwargs)

    return make


def counter(lock):
    return lock._home_region.read(lock.base_addr + 1)


def recoveries(sc):
    return [(r["dead_rank"], r.get("transient", False)) for r in sc.rt.membership.recovery_log]


@pytest.mark.parametrize("kind, ppn", TICKET_FAMILY)
class TestTicketFamilyRecover:
    def test_dead_holder_is_ghost_advanced_past(self, make_cluster, kind, ppn):
        sc = Scenario(membership_cluster(make_cluster), kind, 3, ppn)
        sc.start({0: sc.hold_forever, 1: sc.acquire_at(50.0), 2: sc.idle})
        sc.leave_at(200.0, 0)
        sc.run()
        lock = sc.handles[1]
        assert recoveries(sc) == [(0, False)]
        assert counter(lock) == 2  # 0 ghost-advanced, 1 served and released
        assert sc.granted[1] > 200.0

    def test_dead_waiter_behind_live_holder_is_revoked(
        self, make_cluster, kind, ppn
    ):
        sc = Scenario(membership_cluster(make_cluster), kind, 3, ppn)
        sc.start(
            {
                0: sc.hold_until(300.0),
                1: sc.acquire_at(50.0, then_release=False),
                2: sc.acquire_at(100.0),
            }
        )
        sc.leave_at(200.0, 1)
        sc.run()
        lock = sc.handles[0]
        # The declaration finds the live holder's ticket 0 at the counter
        # and writes nothing; the holder's release skips the dead rank's
        # ticket 1 at the home and serves rank 2's ticket 2.
        assert 1 not in sc.granted
        assert sc.granted[2] > 300.0
        assert counter(lock) == 3
        assert sc.rt.servers[0].ticket_owners[(0, lock.base_addr)][1] == {}

    def test_excluded_holder_is_advanced_past_but_keeps_running(
        self, make_cluster, kind, ppn
    ):
        sc = Scenario(membership_cluster(make_cluster), kind, 3, ppn)
        sc.start({0: sc.hold_until(400.0), 1: sc.acquire_at(50.0), 2: sc.idle})
        sc.leave_at(200.0, 0, transient=True)
        sc.run()
        holder = sc.handles[0]
        # Alive, so the exclusion's ghost-advance passes its ticket on, and
        # its own release, fenced, hands nothing on a second time.
        assert recoveries(sc) == [(0, True)]
        assert sc.granted[1] > 200.0
        assert holder.stats.counters["fenced_releases"] == 1
        assert holder.stats.releases == 0
        assert counter(holder) == 2

    def test_nothing_to_do_writes_nothing(self, make_cluster, kind, ppn):
        sc = Scenario(membership_cluster(make_cluster), kind, 3, ppn)
        sc.start({0: sc.hold_forever, 1: sc.idle, 2: sc.idle})
        sc.leave_at(200.0, 2)
        sc.run()
        lock = sc.handles[0]
        assert recoveries(sc) == [(2, False)]
        assert counter(lock) == 0


@pytest.mark.parametrize("kind", ["hybrid", "server"])
def test_queued_waiter_is_granted_through_the_server(make_cluster, kind):
    sc = Scenario(membership_cluster(make_cluster), kind, 3)
    sc.start(
        {0: sc.hold_forever, 1: sc.acquire_at(50.0, then_release=False), 2: sc.idle}
    )
    sc.leave_at(200.0, 0)
    sc.run()
    server = sc.rt.servers[0]
    lock = sc.handles[1]
    # One grant for the holder's own request (server kind) or none (hybrid
    # local fast path), plus the recovery's grant: the same counter-advance
    # path a release takes.
    assert server.stats.grants == (2 if kind == "server" else 1)
    assert server._lock_waiters[(0, lock.base_addr)] == {}
    assert lock._my_ticket == 1 and sc.granted[1] > 200.0


@pytest.mark.parametrize("kind", ["hybrid", "server"])
def test_a_request_that_outlives_its_sender_is_never_granted(make_cluster, kind):
    # Rank 1's request is on the wire when rank 1 is declared; it lands at
    # the home afterwards, takes ticket 0 and finds the lock free.  The
    # home passes that ticket on at once instead of granting a dead rank.
    sc = Scenario(membership_cluster(make_cluster), kind, 3)
    sc.start({0: sc.idle, 1: sc.acquire_at(50.0), 2: sc.acquire_at(300.0)})
    p = myrinet2000()
    sc.leave_at(50.0 + p.api_call_us + p.o_send_us + 0.01, 1)
    sc.run()
    lock = sc.handles[2]
    assert 1 not in sc.granted and sc.granted[2] >= 300.0
    assert lock._my_ticket == 1 and counter(lock) == 2


# -- LH -------------------------------------------------------------------------------


class TestLHRecover:
    def test_dead_holder_ghost_release_grants_successor(self, make_cluster):
        sc = Scenario(make_cluster, "lh", 3, ppn=3)
        sc.start({0: sc.hold_forever, 1: sc.acquire_at(50.0), 2: sc.idle})
        sc.recover_at(200.0, LHLock, StubService(3, dead={0}), dead=0)
        sc.run()
        assert sc.granted[1] > 200.0

    def test_dead_waiter_forwards_the_grant_it_never_took(self, make_cluster):
        sc = Scenario(make_cluster, "lh", 3, ppn=3)

        def holder(ctx, lock):
            yield from lock.acquire()
            yield ctx.env.timeout(400.0)
            yield from lock.release()

        sc.start({0: holder, 1: sc.acquire_at(50.0), 2: sc.acquire_at(100.0)})
        sc.kill_at(150.0, sc.procs[1])
        done = sc.recover_at(200.0, LHLock, StubService(3, dead={1}), dead=1)
        sc.run()
        # The forwarder waits for rank 0's real release, then passes it on.
        assert 1 not in sc.granted
        assert sc.granted[2] > 400.0 and done["at"] > 400.0

    def test_excluded_waiter_keeps_its_queue_slot(self, make_cluster):
        sc = Scenario(make_cluster, "lh", 2, ppn=2)
        sc.start({0: sc.hold_forever, 1: sc.acquire_at(50.0, then_release=False)})
        svc = StubService(2, excluded={1})
        done = sc.recover_at(200.0, LHLock, svc, dead=1, transient=True)
        sc.run()
        assert done["at"] == 200.0  # returned without a single yield
        assert sc.handles[1]._phase == "waiting" and 1 not in sc.granted

    def test_excluded_holder_is_ghost_released(self, make_cluster):
        sc = Scenario(make_cluster, "lh", 2, ppn=2)
        sc.start({0: sc.hold_forever, 1: sc.acquire_at(50.0)})
        svc = StubService(2, excluded={0})
        sc.recover_at(200.0, LHLock, svc, dead=0, transient=True)
        sc.run()
        assert sc.granted[1] > 200.0


# -- MCS ------------------------------------------------------------------------------


def _tail(lock):
    region = lock.ctx.regions[lock.home_rank]
    return (region.read(lock.lock_addr), region.read(lock.lock_addr + 1))


class TestMCSRecover:
    """MCS's queue order is the home's record (``_QueueRecord``), kept only
    under a membership service: these declare or exclude ranks on a real
    one, like the ticket family's."""

    def test_dead_holder_hands_off_to_linked_successor(self, make_cluster):
        sc = Scenario(membership_cluster(make_cluster), "mcs", 3)
        sc.start({0: sc.hold_forever, 1: sc.acquire_at(50.0), 2: sc.idle})
        sc.leave_at(200.0, 0)
        sc.run()
        assert recoveries(sc) == [(0, False)]
        assert sc.granted[1] > 200.0
        assert _tail(sc.handles[0]) == NULL_PTR  # rank 1 released normally

    def test_dead_holder_without_successor_resets_the_tail(self, make_cluster):
        sc = Scenario(membership_cluster(make_cluster), "mcs", 3, home=1)
        sc.start({0: sc.hold_forever, 1: sc.acquire_at(400.0), 2: sc.idle})
        sc.leave_at(200.0, 0)
        sc.run()
        (entry,) = sc.rt.membership.recovery_log
        assert entry["recovered_at_us"] < 400.0
        assert sc.handles[1].stats.uncontended_acquires == 1

    def test_half_linked_enqueue_is_completed_then_passed_on(self, make_cluster):
        """The dead rank swapped the tail but never wrote its predecessor's
        ``next``: recovery waits for the predecessor's release to commit,
        gives it the link it is owed (its tail CAS failed, so it waits for
        one), and grants the rank queued behind the dead one."""
        sc = Scenario(membership_cluster(make_cluster), "mcs", 3)
        sc.start({0: sc.hold_until(600.0), 1: sc.acquire_at(50.0), 2: sc.acquire_at(300.0)})
        seen = {}

        def declare_between_swap_and_link():
            victim = None
            while victim is None or victim._prev_ptr is None:
                yield sc.env.timeout(0.05)
                victim = sc.handles.get(1)
            sc.rt.membership.declare(1, sc.env.now, "test")
            holder_next = sc.handles[0]._next_ga()
            region = sc.rt.regions[0]
            seen["link"] = (region.read(holder_next.addr), region.read(holder_next.addr + 1))
            seen["tail"] = _tail(victim)

        sc.env.process(declare_between_swap_and_link(), name="declare")
        sc.run()
        # Precondition: this really was the half-finished enqueue.
        assert seen == {"link": NULL_PTR, "tail": sc.handles[1]._my_ptr}
        assert 1 not in sc.granted
        assert sc.granted[2] > 600.0
        (entry,) = sc.rt.membership.recovery_log
        assert entry["recovered_at_us"] > 600.0

    def test_waiter_whose_swap_reply_is_in_flight_is_passed_over(self, make_cluster):
        """Declared after its swap applied at the home but before the reply
        landed, the dead rank's handle knows nothing of its place; the
        record does, so the holder's release is not left waiting for a
        link that never comes."""
        sc = Scenario(membership_cluster(make_cluster), "mcs", 3)
        sc.start({0: sc.hold_until(400.0), 1: sc.acquire_at(50.0), 2: sc.acquire_at(300.0)})
        seen = {}

        def declare_with_the_reply_in_flight():
            while sc.handles.get(1) is None or _tail(sc.handles[1]) != sc.handles[1]._my_ptr:
                yield sc.env.timeout(0.05)
            seen["prev"] = sc.handles[1]._prev_ptr
            sc.rt.membership.declare(1, sc.env.now, "test")

        sc.env.process(declare_with_the_reply_in_flight(), name="declare")
        sc.run()
        assert seen == {"prev": None}
        assert 1 not in sc.granted and sc.granted[2] > 400.0
        assert sc.handles[0].stats.releases == 1 and sc.handles[2].stats.releases == 1
        assert _tail(sc.handles[0]) == NULL_PTR

    def test_excluded_waiter_keeps_its_chain_position(self, make_cluster):
        sc = Scenario(membership_cluster(make_cluster), "mcs", 3)
        sc.start(
            {0: sc.hold_forever, 1: sc.acquire_at(50.0, then_release=False), 2: sc.idle}
        )
        sc.leave_at(200.0, 1, transient=True)
        sc.run()
        assert recoveries(sc) == []  # it holds no lease: nothing to recover
        assert _tail(sc.handles[0]) == sc.handles[1]._my_ptr

    def test_excluded_holder_is_ghost_released(self, make_cluster):
        sc = Scenario(membership_cluster(make_cluster), "mcs", 3)
        sc.start({0: sc.hold_forever, 1: sc.acquire_at(50.0), 2: sc.idle})
        sc.leave_at(200.0, 0, transient=True)
        sc.run()
        assert recoveries(sc) == [(0, True)]
        assert sc.granted[1] > 200.0


def test_the_record_not_the_handle_places_a_dead_waiter(monkeypatch):
    """Clean twin and mutant on corpus entry ``seed-608-swap-reply-in-flight``:
    a coordinator that reads the dead rank's handle — ``_prev_ptr`` None,
    its swap reply still in flight — takes it for a rank that never entered
    the queue, and the live releaser behind whom it swapped waits for its
    link forever."""
    path = pathlib.Path(__file__).parent.parent / "fuzz" / "corpus"
    _note, scenario = load_corpus_entry(path / "seed-608-swap-reply-in-flight.json")
    assert run_scenario(scenario).ok()
    recover = MCSLock.recover.__func__

    def recover_from_the_handle(cls, svc, handles, dead, transient):
        if handles[dead]._prev_ptr is None:
            return  # "died before entering the queue"
        yield from recover(cls, svc, handles, dead, transient)

    monkeypatch.setattr(MCSLock, "recover", classmethod(recover_from_the_handle))
    assert run_scenario(scenario).kinds() == ("deadlock",)


# -- Naimi-Trehel / Raymond ----------------------------------------------------------


@pytest.mark.parametrize("kind", ["naimi", "raymond"])
class TestTokenRecover:
    def test_token_lost_with_dead_holder_regenerates_at_requester(
        self, make_cluster, kind
    ):
        sc = Scenario(make_cluster, kind, 3)
        sc.start({0: sc.hold_forever, 1: sc.idle, 2: sc.acquire_at(50.0)})
        sc.kill_at(150.0, sc.procs[0])
        svc = StubService(3, dead={0}, epoch=4)
        sc.recover_at(200.0, TokenLockBase, svc, dead=0)
        sc.run(until=150.0)
        sc.handles[0]._daemon.kill()
        sc.run()
        (epoch, payload), = svc.regens.values()
        assert epoch == 4
        assert payload == {
            "epoch": 4, "holder": 2, "alive": [1, 2], "token_lost": True
        }
        assert sc.granted[2] > 200.0
        assert [h._view_epoch for r, h in sorted(sc.handles.items()) if r] == [4, 4]
        assert sc.handles[2]._token_epoch_floor == 4

    def test_live_token_stays_where_it_is(self, make_cluster, kind):
        sc = Scenario(make_cluster, kind, 3)
        sc.start({0: sc.idle, 1: sc.hold_forever, 2: sc.idle})
        svc = StubService(3, dead={2}, epoch=2)
        sc.recover_at(200.0, TokenLockBase, svc, dead=2)
        sc.run()
        (_epoch, payload), = svc.regens.values()
        assert payload["holder"] == 1 and payload["token_lost"] is False
        assert sc.handles[1]._token_epoch_floor == 0  # old token still valid

    def test_token_in_flight_in_the_mailbox_counts_as_safe(self, make_cluster, kind):
        """A token already delivered to a survivor's mailbox, not yet
        consumed by its daemon, must not be regenerated (two tokens)."""
        # A slow progress engine (100us wake-up): a message that lands while
        # the daemon is still waking for the previous one waits in the mailbox.
        sc = Scenario(
            make_cluster, kind, 3, params=myrinet2000(server_wake_us=100.0)
        )
        sc.start({0: sc.idle, 1: sc.acquire_at(50.0), 2: sc.idle})
        svc = StubService(3, dead={2}, epoch=3)
        seen = {}

        def coordinator():
            home, requester = sc.handles[0], sc.handles[1]
            # Rank 0's daemon takes rank 1's request and starts waking up;
            # the token leaves ~100us from now.
            while not home.stats.counters.get("daemon_wakes"):
                yield sc.env.timeout(0.25)
            # A stale (epoch -1) request wakes rank 1's daemon just ahead of
            # the token; it is dropped, but the wake-up keeps the daemon busy.
            yield sc.env.timeout(50.0)
            decoy = (2, -1) if kind == "naimi" else -1
            yield from sc.handles[2]._send(1, "request", payload=decoy)
            while not requester._token_here():
                yield sc.env.timeout(0.25)
            seen["held_by"] = [r for r, h in sc.handles.items() if h._holds_token()]
            yield from TokenLockBase.recover(svc, sc.handles, 2, False)

        sc.env.process(coordinator(), name="recover")
        sc.run()
        assert seen["held_by"] == []  # in nobody's hands: only in the mailbox
        (_epoch, payload), = svc.regens.values()
        assert payload["holder"] == 1 and payload["token_lost"] is False
        assert 1 in sc.granted and sc.handles[1]._token_epoch_floor == 0

    def test_excluded_holder_loses_the_token_to_the_majority(
        self, make_cluster, kind
    ):
        sc = Scenario(make_cluster, kind, 3)
        sc.start({0: sc.hold_forever, 1: sc.acquire_at(50.0), 2: sc.idle})
        svc = StubService(3, excluded={0}, epoch=5)
        sc.recover_at(200.0, TokenLockBase, svc, dead=0, transient=True)
        sc.run()
        (_epoch, payload), = svc.regens.values()
        assert payload["alive"] == [1, 2] and payload["token_lost"] is True
        assert sc.granted[1] > 200.0
        # The excluded holder heard nothing: its resync comes at rejoin.
        assert sc.handles[0]._view_epoch == 0

    def test_replay_points_a_rejoiner_at_the_current_holder(
        self, make_cluster, kind
    ):
        sc = Scenario(make_cluster, kind, 3)
        sc.start({0: sc.hold_forever, 1: sc.acquire_at(50.0, then_release=False), 2: sc.idle})
        svc = StubService(3, excluded={0}, epoch=5)
        sc.recover_at(200.0, TokenLockBase, svc, dead=0, transient=True)
        sc.run(until=400.0)
        (key, (_epoch, payload)), = svc.regens.items()
        # Heal: rank 0 is back; the lease says rank 1 holds the lock now.
        svc.excluded.clear()
        svc.epoch = 6
        svc.leases[key] = 1

        def resync():
            yield from sc.handles[0].replay_view_change(svc, payload)

        sc.env.process(resync(), name="resync")
        sc.run()
        stale = sc.handles[0]
        assert stale._view_epoch == 5 and stale._token_epoch_floor == 5
        assert not stale._holds_token()
        assert stale.stats.counters["view_changes"] == 1
