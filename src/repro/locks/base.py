"""Common lock interface and timing instrumentation.

Every lock implementation exposes generator methods ``acquire()`` and
``release()``; the base class wraps them with virtual-time stopwatches so
the Figure 8/9/10 experiments can report *time to request and acquire* and
*time to release* separately, exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

from ..sim.trace import SampleStats, Stopwatch

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.context import ProcessContext

__all__ = ["BaseLock", "LockStats"]


@dataclass
class LockStats:
    """Counters + timing for one lock handle (one process's view)."""

    acquires: int = 0
    releases: int = 0
    #: Acquisitions satisfied without waiting (lock was free).
    uncontended_acquires: int = 0
    #: Releases that found a waiter to hand the lock to.
    handoffs: int = 0
    counters: Dict[str, int] = field(default_factory=dict)

    def bump(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by


class BaseLock:
    """Abstract distributed lock bound to one process's context.

    Subclasses implement ``_acquire()`` / ``_release()`` as sub-generators.
    The public wrappers charge the per-call library overhead and record
    timing.  A handle must not be re-acquired before release (no recursive
    locking, as in ARMCI).
    """

    #: Short algorithm tag used in reports ("hybrid", "mcs", ...).
    kind: str = "base"

    def __init__(self, ctx: "ProcessContext", home_rank: int, name: str = "lock"):
        if not (0 <= home_rank < ctx.nprocs):
            raise ValueError(f"home_rank {home_rank} out of range")
        self.ctx = ctx
        self.env = ctx.env
        self.armci = ctx.armci
        self.params = ctx.params
        self.home_rank = home_rank
        self.home_node = ctx.topology.node_of(home_rank)
        self.name = name
        self.stats = LockStats()
        self.acquire_sw = Stopwatch(ctx.env, name=f"{name}.acquire")
        self.release_sw = Stopwatch(ctx.env, name=f"{name}.release")
        self.total_sw = Stopwatch(ctx.env, name=f"{name}.total")
        self._held = False
        #: RMCSan monitor (None when no sanitizer is installed).
        self._monitor = getattr(ctx.env, "_sync_monitor", None)
        self._san_key = f"{self.kind}:{name}@{home_rank}"
        #: Crash-stop membership service (None on a fault-free runtime):
        #: registers the handle for lease tracking and holder-death
        #: recovery.  Every hook below is a single ``is None`` check.
        self._membership_svc = getattr(ctx, "membership", None)
        #: Fencing token snapshotted at grant time; a mismatch at release
        #: means the lease was revoked (crash recovery or partition
        #: exclusion regenerated the lock) and the release is rejected.
        self._acq_fence = 0
        if self._membership_svc is not None:
            self._membership_svc.register_lock(self)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} home={self.home_rank} "
            f"rank={self.ctx.rank} held={self._held}>"
        )

    @property
    def held(self) -> bool:
        """True while this process holds the lock."""
        return self._held

    @property
    def is_home_local(self) -> bool:
        """True if the lock's memory lives on this process's node."""
        return self.home_node == self.ctx.node

    # -- public API -----------------------------------------------------------

    def acquire(self):
        """Sub-generator: block until the lock is held."""
        if self._held:
            raise RuntimeError(f"{self!r}: recursive acquire")
        if self._membership_svc is not None:
            # Partition tolerance: a minority-side (or mid-rejoin) rank
            # queues here until it is back in a majority view and
            # resynced.  Immediate no-op on crash-only and healthy runs.
            yield from self._membership_svc.freeze_gate(self.ctx.rank)
        if self.params.api_call_us > 0.0:
            yield self.params.api_call_us
        if self._monitor is not None:
            self._monitor.emit("lock_req", lock=self._san_key)
        self.acquire_sw.start()
        self.total_sw.start()
        yield from self._acquire()
        self.acquire_sw.stop()
        self._held = True
        self.stats.acquires += 1
        if self._membership_svc is not None:
            # Lease: record holder + grant ticket so crash recovery can
            # revoke the acquisition if this process dies in its CS.
            # The fencing token is snapshotted at the same instant: a
            # revocation after this point bumps it, and the release-side
            # check below rejects the then-stale holder.
            self._acq_fence = self._membership_svc.fence_token(
                self._membership_svc.lock_key(self)
            )
            self._membership_svc.lease_acquire(self, self._san_ticket())
        if self._monitor is not None:
            self._monitor.emit(
                "lock_acq", lock=self._san_key, ticket=self._san_ticket()
            )

    def release(self):
        """Sub-generator: release the lock (must be held)."""
        if not self._held:
            raise RuntimeError(f"{self!r}: release without acquire")
        if self.params.api_call_us > 0.0:
            yield self.params.api_call_us
        if self._membership_svc is not None:
            current = self._membership_svc.fence_token(
                self._membership_svc.lock_key(self)
            )
            if current != self._acq_fence:
                # Fenced: our lease was revoked while we held the lock —
                # we were excluded by a partition (or stalled past the
                # suspicion window) and the view regenerated the lock for
                # the survivors.  Touching the protocol again would hand
                # a second grant into a chain that has moved on, so the
                # release is rejected and local state reset to idle.
                self._held = False
                self.stats.bump("fenced_releases")
                self._fence_reset()
                self.release_sw.start()
                self.release_sw.stop()
                self.total_sw.stop()
                if self._monitor is not None:
                    self._monitor.emit(
                        "lock_fence_rejected",
                        lock=self._san_key,
                        expected=self._acq_fence,
                        current=current,
                    )
                return
        self.release_sw.start()
        self._held = False
        yield from self._release()
        if self._membership_svc is not None:
            # Only after the handoff landed: a holder that dies *inside*
            # ``_release()`` must still be covered by its lease, so the
            # declaration revokes it and recovery finishes the handoff
            # (releasing up front left mid-release deaths unrecoverable).
            # ``lease_release`` no-ops if a successor already re-leased.
            self._membership_svc.lease_release(self)
        self.release_sw.stop()
        self.total_sw.stop()
        self.stats.releases += 1
        if self._monitor is not None:
            # Emitted before any successor can run: the segment from the
            # end of _release() to here has no yields, and every handoff
            # path (counter write, MCS flag put, server grant) wakes the
            # next holder strictly later, so release precedes the matching
            # acquire in the event stream.
            self._monitor.emit("lock_rel", lock=self._san_key)

    def _fence_reset(self) -> None:
        """Drop local grant state after a fenced (rejected) release.

        The survivors' regeneration already handed the lock onward; this
        handle must land back in its idle state without touching shared
        words or sending protocol messages.  Each flavor resets its own
        queue-position fields.
        """

    def _san_ticket(self):
        """FIFO-checkable grant number (ticket-based algorithms only)."""
        return None

    # -- crash recovery ------------------------------------------------------------

    #: Do the lock's protocol words live in the home process's region (so
    #: recovery needs that region reachable)?  False for message-based
    #: algorithms, which recover wherever a quorum of daemons is.
    lock_words_at_home = True

    @classmethod
    def recover(cls, svc, handles, dead: int, transient: bool):
        """Sub-generator: repair this lock after ``dead`` left the view.

        Started by the membership service ``svc`` once per (lock, departed
        rank), after any lease ``dead`` held was revoked and fenced.
        ``handles`` maps rank -> this lock's handle on that rank — the
        queue layout *is* the algorithm (paper §3.2), so each flavor
        splices or regenerates its own.  ``transient`` marks a partition /
        stall exclusion: ``dead`` is alive, held the lock, and will rejoin.
        What a coordinator may ask of ``svc``: ``is_alive``, ``in_view``,
        ``epoch``, ``node_dead``, ``alive_ranks``, ``lease_holder``,
        ``lock_key``, ``revoke_ticket`` and ``record_token_regen``.
        """
        return
        yield  # make it a generator

    def _mark_sync_cells(self, region, addr: int, count: int = 1) -> None:
        """Tag lock protocol words as release/acquire cells for RMCSan."""
        if self._monitor is not None:
            self._monitor.mark_sync(region, addr, count)

    # -- timing accessors --------------------------------------------------------

    def acquire_stats(self) -> SampleStats:
        return self.acquire_sw.stats()

    def release_stats(self) -> SampleStats:
        return self.release_sw.stats()

    def total_stats(self) -> SampleStats:
        """Request+release round statistics (Figure 8's metric)."""
        return self.total_sw.stats()

    # -- to implement --------------------------------------------------------------

    def _acquire(self):  # pragma: no cover - abstract
        raise NotImplementedError
        yield  # make it a generator

    def _release(self):  # pragma: no cover - abstract
        raise NotImplementedError
        yield
