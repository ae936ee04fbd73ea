"""Exploration strategy for the controlled scheduler.

The simulator labels every message-delivery event with a transition
label ``(kind, dst_key, uid)`` (see :class:`repro.sim.core.Event`):

* ``kind`` — ``"msg"`` (mailbox envelope), ``"rep"`` (reply to a blocked
  requester), ``"frame"`` (reliable-layer transmission attempt) or
  ``"ack"`` (reliable-layer acknowledgement);
* ``dst_key`` — the destination: an endpoint tuple ``("srv"|"mp"|"nic",
  index)`` for deliveries, or ``("ack-ch", channel_key)`` for ACKs;
* ``uid`` — the schedule sequence number the delivery timeout consumed,
  unique within a run and deterministic given the forced-choice prefix.

**Dependence relation.**  Two deliveries commute unless they target the
same destination key: handlers for different ranks/nodes/NIC endpoints
touch disjoint protocol state (sync cells live behind the server or NIC
endpoint that owns them, so same-cell conflicts imply the same
``dst_key``).  ACKs are dependent per reliable channel — they race on the
frame's ``acked`` flag and the retransmit timer.  This is exactly the
relation the explorer's sleep sets and the canonical trace form use.

A :class:`RecordingStrategy` drives one simulation run: it replays a
tuple of forced choices (the DFS prefix, as labels), then resolves every
further choice point first-come-first-served among candidates *not* in
its sleep set, recording the options it saw so the explorer can enqueue
the siblings afterwards.
"""

from __future__ import annotations

import ast
import hashlib
from typing import Any, Iterable, List, Tuple, Union

from ..sim.core import SchedulerStrategy

__all__ = [
    "RecordingStrategy",
    "canonical_trace_hash",
    "independent",
    "label_key",
]

Label = Tuple[Any, ...]


def independent(a: Label, b: Label) -> bool:
    """True when the two labeled transitions commute (different dst_key)."""
    return a[1] != b[1]


def label_key(label: Label) -> str:
    """Canonical string form of a label: what a counterexample's JSON holds.
    A forced prefix given in this form is parsed back once, when the
    :class:`RecordingStrategy` is built."""
    return repr(label)


def canonical_trace_hash(trace: Iterable[Label]) -> str:
    """Digest of the run's Mazurkiewicz-canonical delivery trace.

    Labels carry interleaving-stable identities (per-sender stream
    ordinals, reliable-channel sequence numbers — see the transport
    layers), so equivalent traces contain the *same* label multiset in
    orders differing only by swaps of adjacent independent deliveries.
    Bubble-sorting those swaps into a fixed order yields a canonical
    representative: equivalent schedules hash identically, inequivalent
    ones (same-destination deliveries reordered) differ.  The explorer
    uses this for *reporting* redundantly explored schedules, never for
    pruning — sleep sets are the sound reduction mechanism.
    """
    # (sort key, dst_key) per label; the digest is over ``repr`` of the
    # sorted label list, spelled from the keys.
    t = [(repr(label), label[1]) for label in trace]
    changed = True
    while changed:
        changed = False
        for i in range(len(t) - 1):
            a, b = t[i], t[i + 1]
            if a[1] != b[1] and b[0] < a[0]:
                t[i], t[i + 1] = b, a
                changed = True
    blob = "[" + ", ".join(key for key, _dst in t) + "]"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class RecordingStrategy(SchedulerStrategy):
    """One DFS run: forced prefix, then sleep-set-guided free exploration.

    A *choice point* is a scheduler step whose queue head is a labeled
    delivery with at least one other labeled delivery co-enabled.  Choice
    points are a deterministic function of the forced prefix (they never
    depend on the sleep set), so a prefix recorded in one run replays
    bit-for-bit in the next.

    * At choice point ``d < len(prefix)``: pick the candidate whose label
      matches ``prefix[d]`` (divergence aborts the run — it only happens
      when a minimization edit produced an unreachable schedule).
    * Beyond the prefix: pick the first labeled candidate not in the
      sleep set; if every labeled candidate sleeps, the continuation is
      covered by a sibling in the DFS — mark the run ``redundant`` and
      abort.

    After the prefix is consumed, every executed labeled transition
    filters the sleep set down to the labels independent of it (the
    standard sleep-set update); during prefix replay the stored set is
    left untouched because it was computed *at* the branch state.
    """

    def __init__(
        self,
        prefix: Iterable[Union[Label, str]] = (),
        sleep: Iterable[Label] = (),
        window: float = 0.0,
    ):
        self.window = float(window)
        self.abort = False
        self.prefix: Tuple[Label, ...] = tuple(
            ast.literal_eval(want) if isinstance(want, str) else want
            for want in prefix
        )
        self.sleep = set(sleep)
        #: Per choice point: (options, chosen_label, sleep_at_state).
        self.decisions: List[Tuple[List[Label], Label, Tuple[Label, ...]]] = []
        #: Every executed labeled transition, in order.
        self.trace: List[Label] = []
        self.depth = 0
        self.redundant = False
        self.diverged = False

    # -- SchedulerStrategy interface --------------------------------------

    def choose(self, now: float, candidates: list) -> int:
        root_label = candidates[0][3]._mc_label
        if root_label is None:
            return 0
        labeled = [
            (i, entry[3]._mc_label)
            for i, entry in enumerate(candidates)
            if entry[3]._mc_label is not None
        ]
        if len(labeled) < 2:
            # Not a choice point — but executing a *sleeping* transition
            # means this whole continuation is covered by a sibling run
            # (after the branch the sole legal next step was explored
            # under the other order).  Prune instead of duplicating it.
            if root_label in self.sleep and self.depth >= len(self.prefix):
                self.redundant = True
                self.abort = True
            return 0
        options = [label for _i, label in labeled]
        d = self.depth
        sleep_snapshot = tuple(self.sleep)
        if d < len(self.prefix):
            want = self.prefix[d]
            for i, label in labeled:
                if label == want:
                    self.depth = d + 1
                    self.decisions.append((options, label, sleep_snapshot))
                    return i
            self.diverged = True
            self.abort = True
            return 0
        for i, label in labeled:
            if label not in self.sleep:
                self.depth = d + 1
                self.decisions.append((options, label, sleep_snapshot))
                return i
        self.redundant = True
        self.abort = True
        return 0

    def executed(self, label: Label) -> None:
        self.trace.append(label)
        if self.depth >= len(self.prefix) and self.sleep:
            dst = label[1]
            self.sleep = {u for u in self.sleep if u[1] != dst}

    # -- explorer helpers -------------------------------------------------

    def chosen(self) -> Tuple[Label, ...]:
        """The schedule this run actually took: the label chosen at each
        choice point."""
        return tuple(chosen for _opts, chosen, _z in self.decisions)

    def chosen_schedule(self) -> Tuple[str, ...]:
        """:meth:`chosen` as forced-choice keys (the serialized form)."""
        return tuple(label_key(label) for label in self.chosen())

    def branching_product(self) -> int:
        """Naive interleaving count along this run (Π branching factors)."""
        naive = 1
        for options, _chosen, _z in self.decisions:
            naive *= len(options)
        return naive
