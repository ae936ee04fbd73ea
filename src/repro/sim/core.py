"""Discrete-event simulation kernel.

This module implements a small, deterministic, generator-coroutine based
discrete-event simulator in the style of SimPy, specialized for the needs of
the ARMCI reproduction:

* **Deterministic ordering.** Events scheduled for the same simulated time are
  processed in a stable order: first by an explicit integer *priority*, then
  by schedule sequence number.  Repeated runs of the same program produce
  byte-identical traces, which the experiment harness relies on.

  The exact *co-enabled event ordering contract* (relied on by RMCheck's
  controlled scheduler, see :mod:`repro.mc`): every triggered event is
  keyed by the tuple ``(time, priority, seq)`` where ``seq`` is a plain
  int drawn from ``Environment._seq`` — incremented exactly once per
  scheduling, in program order, with no gaps and no reuse within a run.
  Two events are *co-enabled* when their ``(time, priority)`` keys are
  equal; the default tie-break among co-enabled events is FIFO by
  ``seq`` (i.e. scheduling order).  A :class:`SchedulerStrategy`
  installed on the environment intercepts exactly these ties (plus,
  optionally, labeled message deliveries within a commutation window)
  and may pick any co-enabled candidate; the default strategy picks the
  minimal ``seq`` and therefore reproduces the uncontrolled order
  byte-identically.

* **Virtual time in microseconds.** All delays in this code base are expressed
  in microseconds of simulated time, matching the units the paper reports.

* **Processes are generators.** A simulated activity is an ordinary Python
  generator that ``yield``\\ s :class:`Event` objects to wait for them and
  plain non-negative numbers to *sleep* that long; composition is done
  with ``yield from`` sub-generators, which keeps protocol code (fence,
  barrier, lock algorithms) readable and close to the paper's pseudocode.

* **A sleep allocates nothing; a timer allocates no event.** ``yield
  delay`` pushes the heap key a ``Timeout(env, delay)`` made at that
  instant would push (same time, priority and ``seq``) on the process's
  one :class:`_WakeRow`; a process's first step is that row too, at
  ``PRIORITY_URGENT``.  A timer nobody waits on — a message delivery, an
  ACK, a retry, a DMA completion — is a :class:`Call` row pushed by
  :meth:`Environment.call` with the same key, carrying its handler and two
  arguments.  ``env.timeout()`` is for what is genuinely an event: one
  side of a composed wait.

* **Two loops.** ``Environment.run()`` drains the queue with an inlined
  pop/dispatch loop (no method call per event, the schedule sequence a
  plain int); ``run(until=...)`` and every run under a
  :class:`SchedulerStrategy` take one *stepping* loop with the same
  per-event body.  An event object is never reused (see
  ``docs/performance.md``).

The kernel knows nothing about networks, servers, or ARMCI; those live in
:mod:`repro.net` and :mod:`repro.runtime`.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Call",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "SchedulerStrategy",
    "SimulationError",
    "StopProcess",
    "CRASHED",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LAZY",
]

#: Priority for events that must run before ordinary events at the same time
#: (e.g. a killed process's termination).
PRIORITY_URGENT = 0
#: Default event priority.
PRIORITY_NORMAL = 1
#: Priority for events that should run after ordinary events at the same time.
PRIORITY_LAZY = 2

_PENDING = object()

_heappush = heapq.heappush
_heappop = heapq.heappop


class _Crashed:
    """Sentinel value of a process terminated by :meth:`Process.kill`."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "CRASHED"

    def __bool__(self) -> bool:
        return False


#: Result value of a process killed by a crash-stop fault (see
#: :meth:`Process.kill`).  Falsy, so ``if result:`` treats a crashed rank
#: like "no result".
CRASHED = _Crashed()


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (not for modeled failures)."""


class StopProcess(Exception):
    """Raised inside a process generator to exit early with a value.

    ``raise StopProcess(value)`` is equivalent to ``return value`` but can be
    used from inside nested helpers.
    """

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class SchedulerStrategy:
    """Tie-break policy for co-enabled events (RMCheck's controlled scheduler).

    Install an instance as ``env._mc_strategy`` (or via
    ``Environment.strategy_factory``) *before* ``run()`` to route every
    co-enabled choice through :meth:`choose`.  Two events are co-enabled
    when their ``(time, priority)`` heap keys are equal; additionally, when
    ``window > 0`` and the queue head is a *labeled* message delivery, all
    labeled ``PRIORITY_NORMAL`` deliveries within ``window`` microseconds of
    the head are treated as co-enabled (the chosen one is processed clamped
    to the head's timestamp, preserving time monotonicity).

    The base class is the identity policy: ``window = 0.0`` and
    ``choose() == 0`` always picks the minimal ``(time, priority, seq)``
    entry, reproducing the uncontrolled FIFO order byte-identically (see
    ``tests/mc/test_strategy.py``).
    """

    #: Commutation window (µs) for near-tie labeled deliveries; 0 disables.
    window: float = 0.0
    #: Set True (e.g. from :meth:`choose`/:meth:`executed`) to abandon the
    #: run after the current event; the stepping loop checks it each step.
    abort: bool = False

    def choose(self, now: float, candidates: list) -> int:
        """Pick the index of the candidate to process next.

        ``candidates`` is a list of heap entries ``(time, priority, seq,
        event)`` — index 0 is always the entry the uncontrolled scheduler
        would pick; labels (if any) are on ``entry[3]._mc_label``.
        """
        return 0

    def executed(self, label: object) -> None:
        """Called after each *labeled* event is processed, with its label."""


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling it on the environment's queue.  When the
    environment pops it, the event is *processed*: its callbacks run, which is
    how waiting processes get resumed.

    ``_mc_label`` is RMCheck metadata: message deliveries — :class:`Call`
    rows — get a hashable label ``(kind, dst_key, uid)`` (set by the
    transport layers only when a :class:`SchedulerStrategy` is installed)
    identifying the transition for dependence analysis; it is ``None`` on
    every event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_mc_label")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callables invoked with this event when it is processed; ``None``
        #: once processed.
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False
        self._mc_label = None

    def __repr__(self) -> str:
        state = (
            "pending"
            if self._value is _PENDING
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event is not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event is not yet triggered")
        return self._value

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # env.schedule(self, 0.0, priority), inlined: succeed() triggers
        # nearly every non-timeout event in a run.
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        _heappush(env._queue, (env._now, priority, seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, 0.0, priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the same outcome as another (triggered) event."""
        if event._value is _PENDING:
            raise SimulationError("source event is not triggered")
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- composition -------------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_done, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_done, [self, other])


def _bad_delay(delay: Any, who: str = "") -> ValueError:
    what = "negative delay" if delay < 0 else "delay is not a time:"
    return ValueError(f"{who}{what} {delay!r}")


class Timeout(Event):
    """An event that fires ``delay`` time units after it is created."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:  # negative, or NaN: the clock would become NaN
            raise _bad_delay(delay)
        # Field-by-field init: no super() chain.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._mc_label = None
        self.delay = delay
        seq = env._seq
        env._seq = seq + 1
        _heappush(env._queue, (env._now + delay, PRIORITY_NORMAL, seq, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class _WakeRow:
    """What the heap holds while a process sleeps, or before its first step:
    the process's one wake row.

    Not an :class:`Event`: built with its process, returned by no API and
    never sent into a generator, so nothing else can hold it; and a blocked
    process waits on one thing, so at most one heap entry names it.  It
    answers what the loops and a :class:`SchedulerStrategy` read off an
    entry: ``callbacks`` (``wake`` while queued, emptied by
    :meth:`Process.kill`, ``None`` once popped) and, as class constants, a
    successful ``None`` outcome with no RMCheck label.
    """

    __slots__ = ("callbacks", "wake")
    _ok = True
    _value = None
    _defused = False
    _mc_label = None


class Call:
    """A timer nobody waits on: a heap row that runs a handler.

    :meth:`Environment.call` pushes it with the key ``Timeout(env, delay)``
    would have pushed at that instant.  When it pops, each of its
    ``callbacks`` (a tuple, built once by the owner) is called with the row
    and reads its arguments off ``a`` and ``b``; ``delay`` is its offset
    from the instant it was pushed, and ``_mc_label`` its RMCheck
    transition label or ``None``.  Like :class:`_WakeRow` it is not an
    :class:`Event` — nothing can wait on it, and yielding one is a
    :class:`SimulationError` — and it answers the loops with a successful
    ``None`` outcome.  No ``__init__``: the pusher stores every slot, which
    is half the cost of a constructor call.
    """

    __slots__ = ("callbacks", "_mc_label", "delay", "a", "b")
    _ok = True
    _value = None
    _defused = False


class Process(Event):
    """A running generator coroutine.

    The process itself is an :class:`Event` that triggers when the generator
    returns (value = return value) or raises (failure).  Other processes can
    therefore ``yield proc`` to join it.

    The generator yields an :class:`Event` to wait for it, or a non-negative
    number to sleep that long: ``env.timeout(delay)``'s place in the event
    order without the event.
    """

    __slots__ = ("_generator", "name", "_target", "_row", "started_at")

    def __init__(
        self,
        env: "Environment",
        generator: Generator,
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is waiting on (None if runnable or asleep).
        self._target: Optional[Event] = None
        self._row = row = _WakeRow()
        row.callbacks = row.wake = (self._resume,)
        self.started_at = env.now
        # The first step is the wake row, due now and ahead of ordinary
        # events at this instant; a kill before it empties the row.
        seq = env._seq
        env._seq = seq + 1
        _heappush(env._queue, (env._now, PRIORITY_URGENT, seq, row))

    def __repr__(self) -> str:
        return f"<Process {self.name} at {id(self):#x}>"

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for (None while it
        sleeps)."""
        return self._target

    def kill(self, value: Any = CRASHED) -> None:
        """Terminate the process immediately (crash-stop semantics).

        The generator is never resumed: it is closed in place (running any
        ``finally`` blocks) and the process event succeeds with ``value`` so
        joiners observe a terminated — not failed — process.  Killing a
        finished process is a no-op.
        """
        if not self.is_alive:
            return
        if self is self.env.active_process:
            raise SimulationError("a process cannot kill itself")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        # A sleeper's (or an unstarted process's) heap entry stays where it
        # is and pops as a no-op.
        self._row.callbacks = ()
        self._generator.close()
        self._ok = True
        self._value = value
        self.env.schedule(self, 0.0, PRIORITY_URGENT)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``.

        Runs a loop rather than a single step: when the generator yields an
        *already-processed* event, the process continues immediately with
        that event's outcome instead of allocating a shim event and paying
        an extra PRIORITY_URGENT queue round trip per occurrence.
        """
        if self._value is not _PENDING:
            # Killed (or otherwise finished) before this wakeup landed:
            # the generator is closed, there is nothing to advance.
            return
        env = self.env
        generator = self._generator
        send = generator.send
        while True:
            env._active_proc = self
            self._target = None
            try:
                if event._ok:
                    next_ev = send(event._value)
                else:
                    event._defused = True
                    next_ev = generator.throw(event._value)
            except StopIteration as exc:
                env._active_proc = None
                self._ok = True
                self._value = getattr(exc, "value", None)
                env.schedule(self, 0.0, PRIORITY_NORMAL)
                return
            except StopProcess as exc:
                env._active_proc = None
                generator.close()
                self._ok = True
                self._value = exc.value
                env.schedule(self, 0.0, PRIORITY_NORMAL)
                return
            except BaseException as exc:
                env._active_proc = None
                self._ok = False
                self._value = exc
                env.schedule(self, 0.0, PRIORITY_NORMAL)
                return
            env._active_proc = None

            if next_ev.__class__ is float or not isinstance(next_ev, Event):
                # A delay is what adds to the clock and compares with zero.
                try:
                    when = env._now + next_ev
                    valid = next_ev >= 0
                except TypeError:
                    generator.throw(
                        SimulationError(
                            f"process {self.name!r} yielded {next_ev!r}, which is "
                            "not an Event or a delay; protocol helpers must be "
                            "delegated to with 'yield from'"
                        )
                    )
                    return
                if not valid:
                    generator.throw(_bad_delay(next_ev, f"process {self.name!r}: "))
                    return
                # Sleep: Timeout(env, next_ev)'s heap key on this process's row.
                row = self._row
                row.callbacks = row.wake
                seq = env._seq
                env._seq = seq + 1
                _heappush(env._queue, (when, PRIORITY_NORMAL, seq, row))
                return
            if next_ev.env is not env:
                generator.throw(
                    SimulationError("yielded an event from a different environment")
                )
                return
            callbacks = next_ev.callbacks
            if callbacks is not None:
                callbacks.append(self._resume)
                self._target = next_ev
                return
            # Already processed: continue immediately at the current time
            # with that event's outcome (the fast resume path).
            event = next_ev


class ConditionValue:
    """Mapping-like result of a :class:`Condition` (events -> values)."""

    __slots__ = ("events", "_todict")

    def __init__(self, events: list):
        self.events = events
        self._todict = None

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(event)
        return event._value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"

    def todict(self) -> dict:
        if self._todict is None:
            self._todict = {ev: ev._value for ev in self.events}
        return self._todict


class Condition(Event):
    """Composite event over a list of sub-events.

    Succeeds (with a :class:`ConditionValue` of the *processed* sub-events,
    in completion order) when ``evaluate(events, n_done)`` returns True;
    fails immediately if any sub-event fails.  Completion tracking is O(1)
    per sub-event: done events are appended incrementally instead of
    rescanning ``self._events`` on every callback, which kept wide
    :class:`AllOf` barriers linear instead of quadratic.
    """

    __slots__ = ("_evaluate", "_events", "_count", "_done")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list, int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        #: Sub-events that have been *processed* (callbacks ran) and
        #: succeeded, in completion order.  "Done" means processed, not
        #: merely triggered: a Timeout is triggered at creation but has not
        #: happened yet.
        self._done: list = []
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("events from different environments")
        if not self._events:
            self.succeed(ConditionValue([]))
            return
        for ev in self._events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self._done.append(event)
            if self._evaluate(self._events, self._count):
                self.succeed(ConditionValue(self._done))

    @staticmethod
    def all_done(events: list, count: int) -> bool:
        return count == len(events)

    @staticmethod
    def any_done(events: list, count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Succeeds when all sub-events have succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.all_done, events)


class AnyOf(Condition):
    """Succeeds as soon as any sub-event has succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.any_done, events)


class Environment:
    """The simulation environment: a clock and a priority event queue."""

    __slots__ = (
        "_now",
        "_queue",
        "_seq",
        "_active_proc",
        "events_processed",
        "_sync_monitor",
        "process_factory",
        "_mc_strategy",
    )

    #: Class-level hook: when set to a zero-argument callable, every new
    #: Environment installs ``strategy_factory()`` as its scheduler
    #: strategy.  Lets RMCheck reach environments constructed deep inside
    #: experiment harnesses without threading a parameter through.
    strategy_factory: Optional[Callable[[], "SchedulerStrategy"]] = None

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list = []
        self._seq = 0
        self._active_proc: Optional[Process] = None
        #: Count of processed events (cheap global progress metric).
        self.events_processed = 0
        #: RMCSan monitor hook (see :mod:`repro.analysis.monitor`).
        self._sync_monitor = None
        #: Optional override for :meth:`process` (monitors wrap process
        #: creation to inherit actor labels).
        self.process_factory: Optional[Callable] = None
        #: Controlled-scheduler hook (see :class:`SchedulerStrategy`).
        factory = type(self).strategy_factory
        self._mc_strategy: Optional[SchedulerStrategy] = (
            factory() if factory is not None else None
        )

    # -- clock & queue -----------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (microseconds by convention)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        """Enqueue a triggered event ``delay`` time units from now."""
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (self._now + delay, priority, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def _until(self, until: Any):
        """Split ``run(until=...)`` into ``(stop_at, stop_ev)``: a time to
        stop at, or an event to stop on (already validated)."""
        if until is None:
            return None, None
        if isinstance(until, Event):
            return None, until
        stop_at = float(until)
        if stop_at < self._now:
            raise ValueError(f"until={stop_at} is in the past (now={self._now})")
        return stop_at, None

    @staticmethod
    def _outcome(stop_ev: Optional[Event]) -> Any:
        """What ``run(until=stop_ev)`` returns (or raises) once it stops."""
        if stop_ev is None or not stop_ev.triggered:
            return None
        if not stop_ev._ok:
            raise stop_ev._value
        return stop_ev._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulated time), or an :class:`Event` (run until it
        is processed; its value is returned).

        The cyclic collector is parked for the duration, as ``timeit`` parks
        it, and left as it was found on every way out.  What a run allocates
        per event dies by reference count; the collector's passes over the
        live cluster freed nothing and took a fifth of a flat N=1024 barrier
        cell, near half at N=4096 (``docs/performance.md``, "Memory at
        scale").
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._run(until)
        finally:
            if collecting:
                gc.enable()

    def _run(self, until: Any) -> Any:
        stop_at, stop_ev = self._until(until)
        if stop_ev is not None and stop_ev.callbacks is None:
            return self._outcome(stop_ev)
        if until is not None or self._mc_strategy is not None:
            return self._step(stop_at, stop_ev)

        # Drain the queue with an inlined loop: no method call per event.
        queue = self._queue
        pop = _heappop
        processed = 0
        try:
            while queue:
                when, _prio, _seq, event = pop(queue)
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None
                processed += 1
                for cb in callbacks:
                    cb(event)
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            # The counter is only observed between run() calls; batching
            # the per-event increment out of the loop is measurable.
            self.events_processed += processed
        return None

    def _step(self, stop_at: Optional[float], stop_ev: Optional[Event]) -> Any:
        """The stepping loop: one event at a time, a stop test before each.

        Runs ``run(until=...)`` and every run with a
        :class:`SchedulerStrategy` installed.  Without a strategy it
        processes the same ``(time, priority, seq)`` sequence the drain loop
        does.  With one: (1) at each step all co-enabled heap entries (equal
        ``(time, priority)``; plus, when the head is a labeled delivery and
        ``strategy.window > 0``, labeled ``PRIORITY_NORMAL`` deliveries
        within the window) are collected and the strategy picks which one to
        process; (2) a window pick with a later timestamp is processed
        clamped to the head's timestamp, so simulated time never runs
        backwards; (3) ``strategy.executed(label)`` fires for each labeled
        event and ``strategy.abort`` abandons the run.

        With the base strategy (window 0, choose→0) the processed event
        sequence is again the drain loop's.
        """
        strategy = self._mc_strategy
        controlled = strategy is not None
        window = strategy.window if controlled else 0.0
        queue = self._queue
        pop = _heappop
        push = _heappush
        hit: list = []
        if stop_ev is not None:
            stop_ev.callbacks.append(hit.append)
        while not hit:
            if not queue:
                if stop_ev is not None:
                    raise SimulationError(
                        "simulation queue drained before the awaited event "
                        f"{stop_ev!r} triggered (deadlock?)"
                    )
                if stop_at is not None:
                    self._now = stop_at
                break
            if stop_at is not None and queue[0][0] > stop_at:
                self._now = stop_at
                break
            chosen = pop(queue)
            # Also clamps a window pick to the head timestamp (monotonic time).
            self._now = t0 = chosen[0]
            if controlled:
                prio0 = chosen[1]
                candidates = [chosen]
                # Exact (time, priority) ties are always co-enabled.
                while queue and queue[0][0] == t0 and queue[0][1] == prio0:
                    candidates.append(pop(queue))
                # Commutation window: near-tie labeled deliveries are
                # co-enabled too, but only when the head itself is a labeled
                # delivery — pulling a delivery ahead of an unlabeled
                # internal step would not correspond to a legal reordering
                # of the network.
                if window > 0.0 and chosen[3]._mc_label is not None:
                    horizon = t0 + window
                    spill = []
                    while queue and queue[0][0] <= horizon:
                        entry = pop(queue)
                        if entry[1] == PRIORITY_NORMAL and entry[3]._mc_label is not None:
                            candidates.append(entry)
                        else:
                            spill.append(entry)
                    for entry in spill:
                        push(queue, entry)
                if len(candidates) > 1:
                    idx = strategy.choose(t0, candidates)
                    chosen = candidates[idx]
                    for i, entry in enumerate(candidates):
                        if i != idx:
                            push(queue, entry)
            event = chosen[3]
            callbacks = event.callbacks
            event.callbacks = None
            self.events_processed += 1
            if controlled and event._mc_label is not None:
                strategy.executed(event._mc_label)
            for cb in callbacks:
                cb(event)
            if not event._ok and not event._defused:
                raise event._value
            if controlled and strategy.abort:
                break
        return self._outcome(stop_ev)

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def call(self, delay: float, callbacks: tuple, a: Any = None, b: Any = None) -> Call:
        """Run ``callbacks`` on a :class:`Call` row ``delay`` time units from
        now, with ``a`` and ``b`` on the row: a timer that allocates no
        event, keyed where ``Timeout(self, delay)`` would be."""
        if not delay >= 0:  # negative, or NaN: the clock would become NaN
            raise _bad_delay(delay)
        row = Call()
        row.callbacks = callbacks
        row._mc_label = None
        row.delay = delay
        row.a = a
        row.b = b
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (self._now + delay, PRIORITY_NORMAL, seq, row))
        return row

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process driving ``generator``."""
        factory = self.process_factory
        if factory is not None:
            return factory(generator, name=name)
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)
