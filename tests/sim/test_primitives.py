"""Unit tests for Store, FilterStore and Broadcast."""

import pytest

from repro.sim.primitives import Broadcast, FilterStore, Store


class TestStore:
    def test_put_then_get_immediate(self, env):
        store = Store(env)
        store.put("a")
        ev = store.get()
        assert ev.triggered and ev.value == "a"

    def test_items_fifo(self, env):
        store = Store(env)
        for item in ("a", "b", "c"):
            store.put(item)
        got = [store.get().value for _ in range(3)]
        assert got == ["a", "b", "c"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        results = []

        def getter():
            item = yield store.get()
            results.append((env.now, item))

        def putter():
            yield env.timeout(5)
            store.put("late")

        env.process(getter())
        env.process(putter())
        env.run()
        assert results == [(5.0, "late")]

    def test_waiters_served_fifo(self, env):
        store = Store(env)
        served = []

        def getter(tag):
            item = yield store.get()
            served.append((tag, item))

        for tag in ("first", "second"):
            env.process(getter(tag))

        def putter():
            yield env.timeout(1)
            store.put(1)
            store.put(2)

        env.process(putter())
        env.run()
        assert served == [("first", 1), ("second", 2)]

    def test_len_and_counters(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        assert len(store) == 2 and store.total_put == 2
        store.get()
        assert len(store) == 1




class TestFilterStore:
    def test_predicate_selects_item(self, env):
        fs = FilterStore(env)
        fs.put(1)
        fs.put(2)
        fs.put(3)
        ev = fs.get(lambda x: x % 2 == 0)
        assert ev.triggered and ev.value == 2
        assert fs.items == [1, 3]

    def test_first_match_in_arrival_order(self, env):
        fs = FilterStore(env)
        fs.put("b1")
        fs.put("a1")
        fs.put("b2")
        ev = fs.get(lambda x: x.startswith("b"))
        assert ev.value == "b1"

    def test_blocked_getter_woken_by_matching_put(self, env):
        fs = FilterStore(env)
        got = []

        def getter():
            item = yield fs.get(lambda x: x == "wanted")
            got.append((env.now, item))

        def putter():
            yield env.timeout(1)
            fs.put("other")
            yield env.timeout(1)
            fs.put("wanted")

        env.process(getter())
        env.process(putter())
        env.run()
        assert got == [(2.0, "wanted")]
        assert fs.items == ["other"]

    def test_item_offered_to_waiters_in_order(self, env):
        fs = FilterStore(env)
        got = []

        def getter(tag, pred):
            item = yield fs.get(pred)
            got.append((tag, item))

        env.process(getter("evens", lambda x: x % 2 == 0))
        env.process(getter("any", lambda x: True))

        def putter():
            yield env.timeout(1)
            fs.put(3)  # skips "evens", matches "any"
            fs.put(4)  # matches "evens"

        env.process(putter())
        env.run()
        assert sorted(got) == [("any", 3), ("evens", 4)]


class TestBroadcast:
    def test_fire_wakes_all_waiters(self, env):
        bc = Broadcast(env)
        woken = []

        def waiter(tag):
            value = yield bc.wait()
            woken.append((tag, value, env.now))

        env.process(waiter("a"))
        env.process(waiter("b"))

        def firer():
            yield env.timeout(3)
            assert bc.fire("v") == 2

        env.process(firer())
        env.run()
        assert sorted(woken) == [("a", "v", 3.0), ("b", "v", 3.0)]

    def test_fire_without_waiters_returns_zero(self, env):
        bc = Broadcast(env)
        assert bc.fire() == 0
        assert bc.fired == 1

    def test_rearm_after_fire(self, env):
        bc = Broadcast(env)
        times = []

        def repeat_waiter():
            for _ in range(2):
                yield bc.wait()
                times.append(env.now)

        def firer():
            yield env.timeout(1)
            bc.fire()
            yield env.timeout(1)
            bc.fire()

        env.process(repeat_waiter())
        env.process(firer())
        env.run()
        assert times == [1.0, 2.0]

    def test_late_waiter_misses_earlier_fire(self, env):
        bc = Broadcast(env)
        woken = []

        def late_waiter():
            yield env.timeout(5)
            yield bc.wait()
            woken.append(env.now)

        def firer():
            yield env.timeout(1)
            bc.fire()
            yield env.timeout(9)
            bc.fire()

        env.process(late_waiter())
        env.process(firer())
        env.run()
        assert woken == [10.0]

    def test_waiting_count(self, env):
        bc = Broadcast(env)
        bc.wait()
        bc.wait()
        assert bc.waiting == 2
        bc.fire()
        assert bc.waiting == 0
