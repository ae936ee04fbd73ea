"""Property tests for composite events (all-of / any-of trees)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import AllOf, Condition, Environment


def tree_strategy(max_depth=3):
    """Random and/or trees over leaf delays."""
    leaf = st.floats(min_value=0.0, max_value=100.0,
                     allow_nan=False, allow_infinity=False)

    def extend(children):
        return st.tuples(
            st.sampled_from(["all", "any"]),
            st.lists(children, min_size=1, max_size=4),
        )

    return st.recursive(leaf, extend, max_leaves=12)


def build(env, node):
    """Materialize a tree into events; return (event, predicted_fire_time)."""
    if isinstance(node, float):
        return env.timeout(node), node
    kind, children = node
    events, times = [], []
    for child in children:
        ev, t = build(env, child)
        events.append(ev)
        times.append(t)
    if kind == "all":
        return AllOf(env, events), max(times)
    return Condition(env, Condition.any_done, events), min(times)


@given(tree=tree_strategy())
@settings(max_examples=150, deadline=None)
def test_condition_trees_fire_at_min_max_semantics(tree):
    """An and/or tree fires exactly when the min/max algebra over its leaf
    delays says it should."""
    env = Environment()
    event, predicted = build(env, tree)
    fired_at = []
    if event.callbacks is not None:
        event.callbacks.append(lambda _ev: fired_at.append(env.now))
    else:
        fired_at.append(env.now)
    env.run()
    assert len(fired_at) == 1
    assert fired_at[0] == predicted


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=8,
    )
)
@settings(max_examples=100, deadline=None)
def test_anyof_value_contains_only_processed_events(delays):
    env = Environment()
    timeouts = [env.timeout(d, value=i) for i, d in enumerate(delays)]
    observed = {}

    def waiter():
        result = yield Condition(env, Condition.any_done, timeouts)
        observed["fired"] = env.now
        observed["done"] = sorted(ev.value for ev in result)

    env.process(waiter())
    env.run()
    earliest = min(delays)
    assert observed["fired"] == earliest
    # Every reported-done event had actually fired by then.
    for idx in observed["done"]:
        assert delays[idx] <= earliest


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=8,
    )
)
@settings(max_examples=100, deadline=None)
def test_allof_reports_every_event(delays):
    env = Environment()
    timeouts = [env.timeout(d, value=i) for i, d in enumerate(delays)]
    observed = {}

    def waiter():
        result = yield AllOf(env, timeouts)
        observed["fired"] = env.now
        observed["count"] = len(result)

    env.process(waiter())
    env.run()
    assert observed["fired"] == max(delays)
    assert observed["count"] == len(delays)
