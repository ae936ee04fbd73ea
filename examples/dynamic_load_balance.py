#!/usr/bin/env python3
"""Dynamic load balancing with the Global Arrays NXTVAL counter.

The canonical Global Arrays work-distribution idiom: a shared counter
element drawn with atomic ``read_inc`` (GA_Read_inc, implemented on the
ARMCI fetch-and-add the locks are built from).  Workers pull task ids until
the pool is exhausted; task costs are deliberately skewed (Zipf-ish) so a
static block distribution leaves some ranks idle while others grind.

The example runs both strategies on identical task sets, verifies they
compute the same global result, and reports makespans and per-rank load.

Run:  python examples/dynamic_load_balance.py
"""

from repro import ClusterRuntime

NPROCS = 8
NTASKS = 96


def task_cost(task_id: int) -> float:
    """Skewed task durations in microseconds: the heavy tasks cluster at
    the front of the pool (as in triangular loops or sorted work lists),
    which is exactly where a static block distribution breaks down."""
    return 480.0 / (1 + task_id // 12) + 4.0


def worker(ctx, strategy):
    # The NXTVAL counter and checksum live in rank 0's ARMCI memory (in
    # full Global Arrays they'd be a 1-element array).
    counter = ctx.regions[0].alloc_named("nxtval", 1, initial=0)
    checksum = ctx.regions[0].alloc_named("checksum", 1, initial=0.0)

    done = 0.0
    my_tasks = 0
    if strategy == "dynamic":
        while True:
            task = yield from ctx.armci.rmw("fetch_add", ctx.ga(0, counter), 1)
            if task >= NTASKS:
                break
            yield ctx.compute(task_cost(task))
            done += task * 1.0
            my_tasks += 1
    else:  # static block distribution
        per = NTASKS // ctx.nprocs
        lo = ctx.rank * per
        hi = NTASKS if ctx.rank == ctx.nprocs - 1 else lo + per
        for task in range(lo, hi):
            yield ctx.compute(task_cost(task))
            done += task * 1.0
            my_tasks += 1
    # Publish partial checksum with an atomic accumulate.
    yield from ctx.armci.acc(ctx.ga(0, checksum), [done])
    yield from ctx.armci.barrier()
    if ctx.rank == 0:
        return my_tasks, ctx.regions[0].read(checksum)
    return my_tasks, None


if __name__ == "__main__":
    expected = float(sum(range(NTASKS)))
    makespans = {}
    for strategy in ("static", "dynamic"):
        runtime = ClusterRuntime(nprocs=NPROCS)
        results = runtime.run_spmd(worker, strategy)
        loads = [r[0] for r in results]
        checksum = results[0][1]
        assert checksum == expected, (checksum, expected)
        makespans[strategy] = runtime.env.now
        print(
            f"{strategy:>8}: makespan={runtime.env.now:9.1f} us, "
            f"tasks/rank={loads}"
        )
    assert makespans["dynamic"] < makespans["static"]
    print(
        "identical checksums; the NXTVAL counter (one atomic fetch&add per "
        f"task) beats\nthe static blocks "
        f"{makespans['static'] / makespans['dynamic']:.2f}x on this skewed "
        "pool - the GA idiom the ARMCI\natomics exist to serve"
    )
