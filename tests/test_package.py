"""Package-level contract tests: exports, versioning, registry coherence."""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_matches_packaging(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.sim",
            "repro.net",
            "repro.runtime",
            "repro.mp",
            "repro.armci",
            "repro.locks",
            "repro.ga",
            "repro.experiments",
            "repro.cli",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_no_lazy_export_shares_a_submodule_name(self):
        """Importing a submodule binds it on its package, after which the
        package's ``__getattr__`` is never asked for that name; so a name
        shared with a submodule is imported eagerly, not listed lazily."""
        for init in sorted(pathlib.Path(repro.__file__).parent.rglob("__init__.py")):
            package = init.parent
            submodules = {p.stem for p in package.glob("*.py")}
            submodules |= {p.parent.name for p in package.glob("*/__init__.py")}
            for node in ast.walk(ast.parse(init.read_text())):
                if getattr(getattr(node, "func", None), "id", None) != "lazy_exports":
                    continue
                for names in ast.literal_eval(node.args[1]).values():
                    for spec in names.split(","):
                        attr, _, alias = spec.strip().partition(" as ")
                        assert (alias or attr) not in submodules, f"{package.name}.{alias or attr}"


class TestLockRegistry:
    def test_every_kind_constructs_and_runs(self, make_cluster):
        from repro.locks import LOCK_KINDS, make_lock

        local_only = {"ticket", "lh"}

        def main(ctx, kind):
            lock = make_lock(kind, ctx, home_rank=0, name=f"reg-{kind}")
            yield from lock.acquire()
            yield from lock.release()
            yield from ctx.armci.barrier()
            return lock.kind

        for kind in LOCK_KINDS:
            ppn = 2 if kind in local_only else 1
            rt = make_cluster(nprocs=2, procs_per_node=ppn)
            kinds = rt.run_spmd(main, kind)
            assert kinds == [kind, kind]

    def test_kind_attribute_matches_registry_key(self):
        from repro.locks import LOCK_KINDS

        for key, cls in LOCK_KINDS.items():
            assert cls.kind == key, (key, cls.kind)

    def test_unknown_kind_message_lists_choices(self, make_cluster):
        from repro.locks import make_lock

        rt = make_cluster(nprocs=1)
        with pytest.raises(ValueError, match="mcs"):
            make_lock("spinlock9000", rt.context(0), home_rank=0)


class TestMultiProgramSpawn:
    def test_two_independent_programs_one_cluster(self, make_cluster):
        """spawn() supports heterogeneous programs sharing the substrate."""

        def producer(ctx):
            base = ctx.regions[1].alloc_named("mp1", 1, 0)
            yield from ctx.armci.put(ctx.ga(1, base), [41])
            yield from ctx.armci.fence(1)
            yield from ctx.comm.send(1, "ready", tag=5)
            return "produced"

        def consumer(ctx):
            base = ctx.regions[1].alloc_named("mp1", 1, 0)
            yield from ctx.comm.recv(source=0, tag=5)
            return ctx.region.read(base)

        rt = make_cluster(nprocs=2)
        procs = {}
        procs.update(rt.spawn(producer, ranks=[0]))
        procs.update(rt.spawn(consumer, ranks=[1]))
        rt.run()
        assert procs[0].value == "produced"
        assert procs[1].value == 41

    def test_mismatched_collective_order_is_detected(self, make_cluster):
        """SPMD misuse (ranks calling different collectives) surfaces as a
        DeadlockError naming the stuck programs, not a silent hang."""
        from repro.mp import collectives
        from repro.runtime.cluster import DeadlockError

        def main(ctx):
            if ctx.rank == 0:
                yield from collectives.barrier(ctx.comm)
            else:
                yield from collectives.allreduce_sum(ctx.comm, [1])

        rt = make_cluster(nprocs=2)
        with pytest.raises(DeadlockError, match="main"):
            rt.run_spmd(main)


class TestNumpyFreeCore:
    """Everything starts without numpy (it costs ~12 MiB and ~0.13 s per
    process): the barrier, NIC, topology, fuzz and model-checker stacks, and
    also the command line, every experiment module and ``repro.ga`` itself.
    A ``GlobalArray`` put reads its data as float rows in plain Python, so
    fig7 and ``ablations``, which only put, run without it too; only a
    program that reads array data back (``GlobalArray.get``/``local_block``:
    ``app``'s ``GA_Ddot``, the GA examples) loads it, at its first read."""

    @staticmethod
    def _numpy_loaded_after(*lines):
        code = "\n".join(
            (
                f"import sys; sys.path.insert(0, {str(pathlib.Path(repro.__file__).parents[1])!r})",
                *lines,
                "sys.exit(3 if 'numpy' in sys.modules else 0)",
            )
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert done.returncode in (0, 3), done.stderr
        return done.returncode == 3

    def test_core_imports_leave_numpy_out(self):
        assert not self._numpy_loaded_after(
            "import repro, repro.armci.api, repro.nic.engine, repro.topo.algorithms",
            "import repro.fuzz.runner, repro.mc.explore",
        )

    def test_cli_experiments_and_ga_imports_leave_numpy_out(self):
        assert not self._numpy_loaded_after(
            "import repro.cli, repro.experiments, repro.ga",
            "import repro.experiments.scalebench, repro.experiments.lockbench",
            "import repro.experiments.faultbench, repro.experiments.nicbench",
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["locks", "--procs", "2", "--iterations", "5"],
            ["scalebench", "--procs", "64", "--iterations", "1"],
        ],
        ids=["locks", "scalebench"],
    )
    def test_commands_without_array_data_run_without_numpy(self, argv):
        assert not self._numpy_loaded_after(
            "import repro.cli", f"assert repro.cli.main({argv!r}) == 0"
        )

    def test_fig7_runs_without_numpy(self):
        argv = ["fig7", "--procs", "2", "--iterations", "2"]
        assert not self._numpy_loaded_after(
            "import repro.cli", f"assert repro.cli.main({argv!r}) == 0"
        )

    def test_a_global_array_get_loads_numpy_and_returns_an_ndarray(self):
        assert self._numpy_loaded_after(
            "from repro.ga import GlobalArray",
            "from repro.runtime.cluster import ClusterRuntime",
            "def main(ctx):",
            "    ga = GlobalArray(ctx, 'g', (2, 2))",
            "    yield from ga.put((0, 2, 0, 2), [[1, 2], [3, 4]])",
            "    assert 'numpy' not in sys.modules",
            "    yield from ga.sync('new')",
            "    got = yield from ga.get((0, 2, 0, 2))",
            "    return type(got).__name__, got.tolist()",
            "got = ClusterRuntime(1).run_spmd(main)",
            "assert got == [('ndarray', [[1.0, 2.0], [3.0, 4.0]])], got",
        )


class TestImportBoundary:
    """A fault-free run imports no fault, oracle, lock or multiprocessing
    module, and no experiment it does not run: package ``__init__``s resolve
    their exports on first access (``repro._lazy``), and the fabric, the
    trace capture, the sweep runner and the command line import a layer
    where it is first used.  The converse cases show the layers are
    deferred, not lost."""

    DEFERRED = (
        "repro.net.faults",
        "repro.net.reliable",
        "repro.runtime.membership",
        "repro.analysis.hb",
        "repro.analysis.lint",
        "repro.analysis.monitor",
        "repro.locks",
        "repro.fuzz",
        "repro.mc",
        "repro.experiments.chaosbench",
        "repro.experiments.faultbench",
        "multiprocessing",
    )
    PUT_THEN_BARRIER = (
        "def main(ctx):",
        "    addr = ctx.region.alloc(4, initial=0)",
        "    peer = (ctx.rank + 1) % ctx.nprocs",
        "    yield from ctx.armci.put(ctx.ga(peer, addr), [ctx.rank] * 4)",
        "    yield from ctx.armci.barrier()",
        "    return ctx.region.read_many(addr, 4)",
    )

    @staticmethod
    def _fresh(*lines, expect=0, watch=DEFERRED):
        """Run ``lines`` in a fresh interpreter; returns ``(loaded, stderr)``
        where ``loaded`` lists the imported modules named by a prefix in
        ``watch``."""
        code = "\n".join(
            (
                "import sys",
                f"sys.path.insert(0, {str(pathlib.Path(repro.__file__).parents[1])!r})",
                "try:",
                *(f"    {line}" for line in lines),
                "finally:",
                f"    print(sorted(m for m in sys.modules if m.startswith({watch!r})))",
            )
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == expect, done.stderr
        return ast.literal_eval(done.stdout.splitlines()[-1]), done.stderr

    def test_fault_free_put_and_barrier_import_no_deferred_layer(self):
        loaded, _err = self._fresh(
            "import repro.experiments.fig7_sync",
            "from repro import ClusterRuntime",
            *self.PUT_THEN_BARRIER,
            "assert ClusterRuntime(4).run_spmd(main) == [[3] * 4, [0] * 4, [1] * 4, [2] * 4]",
        )
        assert loaded == []

    def test_a_drop_rate_imports_the_reliable_layer(self):
        loaded, _err = self._fresh(
            "from repro import ClusterRuntime, myrinet2000",
            "from repro.net.faults import FaultPlan",
            *self.PUT_THEN_BARRIER,
            "plan = FaultPlan.uniform(drop_rate=0.2, seed=1)",
            "rt = ClusterRuntime(4, params=myrinet2000().with_(faults=plan))",
            "assert rt.run_spmd(main) == [[3] * 4, [0] * 4, [1] * 4, [2] * 4]",
            "assert rt.fabric.stats.retransmits > 0",
        )
        assert "repro.net.reliable" in loaded
        assert "repro.runtime.membership" not in loaded  # no crash, no window

    def test_trace_out_still_writes_the_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        argv = ["fig7", "--procs", "2", "--iterations", "2", "--trace-out", str(path)]
        loaded, _err = self._fresh(
            "import repro.cli", f"assert repro.cli.main({argv!r}) == 0"
        )
        assert "repro.analysis.monitor" in loaded
        lines = path.read_text().splitlines()
        assert lines and all(line.startswith("{") for line in lines)

    def test_a_function_named_like_its_submodule_survives_that_import(self):
        self._fresh(
            "import repro.mc.selftest, repro.mc.explore, repro.fuzz.campaign, repro.fuzz.shrink",
            "from repro.mc import explore",
            "from repro.fuzz import shrink",
            "assert callable(explore) and callable(shrink), (explore, shrink)",
        )

    @pytest.mark.parametrize(
        "argv, rc, error",
        [
            (["locks", "--bogus"], 2, ["armci-repro: error: unrecognized arguments: --bogus"]),
            (["--help"], 0, []),
        ],
        ids=["bad-flag", "help"],
    )
    def test_cli_refusal_and_help_load_no_experiment(self, argv, rc, error):
        loaded, err = self._fresh(
            "import repro.cli",
            f"repro.cli.main({argv!r})",
            expect=rc,
            watch=("repro.experiments", "repro.fuzz", "repro.mc", "repro.analysis.hb"),
        )
        assert loaded == []
        assert [line for line in err.splitlines() if "error:" in line] == error


class TestMembershipKeepsToItself:
    """``runtime/membership.py`` knows no lock layout and reaches into no
    other module's private state (lock recovery lives with each lock; the
    fabric, server and kernel expose what the service needs)."""

    @pytest.fixture(scope="class")
    def tree(self):
        import repro.runtime.membership as membership

        return ast.parse(pathlib.Path(membership.__file__).read_text())

    def test_imports_nothing_from_locks_or_nic(self, tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                assert "locks" not in parts and "nic" not in parts, (
                    f"line {node.lineno}: import of {name}"
                )

    def test_no_private_getattr_probes(self, tree):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr", "setattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                assert not node.args[1].value.startswith("_"), (
                    f"line {node.lineno}: {ast.unparse(node)}"
                )

    def test_private_attributes_only_on_self(self, tree):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                assert isinstance(node.value, ast.Name) and node.value.id == "self", (
                    f"line {node.lineno}: {ast.unparse(node)}"
                )


class TestKernelIsTwoLoopsAndNoFreeLists:
    """``sim/core.py`` pops its heap in two loops — the inlined drain loop and
    the stepping loop — and never hands an event object out twice: no free
    lists, so no reference-count argument for when one may be reused."""

    @pytest.fixture(scope="class")
    def tree(self):
        import repro.sim.core as core

        return ast.parse(pathlib.Path(core.__file__).read_text())

    def test_no_reference_counts(self, tree):
        named = {
            getattr(node, "id", None) or getattr(node, "attr", None)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert not [name for name in named if "getrefcount" in name]

    def test_environment_keeps_no_pool(self):
        from repro.sim.core import Environment

        assert len(Environment.__slots__) == 8
        assert not [slot for slot in Environment.__slots__ if "pool" in slot]

    def test_exactly_two_loops_pop_the_heap(self, tree):
        # A loop nested in another (the stepping loop gathering co-enabled
        # candidates) is part of the outer one.
        def outer_whiles(node):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.While):
                    yield child
                else:
                    yield from outer_whiles(child)

        def pops_the_heap(loop):
            return any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("pop", "_heappop")
                for node in ast.walk(loop)
            )

        # ``pop`` is the loops' local name for the module's ``_heappop``.
        aliases = {
            ast.unparse(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and ast.unparse(node.value) == "_heappop"
        }
        assert aliases == {"pop = _heappop"}
        loops = [loop for loop in outer_whiles(tree) if pops_the_heap(loop)]
        assert len(loops) == 2, [loop.lineno for loop in loops]


class TestOneWayToSleep:
    """Inside ``src/`` a process sleeps by yielding the delay.  No statement
    ``yield <anything>.timeout(...)`` — a ``Timeout`` made to wake only the
    process that made it — may creep back in; ``repro check --lint`` reports
    the same walk as ``self-sleep-as-event``."""

    def test_the_walk_sees_the_old_spelling(self):
        from repro.analysis.lint import RULE_SELF_SLEEP, lint_source

        source = (
            "def body(self, env, cost):\n"
            "    yield env.timeout(cost)\n"
            "    yield self.env.timeout(2 * cost)\n"
            "    yield cost\n"
            "    got = yield env.timeout(cost, value=1)\n"
            "    yield env.timeout(cost) | env.event()\n"
        )
        found = [f for f in lint_source(source) if f.rule == RULE_SELF_SLEEP]
        assert [f.line for f in found] == [2, 3]
        assert "'yield 2 * cost'" in found[1].message

    def test_no_self_sleep_is_spelled_as_an_event(self):
        from repro.analysis.lint import RULE_SELF_SLEEP, run_lint

        assert not [f.render() for f in run_lint() if f.rule == RULE_SELF_SLEEP]

    def test_timeout_is_for_timers_and_composed_waits(self):
        src = pathlib.Path(repro.__file__).parent
        sites = [
            f"{path.relative_to(src)}:{node.lineno}"
            for path in sorted(src.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "timeout"
        ]
        assert len(sites) <= 20, sites


class TestTimersAreRows:
    """A timer nobody waits on — a delivery, an ACK, a retry, a NIC DMA —
    is a ``Call`` row (``env.call``); an event timer is made only as one
    side of a composed wait, and a process starts on its own wake row."""

    SRC = pathlib.Path(repro.__file__).parent

    @pytest.fixture(scope="class")
    def trees(self):
        return {
            path.relative_to(self.SRC).as_posix(): ast.parse(path.read_text())
            for path in sorted(self.SRC.rglob("*.py"))
        }

    @staticmethod
    def _sites(trees, wanted):
        """``"file:function"`` (innermost ``def``) of every call ``wanted``
        accepts."""
        found = []

        def visit(node, path, function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, path, child.name)
                    continue
                if isinstance(child, ast.Call) and wanted(child):
                    found.append(f"{path}:{function}")
                visit(child, path, function)

        for path, tree in trees.items():
            visit(tree, path, "<module>")
        return sorted(found)

    def test_event_timers_only_in_composed_waits(self, trees):
        timeouts = self._sites(
            trees, lambda call: getattr(call.func, "attr", None) == "timeout"
        )
        assert timeouts == [
            "armci/barrier.py:_stage2",
            "runtime/server.py:_run",
        ]
        made = self._sites(
            trees, lambda call: getattr(call.func, "id", None) == "Timeout"
        )
        assert {site.split(":")[0] for site in made} == {"sim/core.py"}
        named = {
            getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            for tree in trees.values()
            for node in ast.walk(tree)
        }
        assert "Initialize" not in named


class TestOneBodyPerOneSidedOperation:
    """Put, get and rmw are each written once: one request construction on
    the client, one put-apply in the server loop, one opcode table."""

    SRC = pathlib.Path(repro.__file__).parent

    @classmethod
    def _trees(cls, subdir=""):
        for path in sorted((cls.SRC / subdir).rglob("*.py")):
            yield path.relative_to(cls.SRC).as_posix(), ast.parse(path.read_text())

    @staticmethod
    def _calls(tree, name):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
        ]

    @pytest.mark.parametrize("request_type", ["PutRequest", "GetRequest"])
    def test_client_builds_each_request_once(self, request_type):
        sites = [
            f"{path}:{call.lineno}"
            for path, tree in self._trees("armci")
            for call in self._calls(tree, request_type)
        ]
        assert len(sites) == 1, sites

    def test_server_applies_a_put_in_one_place(self):
        tree = ast.parse((self.SRC / "runtime/server.py").read_text())
        defined = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        assert not defined & {"_dispatch", "_handle_put"}
        writing_loops = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.For)
            and "segments" in ast.unparse(node.iter)
            and self._calls(node, "write_many")
        ]
        assert len(writing_loops) == 1, writing_loops
        assert len(self._calls(tree, "write_many")) == 1

    def test_rmw_opcodes_are_compared_nowhere_but_the_table(self):
        from repro.runtime.atomics import RMW

        offenders = [
            f"{path}:{branch.lineno}"
            for path, tree in self._trees()
            if path != "runtime/atomics.py"
            for branch in ast.walk(tree)
            if isinstance(branch, ast.If)
            for node in ast.walk(branch.test)
            if isinstance(node, ast.Compare)
            for operand in [node.left, *node.comparators]
            if isinstance(operand, ast.Constant) and operand.value in RMW
        ]
        assert offenders == []


class TestOneWire:
    """A physical transmission — message, reply, reliable frame, ACK — is
    priced, offered to the fault plan, scheduled and labelled for RMCheck in
    ``Fabric.transmit`` and nowhere else under ``repro/net``."""

    NET = pathlib.Path(repro.__file__).parent / "net"

    @pytest.fixture(scope="class")
    def functions(self):
        """``{"file.py:function": node}`` for every function under net/."""
        return {
            f"{path.name}:{node.name}": node
            for path in sorted(self.NET.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)
        }

    @staticmethod
    def _sites(functions, wanted):
        return sorted(
            where
            for where, function in functions.items()
            for node in ast.walk(function)
            if wanted(node)
        )

    def test_the_fault_plan_is_consulted_once(self, functions):
        def calls_delivery_offsets(node):
            return (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "delivery_offsets"
            )

        assert self._sites(functions, calls_delivery_offsets) == ["fabric.py:transmit"]

    def test_deliveries_are_labelled_once(self, functions):
        def assigns_mc_label(node):
            return isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
                getattr(target, "attr", None) == "_mc_label"
                for target in getattr(node, "targets", [getattr(node, "target", None)])
            )

        assert self._sites(functions, assigns_mc_label) == ["fabric.py:transmit"]

    def test_the_six_bodies_are_gone(self):
        named = {
            getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            for path in self.NET.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
        }
        assert not named & {
            "_path_delay", "_deliver_unless_blackholed", "_trigger_reply", "record_reply"
        }

    def test_one_dead_endpoint_set_and_the_reliable_layer_keeps_out(self):
        tree = ast.parse((self.NET / "reliable.py").read_text())
        private_fabric_reads = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and ast.unparse(node.value) in ("fabric", "self.fabric")
        }
        # The failure detector the runtime attached; nothing of the wire.
        assert private_fabric_reads <= {"_membership"}
        assert "_dead_endpoints" not in (self.NET / "reliable.py").read_text()

    def test_one_frame_constructor(self, functions):
        def builds_a_frame(node):
            return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Frame"

        assert self._sites(functions, builds_a_frame) == ["reliable.py:_ship"]


class TestOneWorkloadOracle:
    """Mutual exclusion, preemption and lock FIFO are judged by
    ``repro.locks.LockAudit`` / ``fifo_judged``, the post-barrier slot rule
    by ``repro.runtime.memory.audit_slots``, and a script's crash, partition
    and stall tuples become a plan in ``FaultPlan.scripted``; the workloads
    that run the oracle only report to it."""

    SRC = pathlib.Path(repro.__file__).parent
    RUNNERS = ("experiments/chaosbench.py", "fuzz/runner.py", "analysis/sanitize.py")

    @pytest.fixture(scope="class")
    def trees(self):
        return {
            path.relative_to(self.SRC).as_posix(): ast.parse(path.read_text())
            for path in sorted(self.SRC.rglob("*.py"))
        }

    @staticmethod
    def _name(node):
        """``x.name`` -> ``name``; ``x["name"]`` -> ``"name"``."""
        if isinstance(node, ast.Subscript):
            return getattr(node.slice, "value", None)
        return getattr(node, "attr", None)

    def test_the_owner_cell_is_kept_once(self, trees):
        stores = sorted(
            path
            for path, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Subscript))
            and isinstance(node.ctx, ast.Store)
            and self._name(node) in ("cs_owner", "mutex_ok")
        )
        assert set(stores) == {"locks/__init__.py"}

    def test_runners_do_not_judge_fifo_themselves(self, trees):
        for path in self.RUNNERS:
            for node in ast.walk(trees[path]):
                assert self._name(node) not in ("requests", "grants"), path
                if isinstance(node, ast.Compare):
                    text = ast.unparse(node)
                    assert not ("request" in text and "grant" in text), (path, text)

    def test_scripted_faults_are_translated_once(self, trees):
        builders = {"ProcessCrash", "Partition", "ProcessStall"}
        sites = {
            path
            for path, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in builders
        }
        assert sites == {"net/faults.py"}
