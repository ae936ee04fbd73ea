#!/usr/bin/env python3
"""Regenerate every table in EXPERIMENTS.md and write them to results/.

Runs the full experiment suite at paper-scale iteration counts and stores:

* ``results/figN_*.txt`` — the paper-style tables;
* ``results/*.csv`` — tidy series for plotting;
* ``results/summary.txt`` — the headline numbers.

Takes a few minutes of wall clock (the simulations are deterministic, so
output is reproducible bit-for-bit, with any ``--jobs`` value).

Run:  python scripts/regenerate_results.py [output_dir] [--jobs N] [--check]

``--jobs N`` shards independent sweep cells over N worker processes (0 =
one per core); the parallel runner reassembles results in deterministic
order, so the emitted files are byte-identical to a serial run.
``--check`` regenerates into a scratch directory and fails if any file
differs from the checked-in ``results/`` — CI runs ``--check --jobs 2``
to prove the parallel/serial equivalence on every push.
"""

import argparse
import pathlib
import sys
import tempfile

# Runs from a checkout that is not pip-installed, as perfbench/run.py does.
_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments import (  # noqa: E402
    Fig7Config,
    LockBenchConfig,
    NicBenchConfig,
    run_fig7,
    run_lock_series,
    run_nicbench,
)
from repro.experiments.ablations import (  # noqa: E402
    render_lock_algorithms,
    render_lock_fairness,
    render_release_opt,
    run_crossover,
    run_fence_modes,
    run_lock_algorithms,
    run_lock_fairness,
    run_release_opt,
    run_skew,
    run_smp_handoff,
    run_wake_cost,
)
from repro.experiments.app_scaling import AppScalingConfig, run_app_scaling  # noqa: E402
from repro.experiments.lockbench import LOCK_FIGURES, comparison_from_series  # noqa: E402
from repro.experiments.microbench import run_microbench  # noqa: E402
from repro.experiments.report import (  # noqa: E402
    comparison_to_csv,
    lock_series_to_csv,
    nicbench_to_csv,
    write_csv,
)


def generate(out: pathlib.Path, jobs: int = 1) -> None:
    """Write the full results tree into ``out``."""
    out.mkdir(parents=True, exist_ok=True)

    def save(name: str, text: str) -> None:
        (out / f"{name}.txt").write_text(text + "\n")
        print(f"[results] {name}")

    fig7 = run_fig7(Fig7Config(iterations=100), jobs=jobs)
    save("fig7_ga_sync", fig7.render())
    write_csv(comparison_to_csv(fig7), out, "fig7_ga_sync")

    series = run_lock_series(LockBenchConfig(iterations=400))
    for figure, key in (
        ("fig8", "fig8_lock_total"),
        ("fig9", "fig9_lock_acquire"),
        ("fig10", "fig10_lock_release"),
    ):
        save(key, comparison_from_series(series, *LOCK_FIGURES[figure]).render())
    write_csv(lock_series_to_csv(series), out, "figs8_9_10_locks")

    crossover = run_crossover(nprocs=16, iterations=20)
    save("ablation_crossover", crossover.render())
    save("ablation_fence_modes", run_fence_modes(iterations=20).render())
    save("ablation_smp_handoff", run_smp_handoff(nprocs=8).render())
    save("ablation_wake_cost", run_wake_cost(nprocs=8).render())
    save("ablation_release_opt", render_release_opt(run_release_opt()))
    save("ablation_lock_algorithms",
         render_lock_algorithms(run_lock_algorithms()))
    save("ablation_fairness",
         render_lock_fairness(run_lock_fairness(nprocs=8)))
    save("ablation_skew", run_skew(nprocs=16).render())
    save("app_scaling", run_app_scaling(AppScalingConfig()).render())
    save("microbench", run_microbench().render())

    nic = run_nicbench(NicBenchConfig(iterations=100), jobs=jobs)
    save("ablation_nic", nic.render())
    write_csv(nicbench_to_csv(nic), out, "ablation_nic")

    summary = [
        "Headline reproduction numbers (see EXPERIMENTS.md for full tables):",
        f"  Figure 7 factor @16 procs: {fig7.factor(16):.2f} (paper: up to 9)",
        f"  Figure 8 factor @8 procs:  "
        f"{series['hybrid'][8].roundtrip_us / series['mcs'][8].roundtrip_us:.2f}"
        " (paper: up to 1.25)",
        f"  Crossover at {crossover.crossover_targets()} put targets "
        "(paper: ~log2(16)/2 = 2)",
        f"  NIC offload factor @16 procs: {nic.factor(16):.2f} "
        "(host wins at 2, NIC from 4 up)",
    ]
    save("summary", "\n".join(summary))


def check(reference: pathlib.Path, jobs: int) -> int:
    """Regenerate into a scratch dir and diff against ``reference``.

    Returns 0 only when every regenerated file is byte-identical to its
    checked-in counterpart (and no file is missing on either side).
    """
    with tempfile.TemporaryDirectory(prefix="results-check-") as scratch:
        out = pathlib.Path(scratch)
        generate(out, jobs=jobs)
        fresh = {p.name: p for p in sorted(out.iterdir()) if p.is_file()}
        stale = {p.name: p for p in sorted(reference.iterdir()) if p.is_file()}
        failures = []
        for name in sorted(set(fresh) | set(stale)):
            if name not in fresh:
                failures.append(f"{name}: in {reference}/ but not regenerated")
            elif name not in stale:
                failures.append(f"{name}: regenerated but not in {reference}/")
            elif fresh[name].read_bytes() != stale[name].read_bytes():
                failures.append(f"{name}: contents differ")
        if failures:
            print(f"[check] FAILED ({len(failures)} file(s)):")
            for line in failures:
                print(f"  {line}")
            return 1
        print(
            f"[check] ok: {len(fresh)} files byte-identical to {reference}/ "
            f"(jobs={jobs})"
        )
        return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "output_dir", nargs="?", default="results",
        help="where to write the tables (default: results/)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent sweep cells (0 = per core); "
        "output is byte-identical for any value",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="regenerate into a scratch dir and fail unless every file is "
        "byte-identical to the checked-in output_dir",
    )
    args = parser.parse_args(argv)
    out = pathlib.Path(args.output_dir)
    if args.check:
        return check(out, jobs=args.jobs)
    generate(out, jobs=args.jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
