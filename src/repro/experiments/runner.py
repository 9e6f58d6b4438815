"""CLI for regenerating every table and figure of the paper.

Usage::

    slip-experiments --list
    slip-experiments fig09 fig14
    slip-experiments --all
    slip-experiments --all --jobs 8                  # parallel fan-out
    slip-experiments --all --length 500000           # higher fidelity
    slip-experiments fig09 --profile out.pstats      # cProfile the run

Each experiment prints a formatted table with the paper's reference
numbers in the notes, so paper-vs-measured comparison is immediate.

Every experiment reads its cells through one process-wide memo
(:func:`repro.experiments.parallel.run_cells`): a cell an earlier
experiment already ran (fig09's row that each ablation repeats, say)
is served without simulating, and each table's ``[sweep]`` line says
how many cells came from the memo. With ``--jobs N`` each experiment
fans its unseen cells out across worker processes. Worker count only
changes wall-clock — tables are byte-identical for any ``--jobs``.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import sys
import time
from typing import Callable, Dict, List, Optional

from .common import ExperimentSettings, Table
from .parallel import resolve_jobs
from . import (
    ablations,
    fig01_reuse,
    fig03_soplex,
    fig09_energy,
    fig10_fullsystem,
    fig11_breakdown,
    fig12_misses,
    fig13_speedup,
    fig14_insertion_classes,
    fig15_sublevel_fractions,
    fig16_multicore,
)

Runner = Callable[[Optional[ExperimentSettings]], Table]

EXPERIMENTS: Dict[str, Runner] = {
    "fig01": fig01_reuse.run,
    "fig03": fig03_soplex.run,
    "fig09": fig09_energy.run,
    "fig10": fig10_fullsystem.run,
    "fig11-l2": lambda s: fig11_breakdown.run(s, level="L2"),
    "fig11-l3": lambda s: fig11_breakdown.run(s, level="L3"),
    "fig12-l2": lambda s: fig12_misses.run(s, level="L2"),
    "fig12-l3": lambda s: fig12_misses.run(s, level="L3"),
    "fig13": fig13_speedup.run,
    "fig14-l2": lambda s: fig14_insertion_classes.run(s, level="L2"),
    "fig14-l3": lambda s: fig14_insertion_classes.run(s, level="L3"),
    "fig15-l2": lambda s: fig15_sublevel_fractions.run(s, level="L2"),
    "fig15-l3": lambda s: fig15_sublevel_fractions.run(s, level="L3"),
    "fig16": fig16_multicore.run,
    "ablation-htree": ablations.run_htree,
    "ablation-replacement": ablations.run_replacement,
    "ablation-rdblock": ablations.run_rdblock,
    "ablation-22nm": ablations.run_22nm,
    "ablation-binwidth": ablations.run_binwidth,
    "ablation-sampling": ablations.run_sampling,
}


def settings_from_args(args: argparse.Namespace) -> ExperimentSettings:
    """Build settings from CLI flags, honouring explicit zeros.

    ``is not None`` checks matter: ``--length 0`` and ``--seed 0`` are
    legitimate explicit values and must not fall through to defaults.
    """
    kwargs = {}
    if args.length is not None:
        kwargs["length"] = args.length
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.jobs is not None:
        kwargs["jobs"] = args.jobs
    return ExperimentSettings(**kwargs)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="slip-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--length", type=int, default=None,
                        help="trace length (default: "
                             f"{ExperimentSettings.length})")
    parser.add_argument("--seed", type=int, default=None,
                        help="trace and simulator seed (default: "
                             f"{ExperimentSettings.seed})")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes for sweeps (default: 1)")
    parser.add_argument("--markdown", metavar="PATH", default=None,
                        help="also write the tables as markdown to PATH")
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="profile the run with cProfile and dump "
                             "pstats to PATH (forces --jobs 1; inspect "
                             "with `python -m pstats PATH`)")
    parser.add_argument("--kernel-report", action="store_true",
                        help="after the run, print per-kernel run and "
                             "decline tallies for this process (pool "
                             "workers keep their own counts)")
    args = parser.parse_args(argv)

    if args.list:
        try:
            for name in EXPERIMENTS:
                print(name)
        except BrokenPipeError:  # e.g. `slip-experiments --list | head`
            sys.stderr.close()
        return 0

    names = list(EXPERIMENTS) if args.all else args.experiments
    if not names:
        parser.print_help()
        return 1

    settings = settings_from_args(args)

    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment {unknown[0]!r}; use --list",
              file=sys.stderr)
        return 2

    jobs = resolve_jobs(settings.jobs)

    if args.profile is not None and jobs > 1:
        # cProfile only sees this process; worker processes would hide
        # exactly the hot paths being profiled. Force a serial run.
        print(f"[--profile forces --jobs 1; ignoring requested "
              f"--jobs {jobs}]", file=sys.stderr)
        settings = dataclasses.replace(settings, jobs=1)
        jobs = 1

    def run_selected() -> None:
        overall_started = time.time()
        for name in names:
            runner = EXPERIMENTS[name]
            started = time.time()
            table = runner(settings)
            print(table.formatted())
            if table.perf:
                print(table.perf_text())
            print(f"[{name} took {time.time() - started:.1f}s]\n")
            if args.markdown:
                markdown_parts.append(table.to_markdown())
        print(f"[{len(names)} experiment(s) took "
              f"{time.time() - overall_started:.1f}s total, "
              f"jobs={jobs}]")

    markdown_parts: List[str] = []
    if args.profile is not None:
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            run_selected()
        finally:
            profiler.disable()
            profiler.dump_stats(args.profile)
            print(f"[profile written to {args.profile}; inspect with "
                  f"`python -m pstats {args.profile}`]")
    else:
        run_selected()

    if args.kernel_report:
        # "["-prefixed like every timing line, so determinism diffs of
        # the table bodies stay clean (see scripts/check.sh det_smoke).
        from ..sim.kernel_report import kernel_report_lines

        print("\n".join(kernel_report_lines()))

    if args.markdown:
        header = (
            "# Experiment results\n\n"
            f"Generated by `slip-experiments` with length="
            f"{settings.length}, seed={settings.seed}.\n\n"
        )
        with open(args.markdown, "w") as handle:
            handle.write(header + "\n".join(markdown_parts))
        print(f"markdown written to {args.markdown}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
