"""Command-line entry point: ``dcmt-experiments <artifact>``.

Regenerates any paper table/figure from the terminal (``table4`` also
prints the oracle ``r(do(o=1))`` CVR AUC panel)::

    dcmt-experiments table2
    dcmt-experiments table4 --scale 0.5 --seeds 0 1
    dcmt-experiments fig8c
    dcmt-experiments all --scale 0.25
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.configs import ExperimentConfig
from repro.experiments.fig7_distribution import run_fig7
from repro.experiments.fig8_hyperparams import (
    run_fig8a_embedding_dim,
    run_fig8b_mlp_depth,
    run_fig8c_lambda1,
    run_fig8d_hard_constraint,
)
from repro.experiments.table2_datasets import run_table2
from repro.experiments.table3_models import run_table3
from repro.experiments.table4_offline import run_table4
from repro.experiments.table5_online import run_table5
from repro.utils.logging import enable_console_logging

ARTIFACTS = (
    "table2",
    "table3",
    "table4",
    "table5",
    "fig7",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig8d",
    "report",
    "all",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcmt-experiments",
        description="Regenerate the DCMT paper's tables and figures.",
    )
    parser.add_argument("artifact", choices=ARTIFACTS)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale in (0, 1]; shrinks dataset sizes",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[0, 1, 2],
        help="random seeds to average over",
    )
    parser.add_argument(
        "--epochs", type=int, default=8, help="training epochs per model"
    )
    parser.add_argument(
        "--svg-dir",
        type=str,
        default=None,
        help="also write figure artifacts (fig7/fig8*) as SVG files here",
    )
    parser.add_argument(
        "--out",
        type=str,
        default="report",
        help="output directory for the 'report' artifact",
    )
    parser.add_argument("--verbose", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        enable_console_logging()
    config = ExperimentConfig(
        scale=args.scale, seeds=tuple(args.seeds), epochs=args.epochs
    )
    if args.artifact == "report":
        from repro.experiments.report import generate_report

        result = generate_report(args.out, config)
        print(f"report written to {result.markdown_path}")
        return 0
    artifacts = (
        ["table2", "table3", "table4", "table5", "fig7", "fig8a", "fig8b", "fig8c", "fig8d"]
        if args.artifact == "all"
        else [args.artifact]
    )
    for artifact in artifacts:
        result = _run(artifact, config)
        print(result.render())
        print()
        if artifact == "table4":
            print(result.render_do_diagnostic())
            print()
        if args.svg_dir:
            _write_svgs(artifact, result, args.svg_dir)
    return 0


def _write_svgs(artifact: str, result, svg_dir: str) -> None:
    """Write SVG files for artifacts that support them."""
    from repro.experiments.svg import save_svg

    if artifact.startswith("fig8") and hasattr(result, "to_svg"):
        path = save_svg(result.to_svg(), f"{svg_dir}/{artifact}.svg")
        print(f"wrote {path}")
    elif artifact == "fig7":
        for model in result.predictions:
            path = save_svg(
                result.to_svg(model), f"{svg_dir}/fig7_{model}.svg"
            )
            print(f"wrote {path}")


def _run(artifact: str, config: ExperimentConfig):
    if artifact == "table2":
        return run_table2(config)
    if artifact == "table3":
        return run_table3(config)
    if artifact == "table4":
        return run_table4(config)
    if artifact == "table5":
        return run_table5(config)
    if artifact == "fig7":
        return run_fig7(config)
    if artifact == "fig8a":
        return run_fig8a_embedding_dim(config)
    if artifact == "fig8b":
        return run_fig8b_mlp_depth(config)
    if artifact == "fig8c":
        return run_fig8c_lambda1(config)
    if artifact == "fig8d":
        return run_fig8d_hard_constraint(config)
    raise ValueError(f"unknown artifact {artifact!r}")


if __name__ == "__main__":
    sys.exit(main())
