"""``python -m repro eval`` — corpus evaluation with parallel scoring.

Runs one parser stack over a generated benchmark split and prints the
standard metric battery, optionally fanning the execution-based metrics
out over worker processes::

    python -m repro eval --dataset spider_like --workers 4
    python -m repro eval --dataset wikisql_like --parser rule --limit 200
    python -m repro eval --dataset spider_like --test-suite --json
"""

from __future__ import annotations

import argparse
import json as _json


def _build_parser(kind: str, dataset):
    if kind == "rule":
        from repro.parsers import KeywordRuleParser

        parser = KeywordRuleParser()
    else:
        # score the SQL parser the production stack serves
        from repro.core.interface import build_pipeline

        parser = build_pipeline().sql_parser
    parser.train(dataset.split("train").examples, dataset.databases)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.datasets import dataset_names

    arg_parser = argparse.ArgumentParser(
        prog="python -m repro eval", description=__doc__
    )
    arg_parser.add_argument(
        "--dataset", default="spider_like", choices=dataset_names()
    )
    arg_parser.add_argument("--scale", type=float, default=0.02)
    arg_parser.add_argument("--seed", type=int, default=11)
    arg_parser.add_argument(
        "--parser", default="semantic", choices=("semantic", "rule")
    )
    arg_parser.add_argument("--split", default="dev")
    arg_parser.add_argument("--limit", type=int, default=None)
    arg_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for execution-based metrics "
        "(default: REPRO_EVAL_WORKERS, else serial; >1 enables the "
        "parallel driver)",
    )
    arg_parser.add_argument(
        "--test-suite",
        action="store_true",
        help="also score distilled test-suite match (slow but strict)",
    )
    arg_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = arg_parser.parse_args(argv)

    from repro.datasets import build_dataset
    from repro.eval.parallel import resolve_workers
    from repro.metrics import evaluate_parser

    workers = resolve_workers(args.workers, default=1)
    dataset = build_dataset(args.dataset, scale=args.scale, seed=args.seed)
    parser = _build_parser(args.parser, dataset)
    report = evaluate_parser(
        parser,
        dataset,
        split=args.split,
        with_test_suite=args.test_suite,
        limit=args.limit,
        max_workers=workers,
    )

    payload = report.as_dict()
    payload["workers"] = workers
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"{payload['parser']} on {payload['dataset']}/{payload['split']}: "
        f"{payload['total']} examples, {payload['seconds']}s "
        f"({payload['workers']} worker(s))"
    )
    for metric in report.metrics:
        print(f"  {metric:20s} {100 * report.accuracy(metric):5.1f}%")
    hardness = report.hardness_accuracy()
    if hardness:
        breakdown = ", ".join(
            f"{level}={100 * acc:.1f}%" for level, acc in hardness.items()
        )
        print(f"  by hardness: {breakdown}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
