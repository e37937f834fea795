"""Vis-lint throughput and gate effect: static VQL analysis vs execution.

A Text-to-Vis system can reject a malformed DV query two ways: statically
(parse, type the output schema, run the V-rule catalog) or empirically
(execute the SQL and let the spec builder raise).  This benchmark
quantifies the trade over the gold VQLs of an nvBench-like sample:

1. **throughput** — VQLs/second for parse-only, full vis lint (with and
   without the database-backed cardinality rules), and execute+build-spec;
2. **gate effect** — one corrupted candidate (chart type forced to
   scatter over a categorical axis) injected per gold VQL: how many the
   gate prunes, how often chart repair recovers a renderable chart, and
   the decision rate.

Results are written to ``BENCH_vis_lint.json`` at the repository root.
``--smoke`` shrinks the sample for a CI smoke run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _harness import print_table

from repro.datasets import build_dataset
from repro.sql.executor import execute
from repro.vis.lint import VisLintGate, lint_vis
from repro.vis.spec import build_spec
from repro.vis.vql import VQLQuery, parse_vql


def _gold(scale: float):
    ds = build_dataset("nvbench_like", scale=scale, seed=11)
    out = []
    for example in ds.examples:
        if example.vql is None:
            continue
        out.append((example.vql, ds.database(example.db_id)))
    return out


def _rate(label, items, fn, repeat=3):
    best = 0.0
    for _ in range(repeat):
        start = time.perf_counter()
        for vql_text, db in items:
            fn(vql_text, db)
        elapsed = time.perf_counter() - start
        best = max(best, len(items) / elapsed)
    return (label, best)


def _chart(vql_text, db):
    vql = parse_vql(vql_text)
    return build_spec(vql, execute(vql.query, db))


def _throughput(items):
    rows = [
        _rate("parse only", items, lambda v, db: parse_vql(v)),
        _rate(
            "full vis lint (schema only)",
            items,
            lambda v, db: lint_vis(parse_vql(v), db.schema),
        ),
        _rate(
            "full vis lint (+ cardinality stats)",
            items,
            lambda v, db: lint_vis(parse_vql(v), db.schema, db=db),
        ),
        _rate("execute + build spec", items, _chart),
    ]
    print_table(
        f"Static vis analysis vs execution ({len(items)} gold VQLs)",
        ["filter", "throughput"],
        [(label, f"{qps:,.0f} VQLs/s") for label, qps in rows],
    )
    return {label: round(qps, 1) for label, qps in rows}


def _corrupt(vql: VQLQuery) -> VQLQuery:
    """The classic Text-to-Vis failure: right data, wrong chart type."""
    return vql.with_chart("scatter")


def _gate_effect(items):
    gate = VisLintGate()
    pruned = examined = repaired = changed = 0
    programs = [(parse_vql(vql_text), db) for vql_text, db in items]
    start = time.perf_counter()
    for vql, db in programs:
        candidates = [_corrupt(vql), vql]
        decision = gate.decide(candidates, db.schema, db=db)
        examined += decision.examined
        pruned += len(decision.pruned)
        repaired += decision.repaired
        if decision.chosen is not None and decision.chosen != candidates[0]:
            changed += 1
    elapsed = time.perf_counter() - start
    stats = {
        "examined": examined,
        "pruned": pruned,
        "repaired": repaired,
        "choice_changed": changed,
        "decisions_per_second": round(len(items) / elapsed, 1),
    }
    print_table(
        "Gate effect (1 wrong-chart candidate injected per gold VQL)",
        ["pruned/examined", "repaired", "choice changed", "rate"],
        [
            (
                f"{pruned}/{examined}",
                repaired,
                changed,
                f"{stats['decisions_per_second']:,.1f} decisions/s",
            )
        ],
    )
    return stats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", "--quick", action="store_true", dest="smoke",
        help="small sizes for a CI smoke run",
    )
    args = parser.parse_args(argv)

    items = _gold(scale=0.01 if args.smoke else 0.06)
    throughput = _throughput(items)
    gate = _gate_effect(items)

    out_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..",
        "BENCH_vis_lint.json",
    )
    payload = {
        "smoke": args.smoke,
        "gold_vqls": len(items),
        "throughput_vqls_per_second": throughput,
        "gate_effect": gate,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {os.path.normpath(out_path)}")


if __name__ == "__main__":
    main()
