"""``python -m repro chaos`` — fault-injection chaos runs.

Drives the resilient pipeline through a seeded chaos storm and reports
how it held up::

    python -m repro chaos                              # stock 20% storm
    python -m repro chaos --spec "translate:error:p=0.3;execute:latency:delay=0.02"
    python -m repro chaos --turns 40 --seed 3 --json   # machine-readable
    python -m repro chaos --domain healthcare          # any curated domain

Each run builds a domain database, installs the fault plan
(:func:`repro.resilience.install_faults` — the same injectors the
``REPRO_CHAOS`` env var drives), and asks a scripted mix of query and
chart questions through a :class:`~repro.core.NaturalLanguageInterface`
running under the default :class:`~repro.resilience.ResiliencePolicy`.
The report counts healthy, degraded, and failed turns, the ladder rungs
taken, and the resilience counters (retries, breaker trips, injections).
Everything is seeded — same spec + seed, same storm, same report.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs import metrics as _obs_metrics
from repro.resilience import faults as _faults

#: the stock storm: 20% stage failure plus injected latency, the
#: acceptance scenario the chaos-storm test in ``tests/test_resilience.py``
#: locks down
DEFAULT_SPEC = (
    "translate:error:p=0.2;execute:error:p=0.2;render:error:p=0.2;"
    "execute:latency:p=0.2:delay=0.001"
)

def _questions(db, turns: int) -> list[str]:
    """A scripted query/chart mix every stock parser stack can answer.

    Count questions alternate with schema-derived chart requests
    ("... per <text column>"), so a storm exercises both the SQL and the
    visualization branches of the pipeline.
    """
    from repro.data.schema import ColumnType

    pool: list[str] = []
    for table in db.schema.tables:
        name = table.name.replace("_", " ")
        pool.append(f"how many {name} are there")
        text_columns = [
            c.name for c in table.columns if c.type is ColumnType.TEXT
        ]
        if text_columns:
            per = text_columns[0].replace("_", " ")
            pool.append(
                f"draw a bar chart of the number of {name} per {per}"
            )
    return [pool[i % len(pool)] for i in range(turns)]


def run_chaos(
    spec: str,
    domain: str = "sales",
    turns: int = 20,
    seed: int = 0,
) -> dict:
    """Run one seeded chaos storm; returns the report dict.

    Installs *spec* (cleared before returning), runs *turns* scripted
    questions through a resilient NLI, and never lets a fault escape —
    an unhandled exception is itself a reported failure, not a crash.
    """
    from repro.core import NaturalLanguageInterface
    from repro.data.domains import domain_by_name
    from repro.data.generator import DatabaseGenerator
    from repro.resilience.breaker import reset_breakers

    # breakers live in a process-wide registry: a breaker tripped by an
    # earlier storm in this process must not poison this run's warm pass
    reset_breakers()
    db = DatabaseGenerator(seed=seed).populate(
        domain_by_name(domain), rows_per_table=40
    )
    nli = NaturalLanguageInterface(db, resilience=True)
    questions = _questions(db, turns)
    # warm pass: serve each question once fault-free so the execute
    # ladder's cached-result rung has something sound to fall back on —
    # the pattern a long-lived serving process gets for free
    for question in sorted(set(questions)):
        nli.ask(question)
    nli.reset()
    _faults.install(spec, seed=seed)
    healthy = degraded = failed = raised = 0
    rungs: dict[str, int] = {}
    try:
        for question in questions:
            try:
                answer = nli.ask(question)
            except Exception:  # the resilient contract says: never
                raised += 1
                failed += 1
                continue
            for rung in answer.degraded:
                rungs[rung] = rungs.get(rung, 0) + 1
            if not answer.ok:
                failed += 1
            elif answer.degraded:
                degraded += 1
            else:
                healthy += 1
    finally:
        _faults.clear_faults()
    snapshot = _obs_metrics.get_registry().snapshot()
    counters = {
        name: value
        for name, value in snapshot.items()
        if name.startswith("repro.resilience.") and value
    }
    recovered = healthy + degraded
    return {
        "spec": spec,
        "domain": domain,
        "seed": seed,
        "turns": turns,
        "healthy": healthy,
        "degraded": degraded,
        "failed": failed,
        "unhandled_exceptions": raised,
        "recovery_rate": recovered / turns if turns else 1.0,
        "ladder_rungs": dict(sorted(rungs.items())),
        "counters": counters,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="run a seeded fault-injection storm through the "
        "resilient pipeline",
    )
    parser.add_argument(
        "--spec",
        default=DEFAULT_SPEC,
        help="fault plan: 'site:kind[:p=..][:every=..][:delay=..];...' "
        f"(default: the stock 20%% storm)",
    )
    parser.add_argument("--domain", default="sales")
    parser.add_argument("--turns", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    args = parser.parse_args(argv)

    try:
        _faults.parse_fault_spec(args.spec)
    except ValueError as exc:
        print(f"invalid --spec: {exc}", file=sys.stderr)
        return 2

    report = run_chaos(
        args.spec, domain=args.domain, turns=args.turns, seed=args.seed
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"chaos storm: {report['spec']}")
        print(
            f"  {report['turns']} turn(s): {report['healthy']} healthy, "
            f"{report['degraded']} degraded, {report['failed']} failed"
        )
        print(f"  recovery rate: {report['recovery_rate']:.0%}")
        for rung, count in report["ladder_rungs"].items():
            print(f"  ladder {rung}: {count}")
        if report["unhandled_exceptions"]:
            print(
                f"  UNHANDLED EXCEPTIONS: {report['unhandled_exceptions']}"
            )
    return 1 if report["unhandled_exceptions"] else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
