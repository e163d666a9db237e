"""Reference figures for the README: ``python3 perfbench/reference.py``.

Prints, for seed 1 inputs, median wall times of

* flights: each query kind under ``none``, ``rewrite`` and ``optimal``;
* reach on a 10×8 DAG with fan-out 3: ``reach(9, Y)`` under ``auto``
  and ``magic``, and ``Y <= k`` written in the query against the same
  selection written as a rule, both under ``rewrite``;
* serve: the first query after one new leg (a resume) and after one
  new edge, against a cold evaluation of the enlarged facts.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time

REPEATS = 3


def _median_time(run) -> tuple[float, object]:
    times, result = [], None
    for __ in range(REPEATS):
        started = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


def flights(driver, inputs) -> None:
    from perfbench import workloads

    workload = workloads.cli_workload("flights", 1)
    program = workload.pool[0].program
    for query in workloads.cli_regret_queries(workload, 1):
        row = []
        for strategy in ("none", "rewrite", "optimal"):
            took, __ = _median_time(
                lambda: driver.run_text(program + query, strategy=strategy)
            )
            row.append(f"{strategy} {took * 1000:.0f} ms")
        print(f"flights {query}: " + ", ".join(row))


def reach(driver, inputs) -> None:
    edges = inputs.layered_dag(random.Random("reference"), 10, 8, 3)
    program = inputs.REACH_RULES + inputs.edge_text(edges)
    for strategy in ("auto", "magic"):
        took, (outcome,) = _median_time(
            lambda: driver.run_text(program + "?- reach(9, Y).", strategy=strategy)
        )
        facts = outcome.result.database.count()
        print(f"reach(9, Y) {strategy} -> {outcome.strategy}: "
              f"{took * 1000:.0f} ms, {facts} facts")
    limit = 40
    in_query = program + f"?- reach(9, Y), Y <= {limit}."
    as_rule = (
        program + f"upto(X, Y) :- reach(X, Y), Y <= {limit}.\n?- upto(9, Y)."
    )
    for label, text in (("in the query", in_query), ("as a rule", as_rule)):
        took, (outcome,) = _median_time(
            lambda: driver.run_text(text, strategy="rewrite")
        )
        print(f"reach Y <= {limit} {label}, rewrite: {took * 1000:.0f} ms, "
              f"{len(outcome.answers)} answers")


def serve(inputs) -> None:
    from repro.service.engine import Engine

    base = inputs.serve_input(1)
    facts = inputs.leg_text(list(base.legs)) + inputs.edge_text(list(base.edges))
    query = "?- cheaporshort(c0_0, c2_1, T, C)."
    for label, fact in (
        ("leg", "singleleg(c1_0, c2_1, 60, 40)."),
        ("edge", "edge(0, 19)."),
    ):
        engine = Engine.from_text(base.rules + facts)
        engine.query(query)
        engine.add_facts(fact)
        started = time.perf_counter()
        response = engine.query(query)
        resumed = time.perf_counter() - started
        derivations = response.eval_stats.derivations if response.eval_stats else 0
        cold = Engine.from_text(base.rules + facts + fact + "\n")
        started = time.perf_counter()
        cold_response = cold.query(query)
        took = time.perf_counter() - started
        print(f"serve one new {label}: resume {resumed * 1000:.0f} ms "
              f"({derivations} derivations), cold {took * 1000:.0f} ms "
              f"({cold_response.eval_stats.derivations} derivations)")


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.abspath("src"), os.path.dirname(here)]
    from repro import driver
    from perfbench import inputs

    flights(driver, inputs)
    reach(driver, inputs)
    serve(inputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
