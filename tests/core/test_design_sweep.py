"""Every design-sweep answer matches its recorded digest.

The benchmark's ``design_sweep`` workload checks each answer it draws
against ``bench/expected/design_sweep.json``; this test checks all of
them, so a moved ``explore`` or Fig. 12 ladder answer fails the suite
rather than only a benchmark run.
"""

from __future__ import annotations

from bench import sweep, workloads


def test_every_design_answer_matches_its_digest():
    expected = workloads.expected_answers()
    queries = sweep.all_queries()
    assert len(queries) == len(expected)
    moved = [query for query in queries
             if sweep.digest(sweep.answer(*query))
             != expected[sweep.query_key(query)]]
    assert moved == [], f"{len(moved)} answers differ, first {moved[:5]}"
