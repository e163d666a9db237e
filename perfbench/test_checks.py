"""Tests of the benchmark's answer checks: ``python3 -m pytest perfbench``.

The checks must catch both ways an answer set can be wrong: an answer
dropped and an answer added.
"""

from perfbench import oracle

LEGS = [
    ("madison", "chicago", 50, 100),
    ("chicago", "seattle", 150, 40),
    ("chicago", "dallas", 300, 200),
]
EDGES = [(0, 1), (1, 2), (2, 3), (1, 3)]


def test_flight_table_gives_the_paper_answer():
    table = oracle.flight_table(LEGS)
    answers = oracle.flight_answers(
        table, ("cheaporshort", "madison", "seattle", None)
    )
    assert answers == ["C = 140, T = 230"]
    # madison->dallas is slow (380) and expensive (300): not an answer.
    assert oracle.flight_answers(
        table, ("cheaporshort", "madison", "dallas", None)
    ) == []


def test_flight_bounds_and_free_arguments():
    table = oracle.flight_table(LEGS)
    assert oracle.flight_answers(
        table, ("cheaporshort", "madison", None, ("C", 100))
    ) == ["C = 100, D = chicago, T = 50"]
    assert oracle.flight_answers(
        table, ("cheaporshort", None, None, ("T", 150))
    ) == [
        "C = 100, D = chicago, S = madison, T = 50",
        "C = 40, D = seattle, S = chicago, T = 150",
    ]


def test_reach_is_the_transitive_closure():
    table = oracle.reach_table(EDGES)
    assert oracle.reach_answers(table, ("reach", 0, None, None)) == [
        "Y = 1", "Y = 2", "Y = 3",
    ]
    assert oracle.reach_answers(table, ("reach", None, 3, None)) == [
        "X = 0", "X = 1", "X = 2",
    ]
    assert oracle.reach_answers(table, ("reach", None, None, 1)) == [
        "X = 0, Y = 1",
    ]
    # Edges that do not go up in id are ignored, as X < Y demands.
    assert (3, 0) not in oracle.reach_table(EDGES + [(3, 0)])


def test_exact_check_catches_a_dropped_and_an_extra_answer():
    expected = oracle.reach_answers(
        oracle.reach_table(EDGES), ("reach", 0, None, None)
    )
    assert oracle.exact_mismatch(list(expected), expected) is None
    assert "missing" in oracle.exact_mismatch(expected[1:], expected)
    assert "Y = 9" in oracle.exact_mismatch(expected + ["Y = 9"], expected)
    assert oracle.exact_mismatch(expected + expected[:1], expected) == (
        "duplicate answers"
    )


def test_bounded_check_catches_a_dropped_and_an_extra_answer():
    model = oracle.FactModel(LEGS, EDGES)
    spec = ("reach", 0, None, None)
    new_edge = frozenset({("edge", (3, 4))})
    lower = model.answers(spec)
    upper = model.answers(spec, new_edge)
    assert upper == lower + ["Y = 4"]
    # Either side of a load that overlapped the query is accepted.
    assert oracle.bounded_mismatch(lower, lower, upper) is None
    assert oracle.bounded_mismatch(upper, lower, upper) is None
    assert oracle.bounded_mismatch(lower[1:], lower, upper) is not None
    assert oracle.bounded_mismatch(upper + ["Y = 7"], lower, upper) is not None


def test_fact_model_adds_loaded_legs():
    model = oracle.FactModel(LEGS, EDGES)
    spec = ("cheaporshort", "madison", "boston", None)
    assert model.answers(spec) == []
    leg = frozenset({("singleleg", ("seattle", "boston", 20, 10))})
    assert model.answers(spec, leg) == ["C = 150, T = 280"]
