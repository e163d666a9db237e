"""Seeded inputs of the three workloads.

Everything the program is asked to do is generated here from the run's
``--seed``, so two builds compared on one seed do exactly the same
work.  The generators deliberately do not use ``repro.workloads``: a
change to the program must not be able to change its own inputs.

Shapes are fixed; the seed draws leg times and costs, which cities or
nodes a leg or edge joins, and the constants of each query.  Each
network or DAG of a pool has the same size, so per-operation cost
varies little between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FLIGHT_RULES = """\
cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost),
                                Cost > 0, Time > 0.
flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                      T = T1 + T2 + 30, C = C1 + C2.
"""

REACH_RULES = """\
reach(X, Y) :- edge(X, Y), X < Y.
reach(X, Y) :- reach(X, Z), edge(Z, Y), Z < Y.
"""

# flights: 4 layers of 3 cities, 2 forward legs per city.
FLIGHT_LAYERS, FLIGHT_WIDTH, FLIGHT_FANOUT = 4, 3, 2
# reach: 7 layers of 5 nodes, 2 forward edges per node.
REACH_LAYERS, REACH_WIDTH, REACH_FANOUT = 7, 5, 2
# Each CLI-shaped run cycles through a pool of this many inputs.
POOL = 8

Leg = tuple[str, str, int, int]
Edge = tuple[int, int]


def city(layer: int, index: int) -> str:
    return f"c{layer}_{index}"


def flight_legs(
    rng: random.Random, layers: int, width: int, fanout: int
) -> list[Leg]:
    """Forward legs between consecutive layers, with time and cost."""
    legs = []
    for layer in range(layers - 1):
        for index in range(width):
            for target in rng.sample(range(width), fanout):
                legs.append((
                    city(layer, index), city(layer + 1, target),
                    rng.randint(20, 150), rng.randint(10, 120),
                ))
    return legs


def layered_dag(
    rng: random.Random, layers: int, width: int, fanout: int
) -> list[Edge]:
    """Forward edges between consecutive layers; ids grow by layer."""
    edges = set()
    for layer in range(layers - 1):
        for index in range(width):
            for target in rng.sample(range(width), fanout):
                edges.add((
                    layer * width + index, (layer + 1) * width + target,
                ))
    return sorted(edges)


def leg_text(legs: list[Leg]) -> str:
    return "".join(f"singleleg({s}, {d}, {t}, {c}).\n" for s, d, t, c in legs)


def edge_text(edges: list[Edge]) -> str:
    return "".join(f"edge({a}, {b}).\n" for a, b in edges)


@dataclass(frozen=True)
class Op:
    """One operation: a query, or a load.

    ``spec`` is the query in the form the independent checker reads:
    ``("cheaporshort", source, target, bound)`` with ``bound`` None or
    ``("T" | "C", k)``, or ``("reach", x, y, k)`` with ``k`` an upper
    bound on ``Y``; ``None`` marks a free argument.  A serve load
    carries its fact in ``spec`` instead.
    """

    kind: str            # "load" or a query kind
    text: str            # query source, or fact source for a serve load
    input_id: int = 0    # which pool entry the operation runs on
    spec: tuple = ()


def flight_query(kind, source, target, bound, input_id=0) -> Op:
    args = [source or "S", target or "D", "T", "C"]
    text = f"?- cheaporshort({', '.join(args)})"
    if bound is not None:
        text += f", {bound[0]} <= {bound[1]}"
    return Op(kind, text + ".", input_id, ("cheaporshort", source, target, bound))


def reach_query(kind, x, y, limit, input_id=0) -> Op:
    text = f"?- reach({'X' if x is None else x}, {'Y' if y is None else y})"
    if limit is not None:
        text += f", Y <= {limit}"
    return Op(kind, text + ".", input_id, ("reach", x, y, limit))


@dataclass(frozen=True)
class CliInput:
    """One pool entry of a CLI-shaped workload: a program with facts."""

    program: str         # rules plus ground facts, without a query
    legs: tuple = ()
    edges: tuple = ()


# -- flights ----------------------------------------------------------


def flights_pool(seed: int) -> list[CliInput]:
    rng = random.Random(f"flights/{seed}")
    pool = []
    for __ in range(POOL):
        legs = flight_legs(
            rng, FLIGHT_LAYERS, FLIGHT_WIDTH, FLIGHT_FANOUT
        )
        pool.append(CliInput(FLIGHT_RULES + leg_text(legs), legs=tuple(legs)))
    return pool


def flights_round(rng: random.Random, input_id: int) -> list[Op]:
    """A load of the network, then two queries of each kind.

    Kinds: a bound pair, a bound source with ``C <= k`` and a free
    query with ``T <= k``.
    """
    last = FLIGHT_LAYERS - 1
    ops = [Op("load", "", input_id)]
    for __ in range(2):
        source = city(0, rng.randrange(FLIGHT_WIDTH))
        target = city(rng.randint(1, last), rng.randrange(FLIGHT_WIDTH))
        ops.append(flight_query("pair", source, target, None, input_id))
        source = city(rng.randrange(2), rng.randrange(FLIGHT_WIDTH))
        ops.append(flight_query(
            "source", source, None, ("C", rng.randint(100, 250)), input_id
        ))
        ops.append(flight_query(
            "free", None, None, ("T", rng.randint(150, 300)), input_id
        ))
    return ops


# -- reach ------------------------------------------------------------


def reach_pool(seed: int) -> list[CliInput]:
    rng = random.Random(f"reach/{seed}")
    pool = []
    for __ in range(POOL):
        edges = layered_dag(rng, REACH_LAYERS, REACH_WIDTH, REACH_FANOUT)
        pool.append(CliInput(REACH_RULES + edge_text(edges), edges=tuple(edges)))
    return pool


def reach_round(rng: random.Random, input_id: int) -> list[Op]:
    """A load of the DAG, then eight queries.

    Three bound-source, two bound-source with ``Y <= k``, two free with
    ``Y <= k`` and one bound-target query.  The weights keep p50 and p90
    inside one latency group each if a later planner change makes the
    bound-source kinds much cheaper than the others.
    """
    nodes = REACH_LAYERS * REACH_WIDTH
    upper_half = range(nodes // 2, nodes)
    ops = [Op("load", "", input_id)]
    sources = range(2 * REACH_WIDTH)
    for __ in range(3):
        ops.append(reach_query(
            "source", rng.choice(sources), None, None, input_id
        ))
    for __ in range(2):
        ops.append(reach_query(
            "source_le", rng.choice(sources), None,
            rng.choice(upper_half), input_id,
        ))
    for __ in range(2):
        ops.append(reach_query(
            "free_le", None, None,
            rng.randrange(REACH_WIDTH, nodes // 2), input_id,
        ))
    ops.append(reach_query(
        "target", None, rng.choice(upper_half), None, input_id
    ))
    return ops


# -- serve ------------------------------------------------------------

# serve: one program over both rule sets, on a smaller network and DAG.
SERVE_FLIGHT = (3, 3, 2)
SERVE_REACH = (5, 4, 2)
SERVE_WORKERS = 1
# Queries per load in one client round; with four forms this puts
# roughly a quarter of the queries on a resume, so p50 lies inside
# the warm hits and p90 inside the resumes.
SERVE_QUERIES_PER_LOAD = 15
# Rounds in one serve epoch: each epoch starts again from the initial
# facts, so at most this many loads pile up on them.
SERVE_EPOCH_ROUNDS = 40


@dataclass(frozen=True)
class ServeInput:
    rules: str
    legs: tuple
    edges: tuple


def serve_input(seed: int) -> ServeInput:
    rng = random.Random(f"serve/{seed}")
    # Short, cheap legs: every path is a cheaporshort answer, so the
    # number of flights is the same on every seed.
    legs = [
        (source, target, 20 + time_ % 40, 10 + cost % 30)
        for source, target, time_, cost in flight_legs(rng, *SERVE_FLIGHT)
    ]
    edges = layered_dag(rng, *SERVE_REACH)
    return ServeInput(FLIGHT_RULES + REACH_RULES, tuple(legs), tuple(edges))


def serve_form_queries(rng: random.Random) -> list[Op]:
    """One query of each serve form, with fresh constants."""
    f_layers, f_width, __ = SERVE_FLIGHT
    r_layers, r_width, __ = SERVE_REACH
    nodes = r_layers * r_width
    return [
        flight_query(
            "pair", city(0, rng.randrange(f_width)),
            city(f_layers - 1, rng.randrange(f_width)), None,
        ),
        flight_query(
            "source", city(0, rng.randrange(f_width)), None,
            ("C", rng.randint(100, 250)),
        ),
        reach_query("source", rng.randrange(2 * r_width), None, None),
        reach_query("free_le", None, None, rng.randrange(r_width, nodes)),
    ]


class ServeClientScript:
    """The seeded operation stream of one serve epoch.

    Each round is one load followed by ``SERVE_QUERIES_PER_LOAD``
    queries cycling over the four forms.  Loads alternate between a
    forward leg with a fresh time and cost and a forward edge that the
    DAG does not hold yet, so every load adds a fact.
    """

    def __init__(self, seed: int, epoch: int, base: ServeInput) -> None:
        self._rng = random.Random(f"serve/{seed}/epoch{epoch}")
        r_layers, r_width, __ = SERVE_REACH
        present = set(base.edges)
        absent = [
            (a, b)
            for a in range(r_layers * r_width)
            for b in range(a + 1, r_layers * r_width)
            if b // r_width > a // r_width and (a, b) not in present
        ]
        self._rng.shuffle(absent)
        self._edges = absent
        self._loads = 0

    def _load(self) -> Op:
        rng = self._rng
        f_layers, f_width, __ = SERVE_FLIGHT
        self._loads += 1
        if self._loads % 2 == 1 or not self._edges:
            layer = rng.randrange(f_layers - 1)
            # Slow and expensive: no flight over this leg is an answer,
            # so the pushed constraints keep the flights from growing
            # with every load.  The cost is unique to this load, so the
            # leg is always new.
            leg = (
                city(layer, rng.randrange(f_width)),
                city(layer + 1, rng.randrange(f_width)),
                rng.randint(241, 400),
                150 + self._loads,
            )
            return Op("load", leg_text([leg]).strip(), spec=("singleleg", leg))
        edge = self._edges.pop()
        return Op("load", edge_text([edge]).strip(), spec=("edge", edge))

    def round(self) -> list[Op]:
        queries: list[Op] = []
        while len(queries) < SERVE_QUERIES_PER_LOAD:
            queries.extend(serve_form_queries(self._rng))
        return [self._load(), *queries[:SERVE_QUERIES_PER_LOAD]]
