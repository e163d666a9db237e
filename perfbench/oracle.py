"""Answer checks computed apart from the program.

Nothing here imports ``repro``: flight answers come from enumerating
the paths of the leg DAG, reach answers from a breadth-first search,
and serve answers from the client's own model of the facts.  Answers
are compared as the sorted binding strings the CLI prints
(``"C = 140, D = c2_1, T = 230"``, variables in name order).
"""

from __future__ import annotations

from collections import defaultdict, deque

FLIGHT_SHORT = 240   # cheaporshort keeps flights with T <= 240 ...
FLIGHT_CHEAP = 150   # ... or C <= 150
LAYOVER = 30         # every connection adds 30 to the time


def flight_table(legs) -> set[tuple[str, str, int, int]]:
    """Every ``cheaporshort(S, D, T, C)`` fact over the legs.

    A flight is a path of one or more legs: ``T`` is the sum of the leg
    times plus 30 per connection and ``C`` the sum of the leg costs.
    The legs must form a DAG (they go forward a layer at a time).
    """
    out = defaultdict(list)
    for source, target, time_, cost in legs:
        if time_ > 0 and cost > 0:
            out[source].append((target, time_, cost))
    flights: set[tuple[str, str, int, int]] = set()
    for start in list(out):
        stack = [(start, -LAYOVER, 0)]
        while stack:
            here, time_, cost = stack.pop()
            for target, leg_time, leg_cost in out[here]:
                total = (time_ + LAYOVER + leg_time, cost + leg_cost)
                flights.add((start, target, *total))
                stack.append((target, *total))
    return {
        flight for flight in flights
        if flight[2] <= FLIGHT_SHORT or flight[3] <= FLIGHT_CHEAP
    }


def reach_table(edges) -> set[tuple[int, int]]:
    """Every ``reach(X, Y)`` fact: paths over edges that go up in id."""
    out = defaultdict(list)
    for a, b in edges:
        if a < b:
            out[a].append(b)
    pairs = set()
    for start in list(out):
        seen = set()
        queue = deque(out[start])
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            queue.extend(out[node])
        pairs.update((start, node) for node in seen)
    return pairs


def _render(bindings: dict) -> str:
    return ", ".join(f"{name} = {bindings[name]}" for name in sorted(bindings))


def flight_answers(table, spec) -> list[str]:
    __, source, target, bound = spec
    rows = []
    for s, d, t, c in table:
        if source is not None and s != source:
            continue
        if target is not None and d != target:
            continue
        if bound is not None and {"T": t, "C": c}[bound[0]] > bound[1]:
            continue
        bindings = {"T": t, "C": c}
        if source is None:
            bindings["S"] = s
        if target is None:
            bindings["D"] = d
        rows.append(_render(bindings))
    return sorted(rows)


def reach_answers(table, spec) -> list[str]:
    __, x, y, limit = spec
    rows = []
    for a, b in table:
        if x is not None and a != x:
            continue
        if y is not None and b != y:
            continue
        if limit is not None and b > limit:
            continue
        bindings = {}
        if x is None:
            bindings["X"] = a
        if y is None:
            bindings["Y"] = b
        rows.append(_render(bindings))
    return sorted(rows)


class FactModel:
    """The answers a fact set must give, memoized per fact set."""

    def __init__(self, legs, edges) -> None:
        self._legs = tuple(legs)
        self._edges = tuple(edges)
        self._tables: dict[frozenset, tuple] = {}

    def answers(self, spec, loaded: frozenset = frozenset()) -> list[str]:
        """Answers of a query over the base facts plus ``loaded``.

        ``loaded`` holds ``("singleleg", leg)`` / ``("edge", edge)``
        specs of facts loaded after the base.
        """
        tables = self._tables.get(loaded)
        if tables is None:
            if len(self._tables) >= 8:
                # Checks walk the operations in order, so fact sets only
                # grow: old tables are not needed again.
                self._tables.clear()
            legs = self._legs + tuple(f for k, f in loaded if k == "singleleg")
            edges = self._edges + tuple(f for k, f in loaded if k == "edge")
            tables = (flight_table(legs), reach_table(edges))
            self._tables[loaded] = tables
        if spec[0] == "cheaporshort":
            return flight_answers(tables[0], spec)
        return reach_answers(tables[1], spec)


def exact_mismatch(got: list[str], expected: list[str]) -> str | None:
    """None when the answer lists agree, else a one-line reason."""
    if got == expected:
        return None
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    if not missing and not extra:
        return "duplicate answers"
    return f"missing {missing[:3]} extra {extra[:3]}"


def bounded_mismatch(
    got: list[str], lower: list[str], upper: list[str]
) -> str | None:
    """None when ``lower <= got <= upper`` as sets, without duplicates.

    Valid for monotone programs: a query that overlapped loads sees at
    least the facts acknowledged before it was submitted and at most
    the facts submitted before it completed.
    """
    answer_set = set(got)
    if len(answer_set) != len(got):
        return "duplicate answers"
    missing = sorted(set(lower) - answer_set)
    extra = sorted(answer_set - set(upper))
    if missing or extra:
        return f"missing {missing[:3]} extra {extra[:3]}"
    return None
