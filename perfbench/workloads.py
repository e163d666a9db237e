"""The three workloads: what each run does, times and checks.

``flights`` and ``reach`` are CLI-shaped: every query is one
``driver.run_text`` call on a whole program text, as ``python -m repro``
makes it.  ``serve`` drives a durable ``serve.Supervisor`` with one closed-
loop client.  Each workload returns a :class:`Phase` per
measured phase; ``run.py`` turns phases into metrics.
"""

from __future__ import annotations

import functools
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from perfbench import inputs, oracle
from perfbench.trace import add, diff

SETUP_REPEATS = 9
# A measured phase runs whole rounds until its time is up and it holds
# at least this many queries, so that p90 rests on enough samples.
MIN_QUERIES = 100
# How long one operation may take before the run gives up on it.
OP_TIMEOUT_S = 60.0

# A fresh interpreter imports the CLI, then parses and splits the
# program it is given on stdin: what ``python -m repro prog.cql`` does
# before it evaluates anything.
_SETUP_CHILD = (
    "import sys\n"
    "import repro.__main__\n"
    "from repro.driver import split_edb\n"
    "from repro.lang.parser import parse_program_and_queries\n"
    "program, __ = parse_program_and_queries(sys.stdin.read())\n"
    "split_edb(program)\n"
    "print('ready', flush=True)\n"
)


@dataclass
class Record:
    """One completed operation."""

    op: inputs.Op
    submitted: float
    done: float
    answers: list[str] | None = None
    error: str | None = None   # set when the operation failed on its own

    @property
    def latency(self) -> float:
        return self.done - self.submitted


@dataclass
class Phase:
    """The operations of one measured phase and what they returned.

    A phase is measured in one stretch (CLI workloads) or in several
    (serve epochs); time and trace totals cover only the stretches.
    """

    records: list[Record] = field(default_factory=list)
    seconds: float = 0.0       # measured time
    answers_returned: int = 0
    wrong_answers: int = 0
    peak_rss_mb: float = 0.0   # read when measuring ended, before checks
    failures: list[str] = field(default_factory=list)
    trace: dict | None = None      # trace totals of the measured time
    trace_end: dict | None = None  # trace totals since installing


def _measured(phase: Phase, started: float, trace, before) -> None:
    """Close one measured stretch: its time, peak memory and trace."""
    phase.seconds += time.perf_counter() - started
    phase.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if trace is not None:
        phase.trace_end = trace.snapshot()
        phase.trace = add(phase.trace, diff(phase.trace_end, before))


def _queries(phase: Phase) -> int:
    return sum(1 for record in phase.records if record.op.kind != "load")


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    return env


def cli_setup_seconds(program: str) -> float:
    """Median wall time from spawning the CLI to a parsed program."""
    times = []
    for __ in range(SETUP_REPEATS):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=_src_env(), text=True,
        )
        try:
            child.stdin.write(program)
            child.stdin.close()
            line = child.stdout.readline()
            times.append(time.perf_counter() - started)
            child.stdout.read()
        finally:
            if child.poll() is None:
                child.kill()
            child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError("CLI set-up child failed")
    return statistics.median(times)


# -- CLI-shaped workloads ---------------------------------------------


@dataclass(frozen=True)
class CliWorkload:
    name: str
    strategy: str
    pool: list
    make_round: object   # (rng, input_id) -> list[Op]
    expected: object     # (CliInput, spec) -> list[str]
    fact_count: object   # CliInput -> int


def cli_workload(name: str, seed: int) -> CliWorkload:
    if name == "flights":
        return CliWorkload(
            "flights", "rewrite", inputs.flights_pool(seed),
            inputs.flights_round,
            lambda entry, spec: oracle.flight_answers(
                _table(oracle.flight_table, entry.legs), spec
            ),
            lambda entry: len(entry.legs),
        )
    return CliWorkload(
        "reach", "auto", inputs.reach_pool(seed), inputs.reach_round,
        lambda entry, spec: oracle.reach_answers(
            _table(oracle.reach_table, entry.edges), spec
        ),
        lambda entry: len(entry.edges),
    )


@functools.lru_cache(maxsize=inputs.POOL)
def _table(build, facts: tuple):
    """The independent answer table of one pool entry."""
    return build(facts)


def cli_rounds(workload: CliWorkload, seed: int):
    """The seeded, endless round sequence: pool entries in turn."""
    rng = random.Random(f"{workload.name}/{seed}/ops")
    for number in range(1 << 30):
        yield workload.make_round(rng, number % len(workload.pool))


def run_cli_phase(workload: CliWorkload, seed: int, seconds: float,
                  trace=None) -> Phase:
    """Run whole rounds until ``seconds`` have passed and the phase holds
    ``MIN_QUERIES`` queries, then check."""
    from repro import driver

    phase = Phase()
    clock = time.perf_counter
    for ops in cli_rounds(workload, seed):
        # One unmeasured round first, so lazy imports and first-use
        # set-up inside the program are not charged to the first queries.
        for op in ops:
            _cli_op(workload, driver, op, clock)
        break
    before = trace.snapshot() if trace is not None else None
    started = clock()
    deadline = started + seconds
    for ops in cli_rounds(workload, seed):
        if clock() >= deadline and _queries(phase) >= MIN_QUERIES:
            break
        for op in ops:
            if trace is not None:
                trace.request = len(phase.records)
            phase.records.append(_cli_op(workload, driver, op, clock))
    _measured(phase, started, trace, before)
    for record in phase.records:
        _check_cli(workload, record, phase)
    return phase


def _cli_op(workload: CliWorkload, driver, op: inputs.Op, clock) -> Record:
    entry = workload.pool[op.input_id]
    record = Record(op, clock(), 0.0)
    try:
        if op.kind == "load":
            program, __ = driver.parse_program_and_queries(entry.program)
            __, edb = driver.split_edb(program)
            record.done = clock()
            if edb.count() != workload.fact_count(entry):
                record.error = "load lost facts"
        else:
            outcome, = driver.run_text(
                entry.program + op.text, strategy=workload.strategy
            )
            record.done = clock()
            record.answers = outcome.answer_strings
            if outcome.completeness != "complete":
                record.error = f"not complete: {outcome.completeness}"
    except Exception as error:  # an operation failure, reported as such
        record.done = clock()
        record.error = f"{type(error).__name__}: {error}"
    return record


def _check_cli(workload: CliWorkload, record: Record, phase: Phase) -> None:
    if record.error is None and record.answers is not None:
        phase.answers_returned += len(record.answers)
        entry = workload.pool[record.op.input_id]
        wrong = oracle.exact_mismatch(
            record.answers, workload.expected(entry, record.op.spec)
        )
        if wrong is not None:
            record.error = f"wrong answer: {wrong}"
            phase.wrong_answers += 1
    if record.error is not None:
        phase.failures.append(f"{record.op.text or record.op.kind}: {record.error}")


def regret(program: str, queries: list[str]) -> float:
    """Geometric mean over query forms of chosen ÷ fastest strategy time.

    Each form runs once under ``auto`` to learn its choice, then under
    every strategy (best of two); untraced.
    """
    from repro import driver

    ratios = []
    for query in queries:
        chosen = driver.run_text(program + query, strategy="auto")[0].strategy
        times = {}
        for strategy in driver.STRATEGIES:
            best = None
            for __ in range(2):
                started = time.perf_counter()
                driver.run_text(program + query, strategy=strategy)
                took = time.perf_counter() - started
                best = took if best is None else min(best, took)
            times[strategy] = best
        ratios.append(times[chosen] / min(times.values()))
    return statistics.geometric_mean(ratios)


def cli_regret_queries(workload: CliWorkload, seed: int) -> list[str]:
    """One query of each kind from the workload's first round."""
    first = next(cli_rounds(workload, seed))
    by_kind = {}
    for op in first:
        if op.kind != "load":
            by_kind.setdefault(op.kind, op.text)
    return list(by_kind.values())


# -- serve ------------------------------------------------------------


def fact_key(fact) -> tuple:
    """A stored fact as ``(pred, value, ...)`` with plain values."""
    return (fact.pred, tuple(
        value.name if hasattr(value, "name") else int(value)
        for value in fact.args
    ))


class ServeHarness:
    """A durable supervisor in a directory of its own, and its client.

    The client runs in epochs.  Each epoch restarts the supervisor on a
    copy of the initial facts and then runs a fixed number of rounds,
    so every epoch serves the same amount of stored state whatever the
    host's speed.  A run that only grew one database would serve larger
    state the faster it went, and its latencies would follow the host.
    Restarts between epochs are not measured.
    """

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.base = inputs.serve_input(seed)
        self.workdir = workdir
        self.template = os.path.join(workdir, "initial")
        self.supervisor = None
        self.engine = None
        self.base_facts = {("singleleg", leg) for leg in self.base.legs} | {
            ("edge", edge) for edge in self.base.edges
        }

    def _supervisor(self, directory: str):
        from repro.serve.snapshot import program_sha
        from repro.serve.supervisor import ServeConfig, Supervisor
        from repro.service.engine import Engine

        self.engine = Engine.from_text(self.base.rules, strategy="rewrite")
        config = ServeConfig(
            workers=inputs.SERVE_WORKERS, snapshot_dir=directory
        )
        return Supervisor(
            self.engine, config, program_id=program_sha(self.base.rules)
        )

    def _request(self, line: str):
        pending = self.supervisor.submit(line)
        return pending.result(OP_TIMEOUT_S)

    def _stop(self) -> None:
        if self.supervisor is not None:
            self.supervisor.drain(OP_TIMEOUT_S)
        self.supervisor = self.engine = None

    def create(self) -> None:
        """A durable directory that holds the initial facts."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.supervisor = self._supervisor(self.template)
        self.supervisor.recover()
        self.supervisor.start()
        try:
            facts = (
                inputs.leg_text(list(self.base.legs))
                + inputs.edge_text(list(self.base.edges))
            ).replace("\n", " ")
            response = self._request(facts)
            if not response.ok or response.added != len(self.base_facts):
                raise RuntimeError(f"initial load failed: {response}")
        finally:
            self._stop()

    def restart(self, directory: str) -> float:
        """Restart on a copy of the initial facts, recover, start and
        answer each form once; seconds, not counting the copy."""
        form_rng = random.Random(f"serve/{self.seed}/setup")
        self._stop()
        shutil.rmtree(directory, ignore_errors=True)
        shutil.copytree(self.template, directory)
        started = time.perf_counter()
        self.supervisor = self._supervisor(directory)
        self.supervisor.recover()
        self.supervisor.start()
        for op in inputs.serve_form_queries(form_rng):
            response = self._request(op.text)
            if not response.ok:
                raise RuntimeError(f"set-up query failed: {response}")
        took = time.perf_counter() - started
        if self.recovered_facts() != self.base_facts:
            raise RuntimeError("restart did not recover the initial facts")
        return took

    def recovered_facts(self) -> set:
        __, facts = self.engine.session.export_state()
        return {fact_key(fact) for fact in facts}

    def setup(self) -> float:
        """Create the initial directory, then the median of restarts."""
        self.create()
        directory = os.path.join(self.workdir, "setup")
        return statistics.median(
            self.restart(directory) for __ in range(SETUP_REPEATS)
        )

    def run(self, seconds: float, trace=None) -> Phase:
        """Whole epochs for ``seconds`` of measured time, then checks."""
        phase = Phase()
        epochs: list[tuple] = []    # (directory, loads, first record)
        interned: dict[tuple, tuple] = {}
        while phase.seconds < seconds or _queries(phase) < MIN_QUERIES:
            directory = os.path.join(self.workdir, f"epoch{len(epochs)}")
            self.restart(directory)
            loads: list[list] = []  # [fact spec, submitted, acked or None]
            epochs.append((directory, loads, len(phase.records)))
            script = inputs.ServeClientScript(self.seed, len(epochs), self.base)
            if not self._epoch(phase, script, loads, interned, trace):
                break
        self._stop()
        if trace is not None:
            trace.uninstall()
        self._check(phase, epochs)
        return phase

    def _epoch(self, phase, script, loads, interned, trace) -> bool:
        """One measured epoch; False when the client raised."""
        clock = time.perf_counter
        before = trace.snapshot() if trace is not None else None
        started = clock()
        try:
            for __ in range(inputs.SERVE_EPOCH_ROUNDS):
                for op in script.round():
                    record = Record(op, clock(), 0.0)
                    if op.kind == "load":
                        load = [op.spec, record.submitted, None]
                        loads.append(load)
                    response = self._request(op.text)
                    record.done = clock()
                    if not response.ok:
                        record.error = response.error_message
                    elif op.kind == "load":
                        if response.added != 1:
                            record.error = "load added nothing"
                        else:
                            load[2] = record.done
                    else:
                        # Repeated answer lists share one tuple, so the
                        # records add little to peak memory.
                        answers = tuple(response.answer_strings)
                        record.answers = interned.setdefault(answers, answers)
                        if response.completeness != "complete":
                            record.error = response.completeness
                    phase.records.append(record)
        except Exception as error:  # reported, never swallowed
            phase.failures.append(f"client: {type(error).__name__}: {error}")
            return False
        finally:
            _measured(phase, started, trace, before)
        return True

    def _check(self, phase: Phase, epochs: list) -> None:
        ends = [first for __, __, first in epochs[1:]] + [len(phase.records)]
        for (directory, loads, first), end in zip(epochs, ends):
            model = oracle.FactModel(self.base.legs, self.base.edges)
            acked = sorted(
                (load[2], load[0]) for load in loads if load[2] is not None
            )
            submitted = sorted((load[1], load[0]) for load in loads)
            for record in phase.records[first:end]:
                if record.error is None and record.answers is not None:
                    phase.answers_returned += len(record.answers)
                    lower = frozenset(
                        spec for at, spec in acked if at < record.submitted
                    )
                    upper = frozenset(
                        spec for at, spec in submitted if at < record.done
                    )
                    wrong = oracle.bounded_mismatch(
                        record.answers,
                        model.answers(record.op.spec, lower),
                        model.answers(record.op.spec, upper),
                    )
                    if wrong is not None:
                        record.error = f"wrong answer: {wrong}"
                        phase.wrong_answers += 1
                if record.error is not None:
                    phase.failures.append(f"{record.op.text}: {record.error}")
            # Durability: a restart recovers exactly the acknowledged facts.
            self._supervisor(directory).recover()
            expected = self.base_facts | {spec for __, spec in acked}
            if self.recovered_facts() != expected:
                phase.failures.append(
                    f"{os.path.basename(directory)}: restart did not "
                    "recover the acked facts"
                )
            self.engine = None

    def close(self) -> None:
        self._stop()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def regret_inputs(self) -> tuple[str, list[str]]:
        program = (
            self.base.rules + inputs.leg_text(list(self.base.legs))
            + inputs.edge_text(list(self.base.edges))
        )
        rng = random.Random(f"serve/{self.seed}/setup")
        return program, [op.text for op in inputs.serve_form_queries(rng)]
