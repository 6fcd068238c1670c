"""Closed-loop timing, per-layer spans and metric reduction.

This module knows nothing about atomlab: a workload hands it rounds of
``Op`` objects, and it times them, records spans around the calls they
make into the program, and reduces the samples to named metrics.

One client runs in one thread.  It sends the next operation only after
the previous one returned and its answer was checked, so a slower
program receives less load.  Checks run with the clock stopped: every
time below is time spent inside the program.

Times are reported at reference speed.  On a shared box the speed of
the same pure-Python code swings by up to 2x within minutes (other
tenants contend for the cores), which would bury any change to the
program.  So between operations the loop times fixed pure-Python tasks
that do not touch the program, and scales each operation's times by
REFERENCE_NOMINAL_S over the mean of the reference times just before
and just after it.  Raw times go to the report too.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

REFERENCE_NOMINAL_S = 0.005  # time_reference() at reference speed
# a loop whose checks and reference timings outweigh the program's time
# still ends in time
WALL_LIMIT_FACTOR = 2
# every workload's tail quantile lies 1.5 slots below the top of a round,
# so 7 rounds leave at least 10 samples beyond it
MIN_ROUNDS = 7

# outcomes an Op.check may return
OK = "ok"  # answered, and the answer passed every check
REFUSED = "refused"  # the documented cap refusal, on an input beyond the cap
WRONG = "wrong"  # a wrong answer, or an exception the input does not explain


@dataclass
class Op:
    """One operation: ``run(rec)`` calls into the program through ``rec``;
    ``check(result, exc)`` judges the result (or the exception raised).
    Any object with these three attributes serves."""

    kind: str
    run: Callable[["Recorder"], Any]
    check: Callable[[Any, BaseException | None], str]


def _set_churn() -> int:
    acc: dict = {}
    for i in range(4000):
        s = frozenset(((i % 17, (i * 7) % 13), (i % 5, i % 3)))
        acc[s] = acc.get(s, 0) + 1
    return len(acc)


class _Leaf:
    __slots__ = ("a", "w", "_hash")

    def __init__(self, a: int, w: int):
        self.a, self.w = a, w
        self._hash = hash((0, a, w))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, _Leaf) and self._hash == other._hash and (
            (self.a, self.w) == (other.a, other.w)
        )


def _tree(depth: int, i: int):
    if depth == 0:
        return _Leaf(i % 3, i % 7)
    kids = [_tree(depth - 1, 3 * i + k) for k in range(3)]
    return frozenset(kids) if depth % 2 else tuple(kids)


def _act(x, g: tuple):
    if isinstance(x, _Leaf):
        return x if g[x.w] == 0 else _Leaf((x.a + g[x.w]) % 3, x.w)
    if isinstance(x, frozenset):
        return frozenset(_act(m, g) for m in x)
    return tuple(_act(m, g) for m in x)


_TREE = _tree(5, 0)
_SHIFTS = [tuple((k * j + k // 3) % 3 for j in range(7)) for k in range(15)]


def _tree_act() -> int:
    return sum(_act(_TREE, g) == _TREE for g in _SHIFTS)


def time_reference() -> float:
    """Geometric mean of one timing of each reference task: a churn of
    small frozensets and tuples, and a leafwise action on a tree of sets
    and tuples.  Both are shaped like the program's inner loops and never
    call it.  The cyclic collector is off, so that a collection owed to
    the program's garbage is not charged to the box."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        product = 1.0
        for task in (_set_churn, _tree_act):
            start = time.perf_counter()
            task()
            product *= time.perf_counter() - start
        return math.sqrt(product)
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Scales a measured interval to reference speed, from the reference
    times taken just before and just after it."""

    def __init__(self):
        self.before = time_reference()

    def scale(self) -> float:
        after = time_reference()
        scale = 2 * REFERENCE_NOMINAL_S / (self.before + after)
        self.before = after
        return scale


@dataclass
class LayerStat:
    calls: int = 0
    busy_s: float = 0.0  # at reference speed
    failed: int = 0


@dataclass
class Recorder:
    """Times the benchmark's own calls into the program's public functions.

    Spans and layer counts are kept only while ``tracing`` is on, so an
    untraced round pays one extra Python call per program call.  Span
    times are raw ``perf_counter`` readings; layer busy times are scaled
    with their operation when it closes.
    """

    tracing: bool = False
    spans: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    _op_span: int | None = None
    _op_busy: dict = field(default_factory=dict)

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        if not self.tracing:
            return fn(*args, **kwargs)
        stat = self.layers.setdefault(layer, LayerStat())
        stat.calls += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            stat.failed += 1
            raise
        finally:
            end = time.perf_counter()
            self._op_busy[layer] = self._op_busy.get(layer, 0.0) + end - start
            self.spans.append((len(self.spans), self._op_span, layer, start, end))

    def add(self, name: str, value: int) -> None:
        """Add to an exact count measured at a layer boundary."""
        if self.tracing:
            self.counts[name] = self.counts.get(name, 0) + value

    def open_op(self, kind: str) -> None:
        if self.tracing:
            self._op_span = len(self.spans)
            self.spans.append([self._op_span, None, kind, time.perf_counter(), None])

    def close_op(self, scale: float) -> None:
        if self.tracing and self._op_span is not None:
            self.spans[self._op_span][4] = time.perf_counter()
        for layer, busy in self._op_busy.items():
            self.layers[layer].busy_s += busy * scale
        self._op_busy.clear()
        self._op_span = None


@dataclass
class RoundResult:
    traced: bool
    raw_wall_s: float
    wall_s: float  # at reference speed, as are cpu_s and latencies_s
    cpu_s: float
    latencies_s: list  # answered operations only
    outcomes: dict


def run_round(ops: list[Op], rec: Recorder, failures: list) -> RoundResult:
    """Run one round of operations; ``failures`` collects WRONG details."""
    gc.collect()
    raw_wall = wall = cpu = 0.0
    latencies = []
    outcomes = {OK: 0, REFUSED: 0, WRONG: 0}
    clock = ReferenceClock()
    for op in ops:
        result = exc = None
        rec.open_op(op.kind)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = op.run(rec)
        except Exception as e:  # judged by op.check; never stops the run
            exc = e
        w1, c1 = time.perf_counter(), time.process_time()
        scale = clock.scale()
        rec.close_op(scale)
        raw_wall += w1 - w0
        wall += (w1 - w0) * scale
        cpu += (c1 - c0) * scale
        try:
            outcome = op.check(result, exc)
        except Exception as e:  # a check that cannot read the answer
            outcome = WRONG
            exc = exc or e
        outcomes[outcome] += 1
        if outcome == OK:
            latencies.append((w1 - w0) * scale)
        elif outcome == WRONG and len(failures) < 20:
            failures.append(f"{op.kind}: {exc!r}" if exc else f"{op.kind}: bad answer")
        del result
    return RoundResult(rec.tracing, raw_wall, wall, cpu, latencies, outcomes)


def run_closed_loop(
    plan_rounds: list[list], seconds: float, trace: bool
) -> tuple[list[RoundResult], Recorder, list]:
    """Run whole rounds, at least one and cycling through ``plan_rounds``,
    until the program has been busy for ``seconds`` of real time and
    MIN_ROUNDS rounds have run, or the loop itself has run for
    WALL_LIMIT_FACTOR times ``seconds``.

    With ``trace`` on, every planned round runs twice in a row, once
    traced and once not, and which comes first alternates, so the tracing
    overhead is measured on the same inputs inside one process.
    """
    rec = Recorder()
    rounds: list[RoundResult] = []
    failures: list = []
    busy = 0.0
    r = 0
    deadline = time.perf_counter() + WALL_LIMIT_FACTOR * seconds
    while (
        not rounds
        or (
            (busy < seconds or len(rounds) < MIN_ROUNDS)
            and time.perf_counter() < deadline
        )
        or (trace and len(rounds) % 2)
    ):
        pair, second = divmod(r, 2) if trace else (r, 0)
        rec.tracing = trace and second == pair % 2
        res = run_round(plan_rounds[pair % len(plan_rounds)], rec, failures)
        rounds.append(res)
        busy += res.raw_wall_s
        r += 1
    rec.tracing = False
    return rounds, rec, failures


def nearest_rank(sorted_values: list, q: float) -> float:
    """The q-quantile by the nearest-rank rule: an actual sample."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rounds: list[RoundResult], tail_q: float, setup_s: float) -> dict:
    """Reduce untraced rounds to the end-to-end metrics.

    ``tail_q`` is fixed per workload at (j + 0.5) / slots: the middle of
    one slot's samples, since every round holds the same slots.  It is
    the highest such quantile with at least ten samples beyond it in a
    baseline run, and its rank does not move between slots as the number
    of rounds changes.
    """
    lat = sorted(x for r in rounds for x in r.latencies_s)
    attempted = sum(sum(r.outcomes.values()) for r in rounds)
    answered = sum(r.outcomes[OK] for r in rounds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in rounds), "s"),
        "ops_per_s": (answered / sum(r.wall_s for r in rounds), "1/s"),
        "latency_p50_ms": (1000 * nearest_rank(lat, 0.5), "ms"),
        "latency_tail_ms": (1000 * nearest_rank(lat, tail_q), "ms"),
        "answered_frac": (answered / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    tail = {
        "quantile": tail_q,
        "samples": len(lat),
        "samples_beyond": len(lat) - math.ceil(tail_q * len(lat)),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, tail


def per_layer(
    rounds: list[RoundResult], rec: Recorder, layer_names, count_names
) -> dict:
    """Per traced round means of every layer's calls, busy time and
    failures, the exact counts, and the tracing overhead: the median over
    planned rounds of the traced run's time over the untraced run's, as
    ``run_closed_loop`` runs them in pairs."""
    traced = [r for r in rounds if r.traced]
    n = len(traced)
    out = {}
    for layer in layer_names:
        stat = rec.layers.get(layer, LayerStat())
        if not layer.startswith("verify.suite."):
            out[f"{layer}.calls"] = (stat.calls / n, "count")
            out[f"{layer}.failed"] = (stat.failed / n, "count")
        out[f"{layer}.busy_s"] = (stat.busy_s / n, "s")
    for name in count_names:
        out[name] = (rec.counts.get(name, 0) / n, "count")
    attempted = sum(sum(r.outcomes.values()) for r in rounds)
    not_ok = sum(r.outcomes[REFUSED] + r.outcomes[WRONG] for r in rounds)
    out["ops.failed_frac"] = (not_ok / attempted, "ratio")
    out["trace.rounds"] = (n, "count")
    pairs = [rounds[i : i + 2] for i in range(0, len(rounds) - 1, 2)]
    overhead = (
        statistics.median(
            sum(r.wall_s for r in pair if r.traced)
            / sum(r.wall_s for r in pair if not r.traced)
            for pair in pairs
        )
        - 1.0
    )
    out["trace.overhead_frac"] = (overhead, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
