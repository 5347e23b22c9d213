"""The repository's benchmark: three workloads, every answer checked.

One run::

    python3 perfbench/run.py --workload fig2-direct --seed 1 --seconds 50 --trace 0

prints a few summary lines and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace
0`` the metrics are the end-to-end ones of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer ones, measured with spans recorded
around every call into each layer (see ``tracer.py``), followed by a
per-layer table.

Repeat mode runs one workload in N fresh processes with seeds ``seed,
seed+1, ...`` and prints each metric's median, quartiles and spread::

    python3 perfbench/run.py --workload serve-hot --repeat 10

Workloads (see README.md for why each exists):

* ``fig2-direct``: the Figure-2 query pool through an in-process
  ``AutoEngine``, one caller, no cache.
* ``serve-miss``: 100 Figure-2 queries over HTTP to ``repro serve
  --from-index`` (2 workers, cache on but smaller than the results), 1
  connection, a fresh server per round; no two requests of a round are
  equal up to renaming, so all miss.
* ``serve-hot``: a small query set warmed into the server's cache, then
  re-sent under seeded variable renamings and atom orders; all hit. Not
  in ``BENCHMARK.json``: on a shared host its figures spread too widely
  (README.md).

Every run does the same fixed work: ``--seconds`` sets a number of
whole rounds (at least one; a traced run does one), not a deadline.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import serving
from reference import Tables, canonical_rows

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("fig2-direct", "serve-miss", "serve-hot")

#: Nominal timed seconds of one round, per workload, on a 2-core box.
ROUND_SECONDS = {"fig2-direct": 25.0, "serve-miss": 25.0, "serve-hot": 25.0}
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"fig2-direct": 75, "serve-miss": 3, "serve-hot": 3}
#: Client connections of the serve workloads. One: with two, requests
#: share micro-batches and a request's latency depends on which others
#: it meets, which spread serve-miss p50 by up to 26% between runs.
CONNECTIONS = {"serve-miss": 1, "serve-hot": 1}
SERVER_WORKERS = 2
#: serve-miss: distinct requests per round, and the cache budget as a
#: share of the stream's result bytes.
MISS_REQUESTS_PER_ROUND = 100
MISS_CACHE_SHARE = 0.25
#: serve-hot: base queries (per family the one with the largest answer
#: of at most this many rows),
#: atom orders warmed per base query, and requests per round.
HOT_MAX_ROWS = 2000
HOT_ORDERS = 2
HOT_REQUESTS_PER_ROUND = 2000
#: A traced run first times every PROBE_EVERY-th operation untraced;
#: the tracing overhead compares those operations' summed latencies
#: with and without tracing. The serve workloads probe every request,
#: because a request's latency depends on what runs beside it.
PROBE_EVERY = {"fig2-direct": 5, "serve-miss": 1, "serve-hot": 1}
#: Queries whose reference answer has more rows are left out of every
#: pool: ``repro serve`` materialises a whole answer before encoding it,
#: and one such query (1.6M rows) took the server past 2 GB and its
#: 60 s deadline.
MAX_ANSWER_ROWS = 100_000
#: The cache's own per-entry overhead (``repro.cache.store``).
CACHE_ENTRY_OVERHEAD = 512

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "index_bytes": "bytes",
}

PER_LAYER = {
    "serve.handle_s": "s",
    "serve.queue_wait_s": "s",
    "serve.protocol_s": "s",
    "serve.requests": "count",
    "serve.shed": "count",
    "query.parse_s": "s",
    "query.parse_calls": "count",
    "query.model_s": "s",
    "cache.canonicalize_s": "s",
    "cache.probe_s": "s",
    "cache.fill_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.fills": "count",
    "cache.evictions": "count",
    "cache.hit_ratio": "ratio",
    "cache.bytes": "bytes",
    "parallel.warmup_s": "s",
    "parallel.run_batch_s": "s",
    "parallel.classify_s": "s",
    "parallel.overhead_s": "s",
    "parallel.sharded_queries": "count",
    "parallel.pooled_queries": "count",
    "store.load_s": "s",
    "engines.build_s": "s",
    "engines.evaluate_s": "s",
    "engines.self_s": "s",
    "engines.ring_knn_queries": "count",
    "engines.ring_knn_s_queries": "count",
    "ltj.self_s": "s",
    "ltj.ordering_s": "s",
    "ltj.triple_relation_s": "s",
    "ltj.knn_relation_s": "s",
    "ltj.leap_calls": "count",
    "ltj.attempts": "count",
    "ltj.bindings": "count",
    "ltj.solutions": "count",
    "ltj.bindings_per_attempt": "ratio",
    "ring.self_s": "s",
    "knn.self_s": "s",
    "succinct.self_s": "s",
    "succinct.rank": "count",
    "succinct.select": "count",
    "succinct.access": "count",
    "succinct.range_next": "count",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

#: Span names whose self time makes up the per-layer table.
TABLE_LAYERS = (
    "serve.handle", "serve.write", "serve.dispatch", "serve.protocol",
    "query.parse", "query.model", "cache.probe", "cache.fill",
    "cache.canonicalize", "parallel.warmup", "parallel.run_batch",
    "parallel.classify", "store.load", "engines.build", "engines", "ltj",
    "ltj.ordering", "ltj.triple_relation", "ltj.knn_relation", "ring",
    "knn", "succinct",
)


#: Spans whose self time includes waiting for another thread or process.
WAITING_SPANS = ("serve.handle", "parallel.run_batch")


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------
_STARTED = time.perf_counter()


def stage(message: str) -> None:
    """One progress line, stamped with seconds since the run started."""
    print(f"[{time.perf_counter() - _STARTED:7.2f} s] {message}", flush=True)


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis percentile (``q`` in (0, 100)).

    A Beta-weighted mean of all order statistics, centred on the
    nearest rank. The tail of a Figure-2 pool is sparse (neighbouring
    ranks near p90 differ by up to 30%), so the nearest-rank value
    jumps whenever noise swaps two heavy queries; this estimate moves
    with all samples near the rank instead.
    """
    from scipy.stats import beta

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    p = q / 100.0
    edges = beta.cdf(np.arange(n + 1) / n, (n + 1) * p, (n + 1) * (1 - p))
    return float(np.dot(np.diff(edges), ordered))


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]), printed for reference."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def self_peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed.

    Printed next to each timed phase so that a slow run can be told
    apart from slow code; no metric is adjusted by it.
    """
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - started)
    return 1000.0 * statistics.median(times)


def rounds_for(workload: str, seconds: float, trace: bool) -> int:
    """Whole rounds of a run; a traced run does one.

    Per-layer metrics have no bound, and one traced round already takes
    about three times an untraced one (probe pass, wavelet-count pass,
    traced pass), so more would not fit a run's time limit.
    """
    if trace:
        return 1
    return max(1, round(seconds / ROUND_SECONDS[workload]))


@dataclass
class Ledger:
    """Operations attempted and failed, plus answer checks."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += int(wrong)
        if len(self.notes) < 20:
            self.notes.append(note)


@dataclass
class Timed:
    """The timed phase of one run."""

    latencies: list[float]
    wall_s: float
    answered: int
    calibration: tuple[float, float] = (0.0, 0.0)
    """:func:`calibration_ms` just before and just after the phase."""


def end_to_end_metrics(setups, timed: Timed, rss_mb, index_bytes) -> dict:
    latencies = timed.latencies
    values = {
        "setup_s": statistics.median(setups),
        "throughput_qps": timed.answered / timed.wall_s,
        "latency_p50_ms": 1000.0 * percentile(latencies, 50),
        "latency_p90_ms": 1000.0 * percentile(latencies, 90),
        "peak_rss_mb": rss_mb,
        "index_bytes": float(index_bytes),
    }
    beyond = len(latencies) - math.ceil(0.9 * len(latencies))
    print(
        f"nearest-rank p50 {1000.0 * nearest_rank(latencies, 50):.2f} ms, "
        f"p90 {1000.0 * nearest_rank(latencies, 90):.2f} ms"
    )
    print(
        f"samples: {len(latencies)} latencies ({beyond} beyond p90), "
        f"{len(setups)} set-ups; timed phase {timed.wall_s:.3f} s; "
        f"calibration loop {timed.calibration[0]:.2f} ms before, "
        f"{timed.calibration[1]:.2f} ms after"
    )
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def answer_rows(solutions, names: list[str]):
    """One row per solution, one column per name of ``names``."""
    return np.array(
        [[solution[name] for name in names] for solution in solutions],
        dtype=np.int64,
    ).reshape(len(solutions), len(names))


def check_answer(ledger: Ledger, tables, reference, pool_query, names,
                 rows, label: str) -> None:
    """Soundness and completeness of one answer against the reference.

    ``names`` are the answer's column names already mapped back to the
    pool query's own variable names.
    """
    unsound = tables.unsound_rows(pool_query.neutral, tuple(names), rows)
    expected = reference[pool_query.index]
    got = canonical_rows(names, rows)
    if unsound:
        ledger.fail(f"{label}: {unsound} unsound rows", wrong=True)
    elif got.shape != expected.shape or not np.array_equal(got, expected):
        ledger.fail(
            f"{label}: {got.shape[0]} rows, reference has "
            f"{expected.shape[0]}",
            wrong=True,
        )


def answerable(tables, pool_query) -> bool:
    return tables.join(pool_query.neutral).shape[0] <= MAX_ANSWER_ROWS


def reference_answers(tables, pool) -> dict:
    return {pq.index: tables.join(pq.neutral) for pq in pool}


def reference_tables(bench):
    knn = bench.knn_graph
    return Tables(bench.graph.spo, knn.members, knn.neighbor_table,
                  knn.lengths)


def layer_metrics(totals: dict, extra: dict) -> dict:
    """Per-layer metrics from span totals plus workload-side counts."""
    self_s = totals.get("self_s", {})
    busy = totals.get("busy_s", {})
    calls = totals.get("calls", {})
    counts = totals.get("counts", {})
    setups = max(1, extra.get("setups", 1))
    hits = counts.get("cache.hits", 0)
    misses = counts.get("cache.misses", 0)
    attempts = extra.get("ltj.attempts", 0)
    values = {
        "serve.handle_s": busy.get("serve.handle", 0.0)
        + busy.get("serve.write", 0.0),
        "serve.queue_wait_s": counts.get("serve.queue_wait_s", 0.0),
        "serve.protocol_s": self_s.get("serve.protocol", 0.0),
        "serve.requests": counts.get("serve.requests", 0),
        "serve.shed": counts.get("serve.shed", 0),
        "query.parse_s": self_s.get("query.parse", 0.0),
        "query.parse_calls": calls.get("query.parse", 0),
        "query.model_s": self_s.get("query.model", 0.0),
        "cache.canonicalize_s": self_s.get("cache.canonicalize", 0.0),
        "cache.probe_s": self_s.get("cache.probe", 0.0),
        "cache.fill_s": self_s.get("cache.fill", 0.0),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.fills": counts.get("cache.fills", 0),
        "cache.evictions": extra.get("cache.evictions", 0),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.bytes": extra.get("cache.bytes", 0),
        "parallel.warmup_s": busy.get("parallel.warmup", 0.0) / setups,
        "parallel.run_batch_s": busy.get("parallel.run_batch", 0.0),
        "parallel.classify_s": self_s.get("parallel.classify", 0.0),
        "parallel.overhead_s": counts.get("parallel.overhead_s", 0.0),
        "parallel.sharded_queries": counts.get("parallel.parallel_queries", 0),
        "parallel.pooled_queries": counts.get("parallel.pooled_queries", 0),
        "store.load_s": busy.get("store.load", 0.0) / setups,
        "engines.build_s": busy.get("engines.build", 0.0) / setups,
        "engines.evaluate_s": busy.get("engines", 0.0),
        "engines.self_s": self_s.get("engines", 0.0),
        "ltj.self_s": self_s.get("ltj", 0.0),
        "ltj.ordering_s": self_s.get("ltj.ordering", 0.0),
        "ltj.triple_relation_s": self_s.get("ltj.triple_relation", 0.0),
        "ltj.knn_relation_s": self_s.get("ltj.knn_relation", 0.0),
        "ltj.bindings_per_attempt": (
            extra.get("ltj.bindings", 0) / attempts if attempts else 0.0
        ),
        "ring.self_s": self_s.get("ring", 0.0),
        "knn.self_s": self_s.get("knn", 0.0),
        "succinct.self_s": self_s.get("succinct", 0.0),
        "trace.spans": totals.get("spans_seen", 0),
    }
    for name in PER_LAYER:
        if name not in values:
            values[name] = extra.get(name, 0)
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in PER_LAYER.items()
    }


def merge_totals(documents: list[dict]) -> dict:
    merged: dict = {"self_s": {}, "busy_s": {}, "calls": {}, "counts": {},
                    "spans_seen": 0}
    for document in documents:
        for key in ("self_s", "busy_s", "calls", "counts"):
            for name, value in document.get(key, {}).items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["spans_seen"] += document.get("spans_seen", 0)
    return merged


def print_layer_table(workload: str, totals: dict) -> None:
    """Self time, calls and share of the summed self time per layer.

    Spans marked ``*`` wait as well as work: ``serve.handle`` awaits
    the dispatch thread, ``parallel.run_batch`` awaits the pool
    workers, and any span in a thread also waits for the interpreter
    lock.
    """
    self_s = totals.get("self_s", {})
    calls = totals.get("calls", {})
    rows = [(name, self_s.get(name, 0.0), calls.get(name, 0))
            for name in TABLE_LAYERS if calls.get(name, 0)]
    total = sum(row[1] for row in rows) or 1.0
    print(f"per-layer self time, {workload} (traced; * includes waiting):")
    print(f"  {'layer':<22}{'self s':>10}{'calls':>12}{'share':>8}")
    for name, seconds, n in sorted(rows, key=lambda r: -r[1]):
        mark = "*" if name in WAITING_SPANS else " "
        print(f"  {name + mark:<22}{seconds:>10.3f}{n:>12d}"
              f"{seconds / total:>8.1%}")


# ----------------------------------------------------------------------
# fig2-direct
# ----------------------------------------------------------------------
def run_fig2_direct(seed: int, seconds: float, trace: bool, work: Path):
    from repro.engines.auto import AutoEngine
    from repro.engines.database import GraphDatabase
    from repro.obs.trace import QueryTrace
    from repro.query.parser import parse_query
    from repro.store import save

    import workloads

    ledger = Ledger()
    bench = workloads.generate_graph()
    tables = reference_tables(bench)
    pool: list = []
    ops: list = []
    for r in range(rounds_for("fig2-direct", seconds, trace)):
        round_pool = [
            pq for pq in workloads.query_pool(bench, r, first_index=len(pool))
            if answerable(tables, pq)
        ]
        pool += round_pool
        ops += workloads.rotated(round_pool, seed, f"fig2-direct:{r}")

    def set_up():
        times = []
        for _ in range(SETUP_REPEATS["fig2-direct"]):
            started = time.perf_counter()
            db = GraphDatabase(bench.graph, bench.knn_graph)
            times.append(time.perf_counter() - started)
        engine = AutoEngine(db)
        ledger.attempted += 1
        warm = engine.evaluate(parse_query(
            " . ".join(workloads.atom_texts(workloads.FIRST_QUERY))
        ))
        if warm.timed_out or not warm.solutions:
            ledger.fail("warm-up query returned no answer")
        return db, engine, times

    def timed(engine, phase_ops) -> tuple[Timed, list]:
        latencies, results = [], []
        before = calibration_ms()
        started = time.perf_counter()
        for pq in phase_ops:
            t0 = time.perf_counter()
            result = engine.evaluate(pq.query)
            latencies.append(time.perf_counter() - t0)
            results.append(result)
        wall = time.perf_counter() - started
        ledger.attempted += len(phase_ops)
        return Timed(latencies, wall, len(phase_ops),
                     (before, calibration_ms())), results

    stage(f"{len(ops)} queries ready")
    db, engine, setups = set_up()
    index_bytes = save(db, str(work / "fig2.idx"))
    stage("database built")
    extra: dict = {"setups": SETUP_REPEATS["fig2-direct"]}
    checked: list[tuple] = []
    if trace:
        import tracer as tracing

        probe = ops[::PROBE_EVERY["fig2-direct"]]
        probe_timed, probe_results = timed(engine, probe)
        checked += list(zip(probe, probe_results))
        # Wavelet op counts come from the program's own QueryTrace, in an
        # untimed pass before the wrappers go in.
        for pq in ops:
            query_trace = QueryTrace()
            engine.evaluate(pq.query, trace=query_trace)
            for ops_count in query_trace.wavelets.values():
                for name in ("rank", "select", "access", "range_next"):
                    key = f"succinct.{name}"
                    extra[key] = extra.get(key, 0) + getattr(ops_count, name)
        recorder = tracing.Tracer()
        tracing.install(recorder, tracing.ENGINE_LAYERS)
        try:
            db, engine, setups = set_up()
            phase, results = timed(engine, ops)
        finally:
            recorder.enabled = False
            recorder.uninstall()
        recorder.write(str(work / "fig2-trace.json"))
        probe_positions = range(0, len(ops), PROBE_EVERY["fig2-direct"])
        traced_probe = sum(phase.latencies[i] for i in probe_positions)
        extra["trace.overhead_pct"] = 100.0 * (
            traced_probe / sum(probe_timed.latencies) - 1.0
        )
        totals = recorder.snapshot()
    else:
        phase, results = timed(engine, ops)
    rss = self_peak_rss_mb()
    stage("timed phase done")
    checked += list(zip(ops, results))

    reference = reference_answers(tables, pool)
    for pq, result in checked:
        if result.timed_out:
            ledger.fail(f"query {pq.index} timed out")
            continue
        names = sorted(v.name for v in pq.query.variables)
        rows = answer_rows(
            [{v.name: c for v, c in s.items()} for s in result.solutions],
            names,
        )
        check_answer(ledger, tables, reference, pq, names, rows,
                     f"query {pq.index} ({pq.family})")
    stage("answers checked")
    if trace:
        for key in ("leap_calls", "attempts", "bindings", "solutions"):
            extra[f"ltj.{key}"] = sum(
                getattr(r.stats, key) for r in results
            )
        extra["engines.ring_knn_queries"] = sum(
            r.engine == "ring-knn" for r in results
        )
        extra["engines.ring_knn_s_queries"] = sum(
            r.engine == "ring-knn-s" for r in results
        )
        print_layer_table("fig2-direct", totals)
        metrics = layer_metrics(totals, extra)
    else:
        metrics = end_to_end_metrics(setups, phase, rss, index_bytes)
    return ledger, metrics


# ----------------------------------------------------------------------
# serve-miss and serve-hot
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One HTTP query: its body and the pool query it renames."""

    body: bytes
    pool_query: object
    to_base: dict
    """Variable name in the request -> variable name in the pool query."""


def request_for(pool_query, neutral=None, to_base=None, atoms=None):
    import workloads

    neutral = neutral or pool_query.neutral
    texts = atoms or workloads.atom_texts(neutral)
    names = workloads.variables_of(neutral)
    return Request(
        body=json.dumps({"query": " . ".join(texts)}).encode(),
        pool_query=pool_query,
        to_base=to_base or {n: n for n in names},
    )


def miss_stream(bench, seed: int, rounds: int, tables):
    """Pool queries, distinct up to renaming, one seeded order per round.

    The fixed pools (seeds 2, 3, ...) repeat some queries, so pools are
    drawn until there are :data:`MISS_REQUESTS_PER_ROUND` distinct
    queries. Queries with more than :data:`MAX_ANSWER_ROWS` solutions
    are skipped. Every round sends all of them, to a server of its own,
    so every request of every round misses the cache.
    """
    import workloads

    seen: set[str] = set()
    distinct = []
    draw = 0
    while len(distinct) < MISS_REQUESTS_PER_ROUND:
        for pq in workloads.query_pool(bench, draw):
            key = workloads.renaming_free_text(pq.neutral)
            if key not in seen and answerable(tables, pq):
                seen.add(key)
                distinct.append(workloads.PoolQuery(
                    len(distinct), pq.family, pq.query, pq.neutral, pq.text
                ))
        draw += 1
    pool = distinct[:MISS_REQUESTS_PER_ROUND]
    per_round = [
        [request_for(pq)
         for pq in workloads.rotated(pool, seed, f"serve-miss:{r}")]
        for r in range(rounds)
    ]
    return pool, per_round, []


def hot_stream(bench, seed: int, rounds: int, tables):
    """Warm-up variants and the timed renamed requests of serve-hot."""
    import workloads

    pool = workloads.query_pool(bench, 0)
    rows = {pq.index: len(tables.join(pq.neutral)) for pq in pool}
    base = [
        max(
            (pq for pq in pool
             if pq.family == family and rows[pq.index] <= HOT_MAX_ROWS),
            key=lambda pq: rows[pq.index],
        )
        for family in workloads.FAMILIES
    ]
    rng = random.Random(f"serve-hot:{seed}")
    variants = []  # (pool query, atom order)
    for pq in base:
        n_atoms = len(workloads.atom_texts(pq.neutral))
        orders = [list(range(n_atoms))]
        while len(orders) < HOT_ORDERS:
            order = list(range(n_atoms))
            rng.shuffle(order)
            if order not in orders or math.factorial(n_atoms) < HOT_ORDERS:
                orders.append(order)
        variants += [(pq, order) for order in orders]

    def written(pq, order, mapping):
        neutral = workloads.rename(pq.neutral, mapping)
        atoms = workloads.atom_texts(neutral)
        return request_for(
            pq, neutral, {v: k for k, v in mapping.items()},
            [atoms[i] for i in order],
        )

    warm = [
        written(pq, order, {v: v for v in workloads.variables_of(pq.neutral)})
        for pq, order in variants
    ]
    per_round = []
    per_variant = HOT_REQUESTS_PER_ROUND // len(variants)
    for r in range(rounds):
        chosen = [v for v in variants for _ in range(per_variant)]
        requests = []
        for pq, order in workloads.shuffled(chosen, seed, f"serve-hot:{r}"):
            names = workloads.variables_of(pq.neutral)
            fresh = rng.sample(range(10**6), len(names))
            mapping = {n: f"v{f}" for n, f in zip(names, fresh)}
            requests.append(written(pq, order, mapping))
        per_round.append(requests)
    return base, per_round, warm


def result_bytes(reference: dict, pool) -> int:
    """What the cache would hold for every query of ``pool``."""
    return sum(
        reference[pq.index].size * 8 + CACHE_ENTRY_OVERHEAD for pq in pool
    )


def run_serve(workload: str, seed: int, seconds: float, trace: bool,
              work: Path):
    from repro.engines.database import GraphDatabase
    from repro.store import save

    import workloads

    ledger = Ledger()
    bench = workloads.generate_graph()
    index = work / "serve.idx"
    index_bytes = save(GraphDatabase(bench.graph, bench.knn_graph),
                       str(index))
    tables = reference_tables(bench)
    rounds = rounds_for(workload, seconds, trace)
    if workload == "serve-miss":
        pool, per_round, warm = miss_stream(bench, seed, rounds, tables)
    else:
        pool, per_round, warm = hot_stream(bench, seed, rounds, tables)
    reference = reference_answers(tables, pool)
    stage("inputs and reference answers ready")
    first_names = sorted(workloads.variables_of(workloads.FIRST_QUERY))
    first_expected = tables.join(workloads.FIRST_QUERY)
    if workload == "serve-miss":
        cache_bytes = int(MISS_CACHE_SHARE * result_bytes(reference, pool))
    else:
        cache_bytes = 32 << 20
    print(
        f"{workload}: {rounds} x {len(per_round[0])} timed requests "
        f"(one server per round), {len(warm)} warm-up per round, "
        f"result bytes {result_bytes(reference, pool)}, "
        f"cache budget {cache_bytes}"
    )

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    serve_args = [
        "serve", "--from-index", str(index), "--port", "0",
        "--workers", str(SERVER_WORKERS), "--cache-bytes", str(cache_bytes),
    ]
    first_body = json.dumps(
        {"query": " . ".join(workloads.atom_texts(workloads.FIRST_QUERY))}
    ).encode()
    dumps: list[Path] = []

    def check_http(status, body, request, label) -> dict | None:
        if status != 200:
            ledger.fail(f"{label}: HTTP {status} {body[:120]!r}")
            return None
        try:
            document = serving.decode(body)
            names = sorted(request.to_base)
            rows = answer_rows(document["solutions"], names)
        except (ValueError, KeyError, TypeError) as exc:
            ledger.fail(f"{label}: malformed answer {exc!r}", wrong=True)
            return None
        check_answer(ledger, tables, reference, request.pool_query,
                     [request.to_base[n] for n in names], rows, label)
        return document

    def phase(traced: bool, timed_rounds: list[list], setups: int):
        """Launch ``setups`` servers; the last ones serve one round each.

        Each round gets a fresh server, so its cache starts empty.
        """
        setups = max(setups, len(timed_rounds))
        first_timed = setups - len(timed_rounds)
        timed_requests = [r for requests in timed_rounds for r in requests]
        setup_times, outcomes, wall, rss = [], [], 0.0, 0.0
        before = 0.0
        calibration = (0.0, 0.0)
        for i in range(setups):
            if traced:
                dump = work / f"serve-trace-{len(dumps)}.json"
                dumps.append(dump)
                command = [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                           str(dump)] + serve_args
            else:
                command = [sys.executable, "-m", "repro.cli"] + serve_args
            server = serving.Server(command, env, work / "serve.log")
            try:
                seconds_to_answer, status, body = server.start(first_body)
                ledger.attempted += 1
                setup_times.append(seconds_to_answer)
                if status != 200:
                    ledger.fail(f"first query: HTTP {status}")
                else:
                    rows = answer_rows(serving.decode(body)["solutions"],
                                       first_names)
                    if not np.array_equal(
                        canonical_rows(first_names, rows), first_expected
                    ):
                        ledger.fail("first query: wrong answer", wrong=True)
                stage(f"server {i + 1}/{setups} answered in "
                      f"{seconds_to_answer:.3f} s")
                if i < first_timed:
                    continue
                warm_out, _ = serving.closed_loop(
                    server.port, [r.body for r in warm], 2
                )
                ledger.attempted += len(warm)
                for request, (status, body, _lat) in zip(warm, warm_out):
                    check_http(status, body, request, "warm-up")
                stage(f"{len(warm)} warm-up requests done")
                if i == first_timed:
                    before = calibration_ms()
                requests = timed_rounds[i - first_timed]
                round_out, round_wall = serving.closed_loop(
                    server.port, [r.body for r in requests],
                    CONNECTIONS[workload],
                )
                outcomes += round_out
                wall += round_wall
                rss = max(rss, server.peak_rss_mb())
                if i == setups - 1:
                    calibration = (before, calibration_ms())
                stage(f"{len(requests)} timed requests done")
            finally:
                if not server.stop():
                    print(f"note: server did not drain cleanly "
                          f"(log: {server.log_path})", file=sys.stderr)
        ledger.attempted += len(timed_requests)
        documents = []
        for request, (status, body, _lat) in zip(timed_requests, outcomes):
            documents.append(check_http(status, body, request, "request"))
        answered = sum(d is not None for d in documents)
        stage("answers checked")
        latencies = [lat for _s, _b, lat in outcomes]
        return (setup_times, Timed(latencies, wall, answered, calibration),
                rss, documents)

    extra: dict = {"setups": SETUP_REPEATS[workload]}
    if trace:
        every = PROBE_EVERY[workload]
        (requests,) = per_round
        _s, probe_timed, _r, _d = phase(False, [requests[::every]], 1)
        setups, timed, rss, documents = phase(
            True, per_round, SETUP_REPEATS[workload]
        )
        traced_probe = sum(
            timed.latencies[i] for i in range(0, len(requests), every)
        )
        extra["trace.overhead_pct"] = 100.0 * (
            traced_probe / sum(probe_timed.latencies) - 1.0
        )
        loaded = [json.loads(p.read_text()) for p in dumps if p.exists()]
        if len(loaded) != len(dumps):
            ledger.fail(f"only {len(loaded)} of {len(dumps)} trace dumps")
        totals = merge_totals(loaded)
        if loaded and loaded[-1]["extra"]["cache"]:
            stats = loaded[-1]["extra"]["cache"][0]
            extra["cache.evictions"] = stats["evictions"]
            extra["cache.bytes"] = stats["bytes"]
        # Cache hits replay their producer's counters; count only the
        # answers the engine computed.
        answered = [d for d in documents if d is not None and not d["cached"]]
        for key in ("leap_calls", "attempts", "bindings", "solutions"):
            extra[f"ltj.{key}"] = sum(d["stats"][key] for d in answered)
        extra["engines.ring_knn_queries"] = sum(
            d["engine"] == "ring-knn" for d in answered
        )
        extra["engines.ring_knn_s_queries"] = sum(
            d["engine"] == "ring-knn-s" for d in answered
        )
        print_layer_table(workload, totals)
        metrics = layer_metrics(totals, extra)
    else:
        setups, timed, rss, _documents = phase(
            False, per_round, SETUP_REPEATS[workload]
        )
        metrics = end_to_end_metrics(setups, timed, rss, index_bytes)
    return ledger, metrics


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def _terminate(signum, _frame) -> None:
    # Turn SIGTERM into SystemExit so ``finally`` blocks stop servers.
    sys.exit(128 + signum)


def run_once(args) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "fig2-direct":
            ledger, metrics = run_fig2_direct(
                args.seed, args.seconds, bool(args.trace), work
            )
        else:
            ledger, metrics = run_serve(
                args.workload, args.seed, args.seconds, bool(args.trace), work
            )
        if args.trace:
            # Keep the span logs of the latest traced run per workload.
            kept = work.parent / "traces" / args.workload
            shutil.rmtree(kept, ignore_errors=True)
            kept.mkdir(parents=True)
            for dump in work.glob("*trace*.json"):
                shutil.move(str(dump), kept / dump.name)
            print(f"span logs: {kept}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in ledger.notes:
        print(f"failure: {note}")
    print(json.dumps({
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


def run_repeat(args) -> int:
    """Run one workload ``--repeat`` times and summarise the spread."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = []
    all_correct = True
    for i in range(args.repeat):
        seed = args.seed + i
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        started = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=900, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        all_correct &= bool(result["correct"])
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        calibration = next(
            (line for line in lines if line.startswith("samples:")), ""
        ).partition("calibration loop ")[2]
        print(f"run {i + 1}/{args.repeat} seed {seed}: "
              f"{time.perf_counter() - started:.1f} s, "
              f"failed {result['failed']}/{result['attempted']}; "
              + ", ".join(f"{name} {metric['value']:.4g}"
                          for name, metric in result["metrics"].items()
                          if name != "index_bytes")
              + (f"; calibration {calibration}" if calibration else ""),
              flush=True)
    print(f"{args.workload}: {args.repeat} runs, failed share "
          f"{sorted(set(shares))}, correct {all_correct}")
    print(f"  {'metric':<28}{'unit':>7}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"  {name:<28}{units[name]:>7}{median:>14.6g}{q1:>14.6g}"
              f"{q3:>14.6g}{spread:>9.2%}")
    return 0 if all_correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times (seeds seed..seed+N-1) and "
                        "print each metric's median, quartiles and spread")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if args.repeat:
        return run_repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
