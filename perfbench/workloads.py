"""Inputs of the three workloads, all derived from fixed or given seeds.

The database is the synthetic Wikimedia graph at the scale of the
``benchmarks/`` fixtures. The query pool is one fixed, seeded multiset
of Figure-2 queries: every run evaluates the same queries, so the work
of a run does not depend on ``--seed``. The run seed decides what a
user of the system would vary without changing the work: where in a
fixed cyclic order the queries start arriving, and on serve-hot the
order of requests and the variable names and atom order each request
is written with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.datasets.wikimedia import WikimediaConfig, generate_benchmark
from repro.datasets.workload import WorkloadConfig, generate_workload
from repro.query.model import ExtendedBGP, Var

#: The ``benchmarks/conftest.py`` fixture scale.
GRAPH_CONFIG = WikimediaConfig(
    n_entities=600,
    n_images=250,
    n_misc_triples=4000,
    K=16,
    descriptor_dim=8,
    n_clusters=10,
    seed=7,
)

#: The query pool: all eight families, 100 queries, so that a run has
#: at least ten latency samples beyond its p90. ``k`` is 5 rather than
#: the fixture's 10, which halves the mean query time and lets 100
#: queries fit in a run of about 25 seconds.
POOL_CONFIG = WorkloadConfig(
    k=5, n_q1=16, n_q2=4, n_q3=20, n_q4=16, n_q5=20, seed=2
)

#: Families in the order ``generate_workload`` emits them.
FAMILIES = ("Q1", "Q1b", "Q2", "Q2b", "Q2t", "Q3", "Q4", "Q5")

#: The query every server answers first (``setup_s`` ends at its
#: answer), in the neutral form of :mod:`reference`.
FIRST_QUERY = ((("e", 0, "img"),), (("img", 5, "other"),))


@dataclass(frozen=True)
class PoolQuery:
    """One query of the fixed pool, in every form the benchmark needs."""

    index: int
    family: str
    query: ExtendedBGP
    neutral: tuple
    """``(triples, clauses)`` with variable names as ``str``, the form
    :mod:`reference` reads."""

    text: str
    """The query in ``repro.query.parser`` syntax, for HTTP requests."""


def generate_graph():
    """The benchmark graph and its K-NN table (fixed seed)."""
    return generate_benchmark(GRAPH_CONFIG)


def neutral_form(query: ExtendedBGP) -> tuple:
    def term(t):
        return t.name if isinstance(t, Var) else int(t)

    triples = tuple(tuple(term(t) for t in p.terms) for p in query.triples)
    clauses = tuple((term(c.x), int(c.k), term(c.y)) for c in query.clauses)
    return triples, clauses


def _term_text(term) -> str:
    return f"?{term}" if isinstance(term, str) else str(term)


def atom_texts(neutral: tuple) -> list[str]:
    triples, clauses = neutral
    atoms = [
        "(" + ", ".join(_term_text(t) for t in triple) + ")"
        for triple in triples
    ]
    atoms += [
        f"knn({_term_text(x)}, {_term_text(y)}, {k})" for x, k, y in clauses
    ]
    return atoms


def query_pool(
    bench, round_index: int = 0, first_index: int = 0
) -> list[PoolQuery]:
    """The fixed pool of one round, family by family.

    Round 0 is the pool every run evaluates; a run given more
    ``--seconds`` adds rounds 1, 2, ... drawn with the next pool seeds.
    Indices start at ``first_index``.
    """
    config = replace(POOL_CONFIG, seed=POOL_CONFIG.seed + round_index)
    families = generate_workload(bench, config)
    pool: list[PoolQuery] = []
    for family in FAMILIES:
        for query in families[family]:
            neutral = neutral_form(query)
            pool.append(
                PoolQuery(
                    index=first_index + len(pool),
                    family=family,
                    query=query,
                    neutral=neutral,
                    text=" . ".join(atom_texts(neutral)),
                )
            )
    return pool


def shuffled(items: list, seed: int, salt: str) -> list:
    """A seeded permutation of ``items`` (``salt`` separates streams)."""
    out = list(items)
    random.Random(f"{salt}:{seed}").shuffle(out)
    return out


def rotated(items: list, seed: int, salt: str) -> list:
    """One fixed shuffle of ``items``, entered at a seeded position.

    Used where the order itself moves the figures: on serve-miss two
    connections share a micro-batch, and a request waits for the
    slowest query batched with it, so a fresh shuffle per seed moved
    p50 latency by a fifth between seeds. A rotation keeps which
    queries follow which, and still starts each run somewhere else.
    """
    cycle = shuffled(items, 0, salt)
    start = random.Random(f"{salt}:{seed}").randrange(len(cycle)) if cycle else 0
    return cycle[start:] + cycle[:start]


def rename(neutral: tuple, mapping: dict[str, str]) -> tuple:
    def term(t):
        return mapping[t] if isinstance(t, str) else t

    triples, clauses = neutral
    return (
        tuple(tuple(term(t) for t in triple) for triple in triples),
        tuple((term(x), k, term(y)) for x, k, y in clauses),
    )


def variables_of(neutral: tuple) -> list[str]:
    seen: list[str] = []
    triples, clauses = neutral
    for atom in (*triples, *((x, y) for x, _k, y in clauses)):
        for term in atom:
            if isinstance(term, str) and term not in seen:
                seen.append(term)
    return seen


def renaming_free_text(neutral: tuple) -> str:
    """The query text with variables renamed in first-seen order, so two
    queries equal up to variable renaming get the same string."""
    mapping = {v: f"v{i}" for i, v in enumerate(variables_of(neutral))}
    return " . ".join(atom_texts(rename(neutral, mapping)))
