"""The benchmark's reference against the program's naive oracle.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_reference.py

``evaluate_naive`` enumerates assignments by brute force; on small
random graphs it is fast and independent of the reference's join plan,
so agreement on many random queries is evidence for both.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import Tables, canonical_rows  # noqa: E402
from repro.graph.naive import evaluate_naive  # noqa: E402
from repro.graph.triples import GraphData  # noqa: E402
from repro.knn.builders import build_knn_graph  # noqa: E402
from repro.query.model import (  # noqa: E402
    ExtendedBGP,
    SimClause,
    TriplePattern,
    Var,
)

VARIABLES = ("a", "b", "c", "d")


def _instance(rng: random.Random):
    n_nodes, n_preds = 14, 3
    edges = {
        (rng.randrange(n_nodes), rng.randrange(n_preds), rng.randrange(n_nodes))
        for _ in range(40)
    }
    members = np.array(sorted(rng.sample(range(n_nodes), 8)), dtype=np.int64)
    points = np.array(
        [[rng.random(), rng.random()] for _ in members], dtype=np.float64
    )
    knn = build_knn_graph(points, 3, members=members)
    graph = GraphData(sorted(edges))
    tables = Tables(graph.spo, knn.members, knn.neighbor_table, knn.lengths)
    return graph, knn, tables, n_nodes, n_preds


def _query(rng: random.Random, n_nodes: int, n_preds: int):
    def term(constant_range: int, p_var: float):
        if rng.random() < p_var:
            return rng.choice(VARIABLES)
        return rng.randrange(constant_range)

    triples = [
        (term(n_nodes, 0.7), term(n_preds, 0.2), term(n_nodes, 0.7))
        for _ in range(rng.randint(0, 3))
    ]
    clauses = []
    for _ in range(rng.randint(0, 2)):
        x, y = term(n_nodes, 0.8), term(n_nodes, 0.8)
        if x != y:
            clauses.append((x, rng.randint(1, 3), y))
    if not triples and not clauses:
        triples.append((rng.choice(VARIABLES), term(n_preds, 0.2),
                        term(n_nodes, 0.5)))
    return tuple(triples), tuple(clauses)


def _model(neutral) -> ExtendedBGP:
    def term(t):
        return Var(t) if isinstance(t, str) else t

    triples, clauses = neutral
    return ExtendedBGP(
        [TriplePattern(*(term(t) for t in triple)) for triple in triples],
        [SimClause(term(x), k, term(y)) for x, k, y in clauses],
    )


def _naive_rows(neutral, graph, knn):
    solutions = evaluate_naive(_model(neutral), graph, knn)
    names = sorted({
        t for atom in (*neutral[0], *((x, y) for x, _k, y in neutral[1]))
        for t in atom if isinstance(t, str)
    })
    rows = np.array(
        [[s[Var(n)] for n in names] for s in solutions], dtype=np.int64
    ).reshape(len(solutions), len(names))
    return names, rows


@pytest.mark.parametrize("seed", range(40))
def test_join_matches_naive_oracle(seed):
    rng = random.Random(seed)
    graph, knn, tables, n_nodes, n_preds = _instance(rng)
    for _ in range(10):
        neutral = _query(rng, n_nodes, n_preds)
        names, rows = _naive_rows(neutral, graph, knn)
        expected = canonical_rows(names, rows)
        got = tables.join(neutral)
        assert got.shape == expected.shape, neutral
        assert np.array_equal(got, expected), neutral


@pytest.mark.parametrize("seed", range(20))
def test_soundness_accepts_oracle_answers_and_rejects_perturbed_rows(seed):
    rng = random.Random(1000 + seed)
    graph, knn, tables, n_nodes, n_preds = _instance(rng)
    for _ in range(20):
        neutral = _query(rng, n_nodes, n_preds)
        names, rows = _naive_rows(neutral, graph, knn)
        assert tables.unsound_rows(neutral, tuple(names), rows) == 0
        if rows.shape[0] == 0 or not names:
            continue
        # A value outside every table makes each row unsound.
        broken = rows.copy()
        broken[:, 0] = n_nodes + 100
        assert tables.unsound_rows(neutral, tuple(names), broken) == len(rows)


def test_canonical_rows_ignores_column_and_row_order():
    rows = np.array([[3, 1], [2, 5]])
    swapped = rows[::-1][:, ::-1]
    assert np.array_equal(
        canonical_rows(["x", "y"], rows), canonical_rows(["y", "x"], swapped)
    )


def test_unsatisfiable_constant_atom_gives_empty_answer():
    rng = random.Random(7)
    _graph, _knn, tables, n_nodes, _n_preds = _instance(rng)
    neutral = (((n_nodes + 1, 0, "a"),), ())
    assert tables.join(neutral).shape == (0, 1)
