"""Independent correctness reference for the benchmark.

Nothing here imports the Ring, LTJ or succinct code. The reference
works on the raw generated tables only: the ``(n, 3)`` edge table and
the K-NN neighbour table with its row lengths.

Two checks are offered:

* :meth:`Tables.unsound_rows` is the soundness property: every triple
  pattern of a solution, with the solution substituted, is an edge of
  the generated table, and every ``x <|_k y`` has ``y`` among the first
  ``k`` entries of ``x``'s K-NN row.
* :meth:`Tables.join` is a complete reference answer: each atom becomes
  a table of its satisfying bindings, and the tables are hash-joined
  (sort + ``searchsorted``) in a greedy smallest-first order. It is a
  relational plan, unrelated to leapfrog triejoin, and fast enough to
  answer every query of every run.

Queries are handled in a small neutral form so the reference does not
depend on ``repro.query`` either: a query is a pair ``(triples,
clauses)`` where a triple is ``(s, p, o)`` and a clause is ``(x, k, y)``;
a term is an ``int`` constant or a ``str`` variable name.
"""

from __future__ import annotations

import numpy as np

_KEY_BITS = 21  # ids stay far below 2**21 at benchmark scale


def _is_var(term) -> bool:
    return isinstance(term, str)


class _Rel:
    """A set of bindings: variable names plus an ``(n, len(vars))`` table."""

    __slots__ = ("vars", "rows")

    def __init__(self, variables: tuple[str, ...], rows: np.ndarray) -> None:
        self.vars = variables
        self.rows = rows

    def __len__(self) -> int:
        return int(self.rows.shape[0])


def _distinct(rows: np.ndarray) -> np.ndarray:
    if rows.shape[0] <= 1 or rows.shape[1] == 0:
        return rows[:1] if rows.shape[1] == 0 else rows
    return np.unique(rows, axis=0)


def _encode(rows: np.ndarray, columns: list[int]) -> np.ndarray:
    key = np.zeros(rows.shape[0], dtype=np.int64)
    for column in columns:
        key = (key << _KEY_BITS) | rows[:, column]
    return key


def _member(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """``keys[i] in sorted_keys`` for each i (``sorted_keys`` unique)."""
    if sorted_keys.size == 0:
        return np.zeros(keys.shape[0], dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[at] == keys


def _hash_join(left: _Rel, right: _Rel) -> _Rel:
    """Natural join of two binding sets (both duplicate-free)."""
    shared = [v for v in left.vars if v in right.vars]
    extra = [i for i, v in enumerate(right.vars) if v not in left.vars]
    variables = left.vars + tuple(right.vars[i] for i in extra)
    if shared:
        left_key = _encode(left.rows, [left.vars.index(v) for v in shared])
        right_key = _encode(right.rows, [right.vars.index(v) for v in shared])
        order = np.argsort(right_key, kind="stable")
        sorted_key = right_key[order]
        lo = np.searchsorted(sorted_key, left_key, side="left")
        hi = np.searchsorted(sorted_key, left_key, side="right")
    else:
        order = np.arange(len(right), dtype=np.int64)
        lo = np.zeros(len(left), dtype=np.int64)
        hi = np.full(len(left), len(right), dtype=np.int64)
    counts = hi - lo
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(len(left), dtype=np.int64), counts)
    starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    right_idx = order[starts + np.arange(total, dtype=np.int64)]
    rows = np.empty((total, len(variables)), dtype=np.int64)
    rows[:, : len(left.vars)] = left.rows[left_idx]
    if extra:
        rows[:, len(left.vars):] = right.rows[right_idx][:, extra]
    return _Rel(variables, rows)


class Tables:
    """The generated edge and K-NN tables, indexed for both checks."""

    def __init__(
        self,
        edges: np.ndarray,
        knn_members: np.ndarray,
        knn_neighbors: np.ndarray,
        knn_lengths: np.ndarray,
    ) -> None:
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
        self._edge_keys = np.unique(_encode(self.edges, [0, 1, 2]))
        self._pair_key_cache: dict[int, np.ndarray] = {}
        self.knn: dict[int, tuple[int, ...]] = {
            int(member): tuple(int(v) for v in row[: int(length)])
            for member, row, length in zip(
                knn_members, knn_neighbors, knn_lengths
            )
        }

    # -- soundness ----------------------------------------------------------
    def unsound_rows(
        self, query, names: tuple[str, ...], rows: np.ndarray
    ) -> int:
        """How many solution rows violate some atom of ``query``.

        ``rows`` is two-dimensional: one solution per row, one column
        per name of ``names``.
        """
        triples, clauses = query
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[0] == 0:
            return 0
        column = {name: i for i, name in enumerate(names)}

        def values(term) -> np.ndarray:
            if _is_var(term):
                return rows[:, column[term]]
            return np.full(rows.shape[0], term, dtype=np.int64)

        bad = np.zeros(rows.shape[0], dtype=bool)
        for atom in triples:
            keys = _encode(
                np.stack([values(t) for t in atom], axis=1), [0, 1, 2]
            )
            bad |= ~_member(keys, self._edge_keys)
        for x, k, y in clauses:
            keys = _encode(np.stack([values(x), values(y)], axis=1), [0, 1])
            bad |= ~_member(keys, self._pair_keys(k))
        return int(bad.sum())

    # -- completeness -------------------------------------------------------
    def _triple_rel(self, atom) -> _Rel:
        rows = self.edges
        mask = np.ones(rows.shape[0], dtype=bool)
        first: dict[str, int] = {}
        for position, term in enumerate(atom):
            if not _is_var(term):
                mask &= rows[:, position] == term
            elif term in first:
                mask &= rows[:, position] == rows[:, first[term]]
            else:
                first[term] = position
        variables = tuple(first)
        picked = rows[mask][:, [first[v] for v in variables]]
        return _Rel(variables, _distinct(picked))

    def _pairs(self, k: int) -> np.ndarray:
        """Every ``(x, y)`` with ``y`` among the first ``k`` of x's row."""
        pairs = [
            (source, target)
            for source, row in self.knn.items()
            for target in row[:k]
        ]
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)

    def _pair_keys(self, k: int) -> np.ndarray:
        if k not in self._pair_key_cache:
            self._pair_key_cache[k] = np.unique(_encode(self._pairs(k), [0, 1]))
        return self._pair_key_cache[k]

    def _clause_rel(self, atom) -> _Rel:
        x, k, y = atom
        rows = self._pairs(k)
        mask = np.ones(rows.shape[0], dtype=bool)
        variables: list[str] = []
        columns: list[int] = []
        for position, term in enumerate((x, y)):
            if _is_var(term):
                variables.append(term)
                columns.append(position)
            else:
                mask &= rows[:, position] == term
        return _Rel(tuple(variables), _distinct(rows[mask][:, columns]))

    def join(self, query) -> np.ndarray:
        """Every solution of ``query`` as :func:`canonical_rows` gives
        them: columns in sorted variable-name order, rows sorted."""
        triples, clauses = query
        pending = [self._triple_rel(a) for a in triples]
        pending += [self._clause_rel(a) for a in clauses]
        names = tuple(sorted({v for rel in pending for v in rel.vars}))
        if any(len(rel) == 0 for rel in pending):
            return np.empty((0, len(names)), dtype=np.int64)
        pending.sort(key=len)
        current = pending.pop(0)
        while pending:
            connected = [
                i for i, rel in enumerate(pending)
                if set(rel.vars) & set(current.vars)
            ]
            pick = connected[0] if connected else 0
            current = _hash_join(current, pending.pop(pick))
            if len(current) == 0:
                return np.empty((0, len(names)), dtype=np.int64)
        return canonical_rows(current.vars, current.rows)


def canonical_rows(names, rows: np.ndarray) -> np.ndarray:
    """Columns reordered by variable name, rows sorted lexicographically.

    Two answers are equal as sets of solutions exactly when their
    canonical rows are equal (given duplicate-free inputs).
    """
    rows = np.asarray(rows, dtype=np.int64)
    order = sorted(range(len(names)), key=lambda i: names[i])
    rows = rows[:, order]
    if rows.shape[0] > 1 and rows.shape[1]:
        rows = rows[np.lexsort(rows.T[::-1])]
    return rows
