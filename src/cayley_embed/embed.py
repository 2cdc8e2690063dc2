"""Deciding and counting embeddings of a PLS into a group Cayley table.

An embedding is a triple of injections (rows, columns, symbols) -> G with
row_image * col_image = sym_image on every filled cell.  The search is exact
backtracking with forward propagation: once two of the three images on a
triple are known the third is forced by the group operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Optional, Sequence

from .groups import Group
from .pls import PLS, Triple, is_t_species

DEFAULT_NODE_LIMIT = 10**9


class SearchLimitExceeded(RuntimeError):
    """The backtracking search exceeded its node budget (misuse guard)."""


@dataclass(frozen=True)
class EmbeddingWitness:
    """The three injections realising a PLS inside a group.

    Keys are the PLS's 1-based row/column/symbol ids; values are group
    element indices.
    """

    row_map: dict[int, int]
    col_map: dict[int, int]
    sym_map: dict[int, int]

    def to_text(self) -> str:
        def line(label, m):
            return label + ": " + " ".join(f"{k}->{m[k]}" for k in sorted(m))

        return "\n".join(
            [line("I1", self.row_map), line("I2", self.col_map), line("I3", self.sym_map)]
        )

    def to_json(self) -> dict:
        return {
            "I1": {str(k): v for k, v in sorted(self.row_map.items())},
            "I2": {str(k): v for k, v in sorted(self.col_map.items())},
            "I3": {str(k): v for k, v in sorted(self.sym_map.items())},
        }

    @classmethod
    def from_json(cls, payload: dict) -> "EmbeddingWitness":
        return cls(
            {int(k): int(v) for k, v in payload["I1"].items()},
            {int(k): int(v) for k, v in payload["I2"].items()},
            {int(k): int(v) for k, v in payload["I3"].items()},
        )


WITNESS_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["I1", "I2", "I3"],
    "properties": {
        name: {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0},
        }
        for name in ("I1", "I2", "I3")
    },
    "additionalProperties": False,
}


def verify_witness(p: PLS, g: Group, w: EmbeddingWitness) -> bool:
    """Independent check: total, injective, and multiplicative on every cell."""
    if set(w.row_map) != set(range(1, p.n_rows + 1)):
        return False
    if set(w.col_map) != set(range(1, p.n_cols + 1)):
        return False
    if set(w.sym_map) != set(range(1, p.n_syms + 1)):
        return False
    for m in (w.row_map, w.col_map, w.sym_map):
        vals = list(m.values())
        if len(set(vals)) != len(vals):
            return False
        if any(not 0 <= v < g.order for v in vals):
            return False
    return all(
        g.table[w.row_map[t.row]][w.col_map[t.col]] == w.sym_map[t.sym]
        for t in p.triples
    )


@dataclass(frozen=True)
class EmbedVerdict:
    """Outcome of an embeddability query.

    Search-backed positive verdicts always carry a witness; a positive verdict
    with method="transversal-bound" trusts the diagonal fast path and carries
    none (re-run with paranoid=True for a witness).  `obstruction` is set only
    on negative verdicts, and is always "exhausted-search".
    """

    embeddable: bool
    witness: Optional[EmbeddingWitness] = None
    obstruction: Optional[str] = None
    method: str = "search"


def _connectivity_order(triples: Sequence[Triple]) -> list[Triple]:
    """Sorted-first greedy order; prefer triples sharing most coordinates."""
    ts = sorted(triples)
    chosen = [ts[0]]
    rest = ts[1:]
    rows, cols, syms = {ts[0][0]}, {ts[0][1]}, {ts[0][2]}
    while rest:
        best_i, best_known = 0, -1
        for i, t in enumerate(rest):
            known = (t[0] in rows) + (t[1] in cols) + (t[2] in syms)
            if known > best_known:
                best_i, best_known = i, known
                if known == 3:
                    break
        t = rest.pop(best_i)
        chosen.append(t)
        rows.add(t[0])
        cols.add(t[1])
        syms.add(t[2])
    return chosen


class _Searcher:
    """Backtracking over triple images with propagation and injectivity."""

    def __init__(
        self,
        p: PLS,
        g: Group,
        *,
        pin: bool,
        node_limit: int = DEFAULT_NODE_LIMIT,
    ):
        self.p = p
        self.g = g
        self.order = _connectivity_order(p.triples)
        n = g.order
        self.row_img = [-1] * (p.n_rows + 1)
        self.col_img = [-1] * (p.n_cols + 1)
        self.sym_img = [-1] * (p.n_syms + 1)
        self.row_used = [False] * n
        self.col_used = [False] * n
        self.sym_used = [False] * n
        self.nodes = 0
        self.node_limit = node_limit
        self.witness: Optional[EmbeddingWitness] = None
        if pin:
            first = self.order[0]
            self.row_img[first.row] = 0
            self.row_used[0] = True
            self.col_img[first.col] = 0
            self.col_used[0] = True

    def run(self, count_all: bool) -> int:
        return self._rec(0, count_all)

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise SearchLimitExceeded(f"embedding search exceeded {self.node_limit} nodes")

    def _rec(self, i: int, count_all: bool) -> int:
        if i == len(self.order):
            if self.witness is None:
                self.witness = EmbeddingWitness(
                    {r: self.row_img[r] for r in range(1, self.p.n_rows + 1)},
                    {c: self.col_img[c] for c in range(1, self.p.n_cols + 1)},
                    {s: self.sym_img[s] for s in range(1, self.p.n_syms + 1)},
                )
            return 1
        t = self.order[i]
        table = self.g.table
        inv = self.g.inverse
        gr = self.row_img[t.row]
        gc = self.col_img[t.col]
        gs = self.sym_img[t.sym]
        total = 0

        def close_with(r: int, c: int, s: int, set_r: bool, set_c: bool, set_s: bool) -> int:
            self._tick()
            if set_r:
                self.row_img[t.row] = r
                self.row_used[r] = True
            if set_c:
                self.col_img[t.col] = c
                self.col_used[c] = True
            if set_s:
                self.sym_img[t.sym] = s
                self.sym_used[s] = True
            got = self._rec(i + 1, count_all)
            if set_r:
                self.row_img[t.row] = -1
                self.row_used[r] = False
            if set_c:
                self.col_img[t.col] = -1
                self.col_used[c] = False
            if set_s:
                self.sym_img[t.sym] = -1
                self.sym_used[s] = False
            return got

        if gr >= 0 and gc >= 0:
            want = table[gr][gc]
            if gs >= 0:
                self._tick()
                return self._rec(i + 1, count_all) if want == gs else 0
            if not self.sym_used[want]:
                total = close_with(gr, gc, want, False, False, True)
            return total
        if gr >= 0 and gs >= 0:
            want = table[inv[gr]][gs]
            if not self.col_used[want]:
                total = close_with(gr, want, gs, False, True, False)
            return total
        if gc >= 0 and gs >= 0:
            want = table[gs][inv[gc]]
            if not self.row_used[want]:
                total = close_with(want, gc, gs, True, False, False)
            return total
        n = self.g.order
        if gr >= 0:  # column and symbol both open: branch column, force symbol
            for c in range(n):
                if self.col_used[c]:
                    continue
                s = table[gr][c]
                if self.sym_used[s]:
                    continue
                total += close_with(gr, c, s, False, True, True)
                if total and not count_all:
                    return total
            return total
        if gc >= 0:
            for r in range(n):
                if self.row_used[r]:
                    continue
                s = table[r][gc]
                if self.sym_used[s]:
                    continue
                total += close_with(r, gc, s, True, False, True)
                if total and not count_all:
                    return total
            return total
        if gs >= 0:
            for r in range(n):
                if self.row_used[r]:
                    continue
                c = table[inv[r]][gs]
                if self.col_used[c]:
                    continue
                total += close_with(r, c, gs, True, True, False)
                if total and not count_all:
                    return total
            return total
        for r in range(n):
            if self.row_used[r]:
                continue
            row = table[r]
            for c in range(n):
                if self.col_used[c]:
                    continue
                s = row[c]
                if self.sym_used[s]:
                    continue
                total += close_with(r, c, s, True, True, True)
                if total and not count_all:
                    return total
        return total


def transversal_bound(n: int) -> int:
    """Largest t for which a t-cell diagonal is guaranteed to embed: ceil(n - sqrt(n))."""
    return n - isqrt(n)


def transversal_fast_path(t_species: bool, size: int, n: int) -> bool:
    """A t-species within the transversal bound embeds in every group of order n."""
    return t_species and size <= transversal_bound(n)


def _partial_transversal(g: Group, m: int, node_limit: int) -> Optional[list[tuple[int, int, int]]]:
    """m cells of g's table in increasing rows, distinct columns and products."""
    n = g.order
    col_used = [False] * n
    sym_used = [False] * n
    cells: list[tuple[int, int, int]] = []
    nodes = 0

    def rec(row: int, need: int) -> bool:
        nonlocal nodes
        if need == 0:
            return True
        if n - row < need:
            return False
        nodes += 1
        if nodes > node_limit:
            raise SearchLimitExceeded(f"transversal search exceeded {node_limit} nodes")
        table_row = g.table[row]
        for c in range(n):
            if col_used[c]:
                continue
            s = table_row[c]
            if sym_used[s]:
                continue
            col_used[c] = sym_used[s] = True
            cells.append((row, c, s))
            if rec(row + 1, need - 1):
                return True
            col_used[c] = sym_used[s] = False
            cells.pop()
        return rec(row + 1, need)

    return cells if rec(0, m) else None


def _transversal_witness(p: PLS, cells: list[tuple[int, int, int]]) -> EmbeddingWitness:
    # every coordinate of a t-shaped PLS is private to its triple, so any
    # pairing of triples with transversal cells is a witness
    rows, cols, syms = {}, {}, {}
    for t, (r, c, s) in zip(sorted(p.triples), cells):
        rows[t.row] = r
        cols[t.col] = c
        syms[t.sym] = s
    return EmbeddingWitness(rows, cols, syms)


def find_embedding(
    p: PLS,
    g: Group,
    *,
    paranoid: bool = False,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> EmbedVerdict:
    """Complete existence search for an embedding of p in g.

    Existence queries pin the first processed row and column to the identity
    (pre/post-multiplying any embedding normalises it that way, so no
    generality is lost).  Diagonal squares with all-distinct symbols of size
    within the transversal bound are accepted without search unless
    paranoid=True, which forces a searched witness.
    """
    n = g.order
    if p.n_rows > n or p.n_cols > n or p.n_syms > n:
        return EmbedVerdict(False, obstruction="exhausted-search")
    t_species = is_t_species(p)
    if not paranoid and transversal_fast_path(t_species, p.size, n):
        return EmbedVerdict(True, method="transversal-bound")
    if t_species:
        cells = _partial_transversal(g, p.size, node_limit)
        if cells is None:
            return EmbedVerdict(False, obstruction="exhausted-search")
        return EmbedVerdict(True, witness=_transversal_witness(p, cells))
    searcher = _Searcher(p, g, pin=True, node_limit=node_limit)
    if searcher.run(count_all=False):
        return EmbedVerdict(True, witness=searcher.witness)
    return EmbedVerdict(False, obstruction="exhausted-search")


def count_embeddings(p: PLS, g: Group, *, node_limit: int = DEFAULT_NODE_LIMIT) -> int:
    """Exact number of embedding triples (no normalisation applied)."""
    searcher = _Searcher(p, g, pin=False, node_limit=node_limit)
    return searcher.run(count_all=True)


def count_embeddings_pinned(p: PLS, g: Group, *, node_limit: int = DEFAULT_NODE_LIMIT) -> int:
    """Count with the first processed row and column pinned to the identity.

    The pre/post-multiplication action of G x G on embeddings is free, and
    each orbit contains exactly one pinned embedding, so the unpinned count is
    |G|^2 times this one.
    """
    searcher = _Searcher(p, g, pin=True, node_limit=node_limit)
    return searcher.run(count_all=True)


def quadrangle_violation(p: PLS) -> bool:
    """True iff two quadrangles agree in three corresponding symbols but not the fourth.

    Group tables satisfy the quadrangle criterion, so a violation certifies
    that p embeds in no group at all.  Quadrangle corners may coincide.
    """
    cells = p.cell_map()
    rows = sorted({t.row for t in p.triples})
    cols = sorted({t.col for t in p.triples})
    quads: dict[tuple[int, int, int], set[int]] = {}
    for r1 in rows:
        for r2 in rows:
            for c1 in cols:
                s11 = cells.get((r1, c1))
                if s11 is None:
                    continue
                s21 = cells.get((r2, c1))
                if s21 is None:
                    continue
                for c2 in cols:
                    s12 = cells.get((r1, c2))
                    if s12 is None:
                        continue
                    s22 = cells.get((r2, c2))
                    if s22 is None:
                        continue
                    quads.setdefault((s11, s12, s21), set()).add(s22)
    return any(len(v) > 1 for v in quads.values())


class PartitionInvalid(ValueError):
    """Partition does not consist of positive parts summing to |G|."""


def embed_diagonal_partition(
    g: Group,
    partition: Sequence[int],
    *,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> tuple[bool, Optional[list[int]]]:
    """Is there a permutation pi of G whose products g*pi(g) realise `partition`?

    The multiplicities of the values g*pi(g) must form exactly the given
    partition of |G|; equivalently, the diagonal PLS with those symbol
    multiplicities embeds in g.  Returns (realisable, pi or None).

    A partial pi is kept only while its product counts, sorted, are term by
    term at most the sorted parts.  That holds iff for every k at most
    cap[k] values (the number of parts >= k) are met k or more times, and a
    count rising to c changes only ge[c], the number of values met at least
    c times: the test is ge[c] < cap[c].  At a leaf both sum to n, so
    ge == cap and the counts are exactly the partition.
    """
    n = g.order
    parts = [int(x) for x in partition]
    if not parts or any(x < 1 for x in parts):
        raise PartitionInvalid(f"parts must be positive integers, got {list(partition)}")
    if sum(parts) != n:
        raise PartitionInvalid(f"parts sum to {sum(parts)}, group order is {n}")
    cap = [0] * (n + 1)
    for part in parts:
        for k in range(1, part + 1):
            cap[k] += 1
    ge = [0] * (n + 1)
    counts = [0] * n
    used = [False] * n
    perm = [-1] * n
    table = g.table
    nodes = 0

    def rec(x: int) -> bool:
        nonlocal nodes
        if x == n:
            return True
        nodes += 1
        if nodes > node_limit:
            raise SearchLimitExceeded(f"partition search exceeded {node_limit} nodes")
        row = table[x]
        for y in range(n):
            if used[y]:
                continue
            v = row[y]
            c = counts[v] + 1
            if ge[c] >= cap[c]:
                continue
            counts[v] = c
            ge[c] += 1
            used[y] = True
            perm[x] = y
            if rec(x + 1):
                return True
            used[y] = False
            perm[x] = -1
            ge[c] -= 1
            counts[v] = c - 1
        return False

    if rec(0):
        return True, perm
    return False, None
