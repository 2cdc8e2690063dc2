"""Deciding and counting embeddings of a PLS into a group Cayley table.

An embedding is a triple of injections (rows, columns, symbols) -> G with
row_image * col_image = sym_image on every filled cell.  The search is exact
backtracking with forward propagation: once two of the three images on a
triple are known the third is forced by the group operation.

The triples are searched in a fixed order, one step each.  Which of a
triple's images are already set when the search reaches it depends only on
the square and on whether the first row and column are pinned, not on the
search path, so each step's case (check, force one image, or branch one or
two and force the rest) is fixed in a step plan, built once per square and
process.

A decision search with the pin breaks the symmetry of the group at its first
branch (Gent, Petrie and Puget, "Symmetry in constraint programming", 2006).
Every image set before that step is the identity, which each automorphism phi
of G fixes, and (phi, phi, phi) maps embeddings onto embeddings.  So the first
branch tries only the least element of each Aut(G)-orbit
(``Group.orbit_minima``).  A value that leads to an embedding takes the least
of its orbit with it, which is tried first, so the verdict and the first
witness are those of the full search; only refuted values are skipped.
Counting searches branch over every element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
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


# A step's case is 4 * row + 2 * col + sym, each bit set iff an earlier step
# (or the pin) has set that image.  Every step sets all three, so the case
# depends on the square and the pin alone, never on the search path.
_CHECK, _FORCE_S, _FORCE_C, _BRANCH_C = 7, 6, 5, 4
_FORCE_R, _BRANCH_R, _BRANCH_R_VIA_S, _BRANCH_RC = 3, 2, 1, 0


@lru_cache(maxsize=1 << 16)
def _search_plan(triples: tuple[Triple, ...], pin: bool) -> tuple[tuple, tuple, int]:
    """The steps (case, row slot, col slot, sym slot), one per triple, each
    slot's line as (coordinate, label), and the index of the first step that
    branches (-1 if none does).

    Triples go in connectivity order: the least first, then always the first
    that shares the most lines with those before it.  A slot is a line's
    place in the image array, numbered by first use; the pin sets slots 0
    and 1, the first triple's row and column.
    """
    rest = sorted(triples)
    slots = {(0, rest[0].row): 0, (1, rest[0].col): 1} if pin else {}
    steps = []
    while rest:
        known = [sum((k, t[k]) in slots for k in range(3)) for t in rest]
        t = rest.pop(known.index(max(known)))
        case = 0
        for k in range(3):
            if (k, t[k]) in slots:
                case |= 4 >> k
            slots.setdefault((k, t[k]), len(slots))
        steps.append((case, slots[0, t.row], slots[1, t.col], slots[2, t.sym]))
    branches = (_BRANCH_C, _BRANCH_R, _BRANCH_R_VIA_S, _BRANCH_RC)
    first = next((i for i, step in enumerate(steps) if step[0] in branches), -1)
    return tuple(steps), tuple(slots), first


@dataclass
class _Searcher:
    """Backtracking over triple images with propagation and injectivity.

    `run` leaves its node count in `nodes` and its first embedding in `witness`.
    """

    p: PLS
    g: Group
    pin: bool
    node_limit: int = DEFAULT_NODE_LIMIT
    nodes: int = field(default=0, init=False)
    witness: Optional[EmbeddingWitness] = field(default=None, init=False)

    def run(self, count_all: bool) -> int:
        steps, lines, first_branch = _search_plan(self.p.triples, self.pin)
        depth = len(steps)
        n, table, inv = self.g.order, self.g.table, self.g.inverse
        every = range(n)
        # the values of step `first_branch`: one per Aut(g)-orbit when deciding
        # with the pin
        firsts = self.g.orbit_minima if self.pin and not count_all else every
        # a step reads only slots that earlier steps on the current path set,
        # so backtracking clears the used flags and may leave the images
        img = [-1] * len(lines)
        row_used, col_used, sym_used = [False] * n, [False] * n, [False] * n
        if self.pin:
            img[0] = img[1] = 0
            row_used[0] = col_used[0] = True
        limit = self.node_limit
        nodes = -1  # every call of rec below the root is a node
        first: Optional[list[int]] = None

        def rec(i: int) -> int:
            nonlocal nodes, first
            nodes += 1
            if nodes > limit:
                raise SearchLimitExceeded(f"embedding search exceeded {limit} nodes")
            if i == depth:
                if first is None:
                    first = img[:]
                return 1
            case, a, b, c = steps[i]
            nxt = i + 1
            if case == _FORCE_S:
                y_slot, y_used, y = c, sym_used, table[img[a]][img[b]]
            elif case == _FORCE_C:
                y_slot, y_used, y = b, col_used, table[inv[img[a]]][img[c]]
            elif case == _FORCE_R:
                y_slot, y_used, y = a, row_used, table[img[c]][inv[img[b]]]
            elif case == _CHECK:
                if table[img[a]][img[b]] == img[c]:
                    return rec(nxt)
                nodes += 1  # a failed check is a node too
                if nodes > limit:
                    raise SearchLimitExceeded(f"embedding search exceeded {limit} nodes")
                return 0
            else:
                return branch(case, nxt, a, b, c, firsts if i == first_branch else every)
            # the one open image is forced to y
            if y_used[y]:
                return 0
            img[y_slot] = y
            y_used[y] = True
            got = rec(nxt)
            y_used[y] = False
            return got

        def branch(case: int, nxt: int, a: int, b: int, c: int, values) -> int:
            total = 0
            if case == _BRANCH_C:  # branch column, force symbol
                row = table[img[a]]
                for col in values:
                    s = row[col]
                    if col_used[col] or sym_used[s]:
                        continue
                    img[b], img[c] = col, s
                    col_used[col] = sym_used[s] = True
                    total += rec(nxt)
                    col_used[col] = sym_used[s] = False
                    if total and not count_all:
                        break
            elif case == _BRANCH_R:  # branch row, force symbol
                gc = img[b]
                for r in values:
                    s = table[r][gc]
                    if row_used[r] or sym_used[s]:
                        continue
                    img[a], img[c] = r, s
                    row_used[r] = sym_used[s] = True
                    total += rec(nxt)
                    row_used[r] = sym_used[s] = False
                    if total and not count_all:
                        break
            elif case == _BRANCH_R_VIA_S:  # branch row, force column
                gs = img[c]
                for r in values:
                    col = table[inv[r]][gs]
                    if row_used[r] or col_used[col]:
                        continue
                    img[a], img[b] = r, col
                    row_used[r] = col_used[col] = True
                    total += rec(nxt)
                    row_used[r] = col_used[col] = False
                    if total and not count_all:
                        break
            else:  # branch row, then column and symbol as _BRANCH_C
                for r in values:
                    if row_used[r]:
                        continue
                    img[a] = r
                    row_used[r] = True
                    total += branch(_BRANCH_C, nxt, a, b, c, every)
                    row_used[r] = False
                    if total and not count_all:
                        break
            return total

        try:
            total = rec(0)
        finally:
            self.nodes = nodes
        if first is not None:
            maps: tuple[dict[int, int], ...] = ({}, {}, {})
            for (k, label), x in zip(lines, first):
                maps[k][label] = x
            self.witness = EmbeddingWitness(*maps)
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
    # the first s22 seen for each (s11, s12, s21)
    fourth: dict[tuple[int, int, int], int] = {}
    for (r1, c1), s11 in cells.items():
        for (r2, c2), s22 in cells.items():
            s12 = cells.get((r1, c2))
            s21 = cells.get((r2, c1))
            if s12 is not None and s21 is not None:
                if fourth.setdefault((s11, s12, s21), s22) != s22:
                    return True
    return False


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
