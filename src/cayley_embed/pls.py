"""Partial latin squares: validation, parastrophy, canonical species keys, enumeration.

A partial latin square (PLS) is stored as a set of (row, col, sym) triples in
which no two triples agree on two coordinates.  By convention every row,
column and symbol id actually occurs, so ids are dense (1..k in each
coordinate).  Unused symbol ids are likewise forbidden; ``validate_pls``
relabels everything densely in first-appearance order.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, NamedTuple, Optional, Sequence


class LatinConflict(ValueError):
    """Two triples collide on a coordinate pair (row+col, row+sym or col+sym)."""

    def __init__(self, pair: tuple[str, str], first: "Triple", second: "Triple"):
        self.pair = pair
        self.first = first
        self.second = second
        super().__init__(
            f"{pair[0]}/{pair[1]} conflict between {tuple(first)} and {tuple(second)}"
        )


class EmptyInput(ValueError):
    """A PLS needs at least one filled cell."""


class SizeLimitExceeded(ValueError):
    """Requested size is beyond the supported enumeration bound."""


class ParameterOutOfRange(ValueError):
    """Constructor parameter outside its documented range."""


class Triple(NamedTuple):
    row: int
    col: int
    sym: int


@dataclass(frozen=True)
class PLS:
    """A partial latin square as a sorted tuple of dense 1-based triples.

    Construct via :func:`validate_pls` (or the generators below); the raw
    constructor performs no checking.
    """

    triples: tuple[Triple, ...]
    n_rows: int
    n_cols: int
    n_syms: int

    @property
    def size(self) -> int:
        return len(self.triples)

    @property
    def order(self) -> int:
        return max(self.n_rows, self.n_cols, self.n_syms)

    def cell_map(self) -> dict[tuple[int, int], int]:
        return {(t.row, t.col): t.sym for t in self.triples}

    def __str__(self) -> str:
        return format_grid(self)


def validate_pls(triples: Iterable[Sequence[int]]) -> PLS:
    """Validate triples and return the densely relabelled PLS.

    Ids are relabelled 1..k per coordinate in order of first appearance in the
    input sequence, which makes encodings of hard-coded squares deterministic.
    Rejects duplicate cells and latin violations.
    """
    raw = [Triple(int(t[0]), int(t[1]), int(t[2])) for t in triples]
    if not raw:
        raise EmptyInput("a PLS must contain at least one triple")
    for t in raw:
        if t.row < 1 or t.col < 1 or t.sym < 1:
            raise ValueError(f"triple ids must be >= 1, got {tuple(t)}")
    by_rc: dict[tuple[int, int], Triple] = {}
    by_rs: dict[tuple[int, int], Triple] = {}
    by_cs: dict[tuple[int, int], Triple] = {}
    for t in raw:
        if (t.row, t.col) in by_rc:
            raise LatinConflict(("row", "col"), by_rc[(t.row, t.col)], t)
        if (t.row, t.sym) in by_rs:
            raise LatinConflict(("row", "sym"), by_rs[(t.row, t.sym)], t)
        if (t.col, t.sym) in by_cs:
            raise LatinConflict(("col", "sym"), by_cs[(t.col, t.sym)], t)
        by_rc[(t.row, t.col)] = t
        by_rs[(t.row, t.sym)] = t
        by_cs[(t.col, t.sym)] = t
    rmap: dict[int, int] = {}
    cmap: dict[int, int] = {}
    smap: dict[int, int] = {}
    for t in raw:
        rmap.setdefault(t.row, len(rmap) + 1)
        cmap.setdefault(t.col, len(cmap) + 1)
        smap.setdefault(t.sym, len(smap) + 1)
    relabelled = tuple(
        sorted(Triple(rmap[t.row], cmap[t.col], smap[t.sym]) for t in raw)
    )
    return PLS(relabelled, len(rmap), len(cmap), len(smap))


# ---------------------------------------------------------------------------
# Parastrophy: the symmetric-group action permuting the three coordinate roles.


@dataclass(frozen=True, order=True)
class Parastrophe:
    """A permutation of the coordinate roles (row, col, sym).

    ``perm=(p0,p1,p2)`` sends a triple t to (t[p0], t[p1], t[p2]).
    """

    perm: tuple[int, int, int]

    def apply(self, t: Sequence[int]) -> Triple:
        p = self.perm
        return Triple(t[p[0]], t[p[1]], t[p[2]])


TRANSPOSE = Parastrophe((1, 0, 2))
#: all six parastrophes in fixed (lexicographic) order; used wherever a
#: deterministic scan order is required.
ALL_PARASTROPHES: tuple[Parastrophe, ...] = tuple(
    Parastrophe(p) for p in sorted(permutations((0, 1, 2)))
)


def parastrophe(p: PLS, sigma: Parastrophe) -> PLS:
    """Apply sigma to every triple of p.  Labels stay dense, so no revalidation."""
    counts = (p.n_rows, p.n_cols, p.n_syms)
    q = sigma.perm
    return PLS(
        tuple(sorted(sigma.apply(t) for t in p.triples)),
        counts[q[0]],
        counts[q[1]],
        counts[q[2]],
    )


# ---------------------------------------------------------------------------
# Canonical species form.
#
# The species of a PLS is its orbit under relabelling each coordinate
# independently combined with parastrophy.  The key is the lexicographically
# least sorted-triple encoding over the whole orbit.  The minimum is attained
# by a labelling that is in first-appearance order along the sorted encoding
# (relabelling the first violation with a swap gives a smaller encoding), so a
# branch-and-bound over "which triple comes next", giving each triple the
# least labels still open to it, is exhaustive.  Three facts keep it small
# without changing the minimum:
#
# * Row 1 of the least encoding is a longest line: a longer first row wins at
#   the position where the shorter one ends.  Only parastrophes whose row
#   role holds a line of maximum degree are searched, and a new row is always
#   a longest one when all its cells are new.
# * When the least next triple has a new column and a new symbol, so has
#   every remaining triple of the open row, and the row ends with
#   (r, c, s), (r, c+1, s+1), ...  Which column gets which of those labels
#   (and its symbol the matching one) is left open until a later row meets
#   the column or the symbol, which then takes the least label still free in
#   its block.  Swapping two such column/symbol pairs leaves the row intact,
#   so the least encoding uses the free labels in increasing order and the
#   d! orders of a row of d new cells are never enumerated.
# * Two leaves with equal encodings give an autotopism.  Candidates that a
#   known autotopism fixing every labelled line maps onto an explored
#   candidate lead to the same encodings and are skipped, and on finding one
#   the search returns to the node where the two paths part.  A leaf equal
#   to the best of an earlier parastrophe means the two parastrophes are
#   isotopic, which ends the search of the later one.


@dataclass(frozen=True, order=True)
class SpeciesKey:
    """Canonical byte encoding of a species: the minimal flattened triple list."""

    blob: bytes

    def to_pls(self) -> PLS:
        b = self.blob
        return validate_pls(
            [(b[i], b[i + 1], b[i + 2]) for i in range(0, len(b), 3)]
        )

    def hex(self) -> str:
        return self.blob.hex()

    @classmethod
    def from_hex(cls, text: str) -> "SpeciesKey":
        return cls(bytes.fromhex(text))

    @property
    def size(self) -> int:
        return len(self.blob) // 3


def canonical_form(p: PLS) -> SpeciesKey:
    """Species key of p: minimal encoding over all 6 parastrophes x relabellings."""
    return SpeciesKey(_canonical_blob(p.triples))


_PERMS = tuple(sorted(permutations((0, 1, 2))))
# a label triple packed into one int, ordered as the triple is
_SHIFT = 16


@lru_cache(maxsize=1 << 18)
def _canonical_blob(triples: tuple[Sequence[int], ...]) -> bytes:
    return _LeastEncoding(triples).blob()


class _LeastEncoding:
    """The least encoding of a triple set, as packed label triples in ``best``.

    Triple ids need not be dense.  A line gets the flat id k * width + x for
    value x of coordinate k, whatever role a parastrophe gives it.  The
    symmetries met on the way are kept as permutations of the flat ids:
    autotopisms in ``autos`` (each coordinate onto itself, so that every
    parastrophe can use them) and autoparatopisms in ``paras`` (one per
    parastrophe found isotopic to an earlier one).  ``runs`` counts the
    encodings computed in this process.
    """

    runs = 0

    def __init__(self, triples: Sequence[Sequence[int]]):
        _LeastEncoding.runs += 1
        self.width = width = max(max(t) for t in triples) + 1
        self.flat = [[k * width + t[k] for t in triples] for k in range(3)]
        self.cells_on: list[list[int]] = [[] for _ in range(3 * width)]
        for ids in self.flat:
            for i, x in enumerate(ids):
                self.cells_on[x].append(i)
        # triple index by its row and column
        self.cell_of = {rc: i for i, rc in enumerate(zip(self.flat[0], self.flat[1]))}
        self.best: list[int] = []
        self.best_perm: Optional[tuple[int, ...]] = None
        self.best_labels: list[int] = []
        self.best_path: list[int] = []
        self.autos: list[list[int]] = []
        self.paras: list[list[int]] = []
        degree = [max(map(len, self.cells_on[k * width : (k + 1) * width])) for k in range(3)]
        for perm in _PERMS:
            if degree[perm[0]] == max(degree):
                self._search(perm)

    def blob(self) -> bytes:
        mask = (1 << _SHIFT) - 1
        return bytes(
            x
            for code in self.best
            for x in (code >> 2 * _SHIFT, code >> _SHIFT & mask, code & mask)
        )

    def _search(self, perm: tuple[int, ...]) -> None:
        width = self.width
        lines = 3 * width
        R, C, S = (self.flat[k] for k in perm)
        n = len(R)
        cells_on = self.cells_on
        F0, F1 = self.flat[0], self.flat[1]
        cell_of = self.cell_of
        row_ids = [
            r for r in range(perm[0] * width, (perm[0] + 1) * width) if cells_on[r]
        ]
        # The search state is one flat list, copied for each child:
        #   [0, lines)       label of each line (0: none yet)
        #   BLK + line       record offset of the block a column or symbol
        #                    waits in (-1: none)
        #   PART + line      its partner symbol or column on the block's row
        #   NXT .. NXT+3     next new row, column and symbol label; blocks
        #   BLOCKS + 3b      block b: first column label, first symbol
        #                    label, labels taken
        #   DONE + i         triple i placed
        BLK = lines
        PART = 2 * lines
        NXT = 3 * lines
        BLOCKS = NXT + 4
        DONE = BLOCKS + 3 * n
        root = [0] * lines + [-1] * lines + [0] * lines + [1, 1, 1, 0] + [0] * (4 * n)
        best = self.best
        path: list[int] = []
        acc: list[int] = []
        jump: Optional[int] = None
        version = 0

        def place(st: list[int], i: int) -> int:
            r, c, s = R[i], C[i], S[i]
            if not st[r]:
                st[r] = st[NXT]
                st[NXT] += 1
            if not st[c]:
                o = st[BLK + c]
                if o < 0:
                    st[c] = st[NXT + 1]
                    st[NXT + 1] += 1
                else:
                    f = st[o + 2]
                    st[c] = st[o] + f
                    st[st[PART + c]] = st[o + 1] + f
                    st[o + 2] = f + 1
            if not st[s]:
                o = st[BLK + s]
                if o < 0:
                    st[s] = st[NXT + 2]
                    st[NXT + 2] += 1
                else:
                    f = st[o + 2]
                    st[s] = st[o + 1] + f
                    st[st[PART + s]] = st[o] + f
                    st[o + 2] = f + 1
            st[DONE + i] = 1
            return (st[r] << _SHIFT | st[c]) << _SHIFT | st[s]

        def open_block(st: list[int], members: list[int]) -> None:
            o = BLOCKS + 3 * st[NXT + 3]
            st[NXT + 3] += 1
            st[o] = st[NXT + 1]
            st[o + 1] = st[NXT + 2]
            st[o + 2] = 0
            for i in members:
                c, s = C[i], S[i]
                st[BLK + c] = st[BLK + s] = o
                st[PART + c] = s
                st[PART + s] = c
                st[DONE + i] = 1
            st[NXT + 1] += len(members)
            st[NXT + 2] += len(members)

        def block_codes(st: list[int], row_label: int, k: int) -> list[int]:
            head = (row_label << _SHIFT | st[NXT + 1]) << _SHIFT | st[NXT + 2]
            step = 1 << _SHIFT | 1
            return [head + j * step for j in range(k)]

        def least(st: list[int], cand: list[int]) -> tuple[int, list[int]]:
            """Least (column, symbol) label pair open to the candidates."""
            c_new, s_new = st[NXT + 1], st[NXT + 2]
            m = -1
            ties: list[int] = []
            for i in cand:
                c = C[i]
                lc = st[c]
                if not lc:
                    o = st[BLK + c]
                    lc = c_new if o < 0 else st[o] + st[o + 2]
                s = S[i]
                ls = st[s]
                if not ls:
                    o = st[BLK + s]
                    if o < 0:
                        ls = s_new
                    else:
                        # a column of the same block takes the lower label
                        ls = st[o + 1] + st[o + 2] + (o == st[BLK + c] and not st[c])
                code = lc << _SHIFT | ls
                if m < 0 or code < m:
                    m = code
                    ties = [i]
                elif code == m:
                    ties.append(i)
            return m, ties

        def compare(codes: list[int], pos: int, tight: bool) -> int:
            """-1: prune; 0: below the best; 1: still equal to it."""
            if not tight:
                return 0
            for code in codes:
                b = best[pos]
                if code != b:
                    return -1 if code > b else 0
                pos += 1
            return 1

        def equivalent(st: list[int], x: int, explored: list[int], is_row: bool) -> bool:
            """Whether autotopisms fixing the labelled lines map x onto an explored candidate."""
            gens = [g for g in self.autos if all(g[v] == v for v in range(lines) if st[v])]
            if not gens:
                return False
            targets = set(explored)
            seen = {x}
            todo = [x]
            while todo:
                y = todo.pop()
                for g in gens:
                    z = g[y] if is_row else cell_of[(g[F0[y]], g[F1[y]])]
                    if z in targets:
                        return True
                    if z not in seen:
                        seen.add(z)
                        todo.append(z)
            return False

        def leaf(st: list[int], tight: bool) -> None:
            nonlocal jump, version
            # columns still waiting in a block never met a later row: any
            # order of their free labels gives this encoding
            st = st[:]
            for c in range(perm[1] * width, (perm[1] + 1) * width):
                o = st[BLK + c]
                if not st[c] and o >= 0:
                    f = st[o + 2]
                    st[c] = st[o] + f
                    st[st[PART + c]] = st[o + 1] + f
                    st[o + 2] = f + 1
            labels = st[:lines]
            if not tight:
                best[:] = acc
                self.best_perm = perm
                self.best_labels = labels
                self.best_path = path[:]
                version += 1
                return
            # each line goes to the line with its label and its role at the
            # best leaf; a coordinate keeps its role unless a parastrophe
            # isotopic to the best one was found
            to = [self.best_perm[perm.index(k)] for k in range(3)]
            back = {(v // width, lab): v for v, lab in enumerate(self.best_labels) if lab}
            image = [
                back[(to[v // width], lab)] if lab else to[v // width] * width + v % width
                for v, lab in enumerate(labels)
            ]
            if self.best_perm != perm:
                self.paras.append(image)
                jump = -1
            else:
                self.autos.append(image)
                # below the node where the two paths part, this subtree is
                # the image of the explored one: go back to that node
                bp = self.best_path
                d = 0
                while path[d] == bp[d]:
                    d += 1
                jump = d

        def node(st: list[int], pos: int, row: int, tight: bool) -> None:
            nonlocal jump
            if pos == n:
                leaf(st, tight)
                return
            cand = [i for i in cells_on[row] if not st[DONE + i]] if row >= 0 else []
            row_label = st[row] if cand else st[NXT]
            m, ties = least(st, cand or [i for i in range(n) if not st[DONE + i]])
            is_row = m == st[NXT + 1] << _SHIFT | st[NXT + 2]
            if is_row:
                # every candidate is new in column and symbol: the open row
                # ends in one block, or else a longest free row opens as one
                if cand:
                    ties = [row]
                else:
                    free = [r for r in row_ids if not st[r]]
                    longest = max(len(cells_on[r]) for r in free)
                    ties = [r for r in free if len(cells_on[r]) == longest]
                    cand = cells_on[ties[0]]
                codes = block_codes(st, row_label, len(cand))
            else:
                codes = [row_label << 2 * _SHIFT | m]
            state = compare(codes, pos, tight)
            if state < 0:
                return
            depth = len(path)
            explored: list[int] = []
            for x in ties:
                if explored and self.autos and equivalent(st, x, explored, is_row):
                    continue
                seen_version = version
                child = st[:]
                path.append(x)
                if is_row:
                    child[x] = row_label
                    child[NXT] = row_label + 1
                    open_block(child, [i for i in cells_on[x] if not st[DONE + i]])
                    acc.extend(codes)
                    node(child, pos + len(codes), -1, state == 1)
                else:
                    acc.append(place(child, x))
                    node(child, pos + 1, R[x], state == 1)
                del acc[pos:]
                path.pop()
                if jump is not None:
                    if jump < depth:
                        return
                    jump = None
                if version != seen_version:
                    state = 1
                explored.append(x)

        node(root, 0, -1, bool(best))


# ---------------------------------------------------------------------------
# Isomorph-free enumeration of species by size.
#
# A size-m PLS minus any triple is (after dense relabelling) a size-(m-1) PLS,
# and the deleted triple sits inside the bounding box grown by one in each
# dimension, so augmenting every size-(m-1) representative over that box
# reaches every species.  A child is kept only when its added triple has the
# greatest invariant profile (`_greatest_profile`), and the kept children
# meet in one key set.  No species is lost:
#
# * every species has a triple of greatest (profile, refined profile);
# * deleting it leaves a species of the size below, and the isomorphism onto
#   that species' representative carries the triple into the representative's
#   grown box; the representative is extended there once per orbit of a group
#   of its symmetries (below), and the child met is isomorphic to the species
#   with its added triple still of greatest profile, profiles being invariant;
# * a species met from several parents, or as several siblings, merges in
#   the key set.
#
# Most children fail the profile, before any key is computed, and most box
# triples are dropped before the child is even built: a triple only raises
# the degrees of its lines, so the added triple must reach the parent's
# greatest profile.
#
# Each parent is also extended only once per orbit of its symmetries (McKay,
# "Isomorph-free exhaustive generation", J. Algorithms 26, 1998): the
# parent's own key search yields the autotopisms and autoparatopisms it
# meets, and a union-find pass over the triples of the grown box keeps the
# first triple of each orbit of the group they generate, a new line going to
# the new line of its image coordinate.  Any subgroup of the parent's
# automorphism group will do: two triples that an automorphism maps onto
# each other give isomorphic children, with the same key and the same
# profiles, so the keys kept, and the representatives and their order, do
# not depend on which symmetries the search happened to find.
#
# The parents of a level are extended independently of each other, so a level
# is dealt out by stride over one forked process per CPU, the caller taking
# the first share.  Each child sends back its keys and the number of keys it
# computed; the key set is sorted and the count summed, so neither the
# representatives nor `_LeastEncoding.runs` depend on the number of processes.

_species_lock = threading.Lock()
_species_levels: list[list[PLS]] = []

MAX_ENUM_SIZE = 8


def enumerate_species(max_size: int) -> dict[int, list[PLS]]:
    """One canonical representative per species, for each size 1..max_size.

    Representatives are the decoded canonical forms, sorted by species key.
    Levels are cached for the lifetime of the process.  A level not yet
    cached is built over one forked process per CPU, all of which have
    ended when this returns or raises.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if max_size > MAX_ENUM_SIZE:
        raise SizeLimitExceeded(
            f"species enumeration is capped at size {MAX_ENUM_SIZE}, got {max_size}"
        )
    return {m: list(_species_level(m)) for m in range(1, max_size + 1)}


def _species_level(m: int) -> list[PLS]:
    with _species_lock:
        while len(_species_levels) < m:
            nxt = len(_species_levels) + 1
            if nxt == 1:
                level = [validate_pls([(1, 1, 1)])]
            else:
                keys = _level_keys(_species_levels[-1])
                level = [_decode(b) for b in sorted(keys)]
            _species_levels.append(level)
    return _species_levels[m - 1]


def _decode(blob: bytes) -> PLS:
    """The square of a species key, which is already dense and sorted: what
    `SpeciesKey.to_pls` returns, without its validation."""
    triples = tuple(Triple(*blob[i : i + 3]) for i in range(0, len(blob), 3))
    return PLS(triples, *(max(t[k] for t in triples) for k in range(3)))


def _share_keys(parents: Sequence[PLS]) -> set[bytes]:
    """Keys of the kept children of `parents`."""
    # keys skip _canonical_blob's process-wide cache: enumeration meets almost
    # every child only once
    keys: set[bytes] = set()
    for parent in parents:
        enc = _LeastEncoding(parent.triples)
        for cells, added in _extensions(parent, _box_symmetries(parent, enc)):
            if _greatest_profile(cells, added):
                keys.add(_LeastEncoding(cells).blob())
    return keys


def _workers(parents: int) -> int:
    """Processes for a level: one per CPU, and only the caller where it
    cannot fork or has other threads (a fork copies no thread but its own)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, parents)


def _level_keys(parents: Sequence[PLS]) -> set[bytes]:
    """Keys of the kept children of `parents`, one forked process per share.

    Share w is ``parents[w::workers]``; the caller computes share 0.  Every
    child is reaped before this returns or raises, and a child that fails
    raises RuntimeError here.
    """
    workers = _workers(len(parents))
    children: list[tuple[int, int]] = []  # pid, read end of its pipe
    keys: Optional[set[bytes]] = None
    try:
        for w in range(1, workers):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wr)
                raise
            if pid == 0:
                os.close(r)
                _run_share(parents[w::workers], wr)
            os.close(wr)
            children.append((pid, r))
        keys = _share_keys(parents[::workers])
    finally:
        replies = []
        for pid, r in children:
            if keys is None:
                os.kill(pid, signal.SIGKILL)
            with open(r, "rb") as pipe:
                data = pipe.read()
            replies.append((os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), data))
    for status, _ in replies:
        if status:
            raise RuntimeError(f"a species enumeration worker exited with status {status}")
    for _, data in replies:
        share, runs = marshal.loads(data)
        keys.update(share)
        _LeastEncoding.runs += runs
    return keys


def _run_share(parents: Sequence[PLS], fd: int) -> None:
    """In a forked child: write the share's keys and key count to `fd`, exit.

    A child that fails writes nothing and exits with status 1.
    """
    status = 1
    try:
        runs = _LeastEncoding.runs
        keys = _share_keys(parents)
        with open(fd, "wb") as pipe:
            pipe.write(marshal.dumps((list(keys), _LeastEncoding.runs - runs)))
        status = 0
    except Exception:
        import traceback

        traceback.print_exc()
    finally:
        os._exit(status)


class _BoxSymmetry(NamedTuple):
    """A symmetry of a PLS acting on its bounding box grown by one.

    Value x of coordinate k goes to value ``maps[k][x]`` of coordinate
    ``to[k]``; ``maps[k][0]`` is unused.
    """

    to: tuple[int, ...]
    maps: tuple[list[int], ...]

    def image(self, t: Sequence[int]) -> Triple:
        out = [0, 0, 0]
        for k in range(3):
            out[self.to[k]] = self.maps[k][t[k]]
        return Triple(*out)


def _box_symmetries(p: PLS, enc: _LeastEncoding) -> list[_BoxSymmetry]:
    """The symmetries of p that its key search found, and the swaps of its
    pendant cells, on the grown box.

    The new line of each coordinate goes to the new line of the image
    coordinate.  A cell is pendant on one of its lines when its other two
    lines hold nothing else; swapping those other lines between two pendant
    cells of one line is an autotopism.  The key search puts the pendant
    cells of a row in one block and never orders them, so it never reports
    these swaps; the swaps of neighbours in each line's list are added, in
    all three roles, and generate every order of its pendant cells.
    """
    w = enc.width
    counts = (p.n_rows, p.n_cols, p.n_syms)
    out = []
    for g in enc.autos + enc.paras:
        to = tuple(g[k * w + 1] // w for k in range(3))
        maps = tuple(
            [0] + [g[k * w + x] % w for x in range(1, counts[k] + 1)] + [counts[to[k]] + 1]
            for k in range(3)
        )
        out.append(_BoxSymmetry(to, maps))
    deg = [[0] * (m + 1) for m in counts]
    for t in p.triples:
        for k in range(3):
            deg[k][t[k]] += 1
    for k, i, j in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        pendant: dict[int, list[Triple]] = {}
        for t in p.triples:
            if deg[i][t[i]] == deg[j][t[j]] == 1:
                pendant.setdefault(t[k], []).append(t)
        for cells in pendant.values():
            for t, u in zip(cells, cells[1:]):
                maps = tuple(list(range(m + 2)) for m in counts)
                maps[i][t[i]], maps[i][u[i]] = u[i], t[i]
                maps[j][t[j]], maps[j][u[j]] = u[j], t[j]
                out.append(_BoxSymmetry((0, 1, 2), maps))
    return out


def _extensions(p: PLS, symmetries: Sequence[_BoxSymmetry] = ()):
    """Each (cells, added): p plus one triple in its bounding box grown by one
    whose profile reaches p's greatest profile.

    Adding a triple only raises line degrees, so each triple of p keeps at
    least its profile in p, and an added triple below p's greatest profile
    never has the greatest profile of the child.  The bound is invariant
    under p's symmetries.  With `symmetries`, only the first triple of each
    orbit of the group they generate is added.
    """
    deg = [[0] * (k + 2) for k in (p.n_rows, p.n_cols, p.n_syms)]
    for t in p.triples:
        for k in range(3):
            deg[k][t[k]] += 1
    d0, d1, d2 = deg
    top = max(sorted((d0[r], d1[c], d2[s])) for r, c, s in p.triples)
    by_rc = {(t.row, t.col) for t in p.triples}
    by_rs = {(t.row, t.sym) for t in p.triples}
    by_cs = {(t.col, t.sym) for t in p.triples}
    added = [
        Triple(r, c, s)
        for r in range(1, p.n_rows + 2)
        for c in range(1, p.n_cols + 2)
        if (r, c) not in by_rc
        for s in range(1, p.n_syms + 2)
        if (r, s) not in by_rs
        and (c, s) not in by_cs
        and sorted((d0[r] + 1, d1[c] + 1, d2[s] + 1)) >= top
    ]
    if symmetries:
        # union-find whose roots are the least index of their class
        index = {t: i for i, t in enumerate(added)}
        root = list(range(len(added)))

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = i = root[root[i]]
            return i

        for g in symmetries:
            for i, t in enumerate(added):
                a, b = find(i), find(index[g.image(t)])
                if a != b:
                    root[max(a, b)] = min(a, b)
        added = [t for i, t in enumerate(added) if find(i) == i]
    base = p.triples
    for t in added:
        yield tuple(sorted(base + (t,))), t


def _greatest_profile(cells: tuple[Triple, ...], added: Triple) -> bool:
    """Whether `added` has the greatest profile of the triples in `cells`.

    The profile of a triple is the sorted degrees of its three lines; among
    the triples tied on it, `added` must also have the greatest refined
    profile, the sorted profiles met on each of its lines.  Both are species
    invariants.
    """
    deg: list[dict[int, int]] = [{}, {}, {}]
    for t in cells:
        for k in range(3):
            deg[k][t[k]] = deg[k].get(t[k], 0) + 1
    d0, d1, d2 = deg
    prof = [tuple(sorted((d0[r], d1[c], d2[s]))) for r, c, s in cells]
    mine = prof[cells.index(added)]
    if mine != max(prof):
        return False
    tied = [t for t, q in zip(cells, prof) if q == mine]
    if len(tied) == 1:
        return True
    met: list[dict[int, list]] = [{}, {}, {}]
    for t, q in zip(cells, prof):
        for k in range(3):
            met[k].setdefault(t[k], []).append(q)

    def refined(t: Triple) -> list:
        return sorted(sorted(met[k][t[k]]) for k in range(3))

    mine = refined(added)
    return all(refined(t) <= mine for t in tied)


def sub_species_contains(p: PLS, q: PLS) -> bool:
    """True iff some subset of p's triples, as a PLS, lies in q's species."""
    if q.size > p.size:
        return False
    target = _canonical_blob(q.triples)
    for subset in combinations(p.triples, q.size):
        sub = validate_pls(sorted(subset))
        if _canonical_blob(sub.triples) == target:
            return True
    return False


# ---------------------------------------------------------------------------
# Named PLS families.


def gen_evans(n: int, a: int) -> PLS:
    """Size-n square: row 1 holds symbols 1..a, then column n holds a+1..n.

    The cell (1, n) cannot be filled by any of the n symbols, so the square
    never embeds in a group (or quasigroup) of order exactly n.
    """
    if n < 2 or not 1 <= a < n:
        raise ParameterOutOfRange(f"need n >= 2 and 1 <= a < n, got n={n}, a={a}")
    cells = [(1, i, i) for i in range(1, a + 1)]
    cells += [(i, n, i) for i in range(a + 1, n + 1)]
    return validate_pls(cells)


def gen_diagonal(t: int) -> PLS:
    """Diagonal square with t distinct symbols: cell (i, i) = i."""
    if t < 1:
        raise ParameterOutOfRange(f"need t >= 1, got {t}")
    return validate_pls([(i, i, i) for i in range(1, t + 1)])


def gen_row_cycle(length: int) -> PLS:
    """Two-row square whose second row is the first shifted cyclically by one.

    Embedding it forces an element of order `length`, so it only fits groups
    whose order `length` divides.
    """
    if length < 2:
        raise ParameterOutOfRange(f"need length >= 2, got {length}")
    cells = [(1, j, j) for j in range(1, length + 1)]
    cells += [(2, j, j % length + 1) for j in range(1, length + 1)]
    return validate_pls(cells)


def gen_delta(n: int) -> PLS:
    """Diagonal square of size n with one symbol on cells 1..3, another on 4..n."""
    if n < 4:
        raise ParameterOutOfRange(f"need n >= 4, got {n}")
    cells = [(i, i, 1) for i in range(1, 4)]
    cells += [(i, i, 2) for i in range(4, n + 1)]
    return validate_pls(cells)


@lru_cache(maxsize=64)
def _row_cycle_blob(length: int) -> bytes:
    return _canonical_blob(gen_row_cycle(length).triples)


def row_cycle_length(p: PLS) -> Optional[int]:
    """The length l if p is in the species of the l-cycle two-row square."""
    if p.size % 2 or p.size < 4:
        return None
    length = p.size // 2
    # the species keeps two lines of one role and `length` of each other role
    if sorted((p.n_rows, p.n_cols, p.n_syms)) != [2, length, length]:
        return None
    if _canonical_blob(p.triples) == _row_cycle_blob(length):
        return length
    return None


def is_t_species(p: PLS) -> bool:
    """True iff no two triples of p share any coordinate (pure diagonal shape)."""
    return p.n_rows == p.n_cols == p.n_syms == p.size


# ---------------------------------------------------------------------------
# Text formats.  Two interchangeable formats are supported:
#   triple list -- one "r c s" per line, 1-based integers;
#   grid        -- one line per row, '.' for empty cells, alphanumeric symbol
#                  tokens otherwise.
# Round-tripping either format preserves the species.


def format_triples(p: PLS) -> str:
    return "\n".join(f"{t.row} {t.col} {t.sym}" for t in p.triples) + "\n"


def parse_triples(text: str) -> PLS:
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"expected 'row col sym', got {line!r}")
        rows.append(tuple(int(x) for x in parts))
    return validate_pls(rows)


def format_grid(p: PLS) -> str:
    cells = p.cell_map()
    width = len(str(p.n_syms))
    lines = []
    for r in range(1, p.n_rows + 1):
        toks = [
            str(cells[(r, c)]).rjust(width) if (r, c) in cells else ".".rjust(width)
            for c in range(1, p.n_cols + 1)
        ]
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def parse_grid(text: str) -> PLS:
    triples = []
    sym_ids: dict[str, int] = {}
    width = None
    row = 0
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        toks = line.split()
        if not toks:
            continue
        row += 1
        if width is None:
            width = len(toks)
        elif len(toks) != width:
            raise ValueError(f"ragged grid: row {row} has {len(toks)} tokens, expected {width}")
        for col, tok in enumerate(toks, start=1):
            if tok == ".":
                continue
            sym_ids.setdefault(tok, len(sym_ids) + 1)
            triples.append((row, col, sym_ids[tok]))
    return validate_pls(triples)


def parse_pls(text: str, fmt: str = "auto") -> PLS:
    """Parse a single PLS from text in either format.

    auto: triple list if every non-blank line is exactly three integers,
    grid otherwise.  Three-column all-numeric grids without empty cells are
    indistinguishable from triple lists; pass an explicit fmt for those.
    """
    if fmt == "triples":
        return parse_triples(text)
    if fmt == "grid":
        return parse_grid(text)
    if fmt != "auto":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [
        ln.split("#", 1)[0].split()
        for ln in text.splitlines()
        if ln.split("#", 1)[0].strip()
    ]
    if lines and all(
        len(toks) == 3 and all(tok.isdigit() for tok in toks) for toks in lines
    ):
        return parse_triples(text)
    return parse_grid(text)


def format_species_file(reps: Iterable[PLS]) -> str:
    """Triple-list records separated by blank lines."""
    return "\n".join(format_triples(p) for p in reps)


def parse_species_file(text: str) -> list[PLS]:
    chunks = [c for c in text.split("\n\n") if c.strip()]
    return [parse_triples(c) for c in chunks]
