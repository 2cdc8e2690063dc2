"""Hard-coded reference squares and their recorded embedding witnesses.

The named squares are the displayed examples this artifact reproduces:

* ``quadcrit_a`` / ``quadcrit_b`` -- the two size-7 squares violating the
  quadrangle criterion (embeddable in no group);
* ``interesting`` -- the 3x6 size-6 square embeddable in no group of order 6;
* ``nonab`` -- the size-6 square embeddable in no abelian group but in every
  dihedral group of order >= 6;
* ``noninterc`` -- the size-4 square needing an element of order > 2;
* ``overlapinterc`` -- the size-7 square needing two distinct involutions;
* ``order4`` -- the size-7 square forcing an element of order 4;
* ``survivor6_1`` .. ``survivor6_9`` -- the nine size-6 screening survivors
  of the even orders; eight embed in every cyclic group of order >= 6 and
  ``survivor6_8`` only in those of even order (witness tables recorded
  alongside).

Witnesses for the nine survivors are additive bordered tables over Z_n,
recorded against the grid as displayed (validate_pls then relabels ids
densely, so the accessors translate through that relabelling).  Eight
patterns are order-independent for n >= 6.  ``survivor6_8`` is special: its
cells force 2*(c - a) = 0, so it embeds in Z_n exactly when n is even; the
bordered table circulating for it is internally inconsistent and the
corrected, n-parametric family is stored instead.
"""

from __future__ import annotations

from functools import lru_cache

from .embed import EmbeddingWitness
from .groups import Group, dihedral
from .pls import PLS, parse_grid

_FIXTURE_GRIDS: dict[str, str] = {
    "quadcrit_a": "a b .\nc a b\n. c d",
    "quadcrit_b": "a b .\nc a b\n. d a",
    "interesting": "a . . . . c\n. a . . b .\n. . b c . .",
    "nonab": "a b .\nc . b\n. c d",
    "noninterc": "a b .\n. a b",
    "overlapinterc": "a b c\nb a .\nc . a",
    "order4": "a b c\nb c .\nc . a",
    "survivor6_1": "a b . .\n. a . .\n. . a b\n. . b .",
    "survivor6_2": "a b . .\n. a c .\n. . a b",
    "survivor6_3": "a b .\n. a c\nd . a",
    "survivor6_4": "a c . .\n. a . b\n. . b c",
    "survivor6_5": "a . . c\n. a . b\nc . b .",
    "survivor6_6": "a b . .\n. a b .\n. . a b",
    "survivor6_7": "a b .\n. a b\nc . a",
    "survivor6_8": "a b .\n. a c\nc . b",
    "survivor6_9": "a . c\n. a b\nb c .",
}

SURVIVOR_NAMES = tuple(f"survivor6_{i}" for i in range(1, 10))

# (row images by grid row, column images by grid column, symbol images by
# letter); integers are reduced mod n at lookup time.
_SURVIVOR_WITNESS_PATTERNS: dict[str, tuple[list[int], list[int], dict[str, int]]] = {
    "survivor6_1": ([0, 1, 3, 2], [0, -1, -3, -4], {"a": 0, "b": -1}),
    "survivor6_2": ([0, 1, 3], [0, -1, -3, -4], {"a": 0, "b": -1, "c": -2}),
    "survivor6_3": ([0, 1, 3], [0, -1, -3], {"a": 0, "b": -1, "c": -2, "d": 3}),
    "survivor6_4": ([0, -2, 1], [0, 2, -2, 1], {"a": 0, "b": -1, "c": 2}),
    "survivor6_5": ([0, -2, 1], [0, 2, -2, 1], {"a": 0, "b": -1, "c": 1}),
    "survivor6_6": ([0, 1, 2], [0, -1, -2, -3], {"a": 0, "b": -1}),
    "survivor6_7": ([0, 1, 2], [0, -1, -2], {"a": 0, "b": -1, "c": 2}),
    "survivor6_9": ([0, 1, 2], [0, -1, 1], {"a": 0, "b": 2, "c": 1}),
}


def _grid_cells(grid: str) -> list[tuple[int, int, str]]:
    cells = []
    for r, line in enumerate(grid.splitlines(), start=1):
        for c, tok in enumerate(line.split(), start=1):
            if tok != ".":
                cells.append((r, c, tok))
    return cells


def _dense_maps(grid: str) -> tuple[dict[int, int], dict[int, int], dict[str, int]]:
    """First-appearance relabelling maps, mirroring validate_pls."""
    rmap: dict[int, int] = {}
    cmap: dict[int, int] = {}
    smap: dict[str, int] = {}
    for r, c, tok in _grid_cells(grid):
        rmap.setdefault(r, len(rmap) + 1)
        cmap.setdefault(c, len(cmap) + 1)
        smap.setdefault(tok, len(smap) + 1)
    return rmap, cmap, smap


@lru_cache(maxsize=1)
def fixtures() -> dict[str, PLS]:
    """All sixteen named squares, validated."""
    return {name: parse_grid(grid) for name, grid in _FIXTURE_GRIDS.items()}


def cyclic_witness(name: str, n: int) -> EmbeddingWitness:
    """The recorded additive witness of a survivor square inside Z_n.

    survivor6_8 requires an even n (its cells force an element of order 2);
    every other survivor pattern is valid for any n >= 6.
    """
    grid = _FIXTURE_GRIDS[name]
    if name == "survivor6_8":
        if n % 2:
            raise ValueError(
                "survivor6_8 embeds in Z_n only for even n: its rows force "
                "y1 - y2 = a - b, y2 - y3 = a - c and y1 - y3 = c - b for the "
                "column images, hence 2*(c - a) = 0 with c != a, an element of "
                "order 2 that a group of odd order lacks"
            )
        half = n // 2
        rows, cols, syms = [0, -1, half], [0, 1, 1 - half], {"a": 0, "b": 1, "c": half}
    else:
        rows, cols, syms = _SURVIVOR_WITNESS_PATTERNS[name]
    rmap, cmap, smap = _dense_maps(grid)
    return EmbeddingWitness(
        {rmap[r]: rows[r - 1] % n for r in rmap},
        {cmap[c]: cols[c - 1] % n for c in cmap},
        {smap[tok]: syms[tok] % n for tok in smap},
    )


def nonab_dihedral_witness() -> tuple[Group, EmbeddingWitness]:
    """The recorded embedding of ``nonab`` in the order-6 dihedral group.

    With dihedral(3) indexing r^i -> i and r^i s -> 3 + i: rows map to
    (e, r, r^2 s), columns to (e, rs, s), symbols to (e, rs, r, r^2).
    """
    return dihedral(3), EmbeddingWitness(
        {1: 0, 2: 1, 3: 5},
        {1: 0, 2: 4, 3: 3},
        {1: 0, 2: 4, 3: 1, 4: 2},
    )
