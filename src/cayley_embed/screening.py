"""Reduction rules and the classification pipeline for psi(n) and its variants.

psi(n) is the largest m such that every PLS of size m embeds in some group of
order n; psi_plus restricts to abelian groups and psi_circ to the cyclic
group.  A species of size psi+1 embedding in no admissible group is an
obstacle.  The pipeline screens species with two reduction rules (applied
over all six parastrophes) plus the diagonal transversal bound, and settles
the survivors by exact search, host by host up to the first that embeds;
certificates are built for obstacles only.  What it reads of a species for
every n (key, least n at which a reduction applies, row-cycle length) is
recorded once per process, and so is the first parastrophe image that
violates the quadrangle criterion, for the species that reach search.  A
reduction settles a species by psi's own induction on size: psi screens a
size only once every smaller species has been proved embeddable for the
same (n, variant), and each rule lifts an embedding of the smaller square it
leaves to one of the whole square in the same group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .embed import find_embedding, quadrangle_violation, transversal_fast_path
from .groups import (
    MAX_CATALOGUE_ORDER,
    Group,
    OrderUnsupported,
    abelian_groups_of_order,
    cyclic,
    groups_of_order,
)
from .pls import (
    ALL_PARASTROPHES,
    PLS,
    Parastrophe,
    SpeciesKey,
    Triple,
    enumerate_species,
    is_t_species,
    parastrophe,
    row_cycle_length,
    validate_pls,
)

#: largest species size that screen_size accepts
MAX_SCREEN_SIZE = 7


class TripleNotInP(ValueError):
    pass


class RowNotInP(ValueError):
    pass


class OrderExceedsN(ValueError):
    pass


class IncompleteClass(ValueError):
    """The supplied group list cannot be known to be the full class."""


def removable_triple(p: PLS, t: Triple, n: int) -> bool:
    """Deletion rule: p embeds in any order-n group whenever p - {t} does.

    Requires order(p) <= n.  Conditions: (i) removing t empties its row;
    (ii) every remaining row keeps a cell in t's column or a cell holding
    t's symbol.
    """
    t = Triple(*t)
    if t not in p.triples:
        raise TripleNotInP(f"{tuple(t)} is not a triple of the square")
    if p.order > n:
        raise OrderExceedsN(f"square order {p.order} exceeds n={n}")
    rest = [u for u in p.triples if u != t]
    if any(u.row == t.row for u in rest):
        return False
    rows_ok = {u.row for u in rest if u.col == t.col or u.sym == t.sym}
    return all(u.row in rows_ok for u in rest)


def shift_line(p: PLS, row: int, n: int) -> bool:
    """Line-shift rule: p embeds in any order-n group whenever p minus row does.

    With the row's cells (row, c_i, s_i) for i = 1..l and p' the rest: C1 and
    S1 index the cells whose column (resp. symbol) still occurs in p'.
    Conditions: (i) C1 and S1 are disjoint;
    (ii) n >= |rows(p)| + |C1|*(|syms(p')| - 1) + |S1|*(|cols(p')| - 1);
    (iii) n >= |cols(p)| + |syms(p)| - l.
    """
    if not 1 <= row <= p.n_rows:
        raise RowNotInP(f"row {row} is not a row of the square")
    line = [u for u in p.triples if u.row == row]
    rest = [u for u in p.triples if u.row != row]
    rest_cols = {u.col for u in rest}
    rest_syms = {u.sym for u in rest}
    c1 = {i for i, u in enumerate(line) if u.col in rest_cols}
    s1 = {i for i, u in enumerate(line) if u.sym in rest_syms}
    if c1 & s1:
        return False
    ell = len(line)
    if n < p.n_rows + len(c1) * (len(rest_syms) - 1) + len(s1) * (len(rest_cols) - 1):
        return False
    return n >= p.n_cols + p.n_syms - ell


@dataclass(frozen=True)
class ReductionCertificate:
    """A one-step reduction: under `sigma`, removing `removed` leaves `reduced`.

    `reduced` is the densely revalidated remainder, or None when the rule
    removed the whole square.  The conditions were checked for order `n`.
    """

    rule: str  # "removable-triple" | "shift-line"
    sigma: Parastrophe
    removed: tuple[Triple, ...]
    reduced: Optional[PLS]
    n: int


def _residue(triples: Sequence[Triple]) -> Optional[PLS]:
    if not triples:
        return None
    return validate_pls(sorted(triples))


class _Step(NamedTuple):
    """A reduction that applies at every n >= threshold.

    Both rules remove one row of the image under `sigma`: a removable
    triple is the only cell of its row.
    """

    threshold: int
    rule: str
    sigma: Parastrophe
    row: int


# The scan of `reducible` depends on n only through one threshold per
# candidate: a removable triple needs n >= order(p), a shift line
# max(A, B) with A and B the bounds of its conditions (ii) and (iii).  The
# first candidate that holds at n is therefore the first one whose threshold
# is strictly below every earlier threshold and at most n, and the plan keeps
# just those.  Every threshold is at least order(p), so the plan ends at the
# first entry that reaches it.  Both rules are symmetric in the column and
# symbol roles, so of the two parastrophes sharing a row role (adjacent in
# ALL_PARASTROPHES) the second repeats the first's thresholds and never
# enters the plan.
@lru_cache(maxsize=1 << 16)
def _plan(p: PLS) -> tuple[_Step, ...]:
    steps: list[_Step] = []
    order = p.order
    dims = (p.n_rows, p.n_cols, p.n_syms)
    best = None
    for sigma in ALL_PARASTROPHES[::2]:
        i, j, k = sigma.perm
        n_rows, n_cols, n_syms = dims[i], dims[j], dims[k]
        cells = sorted([(t[i], t[j], t[k]) for t in p.triples])
        row_deg = [0] * (n_rows + 1)
        col_deg = [0] * (n_cols + 1)
        sym_deg = [0] * (n_syms + 1)
        col_rows = [0] * (n_cols + 1)
        sym_rows = [0] * (n_syms + 1)
        for r, c, s in cells:
            row_deg[r] += 1
            col_deg[c] += 1
            sym_deg[s] += 1
            col_rows[c] |= 1 << r
            sym_rows[s] |= 1 << r
        every_row = (1 << (n_rows + 1)) - 2
        for r, c, s in cells:
            # a lone cell of its row whose column or symbol meets every row
            if row_deg[r] == 1 and col_rows[c] | sym_rows[s] == every_row:
                steps.append(_Step(order, "removable-triple", sigma, r))
                return tuple(steps)
        start = 0
        for row in range(1, n_rows + 1):
            end = start + row_deg[row]
            # a line cell keeps its column (symbol) in p' iff that has degree > 1
            c1 = s1 = 0
            for _, c, s in cells[start:end]:
                in_c, in_s = col_deg[c] > 1, sym_deg[s] > 1
                if in_c and in_s:
                    break
                c1 += in_c
                s1 += in_s
            else:
                # p' keeps n_cols - ell + c1 columns and n_syms - ell + s1 symbols
                ell = end - start
                threshold = max(
                    n_rows + c1 * (n_syms - ell + s1 - 1) + s1 * (n_cols - ell + c1 - 1),
                    n_cols + n_syms - ell,
                )
                if best is None or threshold < best:
                    best = threshold
                    steps.append(_Step(threshold, "shift-line", sigma, row))
                    if threshold == order:
                        return tuple(steps)
            start = end
    return tuple(steps)


def _apply(p: PLS, step: _Step) -> tuple[tuple[Triple, ...], Optional[PLS]]:
    """The cells `step` removes from the image of p, and the reduced square."""
    q = parastrophe(p, step.sigma)
    removed = tuple(t for t in q.triples if t.row == step.row)
    return removed, _residue([t for t in q.triples if t.row != step.row])


def reducible(p: PLS, n: int) -> Optional[ReductionCertificate]:
    """First reduction certificate found, or None.

    Deterministic scan: parastrophes in fixed lexicographic order; within
    each image the deletion rule over triples in sorted order, then the
    line-shift rule over rows in increasing order.  The scan is answered
    from a plan built once per square, which holds for every n.
    """
    step = next((step for step in _plan(p) if step.threshold <= n), None)
    if step is None:
        return None
    removed, reduced = _apply(p, step)
    return ReductionCertificate(step.rule, step.sigma, removed, reduced, n)


class _Record(NamedTuple):
    """What psi and screen_size read of one representative, for every n.

    `least` is the least n at which some reduction applies (the least plan
    threshold), or None when no reduction ever applies.
    """

    rep: PLS
    key: bytes
    t_species: bool
    least: Optional[int]
    cycle: Optional[int]


@lru_cache(maxsize=None)
def _records(size: int) -> tuple[_Record, ...]:
    return tuple(
        _Record(
            rep,
            bytes(x for t in rep.triples for x in t),  # its own least encoding
            is_t_species(rep),
            min((step.threshold for step in _plan(rep)), default=None),
            row_cycle_length(rep),
        )
        for rep in enumerate_species(size)[size]
    )


def _settled(rec: _Record, size: int, n: int) -> bool:
    """True iff the transversal bound or some reduction settles rec at order n."""
    return transversal_fast_path(rec.t_species, size, n) or (
        rec.least is not None and rec.least <= n
    )


@lru_cache(maxsize=None)
def _quadrangle_image(rep: PLS) -> Optional[Parastrophe]:
    """The first parastrophe whose image of rep violates the quadrangle
    criterion, if any: then no group hosts rep's species."""
    return next((s for s in ALL_PARASTROPHES if quadrangle_violation(parastrophe(rep, s))), None)


def screen_size(size: int, n: int) -> list[SpeciesKey]:
    """Species of the given size that survive screening at order n.

    Survivors are the species neither reduced by either rule (over all six
    parastrophes) nor certified by the diagonal fast path; they are the ones
    that require direct search.
    """
    if not 1 <= size <= MAX_SCREEN_SIZE:
        raise ValueError(f"screening supports sizes 1..{MAX_SCREEN_SIZE}, got {size}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [SpeciesKey(rec.key) for rec in _records(size) if not _settled(rec, size, n)]


# ---------------------------------------------------------------------------
# psi classification.


@dataclass(frozen=True)
class Obstacle:
    species_key: SpeciesKey
    representative: PLS
    certificate: dict

    def to_json(self) -> dict:
        return {
            "species_key": self.species_key.hex(),
            "representative_triples": [list(t) for t in self.representative.triples],
            "certificate": self.certificate,
        }


@dataclass(frozen=True)
class PsiResult:
    n: int
    variant: str
    psi: int
    obstacles: tuple[Obstacle, ...]
    survivor_counts: dict[int, int]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "variant": self.variant,
            "psi": self.psi,
            "obstacles": [o.to_json() for o in self.obstacles],
            "survivor_counts": {str(k): v for k, v in sorted(self.survivor_counts.items())},
        }


PSI_RESULT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["n", "variant", "psi", "obstacles", "survivor_counts"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "variant": {"enum": ["group", "abelian", "cyclic"]},
        "psi": {"type": "integer", "minimum": 0},
        "obstacles": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["species_key", "representative_triples", "certificate"],
                "properties": {
                    "species_key": {"type": "string", "pattern": "^[0-9a-f]+$"},
                    "representative_triples": {
                        "type": "array",
                        "items": {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 1},
                            "minItems": 3,
                            "maxItems": 3,
                        },
                    },
                    "certificate": {"type": "object"},
                },
                "additionalProperties": False,
            },
        },
        "survivor_counts": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
    },
    "additionalProperties": False,
}

VARIANTS = ("group", "abelian", "cyclic")


def default_group_class(n: int, variant: str) -> list[Group]:
    """The complete class of groups for (n, variant), built once per process."""
    return list(_group_class(n, variant))


@lru_cache(maxsize=128)
def _group_class(n: int, variant: str) -> tuple[Group, ...]:
    if variant == "group":
        try:
            return tuple(groups_of_order(n))
        except OrderUnsupported as exc:
            raise IncompleteClass(
                f"no built-in complete catalogue for order {n}; "
                "supply the full class explicitly"
            ) from exc
    if variant == "abelian":
        return tuple(abelian_groups_of_order(n))
    if variant == "cyclic":
        return (cyclic(n),)
    raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def _embeds_in_some(rec: _Record, groups: Sequence[Group]) -> bool:
    """Search the hosts in turn up to the first that embeds rec's square."""
    if _quadrangle_image(rec.rep) is not None:
        return False
    return any(
        find_embedding(rec.rep, g).embeddable
        for g in groups
        if rec.cycle is None or g.order % rec.cycle == 0
    )


def _certificate(rec: _Record, n: int, groups: Sequence[Group]) -> dict:
    """Why no group of the class hosts the obstacle rec."""
    sigma = _quadrangle_image(rec.rep)
    if sigma is not None:
        return {"kind": "quadrangle", "parastrophe": list(sigma.perm)}
    if rec.cycle is not None and n % rec.cycle:
        return {"kind": "row-cycle", "length": rec.cycle}
    return {"kind": "exhausted-search", "groups": [g.name for g in groups]}


def psi(
    n: int,
    variant: str = "group",
    groups: Optional[Sequence[Group]] = None,
    *,
    assume_complete: bool = False,
    use_screening: bool = True,
) -> PsiResult:
    """Compute psi for the given order and variant, with its obstacle species.

    `groups` must be the complete class of groups for (n, variant); when
    omitted it is built from the catalogue (order <= MAX_CATALOGUE_ORDER for
    variant="group").  Passing an explicit list for an uncatalogued order
    requires assume_complete=True.  Sizes ascend with the inductive rule: a
    species is embeddable if the diagonal fast path certifies it, if a
    reduction applies at n (it leaves a smaller species, which is embeddable
    by then), or if search embeds it in some listed group.  psi is one less
    than the first size with a non-embeddable species, and the obstacles are
    all such species at that size; sizes run up to MAX_SCREEN_SIZE (n + 1
    for n <= 4).
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if groups is None:
        groups = default_group_class(n, variant)
    else:
        groups = list(groups)
        if variant == "group" and n > MAX_CATALOGUE_ORDER and not assume_complete:
            raise IncompleteClass(
                f"catalogue completeness is only known for orders <= {MAX_CATALOGUE_ORDER}; "
                "pass assume_complete=True to trust the supplied class"
            )
    if not groups or any(g.order != n for g in groups):
        raise ValueError(f"group class must be nonempty groups of order {n}")

    cap = n + 1 if n <= 4 else MAX_SCREEN_SIZE
    survivor_counts: dict[int, int] = {}
    for size in range(1, cap + 1):
        # A reduction that applies at n settles its species without a look at
        # what it leaves.  Every smaller species embeds in a listed group, or psi
        # would have returned already, and each rule lifts an embedding of what
        # it leaves, in a group of order n, to one of the whole square in the
        # same group.
        survivors = [
            rec for rec in _records(size) if not (use_screening and _settled(rec, size, n))
        ]
        survivor_counts[size] = len(survivors)
        bad = [rec for rec in survivors if not _embeds_in_some(rec, groups)]
        if bad:
            obstacles = tuple(
                Obstacle(SpeciesKey(rec.key), rec.rep, _certificate(rec, n, groups)) for rec in bad
            )
            return PsiResult(n, variant, size - 1, obstacles, survivor_counts)
    raise RuntimeError(f"no obstacle found for n={n} within size cap {cap}")
