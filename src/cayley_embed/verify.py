"""End-to-end verification suite: every headline result at desk scale.

Each criterion returns a CriterionResult with per-case outcomes; the CLI
``verify-paper`` subcommand prints one pass/fail line per criterion and the
acceptance test module asserts them individually.  ``quick`` restricts the
scan to orders <= 8 and sizes <= 6.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from .embed import (
    embed_diagonal_partition,
    find_embedding,
    transversal_bound,
    verify_witness,
)
from .fixtures import SURVIVOR_NAMES, cyclic_witness, fixtures, nonab_dihedral_witness
from .groups import abelian, cyclic, groups_of_order
from .pls import (
    ALL_PARASTROPHES,
    PLS,
    Triple,
    canonical_form,
    enumerate_species,
    gen_diagonal,
    gen_evans,
    gen_row_cycle,
    parastrophe,
    sub_species_contains,
    validate_pls,
)
from .screening import PsiResult, psi, reducible

SPECIES_COUNTS = (1, 2, 5, 18, 59, 306, 1861)


@dataclass
class CaseResult:
    case: str
    passed: bool
    note: str = ""


@dataclass
class CriterionResult:
    ident: str
    title: str
    cases: list[CaseResult] = field(default_factory=list)
    detail: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def failures(self) -> list[CaseResult]:
        return [c for c in self.cases if not c.passed]

    def add(self, case: str, ok: bool, note: str = "") -> None:
        self.cases.append(CaseResult(case, bool(ok), note))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = ""
        if not self.passed:
            failed = self.failures()
            shown = ", ".join(c.case for c in failed[:6])
            more = "" if len(failed) <= 6 else f" (+{len(failed) - 6} more)"
            extra = f" [{shown}{more}]"
        return f"criterion {self.ident} {self.title}: {status} ({len(self.cases)} cases){extra}"


@lru_cache(maxsize=None)
def _psi(n: int, variant: str) -> PsiResult:
    return psi(n, variant)


def _obstacle_keys(result: PsiResult) -> set:
    return {o.species_key for o in result.obstacles}


def closed_form_psi_group(n: int) -> int:
    if n in (1, 2):
        return 1
    if n == 3:
        return 2
    if n == 4 or (n % 2 == 1 and n > 3):
        return 3
    if n == 6 or (n % 6 in (2, 4) and n > 4):
        return 5
    return 6


def closed_form_psi_abelian(n: int) -> int:
    if n in (1, 2):
        return 1
    if n == 3:
        return 2
    if n == 4 or (n % 2 == 1 and n > 3):
        return 3
    return 5


def check_species_counts(quick: bool = False, seed: int = 0) -> CriterionResult:
    res = CriterionResult("1", "species counts by size")
    top = 6 if quick else 7
    counts = {m: len(reps) for m, reps in enumerate_species(top).items()}
    for m in range(1, top + 1):
        res.add(
            f"size {m}",
            counts[m] == SPECIES_COUNTS[m - 1],
            f"got {counts[m]}, want {SPECIES_COUNTS[m - 1]}",
        )
    return res


def check_psi_group(quick: bool = False, seed: int = 0) -> CriterionResult:
    res = CriterionResult("2", "psi over the full catalogue")
    top = 8 if quick else 16
    for n in range(1, top + 1):
        got = _psi(n, "group").psi
        want = closed_form_psi_group(n)
        res.add(f"n={n}", got == want, f"psi={got}, want {want}")
    return res


def check_psi_abelian_cyclic(quick: bool = False, seed: int = 0) -> CriterionResult:
    res = CriterionResult("3", "abelian and cyclic psi agree with the formula")
    top = 8 if quick else 24
    for n in range(1, top + 1):
        ra = _psi(n, "abelian")
        rc = _psi(n, "cyclic")
        want = closed_form_psi_abelian(n)
        res.add(
            f"n={n}",
            ra.psi == want and rc.psi == want,
            f"abelian={ra.psi}, cyclic={rc.psi}, want {want}",
        )
    return res


def check_obstacle_sets(quick: bool = False, seed: int = 0) -> CriterionResult:
    res = CriterionResult("4", "obstacle species, exact equality")
    fx = fixtures()
    nonab_k = canonical_form(fx["nonab"])
    c2_k = canonical_form(gen_row_cycle(2))
    c3_k = canonical_form(gen_row_cycle(3))
    six = {canonical_form(gen_evans(6, a)) for a in (1, 2, 3)}
    six |= {canonical_form(gen_diagonal(6)), canonical_form(fx["interesting"]), nonab_k}

    for variant, expected in (
        ("cyclic", six),
        ("abelian", six),
        ("group", six - {nonab_k}),
    ):
        r = _psi(6, variant)
        res.add(
            f"n=6 {variant}",
            r.psi == 5 and _obstacle_keys(r) == expected,
            f"psi={r.psi}, {len(r.obstacles)} obstacles",
        )
    if not quick:
        r = _psi(12, "group")
        quad = {canonical_form(fx["quadcrit_a"]), canonical_form(fx["quadcrit_b"])}
        res.add("n=12 group", r.psi == 6 and _obstacle_keys(r) == quad)
        for variant in ("abelian", "cyclic"):
            r = _psi(12, variant)
            res.add(f"n=12 {variant}", r.psi == 5 and _obstacle_keys(r) == {nonab_k})
        # order-30 catalogue is out of scope; verify the order-4-forcing square
        # directly: embeds in Z4, fails every catalogue group of order 2 mod 4
        o4 = fx["order4"]
        res.add("order4 embeds in Z4", find_embedding(o4, cyclic(4)).embeddable)
        bad = [
            g.name
            for n in (2, 6, 10, 14)
            for g in groups_of_order(n)
            if find_embedding(o4, g).embeddable
        ]
        res.add("order4 fails at orders 2 mod 4", not bad, f"embedded in {bad}")
    evens = (8,) if quick else (8, 10, 14, 16)
    for n in evens:
        r = _psi(n, "group")
        res.add(f"n={n} group", r.psi == 5 and _obstacle_keys(r) == {c3_k})
        for variant in ("abelian", "cyclic"):
            r = _psi(n, variant)
            res.add(
                f"n={n} {variant}",
                r.psi == 5 and _obstacle_keys(r) == {c3_k, nonab_k},
            )
    odds = (5, 7) if quick else (5, 7, 9, 11, 13, 15)
    for n in odds:
        for variant in ("group", "abelian", "cyclic"):
            r = _psi(n, variant)
            res.add(
                f"n={n} {variant}",
                r.psi == 3 and _obstacle_keys(r) == {c2_k},
            )
    r = _psi(4, "cyclic")
    want4 = {
        canonical_form(gen_evans(4, 1)),
        canonical_form(gen_evans(4, 2)),
        canonical_form(gen_diagonal(4)),
    }
    res.add("n=4 cyclic", r.psi == 3 and _obstacle_keys(r) == want4)
    return res


def check_screening_counts(quick: bool = False, seed: int = 0) -> CriterionResult:
    from .screening import screen_size

    res = CriterionResult("5", "screening survivor counts")
    fx = fixtures()
    s47 = set(screen_size(4, 7))
    want47 = {canonical_form(gen_row_cycle(2)), canonical_form(fx["noninterc"])}
    res.add("screen(4,7) survivors", s47 == want47, f"{len(s47)} survivors")
    if quick:
        return res
    s610 = screen_size(6, 10)
    res.add("screen(6,10) count", len(s610) == 11, f"got {len(s610)}, want 11")
    s712 = screen_size(7, 12)
    res.add("screen(7,12) count", len(s712) == 50, f"got {len(s712)}, want 50")
    z6 = cyclic(6)
    reps = [k.to_pls() for k in s712]
    in_z6 = [find_embedding(rep, z6).embeddable for rep in reps]
    res.add("42 of them embed in Z6", sum(in_z6) == 42, f"got {sum(in_z6)}")
    omega = [rep for rep, ok in zip(reps, in_z6) if not ok]
    res.add("|Omega| = 8", len(omega) == 8, f"got {len(omega)}")
    with_nonab = [rep for rep in omega if sub_species_contains(rep, fx["nonab"])]
    res.add("6 contain the nonab square", len(with_nonab) == 6, f"got {len(with_nonab)}")
    quad = {canonical_form(fx["quadcrit_a"]), canonical_form(fx["quadcrit_b"])}
    omega_keys = {canonical_form(rep) for rep in omega}
    res.add("quadrangle pair among them", quad <= omega_keys)
    rest = omega_keys - {canonical_form(rep) for rep in with_nonab}
    want_rest = {canonical_form(fx["overlapinterc"]), canonical_form(fx["order4"])}
    res.add("remaining two identified", rest == want_rest)
    s68 = screen_size(6, 8)
    res.detail = f"screen(6,8) survivor count (reported, unasserted): {len(s68)}"
    return res


def check_explicit_witnesses(quick: bool = False, seed: int = 0) -> CriterionResult:
    res = CriterionResult("6", "explicit embedding witnesses")
    fx = fixtures()
    d6, recorded = nonab_dihedral_witness()
    res.add("recorded nonab witness in D6 verifies", verify_witness(fx["nonab"], d6, recorded))
    v = find_embedding(fx["nonab"], d6)
    res.add(
        "search embeds nonab in D6",
        v.embeddable and v.witness is not None and verify_witness(fx["nonab"], d6, v.witness),
    )
    # the recorded family in fixtures settles each (survivor, n) verdict: where
    # cyclic_witness is defined the square must embed (recorded and searched
    # witnesses both re-verify); where it raises, the exhaustive search must
    # find nothing, and the raised reason is the proof cited
    top = 8 if quick else 30
    for name in SURVIVOR_NAMES:
        p = fx[name]
        for n in range(6, top + 1):
            g = cyclic(n)
            v = find_embedding(p, g, paranoid=True)
            try:
                recorded = cyclic_witness(name, n)
            except ValueError as exc:
                res.add(f"{name} not in Z{n}", not v.embeddable, str(exc))
                continue
            res.add(
                f"recorded {name} witness in Z{n} verifies",
                verify_witness(p, g, recorded),
            )
            res.add(
                f"{name} in Z{n}",
                v.embeddable and v.witness is not None and verify_witness(p, g, v.witness),
                "the search found no witness, though one is recorded",
            )
    ov = fx["overlapinterc"]
    klein = abelian([2, 2])
    v = find_embedding(ov, klein)
    res.add(
        "overlapinterc in Z2xZ2",
        v.embeddable and v.witness is not None and verify_witness(ov, klein, v.witness),
    )
    hits = [n for n in range(1, top + 1) if find_embedding(ov, cyclic(n)).embeddable]
    res.add(f"overlapinterc in no Z_n, n<={top}", not hits, f"embedded at {hits}")
    return res


def check_transversal_bound(quick: bool = False, seed: int = 0) -> CriterionResult:
    res = CriterionResult("7", "diagonal transversal bound")
    top = 8 if quick else 12
    for n in range(1, top + 1):
        for g in groups_of_order(n):
            bound = transversal_bound(n)
            bad = []
            for t in range(1, bound + 1):
                d = gen_diagonal(t)
                fast = find_embedding(d, g)
                checked = find_embedding(d, g, paranoid=True)
                if not (
                    fast.embeddable
                    and checked.embeddable
                    and checked.witness is not None
                    and verify_witness(d, g, checked.witness)
                ):
                    bad.append(t)
            res.add(f"T_t in {g.name} for t<={bound}", not bad, f"failed at t={bad}")
    for n in (2, 6) if quick else (2, 6, 10):
        for g in groups_of_order(n):
            v = find_embedding(gen_diagonal(n), g, paranoid=True)
            res.add(f"T_{n} has no embedding in {g.name}", not v.embeddable)
    return res


def _hall_paige(g) -> bool:
    """g has a complete mapping iff its Sylow 2-subgroup is trivial or not
    cyclic (Hall-Paige 1955; Wilcox 2009, Evans 2009), i.e. iff the 2-part of
    |g| is 1 or divides no element's order."""
    two = g.order & -g.order
    return two == 1 or all(o % two for o in g.element_orders)


def check_diagonal_partition(quick: bool = False, seed: int = 0) -> CriterionResult:
    res = CriterionResult("8", "diagonal partition (3, n-3) iff 3 | n, 1^n iff Hall-Paige")

    def case(g, parts, want, label):
        got, perm = embed_diagonal_partition(g, parts)
        ok = got == want
        if ok and got:
            # re-check the permutation from its products
            prods = Counter(g.table[x][perm[x]] for x in range(g.order))
            ok = sorted(perm) == list(range(g.order)) and sorted(prods.values()) == sorted(parts)
        res.add(f"{g.name} partition {label}", ok, f"got {got}, want {want}")

    for n in range(4, (8 if quick else 16) + 1):
        for g in groups_of_order(n):
            case(g, [3, n - 3], n % 3 == 0, f"(3,{n - 3})")
    for n in range(1, (8 if quick else 10) + 1):
        for g in groups_of_order(n):
            case(g, [1] * n, _hall_paige(g), f"1^{n}")
    return res


# --- property suites (criterion 9) -----------------------------------------


def random_pls(rng: random.Random, max_size: int = 7) -> PLS:
    size = rng.randint(1, max_size)
    triples: list[tuple[int, int, int]] = []
    rc, rs, cs = set(), set(), set()
    rows = cols = syms = 0
    attempts = 0
    while len(triples) < size and attempts < 300:
        attempts += 1
        r = rng.randint(1, rows + 1)
        c = rng.randint(1, cols + 1)
        s = rng.randint(1, syms + 1)
        if (r, c) in rc or (r, s) in rs or (c, s) in cs:
            continue
        triples.append((r, c, s))
        rc.add((r, c))
        rs.add((r, s))
        cs.add((c, s))
        rows, cols, syms = max(rows, r), max(cols, c), max(syms, s)
    return validate_pls(triples)


def scramble(rng: random.Random, p: PLS) -> PLS:
    """A random member of p's species: relabel all three coordinates, then
    apply a random parastrophe."""
    rp = list(range(1, p.n_rows + 1))
    cp = list(range(1, p.n_cols + 1))
    sp = list(range(1, p.n_syms + 1))
    rng.shuffle(rp)
    rng.shuffle(cp)
    rng.shuffle(sp)
    relabelled = PLS(
        tuple(
            sorted(
                Triple(rp[t.row - 1], cp[t.col - 1], sp[t.sym - 1]) for t in p.triples
            )
        ),
        p.n_rows,
        p.n_cols,
        p.n_syms,
    )
    sigma = ALL_PARASTROPHES[rng.randrange(6)]
    return parastrophe(relabelled, sigma)


def _suite_reduction_soundness(res: CriterionResult, quick: bool) -> None:
    top_n = 8 if quick else 10
    bad = []
    checked = 0
    species = enumerate_species(5)
    for size in range(1, 6):
        for rep in species[size]:
            for n in range(1, top_n + 1):
                cert = reducible(rep, n)
                if cert is None:
                    continue
                for g in groups_of_order(n):
                    if cert.reduced is not None and not find_embedding(cert.reduced, g).embeddable:
                        continue
                    checked += 1
                    if not find_embedding(rep, g).embeddable:
                        bad.append((size, n, g.name))
    res.add(
        "reduction soundness (exhaustive, sizes<=5)",
        not bad,
        f"{checked} reduced embeddings rechecked" + (f", failures {bad[:3]}" if bad else ""),
    )


def _suite_canonical_invariance(res: CriterionResult, rng: random.Random, samples: int) -> None:
    bad = 0
    for _ in range(samples):
        p = random_pls(rng)
        if canonical_form(scramble(rng, p)) != canonical_form(p):
            bad += 1
    res.add(f"canonical invariance ({samples} samples)", bad == 0, f"{bad} mismatches")


def _suite_witness_reverification(res: CriterionResult, quick: bool) -> None:
    top = 6 if quick else 8
    bad = []
    returned = 0
    species = enumerate_species(4)
    for size in range(1, 5):
        for rep in species[size]:
            for n in range(1, top + 1):
                for g in groups_of_order(n):
                    v = find_embedding(rep, g, paranoid=True)
                    if v.witness is not None:
                        returned += 1
                        if not verify_witness(rep, g, v.witness):
                            bad.append((size, g.name))
    res.add(
        "every returned witness re-verifies",
        not bad,
        f"{returned} witnesses checked",
    )


def _suite_species_invariance(res: CriterionResult, rng: random.Random, quick: bool) -> None:
    groups = [g for n in range(1, 9) for g in groups_of_order(n)]
    species = enumerate_species(6)
    pool = [rep for size in range(2, 7) for rep in species[size]]
    bad = []
    for _ in range(20 if quick else 40):
        p = pool[rng.randrange(len(pool))]
        q = scramble(rng, p)
        for g in groups:
            if find_embedding(p, g).embeddable != find_embedding(q, g).embeddable:
                bad.append((p.size, g.name))
    res.add("same-species squares embed alike", not bad, f"failures {bad[:3]}")


def _suite_row_cycle_law(res: CriterionResult, quick: bool) -> None:
    top_len = 4 if quick else 6
    top_order = 8 if quick else 16
    bad = []
    for length in range(2, top_len + 1):
        p = gen_row_cycle(length)
        for n in range(1, top_order + 1):
            for g in groups_of_order(n):
                expect = length in g.element_orders
                got = find_embedding(p, g).embeddable
                if got != expect:
                    bad.append((length, g.name))
    res.add(
        f"row-cycle law (lengths 2..{top_len}, orders <= {top_order})",
        not bad,
        f"failures {bad[:3]}",
    )


def check_property_suites(quick: bool = False, seed: int = 0) -> CriterionResult:
    res = CriterionResult("9", "property suites (fixed seed)")
    rng = random.Random(seed)
    _suite_reduction_soundness(res, quick)
    _suite_canonical_invariance(res, rng, 1000)
    _suite_witness_reverification(res, quick)
    _suite_species_invariance(res, rng, quick)
    _suite_row_cycle_law(res, quick)
    return res


CRITERIA: list[tuple[str, Callable[[bool, int], CriterionResult]]] = [
    ("species counts", check_species_counts),
    ("psi over the full catalogue matches the closed form", check_psi_group),
    ("abelian and cyclic psi match the closed form", check_psi_abelian_cyclic),
    ("obstacle sets", check_obstacle_sets),
    ("screening counts", check_screening_counts),
    ("explicit witnesses", check_explicit_witnesses),
    ("transversal bound", check_transversal_bound),
    ("diagonal partition", check_diagonal_partition),
    ("property suites", check_property_suites),
]


def run_all(quick: bool = False, seed: int = 0) -> list[CriterionResult]:
    return [fn(quick, seed) for _, fn in CRITERIA]
