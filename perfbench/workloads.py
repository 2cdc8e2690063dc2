"""The four benchmark workloads: inputs from a seed, one timed pass, answer checks.

Every check compares species only through ``canonical_form`` values computed
in the same process, so it holds whatever byte encoding the keys use.  No
check goes through a cached helper (such as ``verify._psi``), so a repeated
pass does the same work as the first one, apart from the library's own
caches.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from math import isqrt
from typing import Any, Callable

from cayley_embed import embed, fixtures, groups, pls, screening, verify

SPECIES_COUNTS = (1, 2, 5, 18, 59, 306, 1861)
# canonical_form ops per representative in species-cold.  They all come after
# the enumeration; one per species gave a window of about 1.5 s, too short on
# a noisy host for a steady op_p50_ms.
SCRAMBLES = 3
# relabelled copies of each group of order <= 12 in the realisable jobs of
# partition-search; with 4 the median op moved by up to 50% between seeds
SMALL_RELABELLINGS = 24
# Pinned embedding totals of every size-s species over the order-n catalogue.
PINNED_TOTALS = {(5, 8): 1_164_432, (4, 12): 3_187_615}


class Pass:
    """One timed pass: op latencies, failure accounting and counters."""

    def __init__(self, tracer, plant_failure: bool = False):
        self.tracer = tracer
        self.plant_failure = plant_failure
        self.latencies: list[float] = []
        self.failed = 0
        self.checks = 0
        self.problems: list[str] = []
        self.counters: Counter = Counter()

    def op(self, label: str, call: Callable[[], Any], check: Callable[[Any], bool]) -> Any:
        """Time one public call, then check its answer outside the timing.

        An exception or a failed check counts the op as failed and the pass
        goes on.  With a planted failure the first op's expectation is
        inverted, which a correct answer then fails.
        """
        index = len(self.latencies)
        if self.tracer is not None:
            self.tracer.op = index
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # every failure is counted, none ends the run
            self.latencies.append(time.perf_counter() - start)
            self._fail(f"{label}: {type(exc).__name__}: {exc}")
            return None
        self.latencies.append(time.perf_counter() - start)
        try:
            ok = bool(check(result))
        except Exception as exc:
            ok = False
            label = f"{label} (check raised {type(exc).__name__}: {exc})"
        if self.plant_failure and index == 0:
            ok = not ok
        if not ok:
            self._fail(f"{label}: wrong answer")
        return result

    def require(self, label: str, ok: bool) -> None:
        """A check over the whole pass, counted as one more op."""
        self.checks += 1
        if not ok:
            self._fail(f"{label}: wrong answer")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


# ---------------------------------------------------------------------------
# Helpers shared by the workloads.


def relabel(rng: random.Random, g: groups.Group) -> groups.Group:
    """g with its elements renamed by a seeded permutation, re-validated."""
    n = g.order
    perm = list(range(n))
    rng.shuffle(perm)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[g.table[a][b]]
    return groups.group_from_table(table, g.name)


def hall_paige(g: groups.Group) -> bool:
    """Complete mappings exist iff the Sylow 2-subgroup is trivial or not cyclic.

    The Sylow 2-subgroup is cyclic exactly when some element's order is a
    multiple of the full power of 2 dividing |G|.
    """
    two = g.order & -g.order
    return two == 1 or all(o % two for o in g.element_orders)


def violates_quadrangle(p: pls.PLS) -> bool:
    """Independent re-check of a quadrangle certificate."""
    cells = {(t.row, t.col): t.sym for t in p.triples}
    fourth: dict[tuple[int, int, int], int] = {}
    for (r1, c1), s11 in cells.items():
        for (r2, c2), s22 in cells.items():
            s12 = cells.get((r1, c2))
            s21 = cells.get((r2, c1))
            if s12 is not None and s21 is not None:
                if fourth.setdefault((s11, s12, s21), s22) != s22:
                    return True
    return False


def enumerate_levels(top: int) -> dict[int, list[pls.PLS]]:
    """Species up to `top`, one call per size so each level is timed apart."""
    for m in range(1, top + 1):
        levels = pls.enumerate_species(m)
    return levels


# ---------------------------------------------------------------------------
# species-cold: enumeration and canonical keys on a cold key cache.


class SpeciesCold:
    name = "species-cold"
    # every pass runs in a fresh process: a second pass would find the
    # species levels and the key cache already filled
    passes_per_process = 1

    def setup(self, seed: int) -> dict:
        return {"seed": seed}

    def run(self, state: dict, p: Pass) -> None:
        rng = random.Random(state["seed"])
        keyed = []
        for m in range(1, 8):
            levels = p.op(
                f"enumerate_species({m})",
                lambda m=m: pls.enumerate_species(m),
                lambda r, m=m: len(r[m]) == SPECIES_COUNTS[m - 1],
            )
            reps = levels[m] if levels else []
            p.counters[f"species.size{m}"] = len(reps)
            keys = [pls.canonical_form(rep) for rep in reps]
            p.require(f"size-{m} species keys are distinct", len(set(keys)) == len(reps))
            keyed += zip(reps, keys)
        for rep, key in keyed:
            for _ in range(SCRAMBLES):
                q = verify.scramble(rng, rep)
                same = p.op(
                    "canonical_form(scramble)",
                    lambda q=q: pls.canonical_form(q),
                    lambda k, key=key: k == key,
                )
                p.counters["canonical.matches"] += same == key


# ---------------------------------------------------------------------------
# psi-sweep: the threshold pipeline over the catalogue and order 18.


def _order18_groups() -> list[groups.Group]:
    """The five groups of order 18, the class of scripts/order18_obstacles.py.

    Rebuilt here from the package's constructors, so that the benchmark
    depends on the public API only.
    """

    def enc(x: int, y: int) -> int:
        return 3 * (x % 3) + (y % 3)

    def perm(fn) -> tuple[int, ...]:
        return tuple(fn(x, y) for x in range(3) for y in range(3))

    gens = [
        perm(lambda x, y: enc(x + 1, y)),
        perm(lambda x, y: enc(x, y + 1)),
        perm(lambda x, y: enc(-x, -y)),
    ]
    return [
        groups.cyclic(18),
        groups.abelian([3, 6]),
        groups.dihedral(9),
        groups.direct_product(groups.dihedral(3), groups.cyclic(3)),
        groups.from_perm_generators(9, gens, name="(Z3xZ3):Z2"),
    ]


def _expected_obstacles() -> dict[tuple[int, str], set]:
    """Obstacle species of acceptance criterion 4 and of order 18, as keys."""
    fx = fixtures()
    key = pls.canonical_form
    nonab = key(fx["nonab"])
    c2 = key(pls.gen_row_cycle(2))
    c3 = key(pls.gen_row_cycle(3))
    six = {key(pls.gen_evans(6, a)) for a in (1, 2, 3)}
    six |= {key(pls.gen_diagonal(6)), key(fx["interesting"]), nonab}
    quad = {key(fx["quadcrit_a"]), key(fx["quadcrit_b"])}
    out = {(6, "cyclic"): six, (6, "abelian"): six, (6, "group"): six - {nonab}}
    out[(12, "group")] = quad
    out[(12, "abelian")] = out[(12, "cyclic")] = {nonab}
    for n in (8, 10, 14, 16):
        out[(n, "group")] = {c3}
        out[(n, "abelian")] = out[(n, "cyclic")] = {c3, nonab}
    for n in (5, 7, 9, 11, 13, 15):
        for variant in screening.VARIANTS:
            out[(n, variant)] = {c2}
    out[(4, "cyclic")] = {
        key(pls.gen_evans(4, 1)),
        key(pls.gen_evans(4, 2)),
        key(pls.gen_diagonal(4)),
    }
    out[(18, "order18")] = quad | {key(fx["order4"])}
    return out


class PsiSweep:
    name = "psi-sweep"
    passes_per_process = None

    def setup(self, seed: int) -> dict:
        enumerate_levels(7)
        jobs = [(n, "group") for n in range(1, 17)]
        jobs += [(n, v) for n in range(1, 25) for v in ("abelian", "cyclic")]
        names = {job: [g.name for g in screening.default_group_class(*job)] for job in jobs}
        order18 = _order18_groups()
        # the one job with a supplied class: every group of order 18
        jobs.append((18, "order18"))
        names[(18, "order18")] = [g.name for g in order18]
        random.Random(seed).shuffle(jobs)
        return {
            "jobs": jobs,
            "names": names,
            "order18": order18,
            "expected": _expected_obstacles(),
            "row_cycles": {k: pls.canonical_form(pls.gen_row_cycle(k)) for k in range(2, 9)},
        }

    def run(self, state: dict, p: Pass) -> None:
        for n, variant in state["jobs"]:
            if variant == "order18":
                call = lambda: screening.psi(18, "group", state["order18"], assume_complete=True)
                want = 6
            else:
                call = lambda n=n, v=variant: screening.psi(n, v)
                if variant == "group":
                    want = verify.closed_form_psi_group(n)
                else:
                    want = verify.closed_form_psi_abelian(n)
            result = p.op(
                f"psi({n}, {variant})",
                call,
                lambda r, n=n, v=variant, want=want: (
                    r.psi == want and self._obstacles_ok(state, r, n, v)
                ),
            )
            if result is not None:
                p.counters["psi.survivors"] += sum(result.survivor_counts.values())
                p.counters["psi.obstacles"] += len(result.obstacles)
                for o in result.obstacles:
                    p.counters[f"psi.certificates.{o.certificate.get('kind')}"] += 1

    @staticmethod
    def _obstacles_ok(state, result, n: int, variant: str) -> bool:
        expected = state["expected"].get((n, variant))
        if expected is not None and {o.species_key for o in result.obstacles} != expected:
            return False
        for o in result.obstacles:
            cert = o.certificate
            kind = cert.get("kind")
            if kind == "quadrangle":
                sigma = pls.Parastrophe(tuple(cert["parastrophe"]))
                ok = violates_quadrangle(pls.parastrophe(o.representative, sigma))
            elif kind == "row-cycle":
                length = cert["length"]
                ok = n % length != 0 and o.species_key == state["row_cycles"].get(length)
            elif kind == "exhausted-search":
                ok = cert["groups"] == state["names"][(n, variant)]
            else:
                ok = False
            if not ok:
                return False
        return True


# ---------------------------------------------------------------------------
# embed-queries: the embedding search in its decision and counting modes.


class EmbedQueries:
    name = "embed-queries"
    passes_per_process = None

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        levels = enumerate_levels(7)
        hosts = {n: [relabel(rng, g) for g in groups.groups_of_order(n)] for n in range(2, 17)}
        # Decisions take the representatives as enumerated: the search order
        # follows the triple labels, and on scrambled copies single negative
        # decisions ranged from 1 s to 100 s between seeds.
        ops = [("find", rep, g) for rep in levels[7] for n in range(6, 17) for g in hosts[n]]
        ops += [
            ("count", verify.scramble(rng, rep), g)
            for (size, n) in PINNED_TOTALS
            for rep in levels[size]
            for g in hosts[n]
        ]
        ops += [("unpinned", verify.scramble(rng, rep), g) for rep in levels[3] for g in hosts[6]]
        ops += [("diagonal", pls.gen_diagonal(n), g) for n in (2, 6, 10) for g in hosts[n]]
        # mixing the kinds spreads each one over the whole pass
        rng.shuffle(ops)
        return {"ops": ops}

    def run(self, state: dict, p: Pass) -> None:
        totals: Counter = Counter()
        for kind, q, g in state["ops"]:
            if kind == "find":
                v = p.op(
                    "find_embedding",
                    lambda q=q, g=g: embed.find_embedding(q, g),
                    lambda v, q=q, g=g: self._verdict_ok(q, g, v),
                )
                if v is not None:
                    p.counters[f"find.{'embeddable' if v.embeddable else 'not_embeddable'}"] += 1
            elif kind == "count":
                got = p.op(
                    "count_embeddings_pinned",
                    lambda q=q, g=g: embed.count_embeddings_pinned(q, g),
                    lambda c: isinstance(c, int) and c >= 0,
                )
                totals[(q.size, g.order)] += got or 0
            elif kind == "unpinned":
                p.op(
                    "count_embeddings_pinned",
                    lambda q=q, g=g: embed.count_embeddings_pinned(q, g),
                    lambda c, q=q, g=g: embed.count_embeddings(q, g) == g.order**2 * c,
                )
            else:
                v = p.op(
                    "find_embedding(paranoid)",
                    lambda q=q, g=g: embed.find_embedding(q, g, paranoid=True),
                    lambda v, q=q, g=g: v.embeddable == hall_paige(g) and self._verdict_ok(q, g, v),
                )
                if v is not None:
                    p.counters[f"diagonal.{'embeddable' if v.embeddable else 'not_embeddable'}"] += 1
        for (size, n), want in PINNED_TOTALS.items():
            p.counters[f"count.size{size}.order{n}"] = totals[(size, n)]
            p.require(f"pinned total size {size} order {n}", totals[(size, n)] == want)

    @staticmethod
    def _verdict_ok(p: pls.PLS, g: groups.Group, v) -> bool:
        if not v.embeddable:
            return v.witness is None
        if v.witness is not None:
            return embed.verify_witness(p, g, v.witness)
        # the diagonal fast path: t-shaped and within ceil(n - sqrt(n))
        return (
            v.method == "transversal-bound"
            and p.n_rows == p.n_cols == p.n_syms == p.size
            and p.size <= g.order - isqrt(g.order)
        )


# ---------------------------------------------------------------------------
# partition-search: the diagonal-partition engine.


class PartitionSearch:
    name = "partition-search"
    passes_per_process = None

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        # A realisable job exits early, after a search whose length follows
        # the element labels: groups of order up to 12 come in several
        # relabellings there, so that op_p50_ms is not set by the labels one
        # seed happens to draw.  A refutation searches exhaustively whatever
        # the labels, so each unrealisable job runs once, on the first copy.
        jobs = []
        for n in range(1, 17):
            for g in groups.groups_of_order(n):
                copies = [relabel(rng, g) for _ in range(SMALL_RELABELLINGS if n <= 12 else 1)]
                kinds = [([3, n - 3], n % 3 == 0)] if n >= 4 else []
                if n <= 10:
                    kinds.append(([1] * n, hall_paige(g)))
                for parts, want in kinds:
                    jobs += [(parts, h, want) for h in (copies if want else copies[:1])]
        # the quick early exits and the long refutations are spread over the pass
        rng.shuffle(jobs)
        return {"jobs": jobs}

    def run(self, state: dict, p: Pass) -> None:
        for parts, g, want in state["jobs"]:
            r = p.op(
                f"embed_diagonal_partition({g.name}, {len(parts)} parts)",
                lambda parts=parts, g=g: embed.embed_diagonal_partition(g, parts),
                lambda r, parts=parts, g=g, want=want: self._answer_ok(g, parts, want, r),
            )
            if r is not None:
                p.counters[f"partition.{'realisable' if r[0] else 'unrealisable'}"] += 1

    @staticmethod
    def _answer_ok(g: groups.Group, parts: list[int], want: bool, answer) -> bool:
        realisable, perm = answer
        if realisable != want:
            return False
        if not realisable:
            return perm is None
        n = g.order
        if sorted(perm) != list(range(n)):
            return False
        products = Counter(g.table[x][perm[x]] for x in range(n))
        return sorted(products.values()) == sorted(parts)


WORKLOADS = {w.name: w for w in (SpeciesCold(), PsiSweep(), EmbedQueries(), PartitionSearch())}
