import hashlib
import json
import random
from collections import Counter
from itertools import permutations

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cayley_embed import (
    EmbeddingWitness,
    PartitionInvalid,
    SearchLimitExceeded,
    TRANSPOSE,
    abelian,
    count_embeddings,
    count_embeddings_pinned,
    cyclic,
    dihedral,
    embed_diagonal_partition,
    embeds,
    enumerate_species,
    find_embedding,
    fixtures,
    gen_diagonal,
    gen_row_cycle,
    group_from_table,
    groups_of_order,
    is_t_species,
    nonab_dihedral_witness,
    opposite,
    parastrophe,
    psi,
    quadrangle_violation,
    transversal_bound,
    validate_pls,
    verify_witness,
)
from cayley_embed.embed import WITNESS_SCHEMA, _Searcher
from cayley_embed.verify import scramble


def brute_force_count(p, g):
    """Oracle: iterate every pair of injections and count consistent symbol maps."""
    n = g.order
    total = 0
    for rows in permutations(range(n), p.n_rows):
        for cols in permutations(range(n), p.n_cols):
            syms = {}
            ok = True
            for t in p.triples:
                v = g.table[rows[t.row - 1]][cols[t.col - 1]]
                if syms.setdefault(t.sym, v) != v:
                    ok = False
                    break
            if ok and len(set(syms.values())) == len(syms):
                total += 1
    return total


class TestWitness:
    def test_verify_accepts_recorded_dihedral_witness(self):
        g, w = nonab_dihedral_witness()
        assert verify_witness(fixtures()["nonab"], g, w)

    def test_verify_rejects_broken_maps(self):
        p = validate_pls([(1, 1, 1), (1, 2, 2)])
        g = cyclic(3)
        # valid reference witness
        assert verify_witness(p, g, EmbeddingWitness({1: 0}, {1: 0, 2: 1}, {1: 0, 2: 1}))
        # non-total rows, non-injective columns, wrong product
        assert not verify_witness(p, g, EmbeddingWitness({}, {1: 0, 2: 1}, {1: 0, 2: 1}))
        assert not verify_witness(p, g, EmbeddingWitness({1: 0}, {1: 0, 2: 0}, {1: 0, 2: 1}))
        assert not verify_witness(p, g, EmbeddingWitness({1: 0}, {1: 0, 2: 1}, {1: 0, 2: 2}))

    def test_serialisation(self):
        w = EmbeddingWitness({1: 0, 2: 3}, {1: 0}, {1: 0, 2: 3})
        text = w.to_text()
        assert text.splitlines()[0].startswith("I1:")
        payload = w.to_json()
        jsonschema.validate(payload, WITNESS_SCHEMA)
        assert EmbeddingWitness.from_json(payload) == w


class TestFindEmbedding:
    def test_nonab_in_dihedral(self):
        p = fixtures()["nonab"]
        g = dihedral(3)
        v = find_embedding(p, g)
        assert v.embeddable and verify_witness(p, g, v.witness)

    def test_nonab_not_in_any_abelian_sample(self):
        p = fixtures()["nonab"]
        for g in (cyclic(6), cyclic(12), abelian([2, 6]), abelian([2, 2, 4])):
            assert not find_embedding(p, g).embeddable

    def test_row_cycle_needs_divisible_order(self):
        assert not find_embedding(gen_row_cycle(2), cyclic(5)).embeddable
        assert find_embedding(gen_row_cycle(2), cyclic(4)).embeddable

    def test_diagonal_fast_path_and_paranoid_agree(self):
        d5 = gen_diagonal(5)
        for g in groups_of_order(8):
            fast = find_embedding(d5, g)
            slow = find_embedding(d5, g, paranoid=True)
            assert fast.embeddable and fast.method == "transversal-bound"
            assert slow.embeddable and verify_witness(d5, g, slow.witness)

    def test_too_large_pls(self):
        assert not find_embedding(gen_diagonal(4), cyclic(3)).embeddable

    def test_witness_always_verifies(self, small_catalogue):
        species = enumerate_species(4)
        for size in range(1, 5):
            for rep in species[size]:
                for g in small_catalogue:
                    v = find_embedding(rep, g, paranoid=True)
                    if v.embeddable:
                        assert verify_witness(rep, g, v.witness)


class TestCounting:
    def test_single_triple(self):
        assert count_embeddings(validate_pls([(1, 1, 1)]), cyclic(5)) == 25

    def test_c2_in_z2_matches_brute_force(self):
        c2 = gen_row_cycle(2)
        g = cyclic(2)
        assert brute_force_count(c2, g) == 4
        assert count_embeddings(c2, g) == 4

    def test_counts_match_brute_force_small(self, small_catalogue):
        cases = [
            fixtures()["noninterc"],
            gen_row_cycle(2),
            validate_pls([(1, 1, 1), (2, 2, 1)]),
            validate_pls([(1, 1, 1), (1, 2, 2), (2, 1, 2)]),
        ]
        for p in cases:
            for g in small_catalogue:
                if g.order > 4:
                    continue
                assert count_embeddings(p, g) == brute_force_count(p, g)

    def test_quadcrit_count_zero_everywhere(self):
        qa = fixtures()["quadcrit_a"]
        for n in range(1, 9):
            for g in groups_of_order(n):
                assert count_embeddings(qa, g) == 0

    def test_pinned_count_scales_by_group_order_squared(self):
        cases = [
            gen_row_cycle(2),
            fixtures()["noninterc"],
            validate_pls([(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 3)]),
        ]
        for p in cases:
            for n in (2, 3, 4, 5, 6):
                for g in groups_of_order(n):
                    assert count_embeddings(p, g) == n * n * count_embeddings_pinned(p, g)


class TestQuadrangle:
    def test_both_reference_squares_violate(self):
        fx = fixtures()
        assert quadrangle_violation(fx["quadcrit_a"])
        assert quadrangle_violation(fx["quadcrit_b"])

    def test_single_cell(self):
        assert not quadrangle_violation(validate_pls([(1, 1, 1)]))

    def test_nonab_passes(self):
        assert not quadrangle_violation(fixtures()["nonab"])

    def test_no_violations_below_size_seven(self):
        for size, reps in enumerate_species(6).items():
            assert not any(quadrangle_violation(p) for p in reps), size

    def test_orientation_dependent(self):
        # the criterion reads the (row, col, sym) orientation: a violating
        # square can hide its violation in another parastrophe image
        from cayley_embed import ALL_PARASTROPHES, canonical_form

        qb = canonical_form(fixtures()["quadcrit_b"]).to_pls()
        per_sigma = [quadrangle_violation(parastrophe(qb, s)) for s in ALL_PARASTROPHES]
        assert any(per_sigma) and not all(per_sigma)

    def test_violation_implies_zero_count(self):
        # exactly two size-7 species violate in some orientation -- the two
        # recorded squares -- and violating squares have zero embeddings in
        # every catalogue group of order <= 12
        from cayley_embed import ALL_PARASTROPHES, canonical_form

        violators = []
        for p in enumerate_species(7)[7]:
            for sigma in ALL_PARASTROPHES:
                q = parastrophe(p, sigma)
                if quadrangle_violation(q):
                    violators.append(q)
                    break
        fx = fixtures()
        assert {canonical_form(p) for p in violators} == {
            canonical_form(fx["quadcrit_a"]),
            canonical_form(fx["quadcrit_b"]),
        }
        groups = [g for n in range(1, 13) for g in groups_of_order(n)]
        for p in violators + [fx["quadcrit_a"], fx["quadcrit_b"]]:
            assert quadrangle_violation(p)
            for g in groups:
                assert count_embeddings(p, g) == 0


class TestEmbedsInClass:
    def test_nonab_order_six(self):
        verdicts = {g.name: find_embedding(fixtures()["nonab"], g) for g in groups_of_order(6)}
        assert verdicts["D6"].embeddable and not verdicts["Z6"].embeddable

    def test_row_cycle_shortcut(self):
        # a row cycle of length 3 cannot embed in order 8 (3 does not divide
        # 8); psi certifies this without search, here the search confirms it
        for g in groups_of_order(8):
            v = find_embedding(gen_row_cycle(3), g)
            assert not v.embeddable and v.obstruction == "exhausted-search"

    def test_quadrangle_shortcut(self):
        # a quadrangle violation rules out every group; the search agrees
        for g in groups_of_order(12):
            v = find_embedding(fixtures()["quadcrit_a"], g)
            assert not v.embeddable and v.obstruction == "exhausted-search"

    def test_overlapinterc_fails_all_cyclic(self):
        p = fixtures()["overlapinterc"]
        assert not any(find_embedding(p, cyclic(n)).embeddable for n in range(3, 31))

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            psi(2, "group", [], assume_complete=True)


class TestDiagonalPartition:
    def test_z6_three_three(self):
        ok, perm = embed_diagonal_partition(cyclic(6), [3, 3])
        assert ok
        prods = Counter(cyclic(6).table[x][perm[x]] for x in range(6))
        assert sorted(prods.values()) == [3, 3]

    def test_z5_three_two(self):
        assert embed_diagonal_partition(cyclic(5), [3, 2]) == (False, None)

    def test_z2_complete_mapping_absent(self):
        assert embed_diagonal_partition(cyclic(2), [1, 1]) == (False, None)

    def test_whole_group_single_part(self):
        for g in (cyclic(5), dihedral(3)):
            ok, perm = embed_diagonal_partition(g, [g.order])
            assert ok and sorted(perm) == list(range(g.order))

    def test_invalid_partitions(self):
        with pytest.raises(PartitionInvalid):
            embed_diagonal_partition(cyclic(4), [3, 2])
        with pytest.raises(PartitionInvalid):
            embed_diagonal_partition(cyclic(4), [4, 0])
        with pytest.raises(PartitionInvalid):
            embed_diagonal_partition(cyclic(4), [])

    def test_all_ones_agrees_with_diagonal_embedding(self):
        # partition (1,...,1) is the all-distinct diagonal: cross-check routes
        for g in (cyclic(4), abelian([2, 2]), cyclic(5), cyclic(6)):
            ok, _ = embed_diagonal_partition(g, [1] * g.order)
            via_search = find_embedding(gen_diagonal(g.order), g, paranoid=True).embeddable
            assert ok == via_search


def sorted_feasibility_partition(g, partition):
    """Reference: the same search, testing each candidate by sorting all counts
    and comparing them term by term with the sorted parts.  Returns
    (realisable, perm or None, nodes searched)."""
    n = g.order
    parts = sorted(partition, reverse=True)
    counts = [0] * n
    used = [False] * n
    perm = [-1] * n
    nodes = 0

    def feasible():
        nz = sorted((c for c in counts if c), reverse=True)
        return len(nz) <= len(parts) and all(c <= cap for c, cap in zip(nz, parts))

    def rec(x):
        nonlocal nodes
        if x == n:
            return sorted((c for c in counts if c), reverse=True) == parts
        nodes += 1
        for y in range(n):
            if used[y]:
                continue
            v = g.table[x][y]
            counts[v] += 1
            if feasible():
                used[y] = True
                perm[x] = y
                if rec(x + 1):
                    return True
                used[y] = False
                perm[x] = -1
            counts[v] -= 1
        return False

    found = rec(0)
    return found, perm if found else None, nodes


def partitions(n, top=None):
    """Every partition of n into parts <= top, largest part first."""
    if n == 0:
        yield []
        return
    for k in range(min(n, top or n), 0, -1):
        for rest in partitions(n - k, k):
            yield [k, *rest]


def relabelled(g, rng):
    perm = list(range(g.order))
    rng.shuffle(perm)
    table = [[0] * g.order for _ in range(g.order)]
    for x in range(g.order):
        for y in range(g.order):
            table[perm[x]][perm[y]] = perm[g.table[x][y]]
    return group_from_table(table, name=g.name + "'")


class TestDiagonalPartitionOracle:
    def test_matches_sorted_feasibility_search(self, small_catalogue, rng):
        # the per-count test must keep the search tree: the verdict, the
        # permutation found and the node count are exactly the reference's
        for g0 in small_catalogue:
            for g in (g0, relabelled(g0, rng)):
                for parts in partitions(g.order):
                    ok, perm, nodes = sorted_feasibility_partition(g, parts)
                    got = embed_diagonal_partition(g, parts, node_limit=nodes)
                    assert got == (ok, perm), (g.name, parts)
                    with pytest.raises(SearchLimitExceeded):
                        embed_diagonal_partition(g, parts, node_limit=nodes - 1)


class TestVerdictShape:
    def test_obstruction_only_on_negative_and_witness_only_on_positive(self, small_catalogue):
        from cayley_embed import EmbedVerdict

        for p in (fixtures()["nonab"], gen_row_cycle(3), gen_diagonal(3)):
            for g in small_catalogue:
                v = find_embedding(p, g)
                assert isinstance(v, EmbedVerdict)
                if v.obstruction is not None:
                    assert not v.embeddable
                if v.witness is not None:
                    assert v.embeddable
                if v.embeddable and v.method == "search":
                    assert v.witness is not None

    def test_node_limit_guard(self):
        with pytest.raises(SearchLimitExceeded):
            find_embedding(fixtures()["interesting"], cyclic(16), node_limit=3)
        with pytest.raises(SearchLimitExceeded):
            count_embeddings(gen_row_cycle(2), cyclic(6), node_limit=2)
        with pytest.raises(SearchLimitExceeded):
            embed_diagonal_partition(cyclic(6), [1] * 6, node_limit=10)


def _search_digest(cases):
    """SHA-256 over the verdict, first witness and node count of each
    (p, g, pin, count_all) search, and the searchers themselves."""
    digest = hashlib.sha256()
    searchers = []
    for p, g, pin, count_all in cases:
        s = _Searcher(p, g, pin=pin)
        got = s.run(count_all=count_all)
        w = None if s.witness is None else s.witness.to_json()
        digest.update(json.dumps([got, w, s.nodes], sort_keys=True).encode())
        searchers.append((p, g, got, s))
    return digest.hexdigest(), searchers


class TestSearchKernel:
    def test_counting_grid_is_pinned(self, small_catalogue):
        # counting every species of size <= 4 in every group of order <= 8,
        # unpinned and pinned: counting branches over every element
        species = enumerate_species(4)
        cases = [
            (p, g, pin, True)
            for size in range(1, 5)
            for p in species[size]
            for g in small_catalogue
            for pin in (False, True)
        ]
        assert _search_digest(cases)[0] == (
            "1d515664412ff3686460e98e8a2e68617e4db6ce00f2ad6a4aab936f0d939eb1"
        )

    def test_decision_grid_is_pinned(self):
        # deciding every size-6 species in every group of order 6-12 the way
        # find_embedding searches it, one first branch per Aut(G)-orbit
        species = enumerate_species(6)[6]
        cases = [
            (p, g, True, False) for n in range(6, 13) for g in groups_of_order(n) for p in species
        ]
        digest, searchers = _search_digest(cases)
        assert digest == "27d3b3fc9aee937a2ff6a3c402023270117671182db9320735fdfe5e1fc74c56"
        # a witness is a pinned embedding, so it shows the pinned count is
        # positive; a refutation must agree with the full pinned count
        for p, g, got, s in searchers:
            if got:
                first = p.triples[0]
                w = s.witness
                assert verify_witness(p, g, w)
                assert w.row_map[first.row] == w.col_map[first.col] == 0
            else:
                assert count_embeddings_pinned(p, g) == 0, (g.name, p.triples)

    def test_verdict_only_entry_on_decision_grid(self):
        # embeds gives find_embedding's verdict on the decision grid, from the
        # same search: a limit of exactly its nodes passes and one below raises
        species = enumerate_species(6)[6]
        for n in range(6, 13):
            for g in groups_of_order(n):
                for p in species:
                    got = embeds(p, g)
                    assert got == find_embedding(p, g).embeddable, (g.name, p.triples)
                    if got:
                        # every embedding normalises to a pinned one, so a
                        # witness shows that the pinned count is positive
                        w = find_embedding(p, g, paranoid=True).witness
                        assert verify_witness(p, g, w)
                    else:
                        assert count_embeddings_pinned(p, g) == 0, (g.name, p.triples)
                    if is_t_species(p):
                        continue
                    s = _Searcher(p, g, pin=True)
                    s.run(count_all=False)
                    assert embeds(p, g, node_limit=s.nodes) == got
                    with pytest.raises(SearchLimitExceeded):
                        embeds(p, g, node_limit=s.nodes - 1)

    def test_node_limit_boundary_on_refutation(self):
        # nonab embeds in no group of order 6 but D6: in Z6 every entry point
        # searches to exhaustion, and a limit of exactly the nodes used passes
        p, g = fixtures()["nonab"], cyclic(6)
        for run, pin, count_all in (
            (find_embedding, True, False),
            (embeds, True, False),
            (count_embeddings, False, True),
            (count_embeddings_pinned, True, True),
        ):
            s = _Searcher(p, g, pin=pin)
            assert not s.run(count_all=count_all)
            got = run(p, g, node_limit=s.nodes)
            assert not (got.embeddable if run is find_embedding else got)
            with pytest.raises(SearchLimitExceeded):
                run(p, g, node_limit=s.nodes - 1)

    @given(st.data())
    def test_decision_agrees_with_pinned_count(self, small_catalogue, data):
        # a seeded scramble of a species of size <= 5 in a group of order <= 8
        reps = [p for ps in enumerate_species(5).values() for p in ps]
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        p = scramble(rng, data.draw(st.sampled_from(reps)))
        g = data.draw(st.sampled_from(small_catalogue))
        v = find_embedding(p, g)
        assert v.embeddable == embeds(p, g) == (count_embeddings_pinned(p, g) > 0)
        for w in (v.witness, find_embedding(p, g, paranoid=True).witness):
            if w is not None:
                assert verify_witness(p, g, w)


class TestParastropheDuality:
    def test_transpose_embeds_in_opposite(self, small_catalogue):
        species = enumerate_species(4)
        for size in range(1, 5):
            for rep in species[size]:
                flipped = parastrophe(rep, TRANSPOSE)
                for g in small_catalogue:
                    a = find_embedding(rep, g).embeddable
                    b = find_embedding(flipped, opposite(g)).embeddable
                    assert a == b

    def test_transversal_bound_values(self):
        assert transversal_bound(10) == 7
        assert transversal_bound(9) == 6
        assert transversal_bound(12) == 9
