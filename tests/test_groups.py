from collections import Counter
from itertools import permutations
from math import gcd

import pytest

from cayley_embed import (
    ClosureTooLarge,
    NoIdentity,
    NotAssociative,
    NotLatin,
    OrderUnsupported,
    ParameterOutOfRange,
    abelian,
    abelian_groups_of_order,
    abelian_invariant_factor_lists,
    automorphism_orbits,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    format_group_file,
    from_perm_generators,
    group_from_table,
    groups_of_order,
    isomorphic,
    isomorphisms,
    opposite,
    parse_group_file,
    parse_group_spec,
)

GROUP_COUNTS = [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14]


class TestValidation:
    def test_z6_table(self):
        g = group_from_table([[(i + j) % 6 for j in range(6)] for i in range(6)])
        assert g.order == 6 and g.identity == 0 and g.abelian

    def test_identity_normalised_to_zero(self):
        # Z3 written with identity at index 2
        perm = [1, 2, 0]  # relabel i -> perm[i] of the standard table
        table = [[0] * 3 for _ in range(3)]
        for a in range(3):
            for b in range(3):
                table[perm[a]][perm[b]] = perm[(a + b) % 3]
        g = group_from_table(table)
        assert g.identity == 0
        assert all(g.table[0][x] == x for x in range(3))

    def test_not_latin(self):
        with pytest.raises(NotLatin):
            group_from_table([[0, 1], [1, 1]])

    def test_no_identity(self):
        with pytest.raises(NoIdentity):
            group_from_table([[0, 1, 2], [2, 0, 1], [1, 2, 0]])

    def test_not_associative_loop_of_order_5(self):
        # brute-force search for an order-5 latin square with identity that
        # fails associativity (no order-5 loop is a group)
        found = None
        for p1 in permutations([0, 2, 3, 4]):
            rows = [list(range(5)), [1] + list(p1)]
            if any(rows[1][c] == rows[0][c] for c in range(5)):
                continue
            used = [set(col) for col in zip(*rows)]
            table = _complete_latin(rows, used)
            if table is not None:
                found = table
                break
        assert found is not None
        with pytest.raises(NotAssociative) as exc:
            group_from_table(found)
        a, b, c = exc.value.witness
        t = found
        assert t[t[a][b]][c] != t[a][t[b][c]]

    def test_not_associative_loop_of_order_260(self):
        # Z260 with the intercalate on rows and columns {1, 131} swapped is
        # still a loop, but (1*1)*2 = 134 while 1*(1*2) = 4
        n = 260
        t = [[(i + j) % n for j in range(n)] for i in range(n)]
        for i in (1, 131):
            for j in (1, 131):
                t[i][j] = 134 - t[i][j]
        with pytest.raises(NotAssociative) as exc:
            group_from_table(t)
        a, b, c = exc.value.witness
        assert t[t[a][b]][c] != t[a][t[b][c]]

    def test_not_associative_past_first_generator(self):
        # L x Z2 with L = Z6 and its intercalate on {1, 4} swapped; element
        # 2l + g is (l, g), so element 1 = (0, 1) associates with everything
        # and only a later generator exposes the loop
        loop = [[(i + j) % 6 for j in range(6)] for i in range(6)]
        for i in (1, 4):
            for j in (1, 4):
                loop[i][j] = 7 - loop[i][j]
        t = [
            [2 * loop[x // 2][y // 2] + (x + y) % 2 for y in range(12)]
            for x in range(12)
        ]
        with pytest.raises(NotAssociative) as exc:
            group_from_table(t)
        a, b, c = exc.value.witness
        assert b != 1 and t[t[a][b]][c] != t[a][t[b][c]]


def _complete_latin(rows, used):
    if len(rows) == 5:
        return [list(r) for r in rows]
    r = len(rows)
    row = [r] + [-1] * 4

    def rec(c):
        if c == 5:
            rows.append(list(row))
            for cc in range(5):
                used[cc].add(row[cc])
            got = _complete_latin(rows, used)
            if got is not None:
                return got
            rows.pop()
            for cc in range(5):
                used[cc].discard(row[cc])
            return None
        for v in range(5):
            if v in row[:c] or v in used[c]:
                continue
            row[c] = v
            got = rec(c + 1)
            if got is not None:
                return got
            row[c] = -1
        return None

    return rec(1)


class TestConstructors:
    def test_dihedral3_census(self):
        g = dihedral(3)
        assert g.order == 6 and not g.abelian
        assert Counter(g.element_orders) == Counter({1: 1, 2: 3, 3: 2})

    def test_klein(self):
        g = abelian([2, 2])
        assert g.abelian and sorted(g.element_orders) == [1, 2, 2, 2]

    def test_cyclic6_orders_match_gcd_formula(self):
        g = cyclic(6)
        assert list(g.element_orders) == [6 // gcd(6, k) if k else 1 for k in range(6)]

    def test_dicyclic2_is_quaternion(self):
        g = dicyclic(2)
        assert Counter(g.element_orders) == Counter({1: 1, 2: 1, 4: 6})
        assert not g.abelian

    def test_abelian_divisor_chain_enforced(self):
        with pytest.raises(ParameterOutOfRange):
            abelian([3, 2])
        abelian([2, 6])  # fine

    def test_dihedral_guard(self):
        with pytest.raises(ParameterOutOfRange):
            dihedral(1)

    def test_direct_product_order_and_element_orders(self):
        g = direct_product(dihedral(3), cyclic(4))
        assert g.order == 24
        # element order of (g, h) is lcm of the component orders
        d6, z4 = dihedral(3), cyclic(4)
        for a in range(6):
            for b in range(4):
                want = d6.element_orders[a] * z4.element_orders[b] // gcd(
                    d6.element_orders[a], z4.element_orders[b]
                )
                assert g.element_orders[a * 4 + b] == want

    def test_from_perm_generators_a4(self):
        g = from_perm_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)])
        assert g.order == 12
        assert Counter(g.element_orders) == Counter({1: 1, 2: 3, 3: 8})

    def test_perm_generator_validation(self):
        with pytest.raises(ParameterOutOfRange):
            from_perm_generators(3, [(0, 0, 1)])

    def test_closure_guard(self):
        # two generators of the symmetric group on 9 points: order 362880
        cyc = tuple(list(range(1, 9)) + [0])
        swap = (1, 0) + tuple(range(2, 9))
        with pytest.raises(ClosureTooLarge):
            from_perm_generators(9, [cyc, swap])

    def test_element_order(self):
        assert cyclic(6).element_orders[2] == 3
        assert cyclic(6).element_orders[0] == 1
        assert dihedral(4).element_orders[4] == 2


class TestIsomorphism:
    def test_crt(self):
        assert isomorphic(abelian([6]), direct_product(cyclic(2), cyclic(3)))

    def test_z4_not_klein(self):
        assert not isomorphic(cyclic(4), abelian([2, 2]))

    def test_same_order_stats_but_different(self):
        # the modular order-16 group shares its order statistics with Z2xZ8
        m16 = next(g for g in groups_of_order(16) if g.name == "M16")
        ab = abelian([2, 8])
        assert sorted(m16.element_orders) == sorted(ab.element_orders)
        assert not isomorphic(m16, ab)

    def test_is_abelian(self):
        assert not dihedral(3).abelian
        assert cyclic(9).abelian

    def test_equivalence_on_catalogue(self):
        for n in (1, 2, 4, 6, 8, 12):
            cat = groups_of_order(n)
            for g in cat:
                assert isomorphic(g, g)
            for i, g in enumerate(cat):
                for h in cat[i + 1 :]:
                    assert not isomorphic(g, h)
                    assert not isomorphic(h, g)


def _euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _least_of_orbits(auts, n):
    return tuple(min(phi[x] for phi in auts) for x in range(n))


class TestAutomorphisms:
    def test_orders_match_closed_forms(self):
        # |Aut(Z_n)| = phi(n), |Aut(D_2k)| = k phi(k) for k >= 3,
        # |Aut(Z2^k)| = |GL(k, 2)|, |Aut(Q8)| = |Aut(A4)| = 24
        for n in range(1, 25):
            assert automorphism_orbits(cyclic(n))[0] == _euler_phi(n), n
        for k in range(3, 13):
            assert automorphism_orbits(dihedral(k))[0] == k * _euler_phi(k), k
        for factors, size in (([2, 2], 6), ([2, 2, 2], 168), ([2, 2, 2, 2], 20160)):
            assert automorphism_orbits(abelian(factors))[0] == size
        named = {g.name: g for n in (8, 12) for g in groups_of_order(n)}
        assert automorphism_orbits(named["Q8"])[0] == 24
        assert automorphism_orbits(named["A4"])[0] == 24

    def test_match_brute_force_to_order_8(self):
        # Aut(G) as every bijection fixing 0 that preserves the table: the
        # engine lists exactly these, and the strong generating set gives
        # their number and orbits
        for n in range(1, 9):
            for g in groups_of_order(n):
                t = g.table
                auts = {
                    phi
                    for phi in ((0,) + rest for rest in permutations(range(1, n)))
                    if all(phi[t[a][b]] == t[phi[a]][phi[b]] for a in range(n) for b in range(n))
                }
                listed = list(isomorphisms(g, g))
                assert len(listed) == len(auts) and set(listed) == auts, g.name
                size, least = automorphism_orbits(g)
                assert size == len(auts), g.name
                assert least == _least_of_orbits(auts, n), g.name
                assert g.orbit_minima == tuple(x for x in range(n) if least[x] == x)

    def test_orbits_match_listing(self):
        # every other catalogue group but Z2^4, whose 20,160 automorphisms
        # alone take 0.4 s to list, ten times the rest
        for n in range(9, 17):
            for g in groups_of_order(n):
                if g.name == "Z2xZ2xZ2xZ2":
                    continue
                auts = list(isomorphisms(g, g))
                size, least = automorphism_orbits(g)
                assert size == len(auts) == len(set(auts)), g.name
                assert least == _least_of_orbits(auts, n), g.name

    def test_isomorphisms_between_relabelled_copies(self, rng):
        # onto a relabelled copy, each yield is an isomorphism, and there are
        # |Aut(G)| of them
        for n in range(2, 13):
            for g in groups_of_order(n):
                perm = [0] + rng.sample(range(1, n), n - 1)
                table = [[0] * n for _ in range(n)]
                for a in range(n):
                    for b in range(n):
                        table[perm[a]][perm[b]] = perm[g.table[a][b]]
                h = group_from_table(table)
                maps = list(isomorphisms(g, h))
                assert len(set(maps)) == len(maps) == automorphism_orbits(g)[0]
                for phi in maps:
                    assert all(
                        phi[g.table[a][b]] == h.table[phi[a]][phi[b]]
                        for a in range(n)
                        for b in range(n)
                    )


class TestCatalogue:
    def test_counts(self):
        assert [len(groups_of_order(n)) for n in range(1, 17)] == GROUP_COUNTS

    def test_pairwise_non_isomorphic_order_16(self):
        cat = groups_of_order(16)
        for i, g in enumerate(cat):
            for h in cat[i + 1 :]:
                assert not isomorphic(g, h), (g.name, h.name)

    def test_cauchy_census(self):
        # for every prime p dividing the order there is an element of order p
        for n in range(1, 17):
            for g in groups_of_order(n):
                for p in (2, 3, 5, 7, 11, 13):
                    if n % p == 0:
                        assert p in g.element_orders, (g.name, p)

    def test_out_of_range(self):
        with pytest.raises(OrderUnsupported):
            groups_of_order(17)

    def test_brute_force_oracle_orders_6_and_8(self):
        # independent re-derivation: enumerate ALL associative latin squares
        # with identity (= group tables) and class them by order statistics
        for n, expected_tables, expected_classes in ((6, 80, 2), (8, 2760, 5)):
            tables = _all_group_tables(n)
            assert len(tables) == expected_tables
            classes = {}
            for t in tables:
                classes.setdefault(_orders_multiset(t), []).append(t)
            assert len(classes) == expected_classes
            # each class is isomorphic to exactly one catalogue entry
            cat = groups_of_order(n)
            for ms, members in classes.items():
                rep = group_from_table(members[0])
                matches = [g for g in cat if isomorphic(rep, g)]
                assert len(matches) == 1


class TestAbelianEnumeration:
    def test_counts(self):
        assert len(abelian_groups_of_order(12)) == 2
        assert len(abelian_groups_of_order(16)) == 5
        assert len(abelian_groups_of_order(64)) == 11

    def test_invariant_factors_of_12(self):
        assert abelian_invariant_factor_lists(12) == [[2, 6], [12]]

    def test_all_validate_and_distinct(self):
        for n in (8, 24, 36):
            gs = abelian_groups_of_order(n)
            stats = {tuple(sorted(g.element_orders)) for g in gs}
            assert len(stats) == len(gs)

    def test_guard(self):
        with pytest.raises(OrderUnsupported):
            abelian_groups_of_order(65)


class TestSpecsAndFiles:
    def test_specs(self):
        assert parse_group_spec("cyclic:12").order == 12
        assert parse_group_spec("dihedral:6").order == 12
        assert parse_group_spec("abelian:2,6").order == 12
        assert parse_group_spec("dicyclic:3").order == 12
        assert parse_group_spec("product:cyclic:2+cyclic:3").order == 6

    def test_bad_spec(self):
        with pytest.raises(ParameterOutOfRange):
            parse_group_spec("frobnicate:3")
        with pytest.raises(ParameterOutOfRange):
            parse_group_spec("cyclic:x")

    def test_nonpositive_abelian_factor(self):
        # a zero factor must not reach the divisor-chain test as a divisor
        for spec in ("abelian:0,3", "abelian:3,0", "abelian:-2,4"):
            with pytest.raises(ParameterOutOfRange):
                parse_group_spec(spec)

    def test_file_roundtrip(self, tmp_path):
        g = dihedral(4)
        path = tmp_path / "d8.grp"
        path.write_text(format_group_file(g))
        h = parse_group_spec(f"file:{path}")
        assert h.order == 8 and isomorphic(g, h)

    def test_bad_file(self):
        with pytest.raises(NotLatin):
            parse_group_file("2\n0 1\n1 1\n")


class TestOpposite:
    def test_opposite_of_nonabelian(self):
        g = dihedral(3)
        h = opposite(g)
        assert h.order == g.order
        for a in range(6):
            for b in range(6):
                assert h.table[a][b] == g.table[b][a]
        assert isomorphic(g, h)  # inversion is an isomorphism onto the opposite


def _orders_multiset(table):
    n = len(table)
    out = []
    for a in range(n):
        x, m = a, 1
        while x != 0:
            x = table[x][a]
            m += 1
        out.append(m)
    return tuple(sorted(out))


def _all_group_tables(n):
    """Every group Cayley table on 0..n-1 with identity 0.

    Rows of such a table are permutations that pairwise disagree everywhere,
    and closure of the row set under composition is exactly associativity, so
    the search walks row generators and closes.
    """
    rows = [None] * n
    rows[0] = tuple(range(n))
    col_used = [{x} for x in range(n)]
    out = []

    def assign(perm):
        rows[perm[0]] = perm
        for x in range(n):
            col_used[x].add(perm[x])

    def unassign(perm):
        rows[perm[0]] = None
        for x in range(n):
            col_used[x].discard(perm[x])

    def close():
        added = []
        changed = True
        while changed:
            changed = False
            present = [r for r in rows if r is not None]
            for rg in present:
                for rh in present:
                    prod = tuple(rg[rh[x]] for x in range(n))
                    cur = rows[prod[0]]
                    if cur is None:
                        if any(prod[x] in col_used[x] for x in range(n)):
                            for p in reversed(added):
                                unassign(p)
                            return False, []
                        assign(prod)
                        added.append(prod)
                        changed = True
                    elif cur != prod:
                        for p in reversed(added):
                            unassign(p)
                        return False, []
        return True, added

    def candidates(a):
        q = [a] + [-1] * (n - 1)
        used = {a}
        res = []

        def rec(x):
            if x == n:
                res.append(tuple(q))
                return
            for v in range(n):
                if v in used or v in col_used[x]:
                    continue
                q[x] = v
                used.add(v)
                rec(x + 1)
                used.discard(v)
                q[x] = -1

        rec(1)
        return res

    def search():
        a = next((i for i in range(n) if rows[i] is None), None)
        if a is None:
            out.append(tuple(tuple(r[c] for c in range(n)) for r in rows))
            return
        for q in candidates(a):
            assign(q)
            ok, added = close()
            if ok:
                search()
                for p in reversed(added):
                    unassign(p)
            unassign(q)

    search()
    return out
