import hashlib
import json

import jsonschema
import pytest

from cayley_embed import (
    ALL_PARASTROPHES,
    IncompleteClass,
    OrderExceedsN,
    PSI_RESULT_SCHEMA,
    ReductionCertificate,
    RowNotInP,
    Triple,
    TripleNotInP,
    abelian,
    canonical_form,
    cyclic,
    dihedral,
    direct_product,
    enumerate_species,
    find_embedding,
    fixtures,
    from_perm_generators,
    gen_diagonal,
    gen_evans,
    gen_row_cycle,
    groups_of_order,
    parastrophe,
    psi,
    reducible,
    removable_triple,
    row_cycle_length,
    screen_size,
    shift_line,
    sub_species_contains,
    validate_pls,
)


class TestRemovableTriple:
    def test_lone_row_with_column_support(self):
        p = validate_pls([(1, 1, 1), (2, 1, 2)])
        assert removable_triple(p, Triple(2, 1, 2), 5)

    def test_row_cycle_never_removable(self):
        c2 = gen_row_cycle(2)
        for t in c2.triples:
            assert not removable_triple(c2, t, 5)

    def test_order_guard(self):
        p = gen_diagonal(6)
        with pytest.raises(OrderExceedsN):
            removable_triple(p, p.triples[0], 5)

    def test_missing_triple(self):
        p = validate_pls([(1, 1, 1)])
        with pytest.raises(TripleNotInP):
            removable_triple(p, Triple(2, 2, 2), 5)

    def test_condition_two_can_fail(self):
        # second row has no cell in the removed column nor the removed symbol
        p = validate_pls([(1, 1, 1), (2, 2, 2), (2, 3, 3)])
        assert not removable_triple(p, Triple(1, 1, 1), 9)


class TestShiftLine:
    def test_two_isolated_cells(self):
        p = validate_pls([(1, 1, 1), (2, 2, 2)])
        assert shift_line(p, 2, 3)

    def test_threshold_on_n(self):
        p = validate_pls([(1, 1, 1), (2, 2, 2)])
        assert not shift_line(p, 2, 2)  # |C| + |S| - l = 3 > 2

    def test_row_cycle_shares_columns_and_symbols(self):
        assert not shift_line(gen_row_cycle(2), 1, 10)

    def test_missing_row(self):
        with pytest.raises(RowNotInP):
            shift_line(gen_row_cycle(2), 3, 10)

    def test_monotone_in_n(self):
        # conditions (ii) and (iii) are lower bounds on n
        species = enumerate_species(5)
        for size in (3, 4, 5):
            for rep in species[size][::4]:
                for row in range(1, rep.n_rows + 1):
                    for n0 in range(rep.order, rep.order + 4):
                        if shift_line(rep, row, n0):
                            for k in range(1, 6):
                                assert shift_line(rep, row, n0 + k)


class TestReducible:
    def test_c2_is_never_reducible(self):
        c2 = gen_row_cycle(2)
        for n in range(2, 20):
            assert reducible(c2, n) is None

    def test_noninterc_survives_at_seven(self):
        assert reducible(fixtures()["noninterc"], 7) is None

    def test_every_size3_species_reduces_at_five(self):
        for rep in enumerate_species(3)[3]:
            assert reducible(rep, 5) is not None

    def test_certificate_reverifies(self):
        for rep in enumerate_species(4)[4]:
            cert = reducible(rep, 8)
            if cert is None:
                continue
            image = parastrophe(rep, cert.sigma)
            assert set(cert.removed) <= set(image.triples)
            rest = sorted(set(image.triples) - set(cert.removed))
            if cert.reduced is None:
                assert not rest
            else:
                assert validate_pls(rest) == cert.reduced
            if cert.rule == "removable-triple":
                assert removable_triple(image, cert.removed[0], cert.n)
            else:
                row = cert.removed[0].row
                assert all(t.row == row for t in cert.removed)
                assert shift_line(image, row, cert.n)

    def test_single_triple_reduces_to_empty(self):
        cert = reducible(validate_pls([(1, 1, 1)]), 1)
        assert cert is not None and cert.reduced is None

    def test_matches_first_certificate_scan(self):
        # reducible answers from a plan built once per square; the reference
        # is the scan it replaces, run afresh at every n
        species = enumerate_species(6)
        for size in range(1, 7):
            for rep in species[size]:
                want = {n: _first_certificate(rep, n) for n in range(1, 31)}
                for n in [*range(30, 0, -1), *range(1, 31)]:
                    assert reducible(rep, n) == want[n], (rep.triples, n)


def _first_certificate(p, n):
    for sigma in ALL_PARASTROPHES:
        q = parastrophe(p, sigma)
        if q.order <= n:
            for t in q.triples:
                if removable_triple(q, t, n):
                    rest = [u for u in q.triples if u != t]
                    reduced = validate_pls(sorted(rest)) if rest else None
                    return ReductionCertificate("removable-triple", sigma, (t,), reduced, n)
        for row in range(1, q.n_rows + 1):
            if shift_line(q, row, n):
                line = tuple(u for u in q.triples if u.row == row)
                rest = [u for u in q.triples if u.row != row]
                reduced = validate_pls(sorted(rest)) if rest else None
                return ReductionCertificate("shift-line", sigma, line, reduced, n)
    return None


class TestScreenSize:
    def test_size4_order7_survivors(self):
        got = set(screen_size(4, 7))
        want = {
            canonical_form(gen_row_cycle(2)),
            canonical_form(fixtures()["noninterc"]),
        }
        assert got == want

    def test_fast_path_eliminates_diagonal(self):
        # T_5 reduces only from n = 9, but is within the transversal bound 6 at
        # n = 8; T_7 at n = 7 is past the bound 5 and needs n = 13 to reduce
        assert canonical_form(gen_diagonal(5)) not in screen_size(5, 8)
        assert find_embedding(gen_diagonal(5), cyclic(8)).method == "transversal-bound"
        assert canonical_form(gen_diagonal(7)) in screen_size(7, 7)
        assert find_embedding(gen_diagonal(7), cyclic(7)).method == "search"

    def test_guards(self):
        with pytest.raises(ValueError):
            screen_size(8, 10)
        with pytest.raises(ValueError):
            screen_size(0, 10)


class TestPsi:
    def test_small_odd(self):
        r = psi(5, "group")
        assert r.psi == 3
        assert {o.species_key for o in r.obstacles} == {canonical_form(gen_row_cycle(2))}
        assert r.obstacles[0].certificate["kind"] == "row-cycle"

    def test_order_two(self):
        r = psi(2, "cyclic")
        assert r.psi == 1
        assert {o.species_key for o in r.obstacles} == {canonical_form(gen_diagonal(2))}

    def test_order_one_has_two_obstacles(self):
        r = psi(1, "group")
        assert r.psi == 1 and len(r.obstacles) == 2

    def test_n4_cyclic_includes_diagonal(self):
        r = psi(4, "cyclic")
        keys = {o.species_key for o in r.obstacles}
        assert canonical_form(gen_diagonal(4)) in keys
        assert keys == {
            canonical_form(gen_evans(4, 1)),
            canonical_form(gen_evans(4, 2)),
            canonical_form(gen_diagonal(4)),
        }

    def test_incomplete_class(self):
        with pytest.raises(IncompleteClass):
            psi(20, "group")
        with pytest.raises(IncompleteClass):
            psi(20, "group", groups_of_order(16))  # wrong order AND unasserted class

    def test_explicit_class_with_assume_complete(self):
        r = psi(5, "group", [cyclic(5)], assume_complete=True)
        assert r.psi == 3

    def test_default_class_is_built_once(self):
        from cayley_embed.screening import default_group_class

        for variant in ("group", "abelian", "cyclic"):
            first = default_group_class(12, variant)
            names = [g.name for g in first]
            first.clear()  # each call returns its own list
            again = default_group_class(12, variant)
            assert [g.name for g in again] == names
            assert all(a is b for a, b in zip(again, default_group_class(12, variant)))

    def test_json_schema(self):
        payload = psi(5, "cyclic").to_json()
        jsonschema.validate(payload, PSI_RESULT_SCHEMA)

    def test_cross_validation_pure_search(self):
        # identical results with all screening disabled
        for n in range(1, 9):
            a = psi(n, "group")
            b = psi(n, "group", use_screening=False)
            assert a.psi == b.psi
            assert {o.species_key for o in a.obstacles} == {o.species_key for o in b.obstacles}
            assert a.survivor_counts != {} and b.survivor_counts[1] == 1

    def test_sweep_json_is_pinned(self):
        # SHA-256 over the JSON of every psi-sweep job, in order: any change to
        # a psi value, an obstacle, a certificate or a survivor count moves it
        jobs = [(n, "group", None) for n in range(1, 17)]
        jobs += [(n, v, None) for n in range(1, 25) for v in ("abelian", "cyclic")]

        # the five groups of order 18; (Z3 x Z3):Z2 acts on the points 3x + y
        def perm(fn):
            images = (fn(x, y) for x in range(3) for y in range(3))
            return tuple(3 * (a % 3) + b % 3 for a, b in images)

        gens = [perm(lambda x, y: (x + 1, y)), perm(lambda x, y: (x, y + 1)), perm(lambda x, y: (-x, -y))]
        order18 = [
            cyclic(18),
            abelian([3, 6]),
            dihedral(9),
            direct_product(dihedral(3), cyclic(3)),
            from_perm_generators(9, gens, name="(Z3xZ3):Z2"),
        ]
        jobs.append((18, "group", order18))
        digest = hashlib.sha256()
        for n, variant, groups in jobs:
            result = psi(n, variant, groups, assume_complete=groups is not None)
            digest.update(json.dumps(result.to_json(), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "5442ae60d188746d6a834e4a2e9492833f1d205a3118a97a74b45058062dd8a9"
        )

    def test_survivors_are_screen_sizes(self):
        # psi and screen_size settle species by one predicate, over every
        # catalogue job of the psi sweep
        jobs = [(n, "group") for n in range(1, 17)]
        jobs += [(n, v) for n in range(1, 25) for v in ("abelian", "cyclic")]
        for n, variant in jobs:
            for size, count in psi(n, variant).survivor_counts.items():
                assert count == len(screen_size(size, n)), (n, variant, size)

    def test_cold_records_key_no_remainders(self):
        # a reduction settles its species by psi's induction on size, so the
        # record build keys no remainder; only row_cycle_length keys squares
        from cayley_embed import pls, screening

        enumerate_species(7)
        screening._records.cache_clear()
        pls._canonical_blob.cache_clear()
        runs = pls._LeastEncoding.runs
        for size in range(1, 8):
            screening._records(size)
        assert pls._LeastEncoding.runs - runs <= 2

    def test_variant_ordering_invariant(self):
        # psi_circ <= psi_plus <= psi on a spread of orders
        for n in (2, 3, 4, 5, 6, 8, 9, 12):
            pc = psi(n, "cyclic").psi
            pa = psi(n, "abelian").psi
            pg = psi(n, "group").psi
            assert pc <= pa <= pg


class TestObstacleCertificates:
    def test_abelian_obstacles_recheck(self):
        # every abelian-variant obstacle is either a row cycle whose length
        # does not divide n or fails a fresh search over the whole class
        from cayley_embed import abelian_groups_of_order, parastrophe
        from cayley_embed.embed import quadrangle_violation

        for n in (6, 8, 12):
            r = psi(n, "abelian")
            assert r.obstacles
            for o in r.obstacles:
                assert o.representative.size == r.psi + 1
                kind = o.certificate["kind"]
                if kind == "row-cycle":
                    assert n % o.certificate["length"] != 0
                elif kind == "quadrangle":
                    sigma = ALL_PARASTROPHES[
                        [list(s.perm) for s in ALL_PARASTROPHES].index(
                            o.certificate["parastrophe"]
                        )
                    ]
                    assert quadrangle_violation(parastrophe(o.representative, sigma))
                else:
                    assert kind == "exhausted-search"
                    for g in abelian_groups_of_order(n):
                        assert not find_embedding(o.representative, g).embeddable


class TestReductionSoundness:
    def test_exhaustive_small(self):
        # reduced square embeddable => original embeddable, same group
        species = enumerate_species(4)
        for size in range(2, 5):
            for rep in species[size]:
                for n in range(1, 9):
                    cert = reducible(rep, n)
                    if cert is None:
                        continue
                    for g in groups_of_order(n):
                        if cert.reduced is not None and not find_embedding(cert.reduced, g).embeddable:
                            continue
                        assert find_embedding(rep, g).embeddable, (rep, n, g.name)


class TestOmegaMembers:
    def test_four_nonab_containing_survivors_embed_in_dihedral6(self):
        # the order-6 dihedral group hosts the Omega members that contain the
        # nonab square but are not quadrangle violations
        fx = fixtures()
        survivors = screen_size(7, 12)
        z6 = cyclic(6)
        omega = [
            k.to_pls()
            for k in survivors
            if not find_embedding(k.to_pls(), z6).embeddable
        ]
        assert len(omega) == 8
        quad = {canonical_form(fx["quadcrit_a"]), canonical_form(fx["quadcrit_b"])}
        d6 = dihedral(3)
        checked = 0
        for p in omega:
            if canonical_form(p) in quad or not sub_species_contains(p, fx["nonab"]):
                continue
            checked += 1
            assert find_embedding(p, d6).embeddable
        assert checked == 4
