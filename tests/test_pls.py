import hashlib
import os
import threading
from itertools import combinations, permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cayley_embed import (
    ALL_PARASTROPHES,
    EmptyInput,
    LatinConflict,
    ParameterOutOfRange,
    Parastrophe,
    SizeLimitExceeded,
    SpeciesKey,
    TRANSPOSE,
    canonical_form,
    enumerate_species,
    fixtures,
    format_grid,
    format_species_file,
    format_triples,
    gen_delta,
    gen_diagonal,
    gen_evans,
    gen_row_cycle,
    parastrophe,
    parse_grid,
    parse_pls,
    parse_species_file,
    parse_triples,
    row_cycle_length,
    sub_species_contains,
    validate_pls,
)
from cayley_embed.pls import _box_symmetries, _extensions, _greatest_profile, _LeastEncoding
from cayley_embed.verify import random_pls, scramble


@st.composite
def pls_strategy(draw, max_size=6):
    size = draw(st.integers(1, max_size))
    triples = []
    rc, rs, cs = set(), set(), set()
    rows = cols = syms = 0
    for _ in range(4 * size):
        if len(triples) == size:
            break
        r = draw(st.integers(1, rows + 1))
        c = draw(st.integers(1, cols + 1))
        s = draw(st.integers(1, syms + 1))
        if (r, c) in rc or (r, s) in rs or (c, s) in cs:
            continue
        triples.append((r, c, s))
        rc.add((r, c))
        rs.add((r, s))
        cs.add((c, s))
        rows, cols, syms = max(rows, r), max(cols, c), max(syms, s)
    return validate_pls(triples)


class TestValidate:
    def test_single_cell(self):
        p = validate_pls([(1, 1, 1)])
        assert p.size == 1 and p.order == 1

    def test_repeated_symbol_in_row(self):
        with pytest.raises(LatinConflict) as exc:
            validate_pls([(1, 1, 1), (1, 2, 1)])
        assert exc.value.pair == ("row", "sym")

    def test_duplicate_cell(self):
        with pytest.raises(LatinConflict):
            validate_pls([(1, 1, 1), (1, 1, 2)])

    def test_column_symbol_clash(self):
        with pytest.raises(LatinConflict) as exc:
            validate_pls([(1, 1, 1), (2, 1, 1)])
        assert exc.value.pair == ("col", "sym")

    def test_empty(self):
        with pytest.raises(EmptyInput):
            validate_pls([])

    def test_bad_ids(self):
        with pytest.raises(ValueError):
            validate_pls([(0, 1, 1)])

    def test_quadcrit_shape(self):
        # 3 rows, 3 columns, 4 symbols: order 4
        qa = fixtures()["quadcrit_a"]
        assert qa.size == 7
        assert (qa.n_rows, qa.n_cols, qa.n_syms) == (3, 3, 4)
        assert qa.order == 4

    def test_dense_relabelling_first_appearance(self):
        p = validate_pls([(5, 7, 9), (5, 2, 4)])
        assert p.triples == ((1, 1, 1), (1, 2, 2))

    @given(pls_strategy())
    def test_revalidation_preserves_shape_and_species(self, p):
        q = validate_pls(p.triples)
        assert (q.n_rows, q.n_cols, q.n_syms, q.size) == (p.n_rows, p.n_cols, p.n_syms, p.size)
        assert canonical_form(q) == canonical_form(p)


class TestParastrophe:
    def test_identity(self):
        p = fixtures()["nonab"]
        assert parastrophe(p, ALL_PARASTROPHES[0]) == p

    def test_transpose_keeps_species(self):
        c2 = gen_row_cycle(2)
        assert canonical_form(parastrophe(c2, TRANSPOSE)) == canonical_form(c2)

    def test_row_sym_involution(self):
        p = fixtures()["interesting"]
        sigma = Parastrophe((2, 1, 0))
        assert parastrophe(parastrophe(p, sigma), sigma) == p

    def test_composition_is_s3(self):
        # 2 rows, 3 columns and 4 symbols: the six images of p are distinct,
        # and applying two parastrophes in turn gives one of them
        p = validate_pls([(1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 4)])
        images = {parastrophe(p, s) for s in ALL_PARASTROPHES}
        assert len(images) == 6
        for a, b in product(ALL_PARASTROPHES, repeat=2):
            assert parastrophe(parastrophe(p, b), a) in images
        ident = ALL_PARASTROPHES[0]
        for a in ALL_PARASTROPHES:
            q = parastrophe(p, a)
            assert parastrophe(parastrophe(p, ident), a) == q == parastrophe(q, ident)

    @given(pls_strategy())
    def test_apply_matches_composition(self, p):
        # b then a is the parastrophe that reads b's roles through a's
        a, b = ALL_PARASTROPHES[3], ALL_PARASTROPHES[4]
        ab = Parastrophe(tuple(b.perm[k] for k in a.perm))
        assert parastrophe(parastrophe(p, b), a) == parastrophe(p, ab)


class TestCanonicalForm:
    def test_invariance_samples(self, rng):
        for _ in range(300):
            p = random_pls(rng)
            assert canonical_form(scramble(rng, p)) == canonical_form(p)

    def test_evans_mirror_species(self):
        assert canonical_form(gen_evans(6, 2)) == canonical_form(gen_evans(6, 4))
        assert canonical_form(gen_evans(6, 1)) != canonical_form(gen_evans(6, 2))

    def test_key_roundtrip_idempotent(self):
        for size, reps in enumerate_species(4).items():
            for rep in reps:
                key = canonical_form(rep)
                assert canonical_form(key.to_pls()) == key

    def test_key_hex_roundtrip(self):
        key = canonical_form(gen_diagonal(3))
        assert SpeciesKey.from_hex(key.hex()) == key

    def test_key_is_least_encoding(self):
        # the key's definition, by brute force: least encoding over every
        # parastrophe, row order and column order, with symbols labelled by
        # first appearance in (row, col) order
        def least_encoding(p):
            best = None
            for sigma in ALL_PARASTROPHES:
                q = parastrophe(p, sigma)
                for rows in permutations(range(1, q.n_rows + 1)):
                    for cols in permutations(range(1, q.n_cols + 1)):
                        cells = sorted((rows[t.row - 1], cols[t.col - 1], t.sym) for t in q.triples)
                        syms: dict[int, int] = {}
                        enc = bytes(
                            x for r, c, s in cells for x in (r, c, syms.setdefault(s, len(syms) + 1))
                        )
                        if best is None or enc < best:
                            best = enc
            return best

        squares = [p for reps in enumerate_species(4).values() for p in reps]
        squares += [gen_row_cycle(k) for k in range(2, 5)]
        for p in squares:
            assert canonical_form(p).blob == least_encoding(p), format_triples(p)


class TestEnumeration:
    def test_counts_to_five(self):
        counts = {m: len(v) for m, v in enumerate_species(5).items()}
        assert counts == {1: 1, 2: 2, 3: 5, 4: 18, 5: 59}

    def test_keys_to_seven_are_pinned(self):
        # SHA-256 over the keys of sizes 1..7 in order: any change to a key,
        # to the set of representatives or to their order moves it
        digest = hashlib.sha256()
        for reps in enumerate_species(7).values():
            for p in reps:
                digest.update(canonical_form(p).blob)
        assert digest.hexdigest() == (
            "b7cc4582bbf408f8f5e1b34061a949892ddde31f0013dcfa57a1bf8d54fa86e5"
        )

    def test_representatives_are_their_own_keys(self):
        # psi and screen_size take a representative's encoding as its key
        for reps in enumerate_species(7).values():
            for p in reps:
                assert canonical_form(p).blob == bytes(x for t in p.triples for x in t)

    def test_pruning_symmetries_are_symmetries(self, rng):
        # enumeration extends a parent once per orbit of the autotopisms and
        # autoparatopisms its key search records, and of the swaps of its
        # pendant cells; each must map the square onto itself and its grown
        # box onto itself, new lines onto new lines
        found = {"autos": 0, "paras": 0, "swaps": 0}
        for reps in enumerate_species(6).values():
            for rep in reps:
                for p in [rep, scramble(rng, rep), scramble(rng, rep)]:
                    enc = _LeastEncoding(p.triples)
                    symmetries = _box_symmetries(p, enc)
                    found["autos"] += len(enc.autos)
                    found["paras"] += len(enc.paras)
                    found["swaps"] += len(symmetries) - len(enc.autos) - len(enc.paras)
                    counts = (p.n_rows, p.n_cols, p.n_syms)
                    added = {t for _, t in _extensions(p)}
                    for g in symmetries:
                        assert sorted(g.to) == [0, 1, 2]
                        for k in range(3):
                            image = counts[g.to[k]]
                            assert sorted(g.maps[k][1:]) == list(range(1, image + 2))
                            assert g.maps[k][counts[k] + 1] == image + 1
                        assert {g.image(t) for t in p.triples} == set(p.triples)
                        assert {g.image(t) for t in added} == added
        assert found["autos"] and found["paras"] and found["swaps"]

    def test_levels_decode_as_to_pls(self):
        # a level decodes its keys without validation; every representative
        # must be what SpeciesKey.to_pls makes of its key
        for reps in enumerate_species(7).values():
            for p in reps:
                assert p == SpeciesKey(bytes(x for t in p.triples for x in t)).to_pls()

    def test_cold_enumeration_key_count(self):
        # a child is keyed only when its added triple has the greatest
        # profile, and no deletion is keyed, and a parent is extended once
        # per orbit of the symmetries its key search finds and the swaps of
        # its pendant cells; the saved levels go back so that later tests
        # keep the representatives that screening caches
        from cayley_embed import pls

        saved = list(pls._species_levels)
        pls._species_levels.clear()
        try:
            runs = _LeastEncoding.runs
            enumerate_species(7)
            assert _LeastEncoding.runs - runs == 2896
        finally:
            pls._species_levels[:] = saved

    def test_profile_bound_keeps_every_kept_child(self):
        # _extensions drops box triples below the parent's greatest profile;
        # none of them would have the greatest profile of its child
        dropped = 0
        for reps in enumerate_species(5).values():
            for p in reps:
                box = [
                    (r, c, s)
                    for r in range(1, p.n_rows + 2)
                    for c in range(1, p.n_cols + 2)
                    for s in range(1, p.n_syms + 2)
                ]
                kept = set()
                for t in box:
                    cells = tuple(sorted(p.triples + (t,)))
                    try:
                        validate_pls(cells)
                    except LatinConflict:
                        continue
                    if _greatest_profile(cells, t):
                        kept.add(t)
                offered = {t for _, t in _extensions(p)}
                assert kept <= offered
                dropped += len(box) - len(offered)
        assert dropped

    def _build(self, monkeypatch, cpus, top):
        """Levels 1..top built afresh as if `cpus` CPUs were free, the keys
        computed, and the number of forks."""
        from cayley_embed import pls

        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "fork", counted_fork)
        saved = list(pls._species_levels)
        pls._species_levels.clear()
        try:
            runs = _LeastEncoding.runs
            levels = enumerate_species(top)
            return levels, _LeastEncoding.runs - runs, len(forks)
        finally:
            pls._species_levels[:] = saved

    def test_forked_build_matches_one_process(self, monkeypatch):
        assert threading.active_count() == 1
        one, one_runs, one_forks = self._build(monkeypatch, 1, 6)
        three, three_runs, three_forks = self._build(monkeypatch, 3, 6)
        assert one == three
        assert one_runs == three_runs
        # levels of 2, 5, 18 and 59 parents fork 1, 2, 2 and 2 children
        assert (one_forks, three_forks) == (0, 7)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("where", ["child", "caller"])
    def test_failed_share_raises_and_leaves_no_child(self, monkeypatch, where):
        from cayley_embed import pls

        caller = os.getpid()
        share_keys = pls._share_keys
        enumerate_species(3)

        def failing(parents):
            if (os.getpid() == caller) == (where == "caller"):
                raise ZeroDivisionError("planted")
            return share_keys(parents)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(pls, "_share_keys", failing)
        saved = list(pls._species_levels)
        pls._species_levels[:] = saved[:3]
        try:
            expected = RuntimeError if where == "child" else ZeroDivisionError
            with pytest.raises(expected, match="status 1" if where == "child" else "planted"):
                enumerate_species(5)
            assert pls._species_levels == saved[:3]
        finally:
            pls._species_levels[:] = saved
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_size_guard(self):
        with pytest.raises(SizeLimitExceeded):
            enumerate_species(9)
        with pytest.raises(ValueError):
            enumerate_species(0)

    def test_representatives_are_canonical_and_sorted(self):
        reps = enumerate_species(3)[3]
        keys = [canonical_form(p) for p in reps]
        assert keys == sorted(keys)
        assert all(k.to_pls() == p for k, p in zip(keys, reps))

    def test_brute_force_cross_check_small(self):
        # every PLS with <= 3 cells inside a 3x3 grid on <= 3 symbols
        cells = [(r, c) for r in range(1, 4) for c in range(1, 4)]
        seen = {1: set(), 2: set(), 3: set()}
        for k in range(1, 4):
            for chosen in combinations(cells, k):
                for syms in product(range(1, 4), repeat=k):
                    triples = [(r, c, s) for (r, c), s in zip(chosen, syms)]
                    try:
                        p = validate_pls(triples)
                    except LatinConflict:
                        continue
                    seen[k].add(canonical_form(p))
        assert {k: len(v) for k, v in seen.items()} == {1: 1, 2: 2, 3: 5}


class TestSubSpecies:
    def test_quadcrit_contains_nonab(self):
        fx = fixtures()
        assert sub_species_contains(fx["quadcrit_a"], fx["nonab"])

    def test_reflexive(self):
        p = fixtures()["quadcrit_a"]
        assert sub_species_contains(p, p)

    def test_c2_does_not_contain_quadcrit(self):
        assert not sub_species_contains(gen_row_cycle(2), fixtures()["quadcrit_a"])

    def test_quadcrit_has_no_intercalate(self):
        assert not sub_species_contains(fixtures()["quadcrit_a"], gen_row_cycle(2))


class TestGenerators:
    def test_evans_structure(self):
        p = gen_evans(6, 2)
        assert p.size == 6 and p.n_syms == 6
        cells = p.cell_map()
        # row 1 carries symbols 1..2; the last column carries 3..6
        assert cells[(1, 1)] == 1 and cells[(1, 2)] == 2
        last = p.n_cols
        assert sorted(cells[(r, c)] for (r, c) in cells if c == last) == [3, 4, 5, 6]

    def test_sizes(self):
        assert gen_evans(7, 3).size == 7
        assert gen_diagonal(4).size == 4
        assert gen_row_cycle(5).size == 10
        assert gen_delta(9).size == 9

    def test_diagonal_distinct_symbols(self):
        p = gen_diagonal(4)
        assert p.n_rows == p.n_cols == p.n_syms == 4

    def test_row_cycle_shape(self):
        c2 = gen_row_cycle(2)
        assert c2.triples == ((1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1))

    def test_delta_multiplicities(self):
        p = gen_delta(8)
        from collections import Counter

        assert sorted(Counter(t.sym for t in p.triples).values()) == [3, 5]

    def test_parameter_guards(self):
        with pytest.raises(ParameterOutOfRange):
            gen_evans(5, 5)
        with pytest.raises(ParameterOutOfRange):
            gen_evans(5, 0)
        with pytest.raises(ParameterOutOfRange):
            gen_diagonal(0)
        with pytest.raises(ParameterOutOfRange):
            gen_row_cycle(1)
        with pytest.raises(ParameterOutOfRange):
            gen_delta(3)


class TestRowCycleDetection:
    def test_direct(self):
        assert row_cycle_length(gen_row_cycle(3)) == 3

    def test_transpose_detected(self):
        assert row_cycle_length(parastrophe(gen_row_cycle(4), TRANSPOSE)) == 4

    def test_non_cycle(self):
        assert row_cycle_length(fixtures()["nonab"]) is None
        assert row_cycle_length(gen_diagonal(4)) is None


class TestFixtures:
    def test_sixteen_valid_entries(self):
        fx = fixtures()
        assert len(fx) == 16
        for name, p in fx.items():
            assert validate_pls(p.triples) == p, name

    def test_known_shapes(self):
        fx = fixtures()
        assert fx["nonab"].size == 6 and fx["nonab"].order == 4
        assert fx["order4"].size == 7
        assert fx["noninterc"].size == 4
        assert fx["interesting"].n_cols == 6


class TestFormats:
    def test_triples_roundtrip(self):
        p = fixtures()["quadcrit_b"]
        assert parse_triples(format_triples(p)) == p

    def test_grid_roundtrip(self):
        p = fixtures()["interesting"]
        assert canonical_form(parse_grid(format_grid(p))) == canonical_form(p)

    def test_auto_detect(self):
        grid = "a b .\n. a b\n"
        assert parse_pls(grid) == parse_grid(grid)
        tl = "1 1 1\n2 2 2\n"
        assert parse_pls(tl) == parse_triples(tl)

    def test_species_file_roundtrip(self):
        reps = enumerate_species(3)[3]
        text = format_species_file(reps)
        assert parse_species_file(text) == reps

    def test_ragged_grid_rejected(self):
        with pytest.raises(ValueError):
            parse_grid("a b\nc\n")

    @given(pls_strategy())
    def test_both_formats_preserve_species(self, p):
        key = canonical_form(p)
        assert canonical_form(parse_triples(format_triples(p))) == key
        assert canonical_form(parse_grid(format_grid(p))) == key
