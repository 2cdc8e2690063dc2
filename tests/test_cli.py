import json

import jsonschema
import pytest

from cayley_embed import canonical_form, fixtures, format_triples, parse_species_file, verify
from cayley_embed.cli import RUN_REPORT_SCHEMA, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestSpecies:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "species", "--max-size", "3")
        assert code == 0
        assert "size 1: 1 species" in out
        assert "size 2: 2 species" in out
        assert "size 3: 5 species" in out

    def test_out_files_roundtrip(self, capsys, tmp_path):
        code, payload, _ = run_json(capsys, "species", "--max-size", "3", "--out", str(tmp_path))
        assert code == 0
        jsonschema.validate(payload, RUN_REPORT_SCHEMA)
        reps = parse_species_file((tmp_path / "species_3.pls").read_text())
        assert len(reps) == 5
        assert all(canonical_form(p).to_pls() == p for p in reps)

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "species", "--max-size", "0")
        assert code == 2

    def test_missing_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["species"])
        assert exc.value.code == 2


class TestEmbed:
    def test_embeddable_with_witness(self, capsys, tmp_path):
        path = tmp_path / "nonab.pls"
        path.write_text(format_triples(fixtures()["nonab"]))
        code, out, _ = run(capsys, "embed", "--pls", str(path), "--group", "dihedral:3")
        assert code == 0
        assert "embeddable in D6" in out
        assert "I1:" in out and "I3:" in out

    def test_not_embeddable_is_still_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "nonab.pls"
        path.write_text(format_triples(fixtures()["nonab"]))
        code, out, _ = run(capsys, "embed", "--pls", str(path), "--group", "abelian:2,3")
        assert code == 0
        assert "not embeddable" in out

    def test_count(self, capsys, tmp_path):
        path = tmp_path / "single.pls"
        path.write_text("1 1 1\n")
        code, payload, _ = run_json(
            capsys, "embed", "--pls", str(path), "--group", "cyclic:5", "--count"
        )
        assert code == 0 and payload["results"]["count"] == 25

    def test_grid_input(self, capsys, tmp_path):
        path = tmp_path / "grid.pls"
        path.write_text("a b .\n. a b\n")
        code, payload, _ = run_json(capsys, "embed", "--pls", str(path), "--group", "cyclic:5")
        assert code == 0 and payload["results"]["embeddable"] is True

    def test_parse_error_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.pls"
        path.write_text("1 1\n")
        code, _, err = run(capsys, "embed", "--pls", str(path), "--group", "cyclic:5")
        assert code == 3 and "cannot parse" in err

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run(capsys, "embed", "--pls", "/nonexistent.pls", "--group", "cyclic:5")
        assert code == 3

    def test_bad_group_spec_exits_3(self, capsys, tmp_path):
        path = tmp_path / "p.pls"
        path.write_text("1 1 1\n")
        code, _, err = run(capsys, "embed", "--pls", str(path), "--group", "weird:9")
        assert code == 3


class TestScreen:
    def test_survivors(self, capsys):
        code, payload, _ = run_json(capsys, "screen", "--size", "4", "--n", "7")
        assert code == 0
        assert payload["results"]["count"] == 2

    def test_guard(self, capsys):
        code, _, _ = run(capsys, "screen", "--size", "9", "--n", "7")
        assert code == 2


class TestPsi:
    def test_cyclic_five(self, capsys):
        code, payload, _ = run_json(capsys, "psi", "--n", "5", "--variant", "cyclic")
        assert code == 0
        assert payload["results"]["psi"] == 3
        assert len(payload["results"]["obstacles"]) == 1

    def test_incomplete_class(self, capsys):
        code, _, err = run(capsys, "psi", "--n", "20", "--variant", "group")
        assert code == 2 and "complete" in err

    def test_supplied_group_files(self, capsys, tmp_path):
        from cayley_embed import cyclic as build_cyclic, format_group_file

        path = tmp_path / "z5.grp"
        path.write_text(format_group_file(build_cyclic(5)))
        code, payload, _ = run_json(
            capsys,
            "psi", "--n", "5", "--variant", "group",
            "--groups", str(path), "--assume-complete",
        )
        assert code == 0 and payload["results"]["psi"] == 3

    def test_zero_order_exits_2(self, capsys):
        code, _, err = run(capsys, "psi", "--n", "0")
        assert code == 2 and err.startswith("error:") and len(err.splitlines()) == 1

    def test_uncatalogued_abelian_order_exits_2(self, capsys):
        code, _, err = run(capsys, "psi", "--variant", "abelian", "--n", "65")
        assert code == 2 and err.startswith("error:") and len(err.splitlines()) == 1


class TestGroups:
    def test_catalogue_listing(self, capsys):
        code, out, _ = run(capsys, "groups", "--order", "8")
        assert code == 0 and "5 groups of order 8" in out

    def test_spec_info_and_export(self, capsys, tmp_path):
        out_path = tmp_path / "d8.grp"
        code, out, _ = run(capsys, "groups", "--spec", "dihedral:4", "--out", str(out_path))
        assert code == 0 and out_path.exists()
        code2, out2, _ = run(capsys, "groups", "--spec", f"file:{out_path}")
        assert code2 == 0 and "order 8" in out2

    def test_needs_order_or_spec(self):
        with pytest.raises(SystemExit) as exc:
            main(["groups"])
        assert exc.value.code == 2

    def test_unsupported_order(self, capsys):
        code, _, err = run(capsys, "groups", "--order", "30")
        assert code == 2


class TestDiagPartition:
    def test_realisable(self, capsys):
        code, payload, _ = run_json(
            capsys, "diag-partition", "--group", "cyclic:6", "--partition", "3,3"
        )
        assert code == 0 and payload["results"]["realisable"] is True

    def test_not_realisable_is_exit_zero(self, capsys):
        code, payload, _ = run_json(
            capsys, "diag-partition", "--group", "cyclic:5", "--partition", "3,2"
        )
        assert code == 0 and payload["results"]["realisable"] is False

    def test_invalid_partition(self, capsys):
        code, _, _ = run(capsys, "diag-partition", "--group", "cyclic:5", "--partition", "3,3")
        assert code == 2


class TestReports:
    def test_json_deterministic_apart_from_timing(self, capsys):
        _, a, _ = run_json(capsys, "screen", "--size", "3", "--n", "6")
        _, b, _ = run_json(capsys, "screen", "--size", "3", "--n", "6")
        a.pop("timing_ms")
        b.pop("timing_ms")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_schema(self, capsys):
        _, payload, _ = run_json(capsys, "groups", "--order", "6")
        jsonschema.validate(payload, RUN_REPORT_SCHEMA)


class TestVerifyPaperQuick:
    def test_quick_run_reports_known_impossible_case(self, capsys):
        # the quick suite covers orders <= 8; survivor6_8 cannot embed in Z7
        # (its cells force 2*(c - a) = 0), so criterion 6 asserts the
        # exhaustive search's "not embeddable" there and the run passes
        code, payload, _ = run_json(capsys, "verify-paper", "--quick")
        assert code == 0
        assert payload["results"]["passed"] is True
        criteria = payload["results"]["criteria"]
        assert [c["ident"] for c in criteria] == [str(i) for i in range(1, 10)]
        assert all(c["passed"] and not c["failures"] for c in criteria)
        cases = {c.case: c.passed for c in verify.check_explicit_witnesses(True).cases}
        assert cases["survivor6_8 not in Z7"] is True
        assert "survivor6_8 in Z7" not in cases
