import hashlib
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


def run_error(capsys, *argv):
    """Run a failing command: nothing on stdout, one ``error:`` line on stderr."""
    code, out, err = run(capsys, *argv)
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1, err
    return code, err


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
        assert run_error(capsys, "species", "--max-size", "0")[0] == 2
        assert run_error(capsys, "species", "--max-size", "9")[0] == 2

    def test_unwritable_out_exits_3(self, capsys, tmp_path):
        path = tmp_path / "taken"
        path.write_text("")
        code, err = run_error(capsys, "species", "--max-size", "2", "--out", str(path))
        assert code == 3 and "cannot write" in err

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

    def test_exhausted_search_budget_exits_4(self, capsys, tmp_path, monkeypatch):
        from cayley_embed import SearchLimitExceeded, cli

        def exhausted(*args, **kwargs):
            raise SearchLimitExceeded("embedding search exceeded 10 nodes")

        monkeypatch.setattr(cli, "find_embedding", exhausted)
        path = tmp_path / "single.pls"
        path.write_text("1 1 1\n")
        code, err = run_error(capsys, "embed", "--pls", str(path), "--group", "cyclic:5")
        assert code == 4 and "search budget exhausted" in err

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
        code, err = run_error(capsys, "embed", "--pls", str(path), "--group", "cyclic:5")
        assert code == 3 and "cannot parse" in err

    def test_missing_file_exits_3(self, capsys):
        code, _ = run_error(capsys, "embed", "--pls", "/nonexistent.pls", "--group", "cyclic:5")
        assert code == 3

    def test_undecodable_file_exits_3(self, capsys, tmp_path):
        path = tmp_path / "binary.pls"
        path.write_bytes(b"\xff\xfe")
        code, err = run_error(capsys, "embed", "--pls", str(path), "--group", "cyclic:5")
        assert code == 3 and "cannot read" in err

    def test_bad_group_spec_exits_3(self, capsys, tmp_path):
        path = tmp_path / "p.pls"
        path.write_text("1 1 1\n")
        code, _ = run_error(capsys, "embed", "--pls", str(path), "--group", "weird:9")
        assert code == 3

    def test_zero_abelian_factor_exits_3(self, capsys, tmp_path):
        path = tmp_path / "p.pls"
        path.write_text("1 1 1\n")
        code, _ = run_error(capsys, "embed", "--pls", str(path), "--group", "abelian:0,3")
        assert code == 3


class TestScreen:
    def test_survivors(self, capsys):
        code, payload, _ = run_json(capsys, "screen", "--size", "4", "--n", "7")
        assert code == 0
        assert payload["results"]["count"] == 2

    def test_guard(self, capsys):
        assert run_error(capsys, "screen", "--size", "9", "--n", "7")[0] == 2
        assert run_error(capsys, "screen", "--size", "3", "--n", "0")[0] == 2


class TestPsi:
    def test_cyclic_five(self, capsys):
        code, payload, _ = run_json(capsys, "psi", "--n", "5", "--variant", "cyclic")
        assert code == 0
        assert payload["results"]["psi"] == 3
        assert len(payload["results"]["obstacles"]) == 1

    def test_incomplete_class(self, capsys):
        code, err = run_error(capsys, "psi", "--n", "20", "--variant", "group")
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

    def test_group_file_of_wrong_order_exits_2(self, capsys, tmp_path):
        from cayley_embed import cyclic as build_cyclic, format_group_file

        path = tmp_path / "z6.grp"
        path.write_text(format_group_file(build_cyclic(6)))
        code, _ = run_error(capsys, "psi", "--n", "5", "--groups", str(path), "--assume-complete")
        assert code == 2

    def test_zero_order_exits_2(self, capsys):
        assert run_error(capsys, "psi", "--n", "0")[0] == 2

    def test_uncatalogued_abelian_order_exits_2(self, capsys):
        assert run_error(capsys, "psi", "--variant", "abelian", "--n", "65")[0] == 2


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

    def test_unwritable_out_exits_3(self, capsys, tmp_path):
        code, err = run_error(capsys, "groups", "--spec", "dihedral:4", "--out", str(tmp_path))
        assert code == 3 and "cannot write" in err

    def test_needs_order_or_spec(self):
        with pytest.raises(SystemExit) as exc:
            main(["groups"])
        assert exc.value.code == 2

    def test_unsupported_order(self, capsys):
        assert run_error(capsys, "groups", "--order", "30")[0] == 2


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
        assert run_error(capsys, "diag-partition", "--group", "cyclic:5", "--partition", "3,3")[0] == 2
        assert run_error(capsys, "diag-partition", "--group", "cyclic:5", "--partition", "3,x")[0] == 3


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

    def test_reports_are_pinned(self, capsys, tmp_path):
        # SHA-256 over the stdout of one cheap call of each command, as text
        # and as JSON (timing dropped, tmp paths replaced): any change to a
        # printed line or a report field moves it
        path = tmp_path / "nonab.pls"
        path.write_text(format_triples(fixtures()["nonab"]))
        calls = [
            ("species", "--max-size", "3"),
            ("embed", "--pls", str(path), "--group", "dihedral:3"),
            ("embed", "--pls", str(path), "--group", "dihedral:3", "--count"),
            ("screen", "--size", "4", "--n", "7", "--verbose"),
            ("psi", "--n", "6", "--variant", "cyclic"),
            ("groups", "--order", "8"),
            ("groups", "--spec", "dihedral:4"),
            ("diag-partition", "--group", "cyclic:6", "--partition", "3,3"),
        ]
        digest = hashlib.sha256()
        for argv in calls:
            for extra in ((), ("--json",)):
                code, out, err = run(capsys, *argv, *extra)
                assert code == 0 and err == ""
                if extra:
                    report = json.loads(out)
                    report.pop("timing_ms")
                    out = json.dumps(report, sort_keys=True, indent=2)
                digest.update(out.replace(str(tmp_path), "<tmp>").encode())
        assert digest.hexdigest() == (
            "6f73c538cf9c7ed490929bcb68292b2d177855df2d04c4ce0fb6539040ca79f3"
        )


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
