"""Specification parsing and the command line front end."""

import json

import pytest

from bredon.cli import main
from bredon.complexes import builtin_block
from bredon.pullback import MAX_TOR_DEPTH
from bredon.specfile import MAX_POINT_GROUP_ORDER, SpecParseError, parse_spec

VW_SPEC = json.dumps({
    "point_group_order": 4,
    "blocks": ["line-minus", "line-minus", "plane-i", "plane-i"],
})

POINT_SPEC = json.dumps({"point_group_order": 4, "blocks": ["point"]})


def line_block_json():
    block = builtin_block("line-minus")
    return {
        "name": "interval",
        "dimension": 1,
        "cells": {"0": [4, 4], "1": [2]},
        "differentials": {"0": [list(r) for r in block.differentials[0].data]},
    }


class TestParseSpec:
    def test_valid(self):
        doc = parse_spec(VW_SPEC)
        assert doc.point_group.order == 4
        assert doc.block_names() == ["line-minus", "line-minus",
                                     "plane-i", "plane-i"]

    def test_empty_blocks(self):
        with pytest.raises(SpecParseError, match="at least one block"):
            parse_spec(json.dumps({"point_group_order": 4, "blocks": []}))

    def test_unknown_block(self):
        with pytest.raises(SpecParseError, match="unknown block"):
            parse_spec(json.dumps({"point_group_order": 4,
                                   "blocks": ["circle"]}))

    def test_bad_json(self):
        with pytest.raises(SpecParseError, match="not valid JSON"):
            parse_spec("{nope")

    def test_order_mismatch_with_catalog(self):
        with pytest.raises(SpecParseError, match="point group order"):
            parse_spec(json.dumps({"point_group_order": 2,
                                   "blocks": ["line-minus"]}))

    def test_unknown_option(self):
        with pytest.raises(SpecParseError, match="unknown option"):
            parse_spec(json.dumps({"point_group_order": 4,
                                   "blocks": ["point"],
                                   "options": {"fast": True}}))

    def test_custom_block_accepted(self):
        doc = parse_spec(json.dumps({
            "point_group_order": 4,
            "blocks": [line_block_json()],
        }))
        assert doc.block_names() == ["interval"]

    def test_custom_block_d_squared_rejected(self):
        ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        bad = {
            "name": "bad",
            "dimension": 2,
            "cells": {"0": [4], "1": [4], "2": [4]},
            "differentials": {"0": ident, "1": ident},
        }
        with pytest.raises(SpecParseError, match="d\\^2"):
            parse_spec(json.dumps({"point_group_order": 4, "blocks": [bad]}))

    def test_custom_block_bad_shape(self):
        bad = dict(line_block_json(), differentials={"0": [[0] * 8]})
        with pytest.raises(SpecParseError, match="differential must be"):
            parse_spec(json.dumps({"point_group_order": 4, "blocks": [bad]}))


def _with_entry(rows, value):
    rows = [list(r) for r in rows]
    rows[0][0] = value
    return rows


LINE_D0 = line_block_json()["differentials"]["0"]
# Each value is a JSON boolean, float or string where an integer belongs.
# Python's bool is an int subclass and int() truncates floats and parses
# strings, so an isinstance(x, int) or int(x) check reads each as 1.
NON_INTEGER_SPECS = {
    "point_group_order": (
        {"point_group_order": True, "blocks": ["point"]},
        "$.point_group_order"),
    "dimension": (
        {"point_group_order": 4,
         "blocks": [dict(line_block_json(), dimension=True)]},
        "$.blocks[0].dimension"),
    "cell_order": (
        {"point_group_order": 4,
         "blocks": [{"name": "pt", "dimension": 0, "cells": {"0": [True]}}]},
        "$.blocks[0].cells.0"),
    "differential_float": (
        {"point_group_order": 4,
         "blocks": [dict(line_block_json(),
                         differentials={"0": _with_entry(LINE_D0, 1.5)})]},
        "$.blocks[0].differentials.0"),
    "differential_string": (
        {"point_group_order": 4,
         "blocks": [dict(line_block_json(),
                         differentials={"0": _with_entry(LINE_D0, "1")})]},
        "$.blocks[0].differentials.0"),
    "tor_depth": (
        {"point_group_order": 4, "blocks": ["point"],
         "options": {"tor_depth": True}},
        "$.options.tor_depth"),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_SPECS))
def test_non_integer_rejected(name, tmp_path, capsys):
    doc, location = NON_INTEGER_SPECS[name]
    text = json.dumps(doc)
    with pytest.raises(SpecParseError) as info:
        parse_spec(text)
    assert info.value.location == location
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert main(["cohomology", str(path)]) == 2
    assert location in capsys.readouterr().err


@pytest.fixture()
def spec_file(tmp_path):
    def write(content):
        path = tmp_path / "spec.json"
        path.write_text(content)
        return str(path)
    return write


class TestCli:
    def test_blocks_command(self, capsys):
        assert main(["blocks"]) == 0
        out = capsys.readouterr().out
        for name in ("line-minus", "plane-i", "point"):
            assert name in out

    def test_ktheory_point_machine(self, spec_file, capsys):
        path = spec_file(POINT_SPEC)
        assert main(["ktheory", path, "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_theory"]["k0"] == {"free_rank": 4,
                                             "invariant_factors": []}
        assert payload["k_theory"]["k1"] == {"free_rank": 0,
                                             "invariant_factors": []}
        assert payload["k_theory"]["collapsed"] is True

    def test_cohomology_human(self, spec_file, capsys):
        path = spec_file(VW_SPEC)
        assert main(["cohomology", path]) == 0
        out = capsys.readouterr().out
        assert "H^0 = Z^42" in out

    def test_machine_report_roundtrip_and_determinism(self, spec_file, capsys):
        path = spec_file(POINT_SPEC)
        assert main(["ktheory", path, "--format", "machine"]) == 0
        first = capsys.readouterr().out
        assert main(["ktheory", path, "--format", "machine"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == first

    def test_output_file(self, spec_file, tmp_path):
        path = spec_file(POINT_SPEC)
        out_path = tmp_path / "report.json"
        assert main(["ktheory", path, "--format", "machine",
                     "--output", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["command"] == "ktheory"

    def test_parse_failure_exit_code(self, spec_file, capsys):
        path = spec_file(json.dumps({"point_group_order": 4, "blocks": []}))
        assert main(["cohomology", path]) == 2
        assert "at least one block" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        # unreadable path is a usage error, distinct from a parse failure
        assert main(["cohomology", "/definitely/not/here.json"]) == 1

    def test_usage_exit_code(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_verify_single_block_passes(self, spec_file, capsys):
        path = spec_file(POINT_SPEC)
        assert main(["verify", path]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_verify_line_pair_oracle_passes(self, spec_file, capsys):
        path = spec_file(json.dumps({
            "point_group_order": 4,
            "blocks": ["line-minus", "line-minus"],
            "options": {"oracle": True},
        }))
        assert main(["verify", path, "--tor-depth", "0"]) == 0
        out = capsys.readouterr().out
        assert "oracle for pair (line-minus, line-minus): ok" in out

    def test_verify_vafa_witten_reports_failures(self, spec_file, capsys):
        path = spec_file(VW_SPEC)
        assert main(["verify", path, "--oracle", "--tor-depth", "1"]) == 3
        out = capsys.readouterr().out
        assert "checks FAILED" in out

    def test_strict_cohomology_with_tor_depth_fails(self, spec_file, capsys):
        path = spec_file(VW_SPEC)
        assert main(["cohomology", path, "--tor-depth", "1"]) == 3
        assert "collapse certificate failed" in capsys.readouterr().err

    def test_custom_block_runs_like_builtin(self, spec_file, capsys):
        custom = json.dumps({
            "point_group_order": 4,
            "blocks": [line_block_json()],
        })
        path = spec_file(custom)
        assert main(["cohomology", path, "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cohomology"]["0"] == {"free_rank": 6,
                                              "invariant_factors": []}

    def test_e2_command(self, spec_file, capsys):
        path = spec_file(json.dumps({
            "point_group_order": 4,
            "blocks": ["line-minus", "line-minus"],
        }))
        assert main(["e2", path]) == 0
        out = capsys.readouterr().out
        assert "(p=0, q=0) = Z^10" in out
        assert "(p=1, q=0) = (Z/2)^2" in out


def fixed_point_spec(order, **options):
    """One inline fixed point over the cyclic point group of this order."""
    return json.dumps({
        "point_group_order": order,
        "blocks": [{"name": "pt", "dimension": 0, "cells": {"0": [order]}}],
        "options": options,
    })


class TestSpecLimits:
    # Oversize values are refused before any work starts, so the over-limit
    # cases are cheap; the at-limit cases run a single block, which has no
    # fold and therefore no resolution.
    def test_point_group_order_at_limit(self, spec_file, capsys):
        path = spec_file(fixed_point_spec(MAX_POINT_GROUP_ORDER))
        assert main(["cohomology", path, "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cohomology"]["0"]["free_rank"] == MAX_POINT_GROUP_ORDER

    def test_point_group_order_over_limit(self, spec_file, capsys):
        text = fixed_point_spec(MAX_POINT_GROUP_ORDER + 1)
        with pytest.raises(SpecParseError) as info:
            parse_spec(text)
        assert info.value.location == "$.point_group_order"
        assert main(["cohomology", spec_file(text)]) == 2
        assert "MAX_POINT_GROUP_ORDER = 64" in capsys.readouterr().err

    def test_tor_depth_at_limit(self, spec_file, capsys):
        path = spec_file(POINT_SPEC)
        assert main(["e2", path, "--tor-depth", str(MAX_TOR_DEPTH)]) == 0
        assert f"depth {MAX_TOR_DEPTH}" in capsys.readouterr().out
        path = spec_file(fixed_point_spec(4, tor_depth=MAX_TOR_DEPTH))
        assert main(["cohomology", path]) == 0

    @pytest.mark.parametrize("where", ["flag", "spec"])
    def test_tor_depth_over_limit(self, where, spec_file, capsys):
        if where == "flag":
            path = spec_file(POINT_SPEC)
            argv = ["e2", path, "--tor-depth", str(MAX_TOR_DEPTH + 1)]
        else:
            path = spec_file(fixed_point_spec(4, tor_depth=MAX_TOR_DEPTH + 1))
            argv = ["cohomology", path]
        assert main(argv) == 2
        assert "MAX_TOR_DEPTH = 8" in capsys.readouterr().err
