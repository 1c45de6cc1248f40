"""Byte-for-byte regression pin of the flagship reports.

``tests/data/vafa_witten.<command>.json`` hold the machine reports of
``specs/vafa_witten.json`` as the engine printed them before the Smith
coordinate rewrite of Tor and cohomology, and ``.txt`` beside them the
human reports of the same command lines.  They pin the reports, they do
not certify them: the tensor-fold answers they contain still carry the
known torsion defect (README, "Acceptance status").  A change that moves
the answer of record (ROADMAP item 1) regenerates these files with the
same commands and records the move in CHANGES.md.

``tests/data/z8.verify.json`` pins the machine report of ``verify
--tor-depth 2 --full-product-oracle`` on the 5-block Z^8 x| Z/4 spec, so
the product complex is pinned at five folds as well as four.
"""

import json
from pathlib import Path

import pytest

from bredon.cli import main

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "specs" / "vafa_witten.json"
DATA = ROOT / "tests" / "data"

# (report file, command line after the spec, exit code)
GOLDEN = (
    ("ktheory", ["ktheory"], 0),
    ("cohomology", ["cohomology"], 0),
    ("e2", ["e2", "--tor-depth", "2"], 0),
    ("verify", ["verify", "--tor-depth", "2", "--full-product-oracle"], 3),
)


@pytest.mark.parametrize("name,argv,code", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_flagship_report_is_pinned(tmp_path, name, argv, code):
    out = tmp_path / f"{name}.json"
    argv = [argv[0], str(SPEC), *argv[1:], "--format", "machine",
            "--output", str(out)]
    assert main(argv) == code
    expected = (DATA / f"vafa_witten.{name}.json").read_bytes()
    assert out.read_bytes() == expected


@pytest.mark.parametrize("name,argv,code", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_flagship_human_report_is_pinned(tmp_path, name, argv, code):
    out = tmp_path / f"{name}.txt"
    argv = [argv[0], str(SPEC), *argv[1:], "--format", "human",
            "--output", str(out)]
    assert main(argv) == code
    expected = (DATA / f"vafa_witten.{name}.txt").read_bytes()
    assert out.read_bytes() == expected


def test_z8_verify_report_is_pinned(tmp_path):
    spec = tmp_path / "z8.json"
    spec.write_text(json.dumps({
        "point_group_order": 4,
        "blocks": ["line-minus", "line-minus", "plane-i", "plane-i",
                   "plane-i"],
    }))
    out = tmp_path / "z8.verify.json"
    argv = ["verify", str(spec), "--tor-depth", "2", "--full-product-oracle",
            "--format", "machine", "--output", str(out)]
    assert main(argv) == 3
    assert out.read_bytes() == (DATA / "z8.verify.json").read_bytes()
