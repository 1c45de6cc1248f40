"""Value semantics of the plain record and value classes.

Value types (groups, point groups, blocks, specs, K-theory results, Smith
decompositions, lattice modules) compare and hash field by field; records
that collect results build their list defaults per instance.
"""

import json

import pytest

from bredon import (
    FgAbGroup,
    IntMatrix,
    KTheoryResult,
    LatticeModule,
    PointGroup,
    PullbackSpec,
    builtin_block,
    parse_spec,
    snf,
)
from bredon.complexes import BlockReport, GcwBlock
from bredon.ktheory import FullReport
from bredon.pullback import FoldRecord
from bredon.specfile import SpecDocument

PG4 = PointGroup(4)


class TestFgAbGroup:
    def test_factors_become_an_int_tuple(self):
        group = FgAbGroup(1, [2, 4])
        assert group.invariant_factors == (2, 4)
        assert group == FgAbGroup(1, (2, 4))

    def test_equality_and_hash(self):
        a, b = FgAbGroup(2, (2, 4)), FgAbGroup(2, (2, 4))
        assert a == b and hash(a) == hash(b)
        assert a != FgAbGroup(2, (4,)) and a != FgAbGroup(1, (2, 4))
        assert len({a, b, FgAbGroup.free(2)}) == 2
        assert a != (2, (2, 4))

    def test_repr(self):
        assert (repr(FgAbGroup(1, (2,)))
                == "FgAbGroup(free_rank=1, invariant_factors=(2,))")


class TestPointGroupAndBlock:
    def test_point_group(self):
        assert PointGroup(4) == PG4 and hash(PointGroup(4)) == hash(PG4)
        assert PointGroup(2) != PG4
        with pytest.raises(ValueError, match="point group order must be >= 1"):
            PointGroup(0)

    def test_block_equality_and_hash(self):
        a, b = builtin_block("line-minus"), builtin_block("line-minus")
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != builtin_block("plane-i")
        renamed = GcwBlock("other", a.point_group, a.dimension, a.cells,
                           a.differentials)
        assert renamed != a

    def test_repeated_block_is_one_key(self):
        line, plane = builtin_block("line-minus"), builtin_block("plane-i")
        keys = list(dict.fromkeys([line, builtin_block("line-minus"), plane,
                                   builtin_block("plane-i")]))
        assert keys == [line, plane]
        assert keys[0] is line and keys[1] is plane


class TestPublicValueTypes:
    def test_pullback_spec_equality(self):
        blocks = (builtin_block("line-minus"), builtin_block("plane-i"))
        spec = PullbackSpec(PG4, blocks, tor_depth=2)
        assert spec == PullbackSpec(PG4, blocks, tor_depth=2)
        assert hash(spec) == hash(PullbackSpec(PG4, blocks, tor_depth=2))
        assert spec != PullbackSpec(PG4, blocks, tor_depth=1)
        assert spec != PullbackSpec(PG4, blocks, True, tor_depth=2)

    @pytest.mark.parametrize("kwargs, message", [
        ({"blocks": ()}, "at least one block is required"),
        ({"point_group": PointGroup(2)},
         "block 'line-minus' has a different point group"),
        ({"tor_depth": -1}, "tor depth must be nonnegative"),
        ({"tor_depth": 9},
         "tor depth 9 exceeds the limit MAX_TOR_DEPTH = 8"),
    ])
    def test_pullback_spec_errors(self, kwargs, message):
        args = dict(point_group=PG4, blocks=(builtin_block("line-minus"),))
        with pytest.raises(ValueError) as info:
            PullbackSpec(**dict(args, **kwargs))
        assert str(info.value) == message

    def test_lattice_module(self):
        # its errors are pinned in test_repring
        quarter = IntMatrix.from_rows([[0, -1], [1, 0]])
        a = LatticeModule(PG4, 2, quarter)
        assert a == LatticeModule(PG4, 2, quarter)
        assert hash(a) == hash(LatticeModule(PG4, 2, quarter))
        assert a != LatticeModule(PG4, 2, -quarter)

    def test_k_theory_result_and_snf(self):
        k = KTheoryResult(FgAbGroup.free(3), FgAbGroup.trivial(), True)
        assert k == KTheoryResult(FgAbGroup.free(3), FgAbGroup(0), True)
        assert k != KTheoryResult(FgAbGroup.free(3), FgAbGroup(0), False)
        A = IntMatrix.from_rows([[2, 4], [6, 8]])
        assert snf(A) == snf(A) and hash(snf(A)) == hash(snf(A))


class TestRecordsOwnTheirLists:
    def test_fold_record(self):
        a, b = FoldRecord(1, "x"), FoldRecord(2, "y")
        a.collapse_failures.append((1, 0, FgAbGroup.cyclic(2)))
        assert b.collapse_failures == [] and a.e2 is None and a.oracle is None

    def test_block_report(self):
        a, b = BlockReport("x"), BlockReport("y")
        a.findings.append("bad")
        assert not a.ok and b.ok and b.findings == []

    def test_full_report(self):
        k = KTheoryResult(FgAbGroup.free(1), FgAbGroup.trivial(), True)
        a = FullReport(None, None, None, k, {}, k, ())
        b = FullReport(None, None, None, k, {}, k, ())
        a.notes.append("note")
        assert b.notes == []

    def test_spec_document_options(self):
        a, b = SpecDocument(PG4, []), SpecDocument(PG4, [])
        a.options.tor_depth = 2
        assert a.options is not b.options and b.options.tor_depth == 0
        doc = parse_spec(json.dumps({"point_group_order": 4,
                                     "blocks": ["point"]}))
        assert (doc.options.oracle, doc.options.full_product_oracle,
                doc.options.tor_depth, doc.options.format,
                doc.options.output) == (False, False, 0, "human", None)
