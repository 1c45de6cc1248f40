"""Catalog blocks, cochain complexes, cohomology with module structure."""

from functools import reduce

import pytest

from bredon.complexes import (
    GcwBlock,
    _freed_action,
    block_module,
    bredon_cochain_complex,
    builtin_block,
    builtin_block_names,
    cohomology_table,
    validate_block,
)
from bredon.intlinalg import FgAbGroup, IntMatrix, smith_diagonal
from bredon.pullback import product_block
from bredon.repring import PointGroup, quotient_by_ideal
from conftest import free_coordinates


class TestCatalog:
    def test_names(self):
        assert builtin_block_names() == ["line-minus", "plane-i", "point"]

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            builtin_block("circle")

    def test_line_modules(self, line_complex):
        assert line_complex.flattened_ranks() == [8, 2]

    def test_plane_modules(self, plane_complex):
        assert plane_complex.flattened_ranks() == [10, 2, 1]

    def test_point_modules(self, point_complex):
        assert point_complex.flattened_ranks() == [4]

    def test_blocks_pass_validation(self):
        for name in builtin_block_names():
            assert validate_block(builtin_block(name)).ok


class TestCohomology:
    def test_line(self, line_table):
        assert line_table.group(0) == FgAbGroup.free(6)
        assert line_table.group(1).is_trivial

    def test_plane(self, plane_table):
        assert plane_table.group(0) == FgAbGroup.free(8)
        assert plane_table.group(1).is_trivial
        assert plane_table.group(2) == FgAbGroup.free(1)

    def test_point_is_full_coefficient_ring(self, point_table):
        assert point_table.group(0) == FgAbGroup.free(4)
        module = point_table.module(0)
        assert module.ngens == 1 and module.relations == ()

    def test_euler_conservation(self, line_complex, plane_complex):
        for cx in (line_complex, plane_complex):
            table = cohomology_table(cx)
            homological = sum((-1) ** d * table.group(d).free_rank
                              for d in table.degrees())
            assert cx.euler_characteristic() == homological
        assert line_complex.euler_characteristic() == 6
        assert plane_complex.euler_characteristic() == 9

    def test_line_module_quotients(self, line_table):
        H0 = line_table.module(0)
        assert quotient_by_ideal(H0, 2).flatten() == FgAbGroup(2, (2, 2))
        assert quotient_by_ideal(H0, 1).flatten() == FgAbGroup(1, (2,))

    def test_plane_module_quotients(self, plane_table):
        H0 = plane_table.module(0)
        assert quotient_by_ideal(H0, 2).flatten() == FgAbGroup(4, (2,))
        assert quotient_by_ideal(H0, 1).flatten() == FgAbGroup(1, (2, 4))
        H2 = plane_table.module(2)
        assert quotient_by_ideal(H2, 2).flatten() == FgAbGroup.free(1)
        assert quotient_by_ideal(H2, 1).flatten() == FgAbGroup.free(1)

    def test_connectivity_rank(self, line_table, plane_table, point_table):
        # the orbit space of every catalog block is path connected, so the
        # augmentation coinvariants of H^0 always have free rank one
        for table in (line_table, plane_table, point_table):
            H0 = table.module(0)
            assert quotient_by_ideal(H0, 1).flatten().free_rank == 1


def _line_with_differential(matrix_rows):
    pg = PointGroup(4)
    return GcwBlock("custom", pg, 1, ((4, 4), (2,)),
                    (IntMatrix.from_rows(matrix_rows),))


class TestValidateBlock:
    def test_bad_isotropy_order(self):
        pg = PointGroup(4)
        block = GcwBlock("bad", pg, 0, ((3,),), ())
        report = validate_block(block)
        assert not report.ok
        assert any("does not divide" in f for f in report.findings)

    def test_non_equivariant_differential(self):
        rows = [[0] * 8 for _ in range(4)]
        rows[0][0] = 1  # a single entry cannot commute with the shift
        report = validate_block(_line_with_differential(rows))
        assert not report.ok
        assert any("equivariant" in f for f in report.findings)

    def test_wrong_shape(self):
        report = validate_block(_line_with_differential([[0] * 8]))
        assert not report.ok
        assert any("expected" in f for f in report.findings)

    def test_relations_not_preserved(self):
        # the identity R/(eta^2 - 1) -> R commutes with eta but sends the
        # relation eta^2 - 1 to a nonzero element of the free target
        pg = PointGroup(4)
        block = GcwBlock("bad3", pg, 1, ((2,), (4,)), (IntMatrix.identity(4),))
        report = validate_block(block)
        assert not report.ok
        assert any("preserve relations" in f for f in report.findings)

    def test_d_squared_detected(self):
        pg = PointGroup(4)
        # two-step complex R -> R -> R with d = id both times: d^2 = id != 0
        ident = IntMatrix.identity(4)
        block = GcwBlock("bad2", pg, 2, ((4,), (4,), (4,)), (ident, ident))
        report = validate_block(block)
        assert not report.ok
        assert any("d^2" in f for f in report.findings)

    def test_cochain_complex_rejects_corrupt_block(self):
        pg = PointGroup(4)
        ident = IntMatrix.identity(4)
        block = GcwBlock("bad2", pg, 2, ((4,), (4,), (4,)), (ident, ident))
        with pytest.raises(ValueError):
            bredon_cochain_complex(block)


class TestEquivarianceOfTables:
    def test_module_slots_match_groups(self, line_table, plane_table):
        for table in (line_table, plane_table):
            for d in table.degrees():
                module = table.module(d)
                if module is not None:
                    assert module.flatten() == table.group(d)


FLAGSHIP = ("line-minus", "line-minus", "plane-i", "plane-i")


@pytest.mark.parametrize("blocks", [(name,) for name in builtin_block_names()]
                         + [FLAGSHIP], ids="*".join)
def test_freed_action_is_transported_shift(blocks):
    # The closed-form action t -> t + 1 mod m is P * shift * S in the
    # closed-form coordinates.  The Smith-based reference (P, S) picks a
    # different basis of the same Z^rank, so the two actions agree after
    # the unimodular change of coordinates W = P * S_closed.
    block = reduce(product_block, [builtin_block(name) for name in blocks])
    complex_ = bredon_cochain_complex(block)
    for d, orders in enumerate(block.cells):
        module = block_module(block, d)
        P, S, rank = free_coordinates(module)
        _, S_closed, closed_rank = complex_.coordinates[d]
        assert closed_rank == rank
        action = _freed_action(orders)
        W = P * S_closed
        assert smith_diagonal(W) == [1] * rank
        assert W * action == P * module.shift_matrix() * S * W
