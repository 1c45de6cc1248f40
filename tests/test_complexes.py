"""Catalog blocks, cochain complexes, cohomology with module structure."""

import random
from functools import lru_cache, reduce
from itertools import permutations

import pytest

from bredon.complexes import (
    GcwBlock,
    _commutes_with_eta,
    _eta_index,
    block_from_flat,
    block_module,
    bredon_cochain_complex,
    builtin_block,
    builtin_block_names,
    cohomology_table,
    validate_block,
)
from bredon.intlinalg import (
    FgAbGroup,
    IntMatrix,
    kernel_lattice,
    smith_diagonal,
    subquotient_with_action,
)
from bredon.pullback import product_complex
from bredon.repring import (
    FpModule,
    LatticeModule,
    PointGroup,
    present_lattice,
    quotient_by_ideal,
)
from conftest import (
    FLAT_LITERALS,
    closed_free_coordinates,
    flat_block,
    flat_product,
    free_coordinates,
    freed_action,
    shift_matrix,
)


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
        with pytest.raises(ValueError, match="equivariant"):
            block_from_flat("custom", PointGroup(4), ((4, 4), (2,)),
                            [IntMatrix.from_rows(rows)])

    def test_freed_map_must_commute_with_eta(self):
        # R/(eta^2 - 1) -> R sending 1, eta to 1, eta commutes with eta on
        # column 0 only: the wrap-around eta * eta = 1 of the source is
        # sent to eta^2, the relation eta^2 - 1 to a nonzero element
        pg = PointGroup(4)
        d0 = IntMatrix.from_rows([[1, 0], [0, 1], [0, 0], [0, 0]])
        report = validate_block(GcwBlock("bad5", pg, 1, ((2,), (4,)), (d0,)))
        assert report.findings == ["degree 0: map does not commute with eta"]

    def test_wrong_shape(self):
        report = validate_block(_line_with_differential([[0] * 8]))
        assert not report.ok
        assert any("expected" in f for f in report.findings)

    def test_relations_not_preserved(self):
        # the identity R/(eta^2 - 1) -> R commutes with eta but sends the
        # relation eta^2 - 1 to a nonzero element of the free target
        with pytest.raises(ValueError, match="preserve relations"):
            block_from_flat("bad3", PointGroup(4), ((2,), (4,)),
                            [IntMatrix.identity(4)])

    def test_d_squared_detected(self):
        pg = PointGroup(4)
        # two-step complex R -> R -> R with d = id both times: d^2 = id != 0
        ident = IntMatrix.identity(4)
        block = GcwBlock("bad2", pg, 2, ((4,), (4,), (4,)), (ident, ident))
        report = validate_block(block)
        assert not report.ok
        assert any("d^2" in f for f in report.findings)

    def test_d_squared_through_isotropy_two_detected(self):
        # R -> R/(eta^2 - 1) -> R with d0 = id and d1 = 1 + eta^2: d1 kills
        # the relation, since (1 + eta^2)(eta^2 - 1) = eta^4 - 1 = 0, but
        # d1 * d0 = 1 + eta^2 is nonzero in the free target
        d1 = IntMatrix.from_columns(
            4, [[int(i in (t, (t + 2) % 4)) for i in range(4)]
                for t in range(4)])
        with pytest.raises(ValueError) as exc:
            block_from_flat("bad4", PointGroup(4), ((4,), (2,), (4,)),
                            [IntMatrix.identity(4), d1])
        assert str(exc.value) == "d^2 is nonzero between degrees 0 and 2"

    def test_flat_d_squared_in_relations_accepted(self):
        # R -> R/(eta^2 - 1) -> R/(eta^2 - 1) with d0 = id and d1 = eta^2 - 1:
        # the flat product d1 * d0 is nonzero, but its columns lie in the
        # relation lattice of the target, so the composite is zero
        d1 = IntMatrix.from_columns(
            4, [[(i == (t + 2) % 4) - (i == t) for i in range(4)]
                for t in range(4)])
        assert not (d1 * IntMatrix.identity(4)).is_zero()
        block = block_from_flat("ok", PointGroup(4), ((4,), (2,), (2,)),
                                [IntMatrix.identity(4), d1])
        assert validate_block(block).ok
        table = cohomology_table(bredon_cochain_complex(block))
        assert [table.group(d) for d in range(3)] == [
            FgAbGroup.free(2), FgAbGroup.trivial(), FgAbGroup.free(2)]

    def test_cochain_complex_rejects_corrupt_block(self):
        pg = PointGroup(4)
        ident = IntMatrix.identity(4)
        block = GcwBlock("bad2", pg, 2, ((4,), (4,), (4,)), (ident, ident))
        with pytest.raises(ValueError):
            bredon_cochain_complex(block)

    def test_cochain_complex_validates_through_validate_block(
            self, monkeypatch):
        # the one validation function, so a wrapper of it sees every check
        import bredon.complexes

        seen = []

        def recording(block):
            seen.append(block)
            return validate_block(block)
        monkeypatch.setattr(bredon.complexes, "validate_block", recording)
        block = builtin_block("plane-i")
        assert bredon_cochain_complex(block) is block
        assert seen == [block]


class TestEquivarianceOfTables:
    def test_module_slots_match_groups(self, line_table, plane_table):
        for table in (line_table, plane_table):
            for d in table.degrees():
                module = table.module(d)
                if module is not None:
                    assert module.flatten() == table.group(d)


FLAGSHIP = ("line-minus", "line-minus", "plane-i", "plane-i")
PRODUCTS = pytest.mark.parametrize(
    "blocks", [(name,) for name in builtin_block_names()] + [FLAGSHIP],
    ids="*".join)


@pytest.mark.parametrize(
    "blocks", [(name,) for name in builtin_block_names()]
    + sorted(set(permutations(FLAGSHIP))), ids="*".join)
def test_freed_differential_is_transported(blocks):
    # The freed block is the flat literal, or the flat Eilenberg-Zilber
    # product of the literals, folded; and each freed map is P * d * S for
    # the closed-form coordinates of its source and target degrees.
    block = reduce(product_complex, map(builtin_block, blocks))
    cells, flat = reduce(flat_product, map(flat_block, blocks))
    assert block == block_from_flat(block.name, block.point_group, cells, flat)
    coords = [closed_free_coordinates(orders, 4) for orders in cells]
    for d, mat in enumerate(flat):
        assert block.differentials[d] == coords[d + 1][0] * mat * coords[d][1]


@PRODUCTS
def test_freed_action_is_transported_shift(blocks):
    # The closed-form action t -> t + 1 mod m is P * shift * S in the
    # closed-form coordinates.  The Smith-based reference (P, S) picks a
    # different basis of the same Z^rank, so the two actions agree after
    # the unimodular change of coordinates W = P * S_closed.
    block = reduce(product_complex, [builtin_block(name) for name in blocks])
    n = block.point_group.order
    for d, orders in enumerate(block.cells):
        module = block_module(block, d)
        P, S, rank = free_coordinates(module)
        P_closed, S_closed, closed_rank = closed_free_coordinates(orders, n)
        assert closed_rank == rank
        index = _eta_index(orders)
        action = IntMatrix(rank, rank, [[int(index[j] == i)
                                         for j in range(rank)]
                                        for i in range(rank)])
        assert action == freed_action(orders)
        shift = shift_matrix(module)
        assert action == P_closed * shift * S_closed
        W = P * S_closed
        assert smith_diagonal(W) == [1] * rank
        assert W * action == P * shift * S * W


def reference_table(complex_):
    """Every degree by kernel, subquotient and action, as (group, module).

    The route that takes no shortcut: cycles are a kernel basis, the group
    and the action come from the subquotient by the incoming map, and a
    free group is presented from its action.
    """
    out = {}
    for d, rank in enumerate(complex_.flattened_ranks()):
        if d < complex_.dimension:
            cycles = kernel_lattice(complex_.differentials[d])
        else:
            cycles = IntMatrix.identity(rank)
        boundaries = (complex_.differentials[d - 1] if d > 0
                      else IntMatrix.zeros(rank, 0))
        group, action = subquotient_with_action(
            cycles, boundaries,
            freed_action(complex_.cells[d]) * cycles)
        module = None
        if group.is_trivial:
            module = FpModule(complex_.point_group, 0, ())
        elif action is not None:
            module, _ = present_lattice(
                LatticeModule(complex_.point_group, group.free_rank, action))
        out[d] = group, module
    return out


def ring_block(coeffs, n=4):
    """Flat n x n matrix of multiplication by sum_u coeffs[u] eta^u."""
    rows = [[0] * n for _ in range(n)]
    for u, a in enumerate(coeffs):
        for s in range(n):
            rows[(u + s) % n][s] += a
    return rows


def flat_map(blocks, n=4):
    """Assemble a flat differential from a grid of ring blocks (or None)."""
    rows = []
    for block_row in blocks:
        for i in range(n):
            rows.append([x for b in block_row
                         for x in (b[i] if b else [0] * n)])
    return IntMatrix.from_rows(rows)


def torsion_block():
    # Z^4 -> Z^2, doubling onto an isotropy-2 cell: H^0 = Z^2 with eta
    # as a quarter turn, H^1 = (Z/2)^2, which has no module structure.
    d0 = flat_map([[ring_block([2])]])
    return block_from_flat("doubling", PointGroup(4), ((4,), (2,)), [d0])


def boundary_block():
    # x -> (x, eta x, 0) then (a, b, c) -> eta a - b: degree 1 is a free
    # group (the c summand, isotropy 2) reached by nonzero boundaries.
    d0 = flat_map([[ring_block([1])], [ring_block([0, 1])], [None]])
    d1 = flat_map([[ring_block([0, 1]), ring_block([-1]), None]])
    return block_from_flat("boundaries", PointGroup(4),
                           ((4,), (4, 4, 2), (4,)), [d0, d1])


HAND_BLOCKS = {"doubling": torsion_block, "boundaries": boundary_block}


def reference_names():
    """Catalog blocks, their pairwise products, the flagship product and
    the hand blocks, named as the blocks name themselves."""
    names = builtin_block_names()
    return (names + [f"{a}*{b}" for a in names for b in names]
            + ["*".join(FLAGSHIP)] + list(HAND_BLOCKS))


@lru_cache(maxsize=None)
def reference_block(name):
    """A hand block, or the product of the catalog blocks named a*b*...;
    built inside the test that asks for it, so a fault fails that test."""
    if name in HAND_BLOCKS:
        return HAND_BLOCKS[name]()
    return reduce(product_complex, map(builtin_block, name.split("*")))


@pytest.mark.parametrize("name", reference_names())
def test_diagonal_route_matches_reference(name):
    complex_ = bredon_cochain_complex(reference_block(name))
    table = cohomology_table(complex_)
    reference = reference_table(complex_)
    assert table.degrees() == sorted(reference)
    for d, (group, module) in reference.items():
        assert table.group(d) == group
        assert table.module(d) == module
        if module is not None:
            assert table.module(d).flatten() == module.flatten() == group


def test_hand_blocks_cover_torsion_and_boundaries():
    torsion = cohomology_table(bredon_cochain_complex(torsion_block()))
    assert torsion.group(0) == FgAbGroup.free(2)
    assert torsion.group(1) == FgAbGroup(0, (2, 2))
    assert torsion.module(1) is None
    boundary_complex = bredon_cochain_complex(boundary_block())
    assert not boundary_complex.differentials[0].is_zero()
    boundary = cohomology_table(boundary_complex)
    assert [boundary.group(d) for d in range(3)] == [
        FgAbGroup.trivial(), FgAbGroup.free(2), FgAbGroup.trivial()]
    assert boundary.module(1).flatten() == FgAbGroup.free(2)


def assert_commutation_agrees(mat, src, tgt, rng, perturbations=20):
    """``_commutes_with_eta`` against the dense ``mat * A_src == A_tgt * mat``
    on the map itself, which commutes, and on seeded single-entry changes
    of it."""
    def dense(m):
        return m * freed_action(src) == freed_action(tgt) * m

    assert _commutes_with_eta(mat, src, tgt) and dense(mat)
    for _ in range(perturbations if mat.rows and mat.cols else 0):
        rows = mat.to_lists()
        rows[rng.randrange(mat.rows)][rng.randrange(mat.cols)] += \
            rng.choice((-2, -1, 1, 2))
        bad = IntMatrix(mat.rows, mat.cols, rows)
        assert _commutes_with_eta(bad, src, tgt) == dense(bad)


@pytest.mark.parametrize("name", reference_names())
def test_eta_commutation_agrees_with_dense_action(name):
    block = reference_block(name)
    rng = random.Random(name)
    for d, mat in enumerate(block.differentials):
        assert_commutation_agrees(mat, block.cells[d], block.cells[d + 1],
                                  rng)


@pytest.mark.parametrize(
    "name", [name for name, (_, maps) in FLAT_LITERALS.items() if maps])
def test_eta_commutation_agrees_on_flat_literals(name):
    # a flat map has n = 4 coordinates per cell, whatever its isotropy
    cells, flat = flat_block(name)
    rng = random.Random(name)
    for d, mat in enumerate(flat):
        assert_commutation_agrees(mat, (4,) * len(cells[d]),
                                  (4,) * len(cells[d + 1]), rng)
