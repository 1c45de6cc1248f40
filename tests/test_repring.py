"""Modules over R(C_n): flat relation rows, presentations, syzygies, Tor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_block, shift_matrix, small_modules
from bredon.complexes import (
    _commutes_with_eta,
    block_module,
    builtin_block,
    cohomology_table,
)
from bredon.intlinalg import (
    FgAbGroup,
    IntMatrix,
    RowEchelonLattice,
)
from bredon.repring import (
    FpModule,
    LatticeModule,
    PointGroup,
    _divide_rows,
    _smith_basis,
    direct_sum_modules,
    free_module,
    present_lattice,
    presentation_kernel,
    quotient_by_ideal,
    restriction_module,
    tensor_over_ring,
    tor,
)

PG4 = PointGroup(4)
PG2 = PointGroup(2)


def rotation_module():
    return LatticeModule(PG4, 2, IntMatrix.from_rows([[0, -1], [1, 0]]))


def module_catalog():
    """Small modules used in pairwise property checks."""
    return {
        "free1": free_module(PG4, 1),
        "res2": restriction_module(PG4, 2),
        "res1": restriction_module(PG4, 1),
        "gauss": present_lattice(rotation_module())[0],
        "sign": present_lattice(
            LatticeModule(PG4, 1, IntMatrix.from_rows([[-1]])))[0],
    }


def test_package_exports_resolve():
    # a stale __all__ entry breaks `from bredon import *`
    import bredon

    for name in bredon.__all__:
        assert getattr(bredon, name, None) is not None, name


class TestRingProperties:
    @settings(max_examples=50, deadline=None)
    @given(small_modules())
    def test_eta_power_n_is_identity(self, M):
        # relation_rows() holds each relation's n eta-shifts in order;
        # shifting the last one once more gives the relation back
        n = M.group.order
        rows = M.relation_rows()
        assert len(rows) == n * len(M.relations)
        shift = shift_matrix(M)
        for k, rel in enumerate(M.relations):
            orbit = rows[k * n:(k + 1) * n]
            assert orbit[0] == list(rel)
            for prev, row in zip(orbit, orbit[1:] + orbit[:1]):
                assert shift.mul_vector(prev) == row


class TestModuleProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_modules(), small_modules())
    def test_tensor_commutative(self, M, N):
        assert tensor_over_ring(M, N).flatten() \
            == tensor_over_ring(N, M).flatten()

    @settings(max_examples=40, deadline=None)
    @given(small_modules())
    def test_quotient_by_full_ideal_is_identity(self, M):
        assert quotient_by_ideal(M, 4).flatten() == M.flatten()

    @settings(max_examples=25, deadline=None)
    @given(small_modules(), small_modules())
    def test_tor_zero_is_tensor(self, M, N):
        assert tor(M, N, 0)[0] == tensor_over_ring(M, N).flatten()


class TestRestrictionModule:
    def test_index_two(self):
        M = restriction_module(PG4, 2)
        assert M.ngens == 1
        assert M.relations == ((-1, 0, 1, 0),)
        assert M.flatten() == FgAbGroup.free(2)

    def test_index_two_relation_is_restriction_kernel(self):
        # independent check: the relation lattice equals the kernel of the
        # character restriction matrix sending eta^k to sigma^k
        from bredon.intlinalg import IntMatrix as IM, kernel_lattice

        restriction = IM.from_rows([[1, 0, 1, 0], [0, 1, 0, 1]])
        kernel = kernel_lattice(restriction)
        rel = restriction_module(PG4, 2).relation_lattice()
        assert kernel.cols == rel.rank == 2
        for col in kernel.columns():
            assert rel.contains(col)

    def test_augmentation(self):
        M = restriction_module(PG4, 1)
        assert M.flatten() == FgAbGroup.free(1)
        # eta acts trivially on the flatten of R/(eta - 1)
        lat = M.relation_lattice()
        shifted = shift_matrix(M).mul_vector([1, 0, 0, 0])
        base = [1, 0, 0, 0]
        assert lat.contains([s - b for s, b in zip(shifted, base)])

    def test_full_order_is_free(self):
        M = restriction_module(PG4, 4)
        assert M.relations == ()
        assert M.flatten() == FgAbGroup.free(4)

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError):
            restriction_module(PG4, 3)


class TestFreeAndFlatten:
    def test_free_ranks(self):
        assert free_module(PG4, 0).flatten() == FgAbGroup.trivial()
        assert free_module(PG4, 1).flatten() == FgAbGroup.free(4)
        assert free_module(PG2, 3).flatten() == FgAbGroup.free(6)

    def test_flatten_with_torsion(self):
        # R / (eta - 1, 2): augmentation plus doubling
        M = FpModule(PG4, 1, ((-1, 1, 0, 0), (2, 0, 0, 0)))
        assert M.flatten() == FgAbGroup.cyclic(2)

    def test_relation_row_length_checked(self):
        # two generators over C_4 need rows of length 8
        with pytest.raises(ValueError, match="ngens \\* n"):
            FpModule(PG4, 2, ((1, 0, 0, 0),))

    def test_pruned_preserves_flatten(self):
        # eta^2 - 1 and eta times it
        M = FpModule(PG4, 1, ((-1, 0, 1, 0), (0, -1, 0, 1)))
        P = M.pruned()
        assert len(P.relations) == 1
        assert P.flatten() == M.flatten()


def assert_fresh_echelon(module):
    """The module's relation echelon is row for row the one that adding
    its relation rows to an empty lattice builds."""
    fresh = RowEchelonLattice(module.flat_dim)
    for row in module.relation_rows():
        fresh.add(row)
    got = module.relation_lattice()
    assert (got.rows, got.pivots) == (fresh.rows, fresh.pivots)


def eta_times(rel, n):
    """eta * rel: every generator block rotated by one place."""
    return tuple(rel[i - i % n + (i - 1) % n] for i in range(len(rel)))


class TestEchelonHandOver:
    """Pruning and direct sums hand on the relation echelon they hold."""

    @settings(max_examples=60, deadline=None)
    @given(small_modules())
    def test_pruned_carries_a_fresh_echelon(self, M):
        P = M.pruned()
        n = M.group.order
        kept = FpModule(M.group, M.ngens, P.relations)
        # a zero row and eta times a kept relation are always dropped
        extra = ((0,) * M.flat_dim,) + tuple(
            eta_times(rel, n) for rel in P.relations[:1])
        padded = FpModule(M.group, M.ngens, P.relations + extra)
        assert kept.pruned() is kept
        assert padded.pruned() is not padded
        assert padded.pruned().relations == P.relations
        for Q in (P, kept.pruned(), padded.pruned()):
            assert Q._rel_lattice is not None
            assert_fresh_echelon(Q)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(small_modules(), min_size=1, max_size=3), st.data())
    def test_direct_sum_assembles_a_fresh_echelon(self, mods, data):
        # pruned summands with one and two generators, and a free summand
        # with no relations and no echelon of its own
        parts = [M.pruned() for M in mods]
        at = data.draw(st.integers(0, len(parts)))
        parts.insert(at, free_module(PG4, data.draw(st.integers(0, 2))))
        S = direct_sum_modules(parts)
        assert S._rel_lattice is not None
        assert_fresh_echelon(S)

    def test_direct_sum_without_summand_echelon_stays_lazy(self):
        # a summand whose echelon was never built leaves the sum's to be
        # built on demand, and does not get its own built
        lazy = restriction_module(PG4, 2)
        parts = [tensor_over_ring(lazy, lazy), lazy, free_module(PG4, 1)]
        S = direct_sum_modules(parts)
        assert lazy._rel_lattice is None
        assert S._rel_lattice is None
        assert_fresh_echelon(S)

    def test_handed_over_echelon_is_not_shared(self):
        # the sum's rows are its own: a gcd step that rewrites one of them
        # leaves the summand's echelon alone
        P = FpModule(PG4, 1, ((2, 0, 0, 0),)).pruned()
        rows = [list(r) for r in P.relation_lattice().rows]
        S = direct_sum_modules([P, free_module(PG4, 1)])
        S.relation_lattice().add([1] + [0] * 7)
        assert S.relation_lattice().rows[0][0] == 1
        assert P.relation_lattice().rows == rows


class TestTensor:
    def test_unit_law(self):
        for name, N in module_catalog().items():
            out = tensor_over_ring(free_module(PG4, 1), N)
            assert out.flatten() == N.flatten(), name

    def test_res2_squared(self):
        out = tensor_over_ring(restriction_module(PG4, 2),
                               restriction_module(PG4, 2))
        assert out.flatten() == FgAbGroup.free(2)

    def test_free_tensor_multiplies_flatten(self):
        for N in module_catalog().values():
            out = tensor_over_ring(free_module(PG4, 2), N)
            doubled = N.flatten().direct_sum(N.flatten())
            assert out.flatten() == doubled

    def test_commutative_on_flattens(self):
        mods = module_catalog()
        for a in mods.values():
            for b in mods.values():
                assert tensor_over_ring(a, b).flatten() \
                    == tensor_over_ring(b, a).flatten()

    def test_group_mismatch(self):
        with pytest.raises(ValueError):
            tensor_over_ring(free_module(PG4, 1), free_module(PG2, 1))


class TestQuotientByIdeal:
    def test_augmentation_of_free(self):
        assert quotient_by_ideal(free_module(PG4, 1), 1).flatten() \
            == FgAbGroup.free(1)

    def test_full_power_is_identity(self):
        for M in module_catalog().values():
            assert quotient_by_ideal(M, 4).flatten() == M.flatten()

    def test_gaussian_module_mod_two_torsion(self):
        # (eta^2 - 1) acts as -2 on the rank-two rotation module
        M = present_lattice(rotation_module())[0]
        assert quotient_by_ideal(M, 2).flatten() == FgAbGroup(0, (2, 2))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            quotient_by_ideal(free_module(PG4, 1), 5)


def induced_action_conjugator(L):
    """The unimodular matrix conjugating the presented action back to L."""
    from conftest import free_coordinates

    module, evaluation = present_lattice(L)
    P, S, rank = free_coordinates(module)
    assert rank == L.rank
    induced = P * shift_matrix(module) * S
    W = evaluation * S
    return W, induced


class TestPresentLattice:
    def test_regular_representation(self):
        perm = IntMatrix.from_rows(
            [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        M = present_lattice(LatticeModule(PG4, 4, perm))[0]
        assert M.ngens == 1 and M.relations == ()

    def test_trivial_action(self):
        M = present_lattice(LatticeModule(PG4, 1, IntMatrix.identity(1)))[0]
        assert M.ngens == 1
        assert M.flatten() == FgAbGroup.free(1)
        # relation lattice is exactly the span of the shifts of eta - 1
        expected = RowEchelonLattice(4)
        for row in ([-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [1, 0, 0, -1]):
            expected.add(row)
        got = M.relation_lattice()
        assert all(expected.contains(r) for r in got.basis_rows())
        assert all(got.contains(r) for r in expected.basis_rows())

    def test_rotation(self):
        M = present_lattice(rotation_module())[0]
        assert M.ngens == 1
        assert M.flatten() == FgAbGroup.free(2)
        assert M.relations == ((1, 0, 1, 0),)

    def test_round_trip_conjugacy(self):
        from bredon.intlinalg import smith_diagonal

        cases = [
            rotation_module(),
            LatticeModule(PG4, 1, IntMatrix.identity(1)),
            LatticeModule(PG4, 2, IntMatrix.from_rows([[0, 1], [1, 0]])),
            LatticeModule(PG4, 3, IntMatrix.from_rows(
                [[0, -1, 0], [1, 0, 0], [0, 0, -1]])),
        ]
        for L in cases:
            W, induced = induced_action_conjugator(L)
            assert all(d == 1 for d in smith_diagonal(W))
            assert W * induced == L.action * W

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError, match="^action order does not divide "
                                             "the point group order$"):
            LatticeModule(PG4, 1, IntMatrix.from_rows([[2]]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="^action must be a square "
                                             "matrix of the given rank$"):
            LatticeModule(PG4, 3, IntMatrix.from_rows([[0, -1], [1, 0]]))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_round_trip_on_conjugated_actions(self, data):
        # conjugate a block-diagonal action of order dividing 4 by a random
        # unimodular matrix; the presentation must reproduce rank and a
        # conjugate action regardless of the basis
        from bredon.intlinalg import smith_diagonal, unimodular_inverse

        blocks = data.draw(st.lists(st.sampled_from(["one", "sign", "rot"]),
                                    min_size=1, max_size=3))
        entries = []
        for kind in blocks:
            if kind == "one":
                entries.append([[1]])
            elif kind == "sign":
                entries.append([[-1]])
            else:
                entries.append([[0, -1], [1, 0]])
        rank = sum(len(b) for b in entries)
        rows = [[0] * rank for _ in range(rank)]
        offset = 0
        for b in entries:
            for i, row in enumerate(b):
                for j, val in enumerate(row):
                    rows[offset + i][offset + j] = val
            offset += len(b)
        T = IntMatrix.from_rows(rows)
        # random unimodular conjugator from a few elementary operations
        W_rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
        for _ in range(data.draw(st.integers(0, 3))):
            i = data.draw(st.integers(0, rank - 1))
            j = data.draw(st.integers(0, rank - 1))
            if i == j:
                continue
            q = data.draw(st.integers(-2, 2))
            for k in range(rank):
                W_rows[i][k] += q * W_rows[j][k]
        W = IntMatrix.from_rows(W_rows)
        action = W * T * unimodular_inverse(W)
        L = LatticeModule(PG4, rank, action)
        Wc, induced = induced_action_conjugator(L)
        assert all(d == 1 for d in smith_diagonal(Wc))
        assert Wc * induced == action * Wc


def assert_composes_to_zero(matrix, inclusion, target):
    """The columns of matrix * inclusion lie in the target relation lattice."""
    lattice = target.relation_lattice()
    for col in (matrix * inclusion).columns():
        assert lattice.contains(col)


class TestPresentationKernel:
    def test_identity_has_zero_kernel(self):
        K, inc = presentation_kernel(IntMatrix.identity(4), free_module(PG4, 1))
        assert K.ngens == 0
        assert (inc.rows, inc.cols) == (4, 0)

    def test_projection_onto_res2(self):
        target = restriction_module(PG4, 2)
        f = IntMatrix.identity(4)
        K, inc = presentation_kernel(f, target)
        assert K.flatten() == FgAbGroup.free(2)
        # image of the inclusion is the ideal generated by eta^2 - 1
        ideal = RowEchelonLattice(4)
        for row in ([-1, 0, 1, 0], [0, -1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]):
            ideal.add(row)
        for col in inc.columns():
            assert ideal.contains(col)
        image = RowEchelonLattice(4)
        for col in inc.columns():
            image.add(col)
        assert image.rank == 2
        assert_composes_to_zero(f, inc, target)

    def test_restriction_difference(self, line_block):
        # (a, b) -> res(a) - res(b) out of a free rank-two module
        f = flat_block("line-minus")[1][0]
        target = block_module(line_block, 1)
        K, inc = presentation_kernel(f, target)
        assert K.flatten() == FgAbGroup.free(6)
        assert inc.rows == f.cols and inc.cols == K.flat_dim
        assert_composes_to_zero(f, inc, target)


class TestCheckEquivariance:
    def test_non_equivariant_rejected(self):
        bad = IntMatrix.from_rows([[1, 0, 0, 0]] + [[0] * 4] * 3)
        assert not _commutes_with_eta(bad, (4,), (4,))


class TestTor:
    def test_free_modules_are_flat(self):
        N = restriction_module(PG4, 2)
        groups = tor(free_module(PG4, 2), N, 2)
        assert groups[0] == FgAbGroup.free(4)
        assert groups[1].is_trivial and groups[2].is_trivial

    # 2-periodic past degree 0; the twist s_p of the total complex in
    # tor first enters at d_3
    PERIODIC = [FgAbGroup.free(2), FgAbGroup(0, (2, 2)), FgAbGroup.trivial(),
                FgAbGroup(0, (2, 2)), FgAbGroup.trivial()]

    def test_res2_against_itself(self):
        groups = tor(restriction_module(PG4, 2), restriction_module(PG4, 2), 4)
        assert groups == self.PERIODIC

    def test_gaussian_module(self):
        M = present_lattice(rotation_module())[0]
        assert tor(M, M, 4) == self.PERIODIC

    def test_degree_zero_is_tensor(self):
        mods = module_catalog()
        for a in mods.values():
            for b in mods.values():
                assert tor(a, b, 0)[0] == tensor_over_ring(a, b).flatten()

    def test_symmetric(self):
        mods = module_catalog()
        pairs = [("res2", "gauss"), ("res1", "gauss"), ("sign", "res2")]
        for x, y in pairs:
            assert tor(mods[x], mods[y], 2) == tor(mods[y], mods[x], 2)

    def test_trivial_point_group(self):
        pg1 = PointGroup(1)
        Z = quotient_by_ideal(free_module(pg1, 1), 1)
        assert tor(Z, Z, 1) == [FgAbGroup.free(1), FgAbGroup.trivial()]

    def test_group_mismatch(self):
        with pytest.raises(ValueError):
            tor(free_module(PG4, 1), free_module(PG2, 1), 1)

    def test_lifts_divide_exactly(self):
        # row i over order d_i; a row of order 0 is dropped and must vanish
        assert _divide_rows([[4, -2], [0, 0]], [2, 0]) == [[2, -1]]
        for rows, orders in (([[3, 2]], [2]), ([[0, 1]], [0])):
            with pytest.raises(AssertionError):
                _divide_rows(rows, orders)


def mixed_modules():
    """Modules whose flattenings mix Z, Z/2 and Z/4."""
    line, plane = (cohomology_table(builtin_block(name)).module(0)
                   for name in ("line-minus", "plane-i"))
    def cyclic(rel):
        return FpModule(PG4, 1, [rel])
    twisted = cyclic([-2, 2, 0, 0])   # R/(2(eta - 1)): Z + (Z/2)^3
    doubled = cyclic([4, 4, 0, 0])    # R/(4(1 + eta)): Z + (Z/4)^3
    return {
        "twisted": twisted,
        "doubled": doubled,
        "sum": FpModule(PG4, 2, [[-2, 2, 0, 0, 0, 0, 0, 0],
                                 [0, 0, 0, 0, 4, 0, 4, 0]]),
        # (1 + eta) e0 + 2 eta^2 e1: Z^4 + Z/2 with unit Smith orders
        "coupled": FpModule(PG4, 2, [[1, 1, 0, 0, 0, 0, 2, 0]]),
        "res2": restriction_module(PG4, 2),
        "gauss": present_lattice(rotation_module())[0],
        # the flagship's fold-2 degree-0 module, (line-minus H^0)^2 tensor
        # plane-i H^0: Z^20 + (Z/2)^3, its echelon 25 pivots +-1 and 3
        # pivots -2
        "fold2": tensor_over_ring(tensor_over_ring(line, line), plane),
    }


def reduce_rows(matrix, orders):
    """Row i of ``matrix`` modulo orders[i]; rows of order 0 unchanged."""
    return [[x % d if d else x for x in row]
            for row, d in zip(matrix.to_lists(), orders)]


class TestSmithCoordinates:
    @pytest.mark.parametrize("name", sorted(mixed_modules()))
    def test_orders_reproduce_flatten(self, name):
        M = mixed_modules()[name]
        orders, powers = M.smith_coordinates()
        assert 1 not in orders
        flat = M.flatten()
        assert len(orders) == flat.free_rank + len(flat.invariant_factors)
        assert FgAbGroup(orders.count(0),
                         tuple(sorted(d for d in orders if d))) == flat
        assert powers[0] == IntMatrix.identity(len(orders))

    @pytest.mark.parametrize("name", sorted(mixed_modules()))
    def test_powers_are_a_ring_action(self, name):
        orders, powers = mixed_modules()[name].smith_coordinates()
        n = len(powers)
        for u in range(n):
            for v in range(n):
                assert (reduce_rows(powers[u] * powers[v], orders)
                        == reduce_rows(powers[(u + v) % n], orders))

    @pytest.mark.parametrize("name", sorted(mixed_modules()))
    def test_powers_are_the_transported_shift(self, name):
        # powers[u] is pi P^u sigma exactly, for the pi and sigma built
        # from the relation echelon.  (E_1)^u differs from it only by
        # relations, so no Tor group could tell them apart.
        M = mixed_modules()[name]
        orders, pi, sigma = _smith_basis(M)
        assert orders == M.smith_coordinates()[0]
        assert pi * sigma == IntMatrix.identity(len(orders))
        # pi maps every relation into the span of the columns d_i e_i
        images = pi * IntMatrix.from_columns(M.flat_dim, M.relation_rows())
        assert all(x % d == 0 if d else x == 0
                   for d, row in zip(orders, images.data) for x in row)
        P = shift_matrix(M)
        for power in M.smith_coordinates()[1]:
            assert power == pi * sigma
            sigma = P * sigma

    def test_echelon_units_leave_a_residual(self):
        # the fold-2 module runs both halves: the +-1 pivots eliminate
        # their coordinates, and the -2 pivots go to the Smith form
        M = mixed_modules()["fold2"]
        pivots = [row[p] for row, p in zip(M.relation_lattice().rows,
                                           M.relation_lattice().pivots)]
        assert sorted(map(abs, pivots)) == [1] * 25 + [2] * 3
        orders, pi, sigma = _smith_basis(M)
        assert sorted(orders) == [0] * 20 + [2] * 3
        assert (pi.rows, pi.cols, sigma.rows) == (23, 48, 48)

    def test_flattening_with_mixed_orders(self):
        mods = mixed_modules()
        assert mods["twisted"].flatten() == FgAbGroup(1, (2, 2, 2))
        assert mods["doubled"].flatten() == FgAbGroup(1, (4, 4, 4))
        assert mods["sum"].flatten() == FgAbGroup(3, (2, 2, 2, 4, 4))
        assert mods["coupled"].flatten() == FgAbGroup(4, (2,))

    def test_unit_orders_dropped(self):
        zero = FpModule(PG4, 1, [[1, 0, 0, 0]])
        orders, powers = zero.smith_coordinates()
        assert orders == () and powers[0].rows == 0


class TestTorMixedTorsion:
    def test_degree_zero_is_tensor(self):
        mods = mixed_modules()
        for a in mods.values():
            for b in mods.values():
                assert tor(a, b, 0) == [tensor_over_ring(a, b).flatten()]

    @pytest.mark.parametrize("pair", [("twisted", "doubled"),
                                      ("sum", "res2"), ("doubled", "gauss"),
                                      ("twisted", "twisted"),
                                      ("coupled", "doubled")])
    def test_balanced(self, pair):
        mods = mixed_modules()
        a, b = mods[pair[0]], mods[pair[1]]
        assert tor(a, b, 4) == tor(b, a, 4)

    def test_sum_against_res2_to_depth_four(self):
        mods = mixed_modules()
        z2, z2z2 = FgAbGroup.cyclic(2), FgAbGroup(0, (2, 2))
        assert tor(mods["sum"], mods["res2"], 4) == [
            FgAbGroup(1, (2, 8, 8)), z2, z2z2, z2, z2z2]

    def test_torsion_in_higher_degrees(self):
        mods = mixed_modules()
        groups = tor(mods["twisted"], mods["doubled"], 2)
        assert any(not g.is_trivial for g in groups[1:])

    def test_zero_module(self):
        zero = FpModule(PG4, 0, ())
        killed = FpModule(PG4, 1, [[1, 0, 0, 0]])
        for M in mixed_modules().values():
            for Z in (zero, killed):
                assert tor(M, Z, 2) == [FgAbGroup.trivial()] * 3
                assert tor(Z, M, 2) == [FgAbGroup.trivial()] * 3

    def test_resolution_cached_and_extended(self):
        M = mixed_modules()["sum"]
        N = mixed_modules()["doubled"]
        short = tor(M, N, 0)
        assert len(M._resolution) == 2
        assert tor(M, N, 2)[:1] == short
        assert len(M._resolution) == 4
        assert tor(M, N, 1) == tor(mixed_modules()["sum"], N, 1)


def test_gcd_steps_keep_relation_entries_small():
    # The eta-orbits of these relations need many gcd steps.  Unreduced,
    # the echelon basis reached 25-bit entries and Tor_0 then took
    # minutes; Hermite-reduced rows stay below the determinant.
    M = FpModule(PG4, 2, [[-3, 1, 2, 2, -3, 2, -3, 0],
                          [-3, -2, -3, 2, -3, -2, 0, -3]])
    N = FpModule(PG4, 1, [[-2, -1, -1, 3]])
    assert M.flatten() == FgAbGroup(0, (16, 9520))
    assert max(abs(x) for row in M.relation_lattice().rows
               for x in row) < 16 * 9520
    assert tor(M, N, 0) == [tensor_over_ring(M, N).flatten()]
    assert tor(M, N, 0) == [FgAbGroup.cyclic(17)]
