"""Modules over R(C_n): flat relation rows, presentations, syzygies, Tor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bredon.complexes import block_module
from bredon.intlinalg import FgAbGroup, IntMatrix, RowEchelonLattice
from bredon.repring import (
    FpModule,
    LatticeModule,
    PointGroup,
    check_equivariance,
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


def small_modules(order=4, max_coord=3):
    """Presented modules with up to two generators and two relations."""
    def build(ngens):
        row = st.lists(st.integers(-max_coord, max_coord),
                       min_size=ngens * order, max_size=ngens * order)
        return st.lists(row, max_size=2).map(
            lambda rels: FpModule(PointGroup(order), ngens, rels))
    return st.integers(1, 2).flatmap(build)


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
        shift = M.shift_matrix()
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
        assert kernel.rank == rel.rank == 2
        for col in kernel.basis.columns():
            assert rel.contains(col)

    def test_augmentation(self):
        M = restriction_module(PG4, 1)
        assert M.flatten() == FgAbGroup.free(1)
        # eta acts trivially on the flatten of R/(eta - 1)
        lat = M.relation_lattice()
        shifted = M.shift_matrix().mul_vector([1, 0, 0, 0])
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
    induced = P * module.shift_matrix() * S
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
        with pytest.raises(ValueError):
            LatticeModule(PG4, 1, IntMatrix.from_rows([[2]]))

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
        f = line_block.differentials[0]
        target = block_module(line_block, 1)
        K, inc = presentation_kernel(f, target)
        assert K.flatten() == FgAbGroup.free(6)
        assert inc.rows == f.cols and inc.cols == K.flat_dim
        assert_composes_to_zero(f, inc, target)


class TestCheckEquivariance:
    def test_non_equivariant_rejected(self):
        bad = IntMatrix.from_rows([[1, 0, 0, 0]] + [[0] * 4] * 3)
        with pytest.raises(ValueError, match="equivariant"):
            check_equivariance(bad, 4)


class TestTor:
    def test_free_modules_are_flat(self):
        N = restriction_module(PG4, 2)
        groups = tor(free_module(PG4, 2), N, 2)
        assert groups[0] == FgAbGroup.free(4)
        assert groups[1].is_trivial and groups[2].is_trivial

    def test_res2_against_itself(self):
        groups = tor(restriction_module(PG4, 2), restriction_module(PG4, 2), 2)
        assert groups == [FgAbGroup.free(2), FgAbGroup(0, (2, 2)),
                          FgAbGroup.trivial()]

    def test_gaussian_module(self):
        M = present_lattice(rotation_module())[0]
        groups = tor(M, M, 2)
        assert groups == [FgAbGroup.free(2), FgAbGroup(0, (2, 2)),
                          FgAbGroup.trivial()]

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
