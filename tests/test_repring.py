"""Modules over R(C_n): ring arithmetic, presentations, syzygies, Tor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bredon.intlinalg import FgAbGroup, IntMatrix, RowEchelonLattice
from bredon.repring import (
    FpModule,
    LatticeModule,
    ModuleMap,
    PointGroup,
    RingElement,
    free_module,
    lattice_to_fp,
    present_lattice,
    presentation_kernel,
    quotient_by_ideal,
    restriction_module,
    ring_multiply,
    tensor_over_ring,
    tor,
)

PG4 = PointGroup(4)
PG2 = PointGroup(2)


def eta(k, group=PG4):
    return RingElement.eta_power(group, k)


def rotation_module():
    return LatticeModule(PG4, 2, IntMatrix.from_rows([[0, -1], [1, 0]]))


def module_catalog():
    """Small modules used in pairwise property checks."""
    return {
        "free1": free_module(PG4, 1),
        "res2": restriction_module(PG4, 2),
        "res1": restriction_module(PG4, 1),
        "gauss": lattice_to_fp(rotation_module()),
        "sign": lattice_to_fp(LatticeModule(PG4, 1, IntMatrix.from_rows([[-1]]))),
    }


def ring_elements(order=4, max_coord=3):
    return st.lists(st.integers(-max_coord, max_coord),
                    min_size=order, max_size=order).map(
        lambda coords: RingElement(PointGroup(order), coords))


def small_modules(order=4):
    """Presented modules with up to two generators and two relations."""
    def build(data):
        ngens, rels = data
        return FpModule(PointGroup(order), ngens,
                        [rel[:ngens] for rel in rels])
    return st.tuples(
        st.integers(1, 2),
        st.lists(st.lists(ring_elements(order), min_size=2, max_size=2),
                 min_size=0, max_size=2),
    ).map(build)


class TestRingProperties:
    @settings(max_examples=100, deadline=None)
    @given(ring_elements(), ring_elements())
    def test_commutative(self, a, b):
        assert a * b == b * a

    @settings(max_examples=100, deadline=None)
    @given(ring_elements(), ring_elements(), ring_elements())
    def test_associative_and_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=50, deadline=None)
    @given(ring_elements())
    def test_eta_power_n_is_identity(self, a):
        assert a.shift(4) == a


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


class TestRing:
    def test_eta_times_eta_cubed(self):
        assert (eta(1) * eta(3)).coords == (1, 0, 0, 0)

    def test_defining_relation(self):
        prod = (eta(2) - eta(0)) * (eta(2) + eta(0))
        assert prod.is_zero

    def test_order_two_square(self):
        one = RingElement.one(PG2)
        sigma = RingElement.eta_power(PG2, 1)
        assert ((one + sigma) * (one + sigma)).coords == (2, 2)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            ring_multiply(RingElement.one(PG4), RingElement.one(PG2))


class TestRestrictionModule:
    def test_index_two(self):
        M = restriction_module(PG4, 2)
        assert M.ngens == 1
        assert M.relations == (((eta(2) - eta(0)),),)
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
        two = RingElement(PG4, (2, 0, 0, 0))
        M = FpModule(PG4, 1, ((eta(1) - eta(0),), (two,)))
        assert M.flatten() == FgAbGroup.cyclic(2)

    def test_pruned_preserves_flatten(self):
        rel = eta(2) - eta(0)
        M = FpModule(PG4, 1, ((rel,), (rel.shift(1),)))
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
        M = lattice_to_fp(rotation_module())
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
        M = lattice_to_fp(LatticeModule(PG4, 4, perm))
        assert M.ngens == 1 and M.relations == ()

    def test_trivial_action(self):
        M = lattice_to_fp(LatticeModule(PG4, 1, IntMatrix.identity(1)))
        assert M.ngens == 1
        assert M.flatten() == FgAbGroup.free(1)
        # relation lattice is exactly the span of the shifts of eta - 1
        expected = RowEchelonLattice(4)
        rel = eta(1) - eta(0)
        for t in range(4):
            expected.add(list(rel.shift(t).coords))
        got = M.relation_lattice()
        assert all(expected.contains(r) for r in got.basis_rows())
        assert all(got.contains(r) for r in expected.basis_rows())

    def test_rotation(self):
        M = lattice_to_fp(rotation_module())
        assert M.ngens == 1
        assert M.flatten() == FgAbGroup.free(2)
        assert M.relations == (((eta(2) + eta(0)),),)

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


class TestPresentationKernel:
    def test_identity_has_zero_kernel(self):
        K, inc = presentation_kernel(ModuleMap.identity(free_module(PG4, 1)))
        assert K.ngens == 0
        assert inc.matrix.cols == 0

    def test_projection_onto_res2(self):
        target = restriction_module(PG4, 2)
        f = ModuleMap(free_module(PG4, 1), target, IntMatrix.identity(4))
        K, inc = presentation_kernel(f)
        assert K.flatten() == FgAbGroup.free(2)
        # image of the inclusion is the ideal generated by eta^2 - 1
        ideal = RowEchelonLattice(4)
        gen = eta(2) - eta(0)
        for t in range(4):
            ideal.add(list(gen.shift(t).coords))
        for col in inc.matrix.columns():
            assert ideal.contains(col)
        image = RowEchelonLattice(4)
        for col in inc.matrix.columns():
            image.add(col)
        assert image.rank == 2
        assert f.compose(inc).is_zero_map()

    def test_restriction_difference(self, line_complex):
        # (a, b) -> res(a) - res(b) out of a free rank-two module
        f = ModuleMap(free_module(PG4, 2), line_complex.modules[1],
                      line_complex.maps[0].matrix)
        K, inc = presentation_kernel(f)
        assert K.flatten() == FgAbGroup.free(6)
        assert f.compose(inc).is_zero_map()

    def test_requires_free_source(self):
        M = restriction_module(PG4, 2)
        with pytest.raises(ValueError):
            presentation_kernel(ModuleMap.identity(M))


class TestModuleMapValidation:
    def test_non_equivariant_rejected(self):
        bad = IntMatrix.from_rows([[1, 0, 0, 0]] + [[0] * 4] * 3)
        with pytest.raises(ValueError, match="equivariant"):
            ModuleMap(free_module(PG4, 1), free_module(PG4, 1), bad)

    def test_relation_violation_rejected(self):
        # R -> R cannot factor through R/(eta^2 - 1) by the identity
        src = restriction_module(PG4, 2)
        with pytest.raises(ValueError, match="relations"):
            ModuleMap(src, free_module(PG4, 1), IntMatrix.identity(4))


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
        M = lattice_to_fp(rotation_module())
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
