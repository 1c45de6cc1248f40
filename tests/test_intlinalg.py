"""Exact integer linear algebra: Smith form, lattices, canonical groups."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bredon.intlinalg import (
    FgAbGroup,
    IntMatrix,
    LinearSolver,
    RowEchelonLattice,
    determinant,
    hom_ext_z,
    kernel_lattice,
    smith_diagonal,
    snf,
    solve_exact,
    subquotient_with_action,
    unimodular_inverse,
)


def small_matrices(max_dim=5, max_entry=9):
    dims = st.integers(0, max_dim)
    return dims.flatmap(lambda r: dims.flatmap(lambda c: st.lists(
        st.lists(st.integers(-max_entry, max_entry), min_size=c, max_size=c),
        min_size=r, max_size=r,
    ).map(lambda rows: IntMatrix(r, c, rows))))


def check_snf_invariants(A):
    dec = snf(A)
    assert dec.U * A * dec.V == dec.D
    assert abs(determinant(dec.U)) == 1
    assert abs(determinant(dec.V)) == 1
    diag = dec.diagonal()
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    # all zeros trail and nonzero entries form a divisibility chain
    assert diag[:len(nonzero)] == nonzero
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # off-diagonal entries vanish
    for i in range(dec.D.rows):
        for j in range(dec.D.cols):
            if i != j:
                assert dec.D.entry(i, j) == 0
    return dec


class TestSnf:
    def test_identity(self):
        I2 = IntMatrix.identity(2)
        dec = snf(I2)
        assert dec.U == I2 and dec.D == I2 and dec.V == I2

    def test_two_by_two(self):
        A = IntMatrix.from_rows([[2, 4], [6, 8]])
        dec = check_snf_invariants(A)
        # independent oracle: d1 is the gcd of the entries and d1*d2 the
        # gcd of the 2x2 minors (here |det| = 8)
        entries = [x for row in A.data for x in row]
        d1 = 0
        for x in entries:
            d1 = gcd(d1, x)
        assert dec.diagonal() == [d1, abs(determinant(A)) // d1] == [2, 4]

    def test_zero_matrix(self):
        dec = snf(IntMatrix.zeros(2, 3))
        assert dec.D == IntMatrix.zeros(2, 3)
        assert dec.diagonal() == [0, 0]

    def test_empty_matrix(self):
        dec = snf(IntMatrix.zeros(0, 3))
        assert dec.D.rows == 0 and dec.D.cols == 3

    @pytest.mark.parametrize("rows", [
        [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
        [[0, 3, 0], [0, 0, 2], [1, 0, 0]],
        [[0, 0, 2], [3, 0, 0], [0, 1, 0]],
    ])
    def test_unit_pivot_leaves_later_pivots_fixed(self, rows):
        # the first pivot is 1 and may skip the divisibility scan; the
        # pivot 2 after it may not, or the chain would read 1, 2, 3
        A = IntMatrix.from_rows(rows)
        assert smith_diagonal(A) == [1, 1, 6]
        assert check_snf_invariants(A).diagonal() == [1, 1, 6]

    @settings(max_examples=300, deadline=None)
    @given(small_matrices())
    def test_invariants_random(self, A):
        check_snf_invariants(A)

    @settings(max_examples=150, deadline=None)
    @given(small_matrices())
    def test_transpose_same_diagonal(self, A):
        d1 = [d for d in smith_diagonal(A) if d]
        d2 = [d for d in smith_diagonal(A.transpose()) if d]
        assert d1 == d2

    @settings(max_examples=150, deadline=None)
    @given(small_matrices())
    def test_rank_nullity(self, A):
        rank = sum(1 for d in smith_diagonal(A) if d)
        assert rank + kernel_lattice(A).cols == A.cols


class TestKernel:
    def test_identity_kernel_empty(self):
        basis = kernel_lattice(IntMatrix.identity(2))
        assert basis.rows == 2 and basis.cols == 0

    def test_sum_zero(self):
        basis = kernel_lattice(IntMatrix.from_rows([[1, 1]]))
        assert basis.cols == 1
        col = basis.column(0)
        assert sorted(col) == [-1, 1]

    @settings(max_examples=100, deadline=None)
    @given(small_matrices())
    def test_kernel_columns_annihilated(self, A):
        for col in kernel_lattice(A).columns():
            assert all(x == 0 for x in A.mul_vector(col))

    def test_restriction_difference_kernel(self):
        # the order-4 to order-2 character restriction applied to a pair
        # with opposite signs, in freed coordinates: a 2x8 matrix with
        # kernel of rank 6
        res = [[1, 0, 1, 0], [0, 1, 0, 1]]
        A = IntMatrix.from_rows([r + [-x for x in r] for r in res])
        assert kernel_lattice(A).cols == 6


def cokernel(sub: IntMatrix) -> FgAbGroup:
    """Z^rows modulo the span of the columns of ``sub``."""
    return FgAbGroup.from_smith_diagonal(sub.rows, smith_diagonal(sub))


class TestQuotientGroup:
    def test_diagonal_sub(self):
        sub = IntMatrix.from_columns(2, [[2, 0], [0, 4]])
        assert cokernel(sub) == FgAbGroup(0, (2, 4))

    def test_partial_sub(self):
        sub = IntMatrix.from_columns(2, [[2, 0]])
        assert cokernel(sub) == FgAbGroup(1, (2,))

    def test_empty_sub(self):
        assert cokernel(IntMatrix.zeros(3, 0)) == FgAbGroup.free(3)

    @settings(max_examples=100, deadline=None)
    @given(small_matrices(max_dim=4, max_entry=5))
    def test_invariant_under_unimodular_basis_change(self, A):
        # compare the cokernel of A against the cokernel of A * V for the
        # unimodular V produced by the Smith reduction of A itself
        V = snf(A).V
        g1 = FgAbGroup.from_smith_diagonal(A.rows, smith_diagonal(A))
        g2 = FgAbGroup.from_smith_diagonal(A.rows, smith_diagonal(A * V))
        assert g1 == g2


class TestSolve:
    def test_identity(self):
        assert solve_exact(IntMatrix.identity(2), [3, 5]) == [3, 5]

    def test_no_solution(self):
        assert solve_exact(IntMatrix.from_rows([[2]]), [3]) is None

    def test_underdetermined(self):
        A = IntMatrix.from_rows([[2, 1]])
        x = solve_exact(A, [3])
        assert x is not None and 2 * x[0] + x[1] == 3

    @pytest.mark.parametrize("b", [[1], [1, 2, 3]])
    def test_wrong_length_rejected(self, b):
        with pytest.raises(ValueError, match="vector length mismatch"):
            LinearSolver(IntMatrix.from_rows([[1, 0], [0, 2]])).solve(b)

    @settings(max_examples=100, deadline=None)
    @given(small_matrices(max_dim=4, max_entry=4),
           st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    def test_constructed_solutions_found(self, A, x0):
        b = A.mul_vector(x0[:A.cols] + [0] * max(0, A.cols - len(x0)))
        x = solve_exact(A, b)
        assert x is not None
        assert A.mul_vector(x) == b


class TestFgAbGroup:
    def test_canonical_equality(self):
        assert FgAbGroup(1, (2, 4)) == FgAbGroup(1, (2, 4))
        assert FgAbGroup(1, (2,)) != FgAbGroup(1, (4,))

    def test_validation(self):
        with pytest.raises(ValueError, match="must be >= 2"):
            FgAbGroup(0, (1,))
        with pytest.raises(ValueError, match="must form a divisibility chain"):
            FgAbGroup(0, (4, 2))
        with pytest.raises(ValueError, match="negative free rank"):
            FgAbGroup(-1)

    def test_direct_sum_recanonicalizes(self):
        assert FgAbGroup.cyclic(2).direct_sum(FgAbGroup.cyclic(3)) \
            == FgAbGroup(0, (6,))
        assert FgAbGroup.cyclic(2).direct_sum(FgAbGroup.cyclic(4)) \
            == FgAbGroup(0, (2, 4))
        assert FgAbGroup.free(2).direct_sum(FgAbGroup.trivial()) \
            == FgAbGroup.free(2)

    def test_str(self):
        assert str(FgAbGroup.trivial()) == "0"
        assert str(FgAbGroup.free(1)) == "Z"
        assert str(FgAbGroup(2, (2, 2, 4))) == "Z^2 ⊕ (Z/2)^2 ⊕ Z/4"

    def test_hom_ext(self):
        assert hom_ext_z(FgAbGroup.free(6)) == (FgAbGroup.free(6),
                                                FgAbGroup.trivial())
        assert hom_ext_z(FgAbGroup.cyclic(4)) == (FgAbGroup.trivial(),
                                                  FgAbGroup.cyclic(4))
        assert hom_ext_z(FgAbGroup(2, (2, 4))) == (FgAbGroup.free(2),
                                                   FgAbGroup(0, (2, 4)))


class TestLatticeHelpers:
    def test_column_span_reduces_dependent_columns(self):
        A = IntMatrix.from_columns(2, [[2, 0], [4, 0], [0, 3]])
        lat = RowEchelonLattice(2)
        for col in A.columns():
            lat.add(col)
        basis = lat.basis_columns_matrix(2)
        assert lat.rank == basis.cols == 2
        span = RowEchelonLattice(2)
        for col in basis.columns():
            span.add(col)
        assert span.contains([2, 0]) and span.contains([4, 0])
        assert span.contains([0, 3])
        assert not span.contains([1, 0])

    def test_row_echelon_membership(self):
        lat = RowEchelonLattice(3)
        lat.add([2, 0, 0])
        lat.add([0, 1, 1])
        assert lat.contains([2, 1, 1])
        assert not lat.contains([1, 0, 0])
        assert lat.rank == 2

    def test_unimodular_inverse(self):
        M = IntMatrix.from_rows([[1, 2], [1, 3]])
        assert M * unimodular_inverse(M) == IntMatrix.identity(2)

    def test_subquotient_with_action_free(self):
        # Z^2 / (2e1 + ... nothing) with the swap action
        basis = IntMatrix.identity(2)
        sub = IntMatrix.zeros(2, 0)
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        group, T = subquotient_with_action(basis, sub, swap * basis)
        assert group == FgAbGroup.free(2)
        assert T == swap

    def test_subquotient_with_torsion_gives_no_action(self):
        basis = IntMatrix.identity(1)
        sub = IntMatrix.from_columns(1, [[2]])
        group, T = subquotient_with_action(basis, sub, IntMatrix.identity(1))
        assert group == FgAbGroup.cyclic(2)
        assert T is None

    def test_linear_solver_matrix(self):
        A = IntMatrix.from_rows([[1, 0], [1, 2]])
        solver = LinearSolver(A)
        X = solver.solve_matrix(IntMatrix.from_columns(2, [[1, 3], [0, 2]]))
        assert A * X == IntMatrix.from_columns(2, [[1, 3], [0, 2]])
