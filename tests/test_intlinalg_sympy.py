"""Cross-check of the Smith form and the exact solver against sympy.

The matrices are seeded random ones shaped like the engine's: up to 12 x 12,
mostly 0 and +-1 entries; every other seed draws many 2, 3 and 4 entries
too, so that torsion and non-unit pivots are common.  The solver also runs
on tall thin (20 x 6) matrices, on matrices with dependent columns, and on
matrices with no rows or no columns.  Solvability is decided
independently of the engine: b lies in the image of A exactly when
coker A and coker [A | b] have the same invariants (a finitely generated
abelian group is not isomorphic to a proper quotient of itself).

The diagonal-only Smith form eliminates unit pivots on a sparse copy
first, so it also runs on sparse matrices at the engine's scale, 20 x 30
to 40 x 40: graph incidence matrices, echelon relation bases with +-1 and
+-2 pivots, unimodular and unit-free matrices, and matrices with zero
rows, zero columns or no rows or columns at all.  ``snf`` keeps the dense
path and is the second reference.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy import Matrix  # noqa: E402
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

from bredon.intlinalg import (  # noqa: E402
    FgAbGroup,
    IntMatrix,
    LinearSolver,
    smith_diagonal,
    snf,
)

SEEDS = range(60)


def random_matrix(rng, rows, cols, big):
    """60% zeros; a nonzero entry is +-2, +-3 or +-4 with probability big."""
    def entry():
        if rng.random() < 0.6:
            return 0
        size = rng.choice((2, 3, 4)) if rng.random() < big else 1
        return rng.choice((-1, 1)) * size
    return IntMatrix(rows, cols, [[entry() for _ in range(cols)]
                                  for _ in range(rows)])


def sympy_invariants(A: IntMatrix):
    """(rank, sorted nonzero invariant factors) of A according to sympy."""
    if A.rows == 0 or A.cols == 0:
        return 0, []
    S = smith_normal_form(Matrix(A.to_lists()))
    nonzero = sorted(abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i])
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0, "sympy returned no divisibility chain"
    return len(nonzero), nonzero


def in_image(A: IntMatrix, b):
    """b in im A, decided from the invariants of coker A and coker [A | b]."""
    Ab = A.hstack(IntMatrix.from_columns(A.rows, [b]))
    return sympy_invariants(A) == sympy_invariants(Ab)


def cases():
    for seed in SEEDS:
        rng = random.Random(seed)
        A = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12),
                          0.25 if seed % 2 else 0.75)
        x0 = [rng.randint(-2, 2) for _ in range(A.cols)]
        image = A.mul_vector(x0)
        nudged = list(image)
        nudged[rng.randrange(A.rows)] += rng.choice((-1, 1, 2))
        sparse = [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(A.rows)]
        yield seed, A, (image, nudged, sparse)


@pytest.mark.parametrize("seed,A,rhs", list(cases()),
                         ids=[f"seed{s}" for s in SEEDS])
def test_smith_and_solver_agree_with_sympy(seed, A, rhs):
    rank, factors = sympy_invariants(A)
    expected = factors + [0] * (min(A.rows, A.cols) - rank)
    assert smith_diagonal(A) == expected
    assert snf(A).diagonal() == expected
    solver = LinearSolver(A)
    for b in rhs:
        x = solver.solve(b)
        if in_image(A, b):
            assert x is not None, f"missed a solution of A x = {b}"
            assert A.mul_vector(x) == b
        else:
            assert x is None, f"solved A x = {b}, which has no solution"


def test_cases_cover_both_verdicts():
    verdicts = {in_image(A, b) for _, A, rhs in cases() for b in rhs}
    assert verdicts == {True, False}


def shaped_cases():
    """Tall thin, dependent-column and empty shapes for the solver."""
    for seed in range(20):
        rng = random.Random(1000 + seed)
        big = 0.25 if seed % 2 else 0.75
        tall = random_matrix(rng, 20, 6, big)
        base = random_matrix(rng, 8, 4, big)
        combos = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(3)]
        dependent = base.hstack(IntMatrix.from_columns(
            8, [base.mul_vector(c) for c in combos]))
        for label, A in (("tall", tall), ("dependent", dependent)):
            x0 = [rng.randint(-2, 2) for _ in range(A.cols)]
            image = A.mul_vector(x0)
            nudged = list(image)
            nudged[rng.randrange(A.rows)] += rng.choice((-1, 1, 2))
            sparse = [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(A.rows)]
            yield f"{label}{seed}", A, (image, nudged, sparse)
    yield "no-rows", IntMatrix(0, 3, []), ([],)
    yield "no-cols", IntMatrix(3, 0, [[], [], []]), ([0, 0, 0], [0, 1, 0])
    yield "empty", IntMatrix(0, 0, []), ([],)


@pytest.mark.parametrize("label,A,rhs", list(shaped_cases()),
                         ids=[label for label, _, _ in shaped_cases()])
def test_solver_on_shaped_matrices(label, A, rhs):
    solver = LinearSolver(A)
    for b in rhs:
        x = solver.solve(b)
        if in_image(A, b):
            assert x is not None, f"missed a solution of A x = {b}"
            assert len(x) == A.cols and A.mul_vector(x) == b
        else:
            assert x is None, f"solved A x = {b}, which has no solution"


def test_shaped_cases_cover_both_verdicts():
    verdicts = {label.rstrip("0123456789"): set() for label, _, _
                in shaped_cases()}
    for label, A, rhs in shaped_cases():
        verdicts[label.rstrip("0123456789")] |= {in_image(A, b) for b in rhs}
    assert verdicts["tall"] == verdicts["dependent"] == {True, False}
    assert verdicts["no-cols"] == {True, False}


# Coprime orders, which must merge (Z/2 + Z/3 = Z/6), and powers of one
# prime, which must stack (Z/2 + Z/4 stays as it is).
TORSION_ORDERS = (2, 3, 4, 5, 8, 9, 12, 25, 27, 36)


def direct_sum_cases():
    yield "fixed", [FgAbGroup.cyclic(d) for d in (2, 3, 4, 9, 12, 25)]
    for seed in range(40):
        rng = random.Random(2000 + seed)
        yield f"seed{seed}", [
            FgAbGroup(rng.randint(0, 2), (rng.choice(TORSION_ORDERS),))
            for _ in range(rng.randint(1, 7))]


@pytest.mark.parametrize("label,parts", list(direct_sum_cases()),
                         ids=[label for label, _ in direct_sum_cases()])
def test_direct_sum_matches_sympy_smith_form(label, parts):
    # the canonical torsion of a sum is the Smith form of the diagonal
    # matrix of its summands' torsion orders
    orders = [d for g in parts for d in g.invariant_factors]
    diagonal = IntMatrix(len(orders), len(orders), [
        [d if i == j else 0 for j in range(len(orders))]
        for i, d in enumerate(orders)])
    _, factors = sympy_invariants(diagonal)
    total = parts[0].direct_sum(*parts[1:])
    assert total == FgAbGroup(sum(g.free_rank for g in parts),
                              tuple(d for d in factors if d > 1))


def incidence(rng, vertices, edges, signed):
    """Vertex-by-edge incidence matrix of a random multigraph.

    Signed, a column is e_u - e_v and the cokernel is torsion free.
    Unsigned, it is e_u + e_v, and an odd cycle gives a Z/2 that only
    fill-in from eliminating the cycle's other units can expose.
    """
    columns = []
    for _ in range(edges):
        u, v = rng.sample(range(vertices), 2)
        col = [0] * vertices
        col[u], col[v] = 1, -1 if signed else 1
        columns.append(col)
    return IntMatrix.from_columns(vertices, columns)


def echelon_relations(rng, ambient, count):
    """Columns shaped like ``relation_columns()``: echelon relation rows
    with +-1 and +-2 pivots in increasing positions, sparse past them."""
    pivots = sorted(rng.sample(range(ambient), count))
    columns = []
    for p in pivots:
        col = [0] * ambient
        col[p] = rng.choice((1, -1, 2, -2))
        for i in range(p + 1, ambient):
            if rng.random() < 0.08:
                col[i] = rng.choice((1, -1, 2, -2))
        columns.append(col)
    return IntMatrix.from_columns(ambient, columns)


def unimodular(rng, n):
    """A shuffled upper unitriangular matrix up to signs: all-unit Smith."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice((1, -1))
        for j in range(i + 1, n):
            if rng.random() < 0.06:
                rows[i][j] = rng.choice((1, -1, 2, -3))
    rng.shuffle(rows)
    order = rng.sample(range(n), n)
    return IntMatrix(n, n, [[r[j] for j in order] for r in rows])


def unit_free(rng, rows, cols):
    """Sparse, with every nonzero entry even: no unit pivot anywhere."""
    return IntMatrix(rows, cols, [
        [rng.choice((2, -2, 4, -6)) if rng.random() < 0.08 else 0
         for _ in range(cols)] for _ in range(rows)])


def with_zero_lines(rng, A, zero_rows, zero_cols):
    """A with zero rows and zero columns inserted at random places."""
    data = A.to_lists()
    for _ in range(zero_rows):
        data.insert(rng.randint(0, len(data)), [0] * A.cols)
    cols = A.cols
    for _ in range(zero_cols):
        at = rng.randint(0, cols)
        for row in data:
            row.insert(at, 0)
        cols += 1
    return IntMatrix(len(data), cols, data)


def sparse_cases():
    for seed in range(10):
        rng = random.Random(3000 + seed)
        rows, cols = rng.randint(20, 40), rng.randint(30, 40)
        yield f"signed{seed}", incidence(rng, rows, cols, True)
        yield f"unsigned{seed}", incidence(rng, rows, cols, False)
        ambient = rng.randint(20, 40)
        yield f"echelon{seed}", echelon_relations(
            rng, ambient, rng.randint(ambient // 2, ambient))
        yield f"unimodular{seed}", unimodular(rng, rng.randint(20, 40))
        yield f"unitfree{seed}", unit_free(rng, rows, cols)
        yield f"zerolines{seed}", with_zero_lines(
            rng, incidence(rng, rows - 4, cols - 3, seed % 2 == 0), 4, 3)
    # the triangle: eliminating two units fills in the 2 of its odd cycle
    yield "triangle", IntMatrix.from_rows([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    yield "no-rows", IntMatrix(0, 30, [])
    yield "no-cols", IntMatrix(30, 0, [[]] * 30)
    yield "zero", IntMatrix.zeros(20, 30)


@pytest.mark.parametrize("label,A", list(sparse_cases()),
                         ids=[label for label, _ in sparse_cases()])
def test_sparse_smith_diagonal_matches_sympy_and_dense(label, A):
    rank, factors = sympy_invariants(A)
    expected = factors + [0] * (min(A.rows, A.cols) - rank)
    assert snf(A).diagonal() == expected
    assert smith_diagonal(A) == expected


def test_sparse_cases_cover_each_kind():
    seen = set()
    for label, A in sparse_cases():
        diag = smith_diagonal(A)
        entries = {x for row in A.data for x in row}
        if entries <= {0, 1, -1} and any(d > 1 for d in diag):
            seen.add("fill-in torsion")  # no entry is > 1, so fill made it
        if diag and diag[0] > 1:
            seen.add("no unit")
        if diag and all(d == 1 for d in diag):
            seen.add("all units")
        if 0 in diag:
            seen.add("rank deficient")
        if label.startswith("echelon") and any(d > 1 for d in diag):
            seen.add("echelon torsion")
    assert seen == {"fill-in torsion", "no unit", "all units",
                    "rank deficient", "echelon torsion"}
