"""Independent oracles for the corrected values of acceptance criteria 1-3 and 7.

``test_acceptance.py`` asserts the engine's quotient, tensor and derived
(Tor) values against the constants ``CORRECTED`` and ``COLLAPSE_ROWS``.
This module recomputes every one of those constants without the engine's
module, tensor, resolution or Tor code, using sympy for the exact algebra:

* A module over R = R(Z/4) = Z[eta]/(eta^4 - 1) is a triple (dim, rel, T):
  the abelian group Z^dim modulo the columns of ``rel``, with eta acting by
  the integer matrix T.  A cell of isotropy order m carries R(Z/m), which
  is Z^m with eta acting as the cyclic shift; the coefficient maps of the
  incidences are the restrictions eta^t -> eta^(t mod m).
* H^0 of a block is the integer kernel of its degree-0 incidence matrix in
  these coordinates, with the induced eta action.
* M (x)_R N is the cokernel of T_M (x) 1 - 1 (x) T_N on M (x)_Z N, and
  M/(eta^k - 1)M appends the columns of T^k - 1 to the relations.
* Tor^R_p(X, Y) for a Z-free X is the group homology H_p(Z/4; X (x)_Z Y)
  with the diagonal action in which eta acts on X by its inverse.  Tor
  against Q = R/(eta^2 + 1) also has a closed form from the 2-periodic
  resolution ... -> R -(eta^2 - 1)-> R -(eta^2 + 1)-> R -> Q.
* Groups are read off ``hermite_normal_form`` then ``smith_normal_form``.

The fold-3 rows are also checked by Tor balance inside the engine: its Tor
computed by resolving either argument gives the same groups.
"""

from collections import namedtuple

import pytest

sympy = pytest.importorskip("sympy")
from sympy import Matrix, diag, eye, zeros  # noqa: E402
from sympy.matrices.normalforms import (  # noqa: E402
    hermite_normal_form,
    smith_normal_form,
)

from bredon.complexes import (  # noqa: E402
    bredon_cochain_complex,
    builtin_block,
    cohomology_table,
)
from bredon.intlinalg import FgAbGroup  # noqa: E402
from bredon.pullback import kunneth_tensor  # noqa: E402
from bredon.repring import tor  # noqa: E402
from test_acceptance import COLLAPSE_ROWS, CORRECTED  # noqa: E402

ORDER = 4

# Cell isotropy orders per degree and the degree-0 incidences of the
# catalog blocks, transcribed from the catalog in ``bredon.complexes``.
LINE_CELLS = ((4, 4), (2,))
LINE_D0 = [{0: 1, 1: -1}]
PLANE_CELLS = ((4, 4, 2), (1, 1), (1,))
PLANE_D0 = [{0: -1, 1: 1}, {1: -1, 2: 1}]

Module = namedtuple("Module", "dim rel T")


# ---------------------------------------------------------------- algebra

def integral(M):
    assert all(x.is_integer for x in M), "expected an integer matrix"
    return M.applyfunc(int)


def kron(A, B):
    return Matrix(A.rows * B.rows, A.cols * B.cols,
                  lambda i, j: A[i // B.rows, j // B.cols]
                  * B[i % B.rows, j % B.cols])


def int_kernel(A):
    """Columns spanning {x in Z^n : A x = 0}, by unimodular column steps.

    Each row is cleared by repeated division with the smallest entry as
    pivot.  The tracked transform is unimodular and its columns past the
    pivots are zero on every row, so they span the kernel exactly.
    """
    m, n = A.shape
    cols = [[int(A[i, j]) for i in range(m)] + [int(i == j) for i in range(n)]
            for j in range(n)]
    piv = 0
    for i in range(m):
        while True:
            live = [j for j in range(piv, n) if cols[j][i]]
            if not live:
                break
            best = min(live, key=lambda j: abs(cols[j][i]))
            cols[piv], cols[best] = cols[best], cols[piv]
            if len(live) == 1:
                piv += 1
                break
            p = cols[piv]
            for j in range(piv + 1, n):
                a = cols[j][i]
                if a:
                    q = (2 * a + p[i]) // (2 * p[i])   # nearest quotient
                    cols[j] = [x - q * y for x, y in zip(cols[j], p)]
    K = Matrix(n, n - piv, lambda i, j: cols[piv + j][m + i])
    assert (A * K).is_zero_matrix
    return K


def group(rel, dim):
    """Z^dim modulo the column span of ``rel``."""
    if rel.cols == 0 or rel.is_zero_matrix:
        return FgAbGroup.free(dim)
    H = hermite_normal_form(integral(rel))
    S = smith_normal_form(H)
    nonzero = [abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i]]
    return FgAbGroup.from_smith_diagonal(dim, sorted(nonzero))


def lattice(T):
    return Module(T.rows, zeros(T.rows, 0), T)


def cyclic_shift(m):
    return Matrix(m, m, lambda i, j: int(i == (j + 1) % m))


def restriction(a, b):
    """R(Z/a) -> R(Z/b) for b | a: eta^t -> eta^(t mod b)."""
    return Matrix(b, a, lambda i, j: int(j % b == i))


def incidence(source, target, rows):
    blocks = [[zeros(b, a) for a in source] for b in target]
    for e, spec in enumerate(rows):
        for v, c in spec.items():
            blocks[e][v] = c * restriction(source[v], target[e])
    return Matrix.vstack(*[Matrix.hstack(*r) for r in blocks])


def h0_lattice(cells, d0_rows):
    """H^0 of a block as a lattice with eta action, plus its kernel basis."""
    d0 = incidence(cells[0], cells[1], d0_rows)
    K = int_kernel(d0)
    assert group(K, K.rows).is_free, "kernel basis must be saturated"
    T = diag(*[cyclic_shift(m) for m in cells[0]])
    TH = integral((K.T * K).inv() * K.T * T * K)
    assert K * TH == T * K
    return lattice(TH), K, d0, T


def tensor(X, Y):
    parts = [kron(X.rel, eye(Y.dim)), kron(eye(X.dim), Y.rel),
             kron(X.T, eye(Y.dim)) - kron(eye(X.dim), Y.T)]
    return Module(X.dim * Y.dim, Matrix.hstack(*[p for p in parts if p.cols]),
                  kron(X.T, eye(Y.dim)))


def free_reduction(M):
    """A module with free underlying group, as a lattice with eta action.

    The rows of P span the integer left kernel of the relations, so P maps
    Z^dim onto Z^rank with kernel the (saturated) relation span.
    """
    assert group(M.rel, M.dim).is_free
    P = int_kernel(M.rel.T).T
    TP = integral(P * M.T * P.T * (P * P.T).inv())
    assert TP * P == P * M.T
    return lattice(TP)


def quotient(M, k):
    """The group of M/(eta^k - 1)M."""
    return group(Matrix.hstack(M.rel, M.T ** k - eye(M.dim)), M.dim)


def subquotient(M, f, g):
    """{x : f x = 0 in M} / (image of g), for endomorphisms f, g of M."""
    K = int_kernel(Matrix.hstack(f, -M.rel))
    cycles = K[:M.dim, :]
    boundaries = Matrix.hstack(g, M.rel)
    relations = int_kernel(Matrix.hstack(cycles, -boundaries))
    return group(relations[:cycles.cols, :], cycles.cols)


def group_homology(M, p):
    """H_p(Z/4; M) from the periodic resolution with maps eta - 1 and norm."""
    one = eye(M.dim)
    shift = M.T - one
    norm = one + M.T + M.T ** 2 + M.T ** 3
    if p == 0:
        return group(Matrix.hstack(M.rel, shift), M.dim)
    if p % 2:
        return subquotient(M, shift, norm)
    return subquotient(M, norm, shift)


def tor_free(X, Y, p):
    """Tor^R_p(X, Y) for a lattice X, as H_p(Z/4; X (x)_Z Y)."""
    M = Module(X.dim * Y.dim, kron(eye(X.dim), Y.rel),
               kron(X.T ** (ORDER - 1), Y.T))
    return group_homology(M, p)


def tor_gaussian(M, p):
    """Tor^R_p(Q, M), Q = R/(eta^2 + 1), from the 2-periodic resolution."""
    plus = M.T ** 2 + eye(M.dim)
    minus = M.T ** 2 - eye(M.dim)
    if p == 0:
        return group(Matrix.hstack(M.rel, plus), M.dim)
    if p % 2:
        return subquotient(M, plus, minus)
    return subquotient(M, minus, plus)


def total(groups):
    groups = list(groups)
    return groups[0].direct_sum(*groups[1:])


def nonzero_rows(rows):
    return {pq: g for pq, g in rows.items() if not g.is_trivial}


# ---------------------------------------------------------- the modules

GAUSSIAN = lattice(Matrix([[0, -1], [1, 0]]))     # Q = Z[i], eta = i
TRIVIAL = lattice(Matrix([[1]]))                  # Z, eta = 1
TRIVIAL_MOD_2 = Module(1, Matrix([[2]]), Matrix([[1]]))  # Q (x)_R Z = Z/2


@pytest.fixture(scope="module")
def line_h0():
    return h0_lattice(LINE_CELLS, LINE_D0)[0]


@pytest.fixture(scope="module")
def plane_h0():
    return h0_lattice(PLANE_CELLS, PLANE_D0)[0]


@pytest.fixture(scope="module")
def first_fold(line_h0):
    """A = H^0(line) (x)_R H^0(line)."""
    return tensor(line_h0, line_h0)


# ----------------------------------------------------------------- tests

@pytest.mark.parametrize("name,cells,d0_rows", [
    ("line-minus", LINE_CELLS, LINE_D0),
    ("plane-i", PLANE_CELLS, PLANE_D0),
])
def test_transcribed_blocks_match_the_catalog(name, cells, d0_rows):
    block = builtin_block(name)
    assert tuple(tuple(c) for c in block.cells) == cells
    # the engine's freed differential is the incidence matrix
    freed = Matrix(block.differentials[0].to_lists())
    assert freed == incidence(cells[0], cells[1], d0_rows)


def test_plain_cohomology_values(line_h0, plane_h0, first_fold):
    assert line_h0.dim == 6 and plane_h0.dim == 8
    assert group(first_fold.rel, first_fold.dim) == FgAbGroup.free(10)
    # H^2(plane) = Z with trivial eta: one free face orbit and d^1 = 0
    assert PLANE_CELLS[2] == (1,)
    assert builtin_block("plane-i").differentials[1].is_zero()


def test_criterion_1_quotients(line_h0):
    assert quotient(line_h0, 2) == CORRECTED[1]["H^0/I"]
    assert quotient(line_h0, 1) == CORRECTED[1]["H^0/J"]


def test_criterion_2_quotients(plane_h0):
    assert quotient(plane_h0, 2) == CORRECTED[2]["H^0/I"]
    assert quotient(plane_h0, 1) == CORRECTED[2]["H^0/J"]
    # the free rank of H^0(plane)/I counts the characters +1 and -1
    mult = {c: plane_h0.dim - (plane_h0.T - c * eye(plane_h0.dim)).rank()
            for c in (1, -1)}
    assert mult == {1: 1, -1: 3}
    assert CORRECTED[2]["H^0/I"].free_rank == mult[1] + mult[-1]


def test_criterion_3_tensor_chain(first_fold, plane_h0):
    assert quotient(first_fold, 2) == CORRECTED[3]["A/I"]
    assert quotient(first_fold, 1) == CORRECTED[3]["A/J"]
    B = tensor(free_reduction(first_fold), plane_h0)
    assert group(B.rel, B.dim) == CORRECTED[3]["A(x)H^0(Y)"]
    assert quotient(B, 2) == CORRECTED[3]["A(x)H^0(Y)/I"]
    assert quotient(B, 1) == CORRECTED[3]["A(x)H^0(Y)/J"]


def test_line_h0_is_free_plus_gaussian():
    """H^0(line) = R ⊕ Q through (a, b) -> (a, a - (eta^2 - 1) b)."""
    H, K, d0, T = h0_lattice(LINE_CELLS, LINE_D0)
    R = cyclic_shift(ORDER)
    s = Matrix([[1, 0], [0, 1], [0, 0], [0, 0]])   # Q -> R, lifting 1, eta
    phi = Matrix.vstack(Matrix.hstack(eye(ORDER), zeros(ORDER, 2)),
                        Matrix.hstack(eye(ORDER), -(R ** 2 - eye(ORDER)) * s))
    assert (d0 * phi).is_zero_matrix
    assert T * phi == phi * diag(R, GAUSSIAN.T)
    coords = integral((K.T * K).inv() * K.T * phi)
    assert K * coords == phi and abs(coords.det()) == 1


def test_fold_1_and_2_rows_closed_form(plane_h0):
    # H^0(line) = R ⊕ Q, so for p >= 1 Tor_p(H^0(line), -) = Tor_p(Q, -),
    # and A = R ⊕ Q^3 because Q (x)_R Q = Q.
    fold1 = {(p, 0): tor_gaussian(GAUSSIAN, p) for p in (1, 2)}
    fold2 = {}
    for p in (1, 2):
        fold2[(p, 0)] = total([tor_gaussian(plane_h0, p)] * 3)
        fold2[(p, 2)] = total([tor_gaussian(TRIVIAL, p)] * 3)
    assert tor_gaussian(GAUSSIAN, 0) == FgAbGroup.free(2)
    assert nonzero_rows(fold1) == COLLAPSE_ROWS[1]
    assert nonzero_rows(fold2) == COLLAPSE_ROWS[2]


def test_fold_1_and_2_rows_group_homology(line_h0, plane_h0, first_fold):
    A = free_reduction(first_fold)
    fold1 = {(p, 0): tor_free(line_h0, line_h0, p) for p in (1, 2)}
    fold2 = {}
    for p in (1, 2):
        fold2[(p, 0)] = tor_free(plane_h0, A, p)
        fold2[(p, 2)] = tor_free(TRIVIAL, A, p)
    assert nonzero_rows(fold1) == COLLAPSE_ROWS[1]
    assert nonzero_rows(fold2) == COLLAPSE_ROWS[2]


def test_fold_3_rows_group_homology(plane_h0, first_fold):
    """Fold 3 against H^0 = A (x) H^0(plane) and H^2 = A (x) H^2(plane).

    With A = R ⊕ Q^3 these are P ⊕ (Q (x) P)^3 and Z ⊕ (Z/2)^3, where
    P = H^0(plane); the block's own entries are P and Z.
    """
    P = plane_h0
    QP = Module(P.dim, P.T ** 2 + eye(P.dim), P.T)        # Q (x)_R P
    B0 = [P] + [QP] * 3
    B2 = [TRIVIAL] + [TRIVIAL_MOD_2] * 3
    A2 = tensor(free_reduction(first_fold), TRIVIAL)
    assert total(group(M.rel, M.dim) for M in B0) == CORRECTED[3]["A(x)H^0(Y)"]
    assert total(group(M.rel, M.dim) for M in B2) == group(A2.rel, A2.dim)
    rows = {}
    for p in (1, 2):
        rows[(p, 0)] = total(tor_free(P, M, p) for M in B0)
        rows[(p, 2)] = total([tor_free(P, M, p) for M in B2]
                             + [tor_free(TRIVIAL, M, p) for M in B0])
        rows[(p, 4)] = total(tor_free(TRIVIAL, M, p) for M in B2)
    assert nonzero_rows(rows) == COLLAPSE_ROWS[3]


def test_fold_3_rows_tor_balance():
    line = cohomology_table(bredon_cochain_complex(builtin_block("line-minus")))
    plane = cohomology_table(bredon_cochain_complex(builtin_block("plane-i")))
    acc = kunneth_tensor(kunneth_tensor(line, line), plane)
    rows = {}
    for i in (0, 2):
        for j in (0, 2):
            MX, MY = acc.module(i), plane.module(j)
            resolve_block = tor(MY, MX, 2)
            resolve_fold = tor(MX, MY, 2)
            assert resolve_block == resolve_fold
            for p in (1, 2):
                rows.setdefault((p, i + j), []).append(resolve_block[p])
    assert nonzero_rows({pq: total(gs) for pq, gs in rows.items()}) \
        == COLLAPSE_ROWS[3]
