from math import gcd

import pytest
from hypothesis import strategies as st

from bredon import (
    IntMatrix,
    PointGroup,
    bredon_cochain_complex,
    builtin_block,
    cohomology_table,
)
from bredon.intlinalg import smith_with_inverse
from bredon.repring import FpModule


def small_modules(order=4, max_coord=3):
    """Presented modules with up to two generators and two relations."""
    def build(ngens):
        row = st.lists(st.integers(-max_coord, max_coord),
                       min_size=ngens * order, max_size=ngens * order)
        return st.lists(row, max_size=2).map(
            lambda rels: FpModule(PointGroup(order), ngens, rels))
    return st.integers(1, 2).flatmap(build)


def free_coordinates(module):
    """Projection/section pair identifying the flatten with Z^rank.

    A general reference for any module whose flattened group is free,
    computed from a Smith form of the relation lattice.
    """
    dim = module.flat_dim
    rel = module.relation_columns()
    if rel.cols == 0:
        ident = IntMatrix.identity(dim)
        return ident, ident, dim
    diag, U, Uinv = smith_with_inverse(rel)
    r = sum(1 for d in diag if d)
    if any(d not in (0, 1) for d in diag):
        raise ValueError("module with torsion is unsupported")
    P = U.submatrix(r, dim, 0, dim)
    S = Uinv.submatrix(0, dim, r, dim)
    return P, S, dim - r


def closed_free_coordinates(orders, n):
    """Closed-form projection/section pair of a cochain module's flatten.

    A cell of isotropy order m has flat coordinates t = 0..n-1 and relation
    rows e_(t+m) - e_t, so t -> t mod m projects its n coordinates onto
    Z^m with exactly the relation lattice as kernel, and the first m
    coordinates are a section.
    """
    rank = sum(orders)
    dim = len(orders) * n
    P = [[0] * dim for _ in range(rank)]
    S = [[0] * rank for _ in range(dim)]
    offset = 0
    for c, m in enumerate(orders):
        for t in range(n):
            P[offset + t % m][c * n + t] = 1
        for t in range(m):
            S[c * n + t][offset + t] = 1
        offset += m
    return IntMatrix(rank, dim, P), IntMatrix(dim, rank, S), rank


def freed_action(orders):
    """Dense reference for eta in freed coordinates: the permutation
    matrix of t -> t + 1 mod m on each cell of order m."""
    rank = sum(orders)
    rows = [[0] * rank for _ in range(rank)]
    offset = 0
    for m in orders:
        for t in range(m):
            rows[offset + (t + 1) % m][offset + t] = 1
        offset += m
    return IntMatrix(rank, rank, rows)


def shift_matrix(module):
    """Dense reference for eta on a module's flat coordinates: the cyclic
    shift of every generator block of n coordinates."""
    return freed_action((module.group.order,) * module.ngens)


# The catalog blocks written in the flat inline-spec format: n = 4
# coordinates 1, eta, eta^2, eta^3 per cell whatever its isotropy order,
# each incidence coefficient repeated on every eta power.
FLAT_LITERALS = {
    "line-minus": (((4, 4), (2,)), [[
        [1, 0, 0, 0, -1, 0, 0, 0],
        [0, 1, 0, 0, 0, -1, 0, 0],
        [0, 0, 1, 0, 0, 0, -1, 0],
        [0, 0, 0, 1, 0, 0, 0, -1]]]),
    "plane-i": (((4, 4, 2), (1, 1), (1,)), [
        [[-1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
         [0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
         [0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0, 0],
         [0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 0],
         [0, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0],
         [0, 0, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0],
         [0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1, 0],
         [0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1]],
        [[0] * 8 for _ in range(4)]]),
    "point": (((4,),), []),
}


def flat_block(name):
    """(cells, flat differentials) of a catalog block's flat literal."""
    cells, maps = FLAT_LITERALS[name]
    return cells, [IntMatrix.from_rows(rows) for rows in maps]


def _flat_tensor_left(matrix, ngens, n):
    """Flat matrix of f tensor id_N, N with ``ngens`` generators."""
    gA, gB = matrix.cols // n, matrix.rows // n
    rows = [[0] * (gA * ngens * n) for _ in range(gB * ngens * n)]
    for i in range(gA):
        base_col = matrix.column(i * n)
        entries = [(c, u, val) for c in range(gB) for u in range(n)
                   if (val := base_col[c * n + u])]
        for j in range(ngens):
            for s in range(n):
                col = (i * ngens + j) * n + s
                for c, u, val in entries:
                    rows[(c * ngens + j) * n + (u + s) % n][col] = val
    return IntMatrix(gB * ngens * n, gA * ngens * n, rows)


def _flat_tensor_right(matrix, ngens, n, sign):
    """Flat matrix of sign * (id_M tensor g), M with ``ngens`` generators."""
    gC, gD = matrix.cols // n, matrix.rows // n
    rows = [[0] * (ngens * gC * n) for _ in range(ngens * gD * n)]
    for j in range(gC):
        base_col = matrix.column(j * n)
        entries = [(d, u, val) for d in range(gD) for u in range(n)
                   if (val := base_col[d * n + u])]
        for i in range(ngens):
            for s in range(n):
                col = (i * gC + j) * n + s
                for d, u, val in entries:
                    rows[(i * gD + d) * n + (u + s) % n][col] = sign * val
    return IntMatrix(ngens * gD * n, ngens * gC * n, rows)


def flat_product(X, Y, n=4):
    """The flat Eilenberg-Zilber product of two flat blocks (cells, maps).

    The reference for ``product_complex``: every tensor map is assembled in
    n coordinates per pair cell, so folding the result through
    ``block_from_flat`` must give the freed product.
    """
    (X_cells, X_maps), (Y_cells, Y_maps) = X, Y
    X_dim, Y_dim = len(X_cells) - 1, len(Y_cells) - 1
    top = X_dim + Y_dim
    pairs = [[(i, t - i) for i in range(max(0, t - Y_dim), min(X_dim, t) + 1)]
             for t in range(top + 1)]
    cells = tuple(tuple(gcd(a, b) for i, j in pairs[t]
                        for a in X_cells[i] for b in Y_cells[j])
                  for t in range(top + 1))
    offsets = []
    for t in range(top + 1):
        offs, pos = {}, 0
        for i, j in pairs[t]:
            offs[i, j] = pos
            pos += len(X_cells[i]) * len(Y_cells[j]) * n
        offsets.append(offs)
    maps = []
    for t in range(top):
        rows = [[0] * (len(cells[t]) * n) for _ in range(len(cells[t + 1]) * n)]

        def install(piece, row_off, col_off):
            for r, row in enumerate(piece.data, row_off):
                rows[r][col_off:col_off + piece.cols] = row

        for i, j in pairs[t]:
            col_off = offsets[t][i, j]
            if i < X_dim:
                install(_flat_tensor_left(X_maps[i], len(Y_cells[j]), n),
                        offsets[t + 1][i + 1, j], col_off)
            if j < Y_dim:
                install(_flat_tensor_right(Y_maps[j], len(X_cells[i]), n,
                                           -1 if i % 2 else 1),
                        offsets[t + 1][i, j + 1], col_off)
        maps.append(IntMatrix.from_rows(rows))
    return cells, maps


@pytest.fixture(scope="session")
def pg4():
    return PointGroup(4)


@pytest.fixture(scope="session")
def line_block():
    return builtin_block("line-minus")


@pytest.fixture(scope="session")
def plane_block():
    return builtin_block("plane-i")


@pytest.fixture(scope="session")
def point_block():
    return builtin_block("point")


@pytest.fixture(scope="session")
def line_complex(line_block):
    return bredon_cochain_complex(line_block)


@pytest.fixture(scope="session")
def plane_complex(plane_block):
    return bredon_cochain_complex(plane_block)


@pytest.fixture(scope="session")
def point_complex(point_block):
    return bredon_cochain_complex(point_block)


@pytest.fixture(scope="session")
def line_table(line_complex):
    return cohomology_table(line_complex)


@pytest.fixture(scope="session")
def plane_table(plane_complex):
    return cohomology_table(plane_complex)


@pytest.fixture(scope="session")
def point_table(point_complex):
    return cohomology_table(point_complex)
