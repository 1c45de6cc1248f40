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
