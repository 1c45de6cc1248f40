"""Cell blocks, which are their own cochain complexes, and cohomology.

A block records the equivariant cell structure of one semidirect-product
building space over the cyclic point group: per degree, a list of cell
orbits each carrying the order of its isotropy group, plus the
differentials.  A validated block is its cochain complex, from parse to
cohomology.  The cochain module in degree d is the direct sum of one
restriction module R(C_m) = R(C_n)/(eta^m - 1) per cell, whose underlying
group is Z^m with coordinates 1, eta, ..., eta^(m-1).  The differentials
are the maps of the complex, integer matrices in these freed coordinates,
and cohomology is computed degreewise by exact integer linear algebra,
together with the induced eta action on every torsion-free cohomology
group.  Eta is never a matrix: it is the index map t -> t + 1 mod m on
each cell.  Inline spec blocks give flat differentials, n coordinates per
cell, which :func:`block_from_flat` folds once at parse.

Built-in catalog, written freed: an incidence c from cell v to cell e is
c times the restriction eta^t -> eta^(t mod m_e) on the coordinates of v.

``line-minus``
    The real line, point group of order 4 acting through the sign of the
    generator.  Two vertex orbits with full isotropy, one edge orbit with
    isotropy of order 2.

``plane-i``
    The plane, point group of order 4 acting by quarter rotation.  Three
    vertex orbits (isotropy orders 4, 4, 2), two free edge orbits, one
    free 2-cell orbit.

``point``
    A single fixed point with full isotropy.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from functools import partial
from itertools import compress

from .intlinalg import (
    FgAbGroup,
    IntMatrix,
    _Value,
    kernel_lattice,
    smith_diagonal,
    subquotient_with_action,
)
from .repring import (
    FpModule,
    LatticeModule,
    PointGroup,
    direct_sum_modules,
    present_lattice,
    restriction_module,
)


class GcwBlock(_Value):
    """Equivariant cell data of one building block, and its cochain complex.

    ``cells[d]`` lists the isotropy order of each degree-d cell orbit;
    ``differentials[d]`` is the freed matrix from the degree-d cochain
    module to degree d+1, of shape ``sum(cells[d+1]) x sum(cells[d])``: a
    cell of isotropy order m holds the coordinates 1, eta, ..., eta^(m-1).
    The differentials are the maps of the cochain complex, and
    :func:`bredon_cochain_complex` validates the block.
    """

    __slots__ = ("name", "point_group", "dimension", "cells", "differentials")

    def __init__(self, name: str, point_group: PointGroup, dimension: int,
                 cells: tuple, differentials: tuple):
        self.name, self.point_group, self.dimension = name, point_group, dimension
        self.cells, self.differentials = cells, differentials

    @property
    def modules(self) -> list:
        """The presented cochain modules, built on each access."""
        return [block_module(self, d) for d in range(self.dimension + 1)]

    def flattened_ranks(self) -> list:
        return [sum(orders) for orders in self.cells]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * r for d, r in enumerate(self.flattened_ranks()))


class CohomologyEntry:
    """A group and, where torsion free, its module: given, or built by
    ``build`` on the first read of :attr:`module` and cached."""

    def __init__(self, group: FgAbGroup, module=None, build=None):
        self.group, self._module, self._build = group, module, build

    @property
    def module(self) -> FpModule | None:
        if self._build is not None:
            self._module, self._build = self._build(), None
        return self._module


class CohomologyTable:
    """Degree-indexed cohomology groups with optional module structure.

    The module slot is populated exactly when the group is torsion free;
    it then carries the eta action, ready for further tensoring.  Each
    module is built on its first read and cached (see CohomologyEntry).
    """

    def __init__(self, point_group: PointGroup, entries: dict):
        self.point_group = point_group
        self.entries = dict(entries)

    def degrees(self) -> list:
        return sorted(self.entries)

    def group(self, degree: int) -> FgAbGroup:
        entry = self.entries.get(degree)
        return entry.group if entry else FgAbGroup.trivial()

    def module(self, degree: int) -> FpModule | None:
        entry = self.entries.get(degree)
        return entry.module if entry else None

    def max_degree(self) -> int:
        return max(self.entries) if self.entries else -1

    def groups_equal(self, other: "CohomologyTable") -> bool:
        degrees = set(self.entries) | set(other.entries)
        return all(self.group(d) == other.group(d) for d in degrees)

    def total_rank(self) -> int:
        return sum(e.group.free_rank for e in self.entries.values())

    def __repr__(self) -> str:
        parts = ", ".join(f"H^{d}={self.entries[d].group}" for d in self.degrees())
        return f"CohomologyTable({parts})"


_CATALOG_DOC = {
    "line-minus": "line with sign action: vertices 4,4; edge 2",
    "plane-i": "plane with quarter-turn action: vertices 4,4,2; edges 1,1; face 1",
    "point": "single fixed point with full isotropy",
}


def builtin_block(name: str) -> GcwBlock:
    """One of the catalog blocks: line-minus, plane-i, or point."""
    pg = PointGroup(4)
    if name == "line-minus":
        # the edge has isotropy 2: each vertex restricts by t -> t mod 2
        d0 = IntMatrix.from_rows([[1, 0, 1, 0, -1, 0, -1, 0],
                                  [0, 1, 0, 1, 0, -1, 0, -1]])
        return GcwBlock(name, pg, 1, ((4, 4), (2,)), (d0,))
    if name == "plane-i":
        # free edges O -> B and B -> M: restriction to a free cell sums
        d0 = IntMatrix.from_rows([[-1, -1, -1, -1, 1, 1, 1, 1, 0, 0],
                                  [0, 0, 0, 0, -1, -1, -1, -1, 1, 1]])
        return GcwBlock(name, pg, 2, ((4, 4, 2), (1, 1), (1,)),
                        (d0, IntMatrix.zeros(1, 2)))
    if name == "point":
        return GcwBlock(name, pg, 0, ((4,),), ())
    raise KeyError(f"unknown block {name!r}; catalog: {sorted(_CATALOG_DOC)}")


def builtin_block_names() -> list:
    return sorted(_CATALOG_DOC)


def builtin_block_summary(name: str) -> str:
    return _CATALOG_DOC[name]


def block_module(block: GcwBlock, degree: int) -> FpModule:
    orders = block.cells[degree] if 0 <= degree <= block.dimension else ()
    if not orders:
        return FpModule(block.point_group, 0, ())
    return direct_sum_modules(
        [restriction_module(block.point_group, m) for m in orders])


def bredon_cochain_complex(block: GcwBlock) -> GcwBlock:
    """The block, validated: its cochain complex.  Raises ValueError."""
    report = validate_block(block)
    if not report.ok:
        raise ValueError("invalid block data: " + "; ".join(report.findings))
    return block


class BlockReport:
    """Findings of a block validation run; empty findings means a clean block."""

    __slots__ = ("block_name", "findings")

    def __init__(self, block_name: str, findings: list | None = None):
        self.block_name = block_name
        self.findings = [] if findings is None else findings

    @property
    def ok(self) -> bool:
        return not self.findings


def _divisor_findings(cells: Sequence[Sequence[int]], n: int) -> list:
    return [f"degree {d}: isotropy order {m} does not divide {n}"
            for d, orders in enumerate(cells) for m in orders
            if m < 1 or n % m]


def validate_block(block: GcwBlock) -> BlockReport:
    """Check divisors, shapes, eta-commutation and d^2 = 0.

    A freed matrix is a module map exactly when it commutes with eta
    (:func:`_commutes_with_eta`); on the last column of a cell of order m,
    where t -> t + 1 mod m wraps around, that says the map preserves the
    relation eta^m - 1.
    """
    report = BlockReport(block.name)
    if len(block.cells) != block.dimension + 1:
        report.findings.append(
            f"expected cell lists for degrees 0..{block.dimension}")
        return report
    report.findings += _divisor_findings(block.cells, block.point_group.order)
    if report.findings:
        return report
    if len(block.differentials) != block.dimension:
        report.findings.append(
            f"expected {block.dimension} differentials, "
            f"got {len(block.differentials)}")
        return report
    maps, cells = block.differentials, block.cells
    for d, (mat, src, tgt) in enumerate(zip(maps, cells, cells[1:])):
        if (mat.rows, mat.cols) != (sum(tgt), sum(src)):
            report.findings.append(
                f"degree {d}: differential is {mat.rows}x{mat.cols}, "
                f"expected {sum(tgt)}x{sum(src)}")
        elif not _commutes_with_eta(mat, src, tgt):
            report.findings.append(f"degree {d}: map does not commute with eta")
    if report.findings:
        return report
    for d in range(len(maps) - 1):
        if not (maps[d + 1] * maps[d]).is_zero():
            report.findings.append(
                f"d^2 is nonzero between degrees {d} and {d + 2}")
            break
    return report


def _eta_index(orders: Sequence[int]) -> list:
    """Where eta sends each coordinate: t -> t + 1 mod m on each cell."""
    index, offset = [], 0
    for m in orders:
        index += [offset + (t + 1) % m for t in range(m)]
        offset += m
    return index


def _commutes_with_eta(mat: IntMatrix, src_orders: Sequence[int],
                       tgt_orders: Sequence[int]) -> bool:
    """Whether ``mat[tgt[i]][src[j]] == mat[i][j]`` for the eta index maps
    src and tgt of the two sides.  Checking the nonzeros is enough: the
    move (i, j) -> (tgt[i], src[j]) permutes the entries."""
    src, tgt = _eta_index(src_orders), _eta_index(tgt_orders)
    data = mat.data
    for row, image in zip(data, map(data.__getitem__, tgt)):
        for j in compress(range(len(row)), row):
            if image[src[j]] != row[j]:
                return False
    return True


def block_from_flat(name: str, point_group: PointGroup,
                    cells: Sequence[tuple],
                    flat: Sequence[IntMatrix]) -> GcwBlock:
    """A validated block from flat differentials, the inline-spec format.

    A flat differential has n coordinates 1, eta, ..., eta^(n-1) per cell
    whatever its isotropy order, n the point-group order; the caller checks
    its shape.  It must commute with eta and send each source relation
    eta^m - 1 into the target's relations; :func:`_fold` then gives its
    freed matrix.  Raises ValueError naming every finding.
    """
    n = point_group.order
    findings = _divisor_findings(cells, n)
    maps = []
    for d, mat in enumerate(() if findings else flat):
        if not _commutes_with_eta(mat, (n,) * len(cells[d]),
                                  (n,) * len(cells[d + 1])):
            findings.append(f"degree {d}: map is not eta-equivariant")
            continue
        columns = _fold(mat, cells[d + 1], n).columns()
        if any(columns[c * n] != columns[c * n + m]
               for c, m in enumerate(cells[d]) if m < n):
            findings.append(f"degree {d}: map does not preserve relations")
        maps.append(IntMatrix.from_columns(sum(cells[d + 1]), [
            columns[c * n + t] for c, m in enumerate(cells[d])
            for t in range(m)]))
    block = GcwBlock(name, point_group, len(cells) - 1, tuple(cells),
                     tuple(maps))
    findings = findings or validate_block(block).findings
    if findings:
        raise ValueError("; ".join(findings))
    return block


def _fold(mat: IntMatrix, target_orders: Sequence[int], n: int) -> IntMatrix:
    """Project the rows of a flat differential onto freed target coordinates.

    A target cell of isotropy order m has relation rows e_(t+m) - e_t, so
    t -> t mod m sends its n flat coordinates onto Z^m with exactly the
    relation lattice as kernel: flat row (cell e, eta power t) is added
    into freed row offset_e + t mod m.  The freed matrix of the map keeps
    the first m columns of each source cell.
    """
    rows = []
    for e, m in enumerate(target_orders):
        flat = mat.data[e * n:(e + 1) * n]
        for t in range(m):
            acc = flat[t]
            for row in flat[t + m::m]:
                acc = tuple(map(operator.add, acc, row))
            rows.append(acc)
    return IntMatrix(len(rows), mat.cols, rows)


def cohomology_table(block: GcwBlock) -> CohomologyTable:
    """Cohomology of a validated block, with module structure where free.

    Works in freed coordinates.  The cycles Z^d are a saturated kernel, so
    H^d is Z^(m - r_d - r_(d-1)) plus the torsion of the cokernel of the
    incoming map (m the rank of degree d, r_d that of the map out of it):
    one Smith diagonal per map gives every group.  Only a free nonzero
    group needs transforms, for the eta action of its module.
    """
    diagonals = [smith_diagonal(mat) for mat in block.differentials]
    # ranks[d] is the rank of the map out of degree d; the trailing 0
    # serves both the top degree and, as ranks[-1], degree 0
    ranks = [sum(1 for x in diag if x) for diag in diagonals] + [0]
    entries = {}
    for d, rank in enumerate(block.flattened_ranks()):
        incoming = diagonals[d - 1] if d > 0 else []
        group = FgAbGroup(rank - ranks[d] - ranks[d - 1],
                          tuple(x for x in incoming if x > 1))
        entries[d] = CohomologyEntry(
            group, build=partial(_cohomology_module, block, d, group))
    return CohomologyTable(block.point_group, entries)


def _cohomology_module(block: GcwBlock, d: int, group: FgAbGroup):
    """The module of H^d (None for torsion), built on its first read."""
    if group.is_trivial:
        return FpModule(block.point_group, 0, ())
    if not group.is_free:
        return None
    rank = sum(block.cells[d])
    maps = block.differentials
    cycles = (kernel_lattice(maps[d]) if d < block.dimension
              else IntMatrix.identity(rank))
    boundaries = maps[d - 1] if d > 0 else IntMatrix.zeros(rank, 0)
    # eta moves row i of the cycle basis to row eta(i)
    moved = sorted(zip(_eta_index(block.cells[d]), cycles.data))
    image = IntMatrix(rank, cycles.cols, [row for _, row in moved])
    _, action = subquotient_with_action(cycles, boundaries, image)
    return present_lattice(
        LatticeModule(block.point_group, group.free_rank, action))[0]
