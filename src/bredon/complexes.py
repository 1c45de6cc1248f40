"""Cell blocks and their cochain complexes with representation coefficients.

A block records the equivariant cell structure of one semidirect-product
building space over the cyclic point group: per degree, a list of cell
orbits each carrying the order of its isotropy group, plus the flat
differential matrices, with n coordinates 1, eta, ..., eta^(n-1) per cell.
The cochain module in degree d is the direct sum of one restriction
module R(C_m) = R(C_n)/(eta^m - 1) per cell, whose underlying group is
Z^m.  Cochains are computed in these freed coordinates, Z^(sum of the
isotropy orders): each flat differential is folded once onto them, and
cohomology is computed degreewise by exact integer linear algebra,
together with the induced eta action on every torsion-free cohomology
group.

Built-in catalog:

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
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

from .intlinalg import (
    FgAbGroup,
    IntMatrix,
    kernel_lattice,
    smith_diagonal,
    subquotient_with_action,
)
from .repring import (
    FpModule,
    LatticeModule,
    PointGroup,
    check_equivariance,
    direct_sum_modules,
    present_lattice,
    restriction_module,
)


@dataclass(frozen=True)
class GcwBlock:
    """Equivariant cell data of one building block.

    ``cells[d]`` lists the isotropy order of each degree-d cell orbit;
    ``differentials[d]`` is the flattened matrix from the degree-d cochain
    module to degree d+1.  Every cell contributes ``point_group.order``
    flat coordinates regardless of its isotropy order.
    """

    name: str
    point_group: PointGroup
    dimension: int
    cells: tuple
    differentials: tuple


class CochainComplex:
    """The cochain complex of a block: one restriction module per cell.

    Cochains live in freed coordinates: degree d is Z^(sum of the
    isotropy orders of its cells), a cell of order m holding the
    coordinates 1, eta, ..., eta^(m-1).  ``maps[d]`` is the freed matrix
    of the block's flat ``differentials[d]`` (see :func:`_fold`).  Build
    it through :func:`bredon_cochain_complex`, which validates.
    """

    def __init__(self, block: GcwBlock, maps: Sequence[IntMatrix]):
        self.block = block
        self.point_group = block.point_group
        self.maps = list(maps)

    @property
    def modules(self) -> list:
        """The presented cochain modules, built on each access."""
        return [block_module(self.block, d) for d in range(self.top + 1)]

    @property
    def top(self) -> int:
        return self.block.dimension

    def flattened_ranks(self) -> list:
        return [sum(orders) for orders in self.block.cells]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * r for d, r in enumerate(self.flattened_ranks()))

    def check_d_squared(self) -> None:
        for d in range(len(self.maps) - 1):
            if not (self.maps[d + 1] * self.maps[d]).is_zero():
                raise ValueError(f"d^2 is nonzero between degrees {d} and {d + 2}")


class CohomologyEntry:
    """A group and, where torsion free, its module: given, or built by
    ``build`` on the first read of :attr:`module` and cached."""

    def __init__(self, group: FgAbGroup, module=None, build=None):
        self.group, self._module, self._build = group, module, build

    @property
    def module(self) -> Optional[FpModule]:
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

    def module(self, degree: int) -> Optional[FpModule]:
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


def _incidence_differential(n: int, n_source: int, n_target: int,
                            incidence: Sequence[dict]) -> IntMatrix:
    # One coefficient per (target cell, source cell); the same unit pattern
    # repeats across the eta powers because every coefficient map is a
    # coordinate projection between cyclic presentations.
    rows = [[0] * (n_source * n) for _ in range(n_target * n)]
    for e, spec in enumerate(incidence):
        for v, coeff in spec.items():
            for t in range(n):
                rows[e * n + t][v * n + t] = coeff
    return IntMatrix(n_target * n, n_source * n, rows)


def builtin_block(name: str) -> GcwBlock:
    """One of the catalog blocks: line-minus, plane-i, or point."""
    pg = PointGroup(4)
    n = pg.order
    if name == "line-minus":
        cells = ((4, 4), (2,))
        d0 = _incidence_differential(n, 2, 1, [{0: 1, 1: -1}])
        return GcwBlock(name, pg, 1, cells, (d0,))
    if name == "plane-i":
        cells = ((4, 4, 2), (1, 1), (1,))
        d0 = _incidence_differential(n, 3, 2, [{0: -1, 1: 1}, {1: -1, 2: 1}])
        d1 = _incidence_differential(n, 2, 1, [{}])
        return GcwBlock(name, pg, 2, cells, (d0, d1))
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


def bredon_cochain_complex(block: GcwBlock) -> CochainComplex:
    """Assemble and validate the cochain complex of a block."""
    report, complex_ = _build(block)
    if not report.ok:
        raise ValueError("invalid block data: " + "; ".join(report.findings))
    return complex_


@dataclass
class BlockReport:
    """Findings of a block validation run; empty findings means a clean block."""

    block_name: str
    findings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def validate_block(block: GcwBlock) -> BlockReport:
    """Check divisors, shapes, equivariance, relations and d^2 = 0."""
    return _build(block)[0]


def _build(block: GcwBlock):
    """The validation report and, for a clean block, its cochain complex.

    Given equivariance, a map out of R/(eta^m - 1) is well defined exactly
    when the projected columns t = 0 and t = m of each cell agree: every
    relation row is an eta-shift of e_m - e_0.
    """
    report = BlockReport(block.name)
    n = block.point_group.order
    if len(block.cells) != block.dimension + 1:
        report.findings.append(
            f"expected cell lists for degrees 0..{block.dimension}")
        return report, None
    for d, orders in enumerate(block.cells):
        for m in orders:
            if m < 1 or n % m:
                report.findings.append(
                    f"degree {d}: isotropy order {m} does not divide {n}")
    if report.findings:
        return report, None
    if len(block.differentials) != block.dimension:
        report.findings.append(
            f"expected {block.dimension} differentials, "
            f"got {len(block.differentials)}")
        return report, None
    for d, mat in enumerate(block.differentials):
        shape = (len(block.cells[d + 1]) * n, len(block.cells[d]) * n)
        if (mat.rows, mat.cols) != shape:
            report.findings.append(
                f"degree {d}: differential is {mat.rows}x{mat.cols}, "
                f"expected {shape[0]}x{shape[1]}")
    if report.findings:
        return report, None
    maps = []
    for d, mat in enumerate(block.differentials):
        try:
            check_equivariance(mat, n)
        except ValueError as exc:
            report.findings.append(f"degree {d}: {exc}")
            continue
        columns = _fold(mat, block.cells[d + 1], n).columns()
        if any(columns[c * n] != columns[c * n + m]
               for c, m in enumerate(block.cells[d]) if m < n):
            report.findings.append(
                f"degree {d}: map does not preserve relations")
        maps.append(IntMatrix.from_columns(sum(block.cells[d + 1]), [
            columns[c * n + t] for c, m in enumerate(block.cells[d])
            for t in range(m)]))
    if report.findings:
        return report, None
    complex_ = CochainComplex(block, maps)
    try:
        complex_.check_d_squared()
    except ValueError as exc:
        report.findings.append(str(exc))
    return report, (complex_ if report.ok else None)


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


def _freed_action(orders: Sequence[int]) -> IntMatrix:
    """The eta action in freed coordinates: t -> t + 1 mod m on each cell."""
    rank = sum(orders)
    rows = [[0] * rank for _ in range(rank)]
    offset = 0
    for m in orders:
        for t in range(m):
            rows[offset + (t + 1) % m][offset + t] = 1
        offset += m
    return IntMatrix(rank, rank, rows)


def cohomology_table(C: CochainComplex) -> CohomologyTable:
    """Cohomology of a cochain complex, with module structure where free.

    Works in freed coordinates.  The cycles Z^d are a saturated kernel, so
    H^d is Z^(m - r_d - r_(d-1)) plus the torsion of the cokernel of the
    incoming map (m the rank of degree d, r_d that of the map out of it):
    one Smith diagonal per map gives every group.  Only a free nonzero
    group needs transforms, for the eta action of its module.
    """
    diagonals = [smith_diagonal(mat) for mat in C.maps]
    # ranks[d] is the rank of the map out of degree d; the trailing 0
    # serves both the top degree and, as ranks[-1], degree 0
    ranks = [sum(1 for x in diag if x) for diag in diagonals] + [0]
    entries = {}
    for d, rank in enumerate(C.flattened_ranks()):
        incoming = diagonals[d - 1] if d > 0 else []
        group = FgAbGroup(rank - ranks[d] - ranks[d - 1],
                          tuple(x for x in incoming if x > 1))
        entries[d] = CohomologyEntry(
            group, build=partial(_cohomology_module, C, d, group))
    return CohomologyTable(C.point_group, entries)


def _cohomology_module(C: CochainComplex, d: int, group: FgAbGroup):
    """The module of H^d (None for torsion), built on its first read."""
    if group.is_trivial:
        return FpModule(C.point_group, 0, ())
    if not group.is_free:
        return None
    rank = sum(C.block.cells[d])
    cycles = (kernel_lattice(C.maps[d]) if d < C.top
              else IntMatrix.identity(rank))
    boundaries = C.maps[d - 1] if d > 0 else IntMatrix.zeros(rank, 0)
    _, action = subquotient_with_action(
        cycles, boundaries, _freed_action(C.block.cells[d]))
    return present_lattice(
        LatticeModule(C.point_group, group.free_rank, action))[0]
