"""Tensor folding of cohomology tables and the product-complex oracle.

Given the cohomology tables of the blocks, the pipeline folds them left to
right with the graded tensor product over the point-group representation
ring.  Two independent certificates can be attached to a run:

* the Eilenberg-Zilber style product complex, whose cohomology is compared
  degreewise against the folded tensor tables, and
* the derived-functor page, whose rows above degree zero are checked for
  vanishing (the collapse certificate).

Both certificates are computed, never assumed; a run records exactly what
held and what did not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from .complexes import (
    CochainComplex,
    CohomologyEntry,
    CohomologyTable,
    GcwBlock,
    bredon_cochain_complex,
    cohomology_table,
)
from .intlinalg import FgAbGroup, IntMatrix
from .repring import (
    FpModule,
    PointGroup,
    direct_sum_modules,
    tensor_map_left,
    tensor_map_right,
    tensor_over_ring,
    tor,
)


MAX_TOR_DEPTH = 8


class PullbackError(Exception):
    """Base class for pipeline failures."""


class TorsionObstructionError(PullbackError):
    """A table entry lost its module structure to torsion and cannot fold."""


class OracleMismatchError(PullbackError):
    """Product-complex cohomology disagreed with the tensor fold."""


class CollapseFailureError(PullbackError):
    """A derived-functor row above degree zero is nonzero."""


@dataclass(frozen=True)
class PullbackSpec:
    """An iterated pullback: ordered blocks over one cyclic point group."""

    point_group: PointGroup
    blocks: tuple
    oracle_check: bool = False
    full_product_oracle: bool = False
    tor_depth: int = 0

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("at least one block is required")
        for b in self.blocks:
            if b.point_group != self.point_group:
                raise ValueError(f"block {b.name!r} has a different point group")
        if self.tor_depth < 0:
            raise ValueError("tor depth must be nonnegative")
        if self.tor_depth > MAX_TOR_DEPTH:
            raise ValueError(f"tor depth {self.tor_depth} exceeds the limit "
                             f"MAX_TOR_DEPTH = {MAX_TOR_DEPTH}")


class BigradedTable:
    """Finitely supported table (p, q) -> abelian group.

    p is the resolution degree of the derived functor, q the total
    cohomological degree.  Zero entries are omitted.
    """

    def __init__(self, entries: dict):
        self.entries = {k: g for k, g in entries.items() if not g.is_trivial}

    def entry(self, p: int, q: int) -> FgAbGroup:
        return self.entries.get((p, q), FgAbGroup.trivial())

    def row(self, p: int) -> dict:
        return {q: g for (pp, q), g in sorted(self.entries.items()) if pp == p}

    def rows_above_zero(self) -> list:
        """Nonzero entries with p >= 1, the obstruction to collapse."""
        return [(p, q, g) for (p, q), g in sorted(self.entries.items()) if p >= 1]

    def __repr__(self) -> str:
        cells = ", ".join(f"({p},{q})={g}" for (p, q), g in sorted(self.entries.items()))
        return f"BigradedTable({cells})"


def _require_module(table: CohomologyTable, degree: int, side: str) -> FpModule:
    module = table.module(degree)
    if module is None:
        raise TorsionObstructionError(
            f"{side} table has torsion in degree {degree}; the entry carries "
            f"{table.group(degree)} and no module structure, so the fold "
            "cannot continue")
    return module


def kunneth_tensor(HX: CohomologyTable, HY: CohomologyTable) -> CohomologyTable:
    """Graded tensor of two cohomology tables over the representation ring.

    Every degree-k entry is the direct sum over i + j = k of the tensor
    product of the degree-i and degree-j modules.  Both inputs must carry
    module structure on all nonzero entries; the output keeps modules so
    it can be folded again.
    """
    if HX.point_group != HY.point_group:
        raise ValueError("point group mismatch in tensor fold")
    group = HX.point_group
    top = HX.max_degree() + HY.max_degree()
    entries = {}
    for k in range(top + 1):
        pieces = []
        for i in range(k + 1):
            j = k - i
            if HX.group(i).is_trivial or HY.group(j).is_trivial:
                continue
            MX = _require_module(HX, i, "left")
            MY = _require_module(HY, j, "right")
            pieces.append(tensor_over_ring(MX, MY))
        if pieces:
            module = direct_sum_modules(pieces).pruned()
        else:
            module = FpModule(group, 0, ())
        entries[k] = CohomologyEntry(module.flatten(), module)
    return CohomologyTable(group, entries)


def em_e2(HX: CohomologyTable, HY: CohomologyTable, p_max: int) -> BigradedTable:
    """The derived-functor page of the pair of tables.

    Entry (p, q) is the direct sum over i + j = q of the p-th derived
    tensor of the degree-i and degree-j entries.  The p = 0 row coincides
    with :func:`kunneth_tensor` degreewise; vanishing of the rows p >= 1
    is the computed collapse certificate.  Each derived tensor is
    computed from a free resolution of the right-hand module, which in a
    fold is the small per-block one.
    """
    if HX.point_group != HY.point_group:
        raise ValueError("point group mismatch in derived page")
    entries = {}
    top = HX.max_degree() + HY.max_degree()
    for q in range(top + 1):
        per_p = {p: [] for p in range(p_max + 1)}
        for i in range(q + 1):
            j = q - i
            if HX.group(i).is_trivial or HY.group(j).is_trivial:
                continue
            MX = _require_module(HX, i, "left")
            MY = _require_module(HY, j, "right")
            groups = tor(MY, MX, p_max)
            for p, g in enumerate(groups):
                per_p[p].append(g)
        for p, parts in per_p.items():
            if parts:
                total = parts[0].direct_sum(*parts[1:])
                if not total.is_trivial:
                    entries[(p, q)] = total
    return BigradedTable(entries)


def product_block(X: GcwBlock, Y: GcwBlock) -> GcwBlock:
    """The Eilenberg-Zilber product of two blocks, itself a block.

    Degree-t cells are the pairs of a degree-i cell of X and a degree-j
    cell of Y with i + j = t, ordered by i, then the X cell, then the Y
    cell.  A pair's isotropy order is gcd(a, b), because
    R/(eta^a - 1) tensor R/(eta^b - 1) = R/(eta^gcd(a, b) - 1).  The
    differential follows d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy.
    """
    if X.point_group != Y.point_group:
        raise ValueError("point group mismatch in product block")
    n = X.point_group.order
    top = X.dimension + Y.dimension
    pairs = [[(i, t - i) for i in range(max(0, t - Y.dimension),
                                        min(X.dimension, t) + 1)]
             for t in range(top + 1)]
    cells = tuple(tuple(gcd(a, b) for i, j in pairs[t]
                        for a in X.cells[i] for b in Y.cells[j])
                  for t in range(top + 1))
    offsets = []
    for t in range(top + 1):
        offs, pos = {}, 0
        for i, j in pairs[t]:
            offs[i, j] = pos
            pos += len(X.cells[i]) * len(Y.cells[j]) * n
        offsets.append(offs)

    differentials = []
    for t in range(top):
        rows = [[0] * (len(cells[t]) * n) for _ in range(len(cells[t + 1]) * n)]

        def install(piece: IntMatrix, row_off: int, col_off: int):
            for r, row in enumerate(piece.data):
                target = rows[row_off + r]
                for c, val in enumerate(row):
                    if val:
                        target[col_off + c] = val

        for i, j in pairs[t]:
            col_off = offsets[t][i, j]
            if i < X.dimension:
                install(tensor_map_left(X.differentials[i], len(Y.cells[j]), n),
                        offsets[t + 1][i + 1, j], col_off)
            if j < Y.dimension:
                install(tensor_map_right(Y.differentials[j], len(X.cells[i]), n,
                                         -1 if i % 2 else 1),
                        offsets[t + 1][i, j + 1], col_off)
        differentials.append(
            IntMatrix(len(cells[t + 1]) * n, len(cells[t]) * n, rows))
    return GcwBlock(f"{X.name}*{Y.name}", X.point_group, top, cells,
                    tuple(differentials))


def product_complex(CX: CochainComplex, CY: CochainComplex) -> CochainComplex:
    """Cochain complex of the product of the blocks behind CX and CY."""
    return bredon_cochain_complex(product_block(CX.block, CY.block))


@dataclass
class OracleComparison:
    """Degreewise comparison of a tensor table against complex cohomology."""

    label: str
    degrees: list
    tensor_groups: list
    complex_groups: list

    @property
    def ok(self) -> bool:
        return self.tensor_groups == self.complex_groups

    @property
    def ranks_ok(self) -> bool:
        return ([g.free_rank for g in self.tensor_groups]
                == [g.free_rank for g in self.complex_groups])

    def mismatches(self) -> list:
        return [(d, t, c) for d, t, c in
                zip(self.degrees, self.tensor_groups, self.complex_groups)
                if t != c]


def _compare_tables(label: str, tensor_table: CohomologyTable,
                    complex_table: CohomologyTable) -> OracleComparison:
    degrees = sorted(set(tensor_table.entries) | set(complex_table.entries))
    return OracleComparison(
        label,
        degrees,
        [tensor_table.group(d) for d in degrees],
        [complex_table.group(d) for d in degrees],
    )


@dataclass
class FoldRecord:
    """What happened at one fold: the joined block and its certificates."""

    index: int
    block_name: str
    e2: Optional[BigradedTable] = None
    collapse_failures: list = field(default_factory=list)
    oracle: Optional[OracleComparison] = None

    @property
    def collapse_ok(self) -> bool:
        return not self.collapse_failures


@dataclass
class PullbackRun:
    """Everything computed during one pipeline run."""

    spec: PullbackSpec
    block_tables: list
    final: CohomologyTable
    folds: list
    pair_oracles: list

    def all_pair_oracles_ok(self) -> bool:
        return all(c.ok for c in self.pair_oracles)

    def all_fold_oracles_ok(self) -> bool:
        return all(f.oracle.ok for f in self.folds if f.oracle is not None)

    def all_collapse_ok(self) -> bool:
        return all(f.collapse_ok for f in self.folds)

    def failures(self) -> list:
        """One error per failed certificate: folds in order, then pairs."""
        out = []
        for record in self.folds:
            if record.collapse_failures:
                p, q, g = record.collapse_failures[0]
                out.append(CollapseFailureError(
                    f"fold {record.index} (+{record.block_name}): collapse "
                    f"certificate failed: derived row p={p} is nonzero at "
                    f"q={q} with value {g}"))
            if record.oracle is not None and not record.oracle.ok:
                out.append(_oracle_failure(record.oracle))
        out.extend(_oracle_failure(c) for c in self.pair_oracles if not c.ok)
        return out


def _oracle_failure(comparison: OracleComparison) -> OracleMismatchError:
    d, t, c = comparison.mismatches()[0]
    return OracleMismatchError(
        f"{comparison.label}: product-complex oracle failed in degree {d}: "
        f"tensor {t} vs complex {c}")


def run_pullback(spec: PullbackSpec) -> PullbackRun:
    """Run the full fold, collecting every requested certificate.

    Certificate failures are recorded, not raised; use
    :func:`compute_pullback_cohomology` for the strict contract.
    """
    complexes = [bredon_cochain_complex(b) for b in spec.blocks]
    tables = [cohomology_table(c) for c in complexes]

    folds = []
    acc = tables[0]
    acc_complex = complexes[0] if spec.full_product_oracle else None
    for k in range(1, len(spec.blocks)):
        record = FoldRecord(index=k, block_name=spec.blocks[k].name)
        if spec.tor_depth > 0:
            record.e2 = em_e2(acc, tables[k], spec.tor_depth)
            record.collapse_failures = record.e2.rows_above_zero()
        acc = kunneth_tensor(acc, tables[k])
        if acc_complex is not None:
            acc_complex = product_complex(acc_complex, complexes[k])
            record.oracle = _compare_tables(
                f"fold {k} (+{spec.blocks[k].name})",
                acc, cohomology_table(acc_complex))
        folds.append(record)

    pair_oracles = []
    if spec.oracle_check:
        for k in range(len(spec.blocks) - 1):
            label = f"pair ({spec.blocks[k].name}, {spec.blocks[k + 1].name})"
            pair_complex = product_complex(complexes[k], complexes[k + 1])
            pair_oracles.append(_compare_tables(
                label,
                kunneth_tensor(tables[k], tables[k + 1]),
                cohomology_table(pair_complex)))

    return PullbackRun(spec, tables, acc, folds, pair_oracles)


def compute_pullback_cohomology(spec: PullbackSpec) -> CohomologyTable:
    """Fold the blocks and enforce every requested certificate.

    Raises :class:`OracleMismatchError` or :class:`CollapseFailureError`
    naming the offending fold when a requested check does not hold.
    """
    run = run_pullback(spec)
    failures = run.failures()
    if failures:
        raise failures[0]
    return run.final
