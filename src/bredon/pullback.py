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

from functools import partial
from itertools import accumulate, compress
from math import gcd

from .complexes import (
    CohomologyEntry,
    CohomologyTable,
    GcwBlock,
    bredon_cochain_complex,
    cohomology_table,
)
from .intlinalg import FgAbGroup, IntMatrix, _Value
from .repring import (
    FpModule,
    PointGroup,
    direct_sum_modules,
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


class PullbackSpec(_Value):
    """An iterated pullback: ordered blocks over one cyclic point group."""

    __slots__ = ("point_group", "blocks", "oracle_check", "full_product_oracle",
                 "tor_depth")

    def __init__(self, point_group: PointGroup, blocks: tuple,
                 oracle_check: bool = False, full_product_oracle: bool = False,
                 tor_depth: int = 0):
        self.point_group, self.blocks = point_group, blocks
        self.oracle_check, self.tor_depth = oracle_check, tor_depth
        self.full_product_oracle = full_product_oracle
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


def _degree_pairs(HX: CohomologyTable, HY: CohomologyTable, what: str):
    """Per total degree k, the module pairs (degree i of HX, degree j of
    HY) over i + j = k whose groups are both nonzero.  Raises ValueError
    on different point groups, and TorsionObstructionError where such a
    group carries no module."""
    if HX.point_group != HY.point_group:
        raise ValueError(f"point group mismatch in {what}")
    for k in range(HX.max_degree() + HY.max_degree() + 1):
        yield k, [(_require_module(HX, i, "left"),
                   _require_module(HY, k - i, "right"))
                  for i in range(k + 1) if not HX.group(i).is_trivial
                  and not HY.group(k - i).is_trivial]


def kunneth_tensor(HX: CohomologyTable, HY: CohomologyTable,
                   page: BigradedTable | None = None) -> CohomologyTable:
    """Graded tensor of two cohomology tables over the representation ring.

    Every degree-k entry is the direct sum over i + j = k of the tensor
    product of the degree-i and degree-j modules.  Both inputs must carry
    module structure on all nonzero entries; the output keeps modules so
    it can be folded again.  Each sum carries its pieces' echelons and its
    group is the sum of their flattenings: each is Smith-reduced alone.

    Given ``page``, the :func:`em_e2` page of the same two tables, the
    group of degree k is its row 0, ``page.entry(0, k)``, since
    Tor_0(M, N) = M tensor N; the tensor pieces and their sum are then
    built only when the entry's module is first read, and nothing is
    Smith-reduced.
    """
    entries = {}
    for k, pairs in _degree_pairs(HX, HY, "tensor fold"):
        if page is None:
            module = _tensor_sum(HX.point_group, pairs, None)
            entries[k] = CohomologyEntry(module._flatten, module)
        else:
            group = page.entry(0, k)
            entries[k] = CohomologyEntry(
                group, build=partial(_tensor_sum, HX.point_group, pairs, group))
    return CohomologyTable(HX.point_group, entries)


def _tensor_sum(group: PointGroup, pairs: list,
                flat: FgAbGroup | None) -> FpModule:
    """The direct sum of the tensor products of ``pairs``, its flattening
    ``flat``, or the sum of the pieces' flattenings when that is None."""
    pieces = [tensor_over_ring(MX, MY) for MX, MY in pairs]
    # pruned() gives the empty module its echelon, as every sum has
    module = (direct_sum_modules(pieces) if pieces
              else FpModule(group, 0, ()).pruned())
    if flat is None:
        flat = FgAbGroup.trivial().direct_sum(
            *(piece.flatten() for piece in pieces))
    module._flatten = flat
    return module


def em_e2(HX: CohomologyTable, HY: CohomologyTable, p_max: int) -> BigradedTable:
    """The derived-functor page of the pair of tables.

    Entry (p, q) is the direct sum over i + j = q of the p-th derived
    tensor of the degree-i and degree-j entries.  The p = 0 row is
    Tor_0 = tensor, and in a fold it is the fold's group: given this page,
    :func:`kunneth_tensor` reads its groups here.  Vanishing of the rows
    p >= 1 is the computed collapse certificate.  Each derived tensor is
    computed by :func:`tor` from a free resolution of the right-hand
    module, which in a fold is the small per-block one, as one free total
    complex in the left-hand module's Smith coordinates, every group read
    from one Smith diagonal per differential.
    """
    entries = {}
    for q, pairs in _degree_pairs(HX, HY, "derived page"):
        per_p = [[] for _ in range(p_max + 1)]
        for MX, MY in pairs:
            for p, g in enumerate(tor(MY, MX, p_max)):
                per_p[p].append(g)
        for p, parts in enumerate(per_p):
            total = FgAbGroup.trivial().direct_sum(*parts)
            if not total.is_trivial:
                entries[(p, q)] = total
    return BigradedTable(entries)


def product_complex(X: GcwBlock, Y: GcwBlock) -> GcwBlock:
    """The Eilenberg-Zilber product of two blocks, itself a validated block.

    Degree-t cells are the pairs of a degree-i cell of X and a degree-j
    cell of Y with i + j = t, ordered by i, then the X cell, then the Y
    cell.  A pair's isotropy order is gcd(a, b), because
    R/(eta^a - 1) tensor R/(eta^b - 1) = R/(eta^gcd(a, b) - 1).  The
    differential follows d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy: where
    dx holds c eta^s on a cell x' of order a', x (x) y maps to c eta^s on
    x' (x) y, read mod eta^gcd(a', b) - 1.
    """
    if X.point_group != Y.point_group:
        raise ValueError("point group mismatch in product complex")
    top = X.dimension + Y.dimension
    pairs = [[(i, x, a, t - i, y, b)
              for i in range(max(0, t - Y.dimension), min(X.dimension, t) + 1)
              for x, a in enumerate(X.cells[i])
              for y, b in enumerate(Y.cells[t - i])]
             for t in range(top + 1)]
    cells = tuple(tuple(gcd(a, b) for _, _, a, _, _, b in pairs_t)
                  for pairs_t in pairs)
    # the position of each pair among the cells of its degree
    index = {(i, x, j, y): pos for pairs_t in pairs
             for pos, (i, x, _, j, y, _) in enumerate(pairs_t)}
    left = [_boundary_terms(X, i) for i in range(X.dimension)]
    right = [_boundary_terms(Y, j) for j in range(Y.dimension)]

    differentials = []
    for t in range(top):
        terms = [[(index[i + 1, e, j, y], s, c)
                  for e, s, c in (left[i][x] if i < X.dimension else ())]
                 + [(index[i, x, j + 1, e], s, (-1) ** i * c)
                    for e, s, c in (right[j][y] if j < Y.dimension else ())]
                 for i, x, _, j, y, _ in pairs[t]]
        differentials.append(_freed_map(cells[t], cells[t + 1], terms))
    return bredon_cochain_complex(GcwBlock(
        f"{X.name}*{Y.name}", X.point_group, top, cells, tuple(differentials)))


def reduce_block(block: GcwBlock) -> GcwBlock:
    """The block with every unit incidence of equal isotropy cancelled.

    A degree-d cell x and a degree-(d+1) cell y of equal isotropy a whose
    freed block is u = +-eta^k span a contractible cone, since u is an
    automorphism of R/(eta^a - 1).  Gaussian elimination drops both: each
    other entry (b, c) of the map out of degree d becomes
    entry(b, c) - entry(b, x) u^-1 entry(y, c), read mod eta^m_b - 1, and
    x and y leave the maps into degree d and out of degree d + 1.  The
    cohomology is unchanged, and so is that of every product with the
    block, since a tensor product keeps a cone contractible.  Pairs are
    taken degree by degree from 0 up; within a degree the pair with the
    fewest other entries in its column times its row goes first, ties to
    the lowest (x, y).
    """
    cells = block.cells
    # cols[d][x][y] and rows[d][y][x] hold the same entry of the map out
    # of degree d: the image of 1 of cell x on cell y, as {eta power: c}
    cols, rows = [], []
    for d in range(block.dimension):
        cols.append([{} for _ in cells[d]])
        rows.append([{} for _ in cells[d + 1]])
        for x, terms in enumerate(_boundary_terms(block, d)):
            for y, s, c in terms:
                cols[d][x].setdefault(y, {})[s] = c
                rows[d][y][x] = cols[d][x][y]
    live = [set(range(len(orders))) for orders in cells]

    def drop(e, cell):
        """Remove a degree-e cell from the maps into and out of degree e."""
        if e > 0:
            for w in rows[e - 1][cell]:
                del cols[e - 1][w][cell]
            rows[e - 1][cell] = {}
        if e < block.dimension:
            for z in cols[e][cell]:
                del rows[e][z][cell]
            cols[e][cell] = {}
        live[e].discard(cell)

    for d in range(block.dimension):
        col, row = cols[d], rows[d]
        units = {(x, y) for x, entries in enumerate(col)
                 for y, entry in entries.items()
                 if _is_unit(entry, cells[d][x], cells[d + 1][y])}
        while units:
            _, x, y = min(((len(col[x]) - 1) * (len(row[y]) - 1), x, y)
                          for x, y in units)
            (k, sign), = row[y][x].items()
            betas = [(b, beta) for b, beta in col[x].items() if b != y]
            gammas = [(c, gamma) for c, gamma in row[y].items() if c != x]
            units -= {(x, b) for b in col[x]} | {(c, y) for c in row[y]}
            drop(d, x)
            drop(d + 1, y)
            for b, beta in betas:
                m = cells[d + 1][b]
                for c, gamma in gammas:
                    entry = row[b].get(c, {})
                    for s, g in gamma.items():
                        for t, v in beta.items():
                            power = (s - k + t) % m
                            entry[power] = entry.get(power, 0) - sign * g * v
                            if not entry[power]:
                                del entry[power]
                    if entry:
                        row[b][c] = col[c][b] = entry
                    elif c in row[b]:
                        del row[b][c], col[c][b]
                    if _is_unit(entry, cells[d][c], m):
                        units.add((c, b))
                    else:
                        units.discard((c, b))

    kept = [sorted(cells_d) for cells_d in live]
    new = [{cell: pos for pos, cell in enumerate(k)} for k in kept]
    orders = tuple(tuple(cells[d][x] for x in k) for d, k in enumerate(kept))
    differentials = tuple(
        _freed_map(orders[d], orders[d + 1],
                   [[(new[d + 1][y], s, c) for y, entry in cols[d][x].items()
                     for s, c in entry.items()] for x in kept[d]])
        for d in range(block.dimension))
    return GcwBlock(block.name, block.point_group, block.dimension, orders,
                    differentials)


def _is_unit(entry: dict, source_order: int, target_order: int) -> bool:
    """Whether an entry is +-eta^k between cells of equal isotropy."""
    return (source_order == target_order and len(entry) == 1
            and abs(next(iter(entry.values()))) == 1)


def _freed_map(src_orders, tgt_orders, terms) -> IntMatrix:
    """The freed matrix of the map sending 1 of source cell k to the sum
    of c eta^s on target cell e over (e, s, c) in terms[k]: coordinate
    eta^u of the source goes to c eta^((s + u) mod m_e).
    :func:`_boundary_terms` reads it back."""
    starts = list(accumulate(tgt_orders, initial=0))
    rows = [[0] * sum(src_orders) for _ in range(starts[-1])]
    for col, m, cell_terms in zip(accumulate(src_orders, initial=0),
                                  src_orders, terms):
        for u in range(m):
            for e, s, c in cell_terms:
                rows[starts[e] + (s + u) % tgt_orders[e]][col + u] += c
    return IntMatrix(starts[-1], sum(src_orders), rows)


def _boundary_terms(block: GcwBlock, d: int) -> list:
    """Per degree-d cell: (target cell, eta power, c) of its first column,
    the terms that :func:`_freed_map` expands."""
    targets = [(e, s) for e, m in enumerate(block.cells[d + 1])
               for s in range(m)]
    columns = block.differentials[d].columns()
    firsts = list(accumulate(block.cells[d], initial=0))[:-1]
    return [[(e, s, c) for (e, s), c
             in zip(compress(targets, columns[k]), filter(None, columns[k]))]
            for k in firsts]


class OracleComparison:
    """Degreewise comparison of a tensor table against complex cohomology."""

    __slots__ = ("label", "degrees", "tensor_groups", "complex_groups")

    def __init__(self, label: str, degrees: list, tensor_groups: list,
                 complex_groups: list):
        self.label, self.degrees = label, degrees
        self.tensor_groups, self.complex_groups = tensor_groups, complex_groups

    @property
    def ok(self) -> bool:
        return self.tensor_groups == self.complex_groups

    @property
    def ranks_ok(self) -> bool:
        return ([g.free_rank for g in self.tensor_groups]
                == [g.free_rank for g in self.complex_groups])

    def mismatch_lines(self) -> list:
        """One line per degree where the two sides differ."""
        return [f"degree {d}: tensor {t} vs complex {c}" for d, t, c in
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


class FoldRecord:
    """What happened at one fold: the joined block and its certificates."""

    __slots__ = ("index", "block_name", "e2", "collapse_failures", "oracle")

    def __init__(self, index: int, block_name: str,
                 e2: BigradedTable | None = None,
                 collapse_failures: list | None = None,
                 oracle: OracleComparison | None = None):
        self.index, self.block_name, self.e2 = index, block_name, e2
        self.collapse_failures = ([] if collapse_failures is None
                                  else collapse_failures)
        self.oracle = oracle

    @property
    def label(self) -> str:
        return f"fold {self.index} (+{self.block_name})"

    @property
    def collapse_ok(self) -> bool:
        return not self.collapse_failures


class PullbackRun:
    """Everything computed during one pipeline run."""

    __slots__ = ("spec", "block_tables", "final", "folds", "pair_oracles")

    def __init__(self, spec: PullbackSpec, block_tables: list,
                 final: CohomologyTable, folds: list, pair_oracles: list):
        self.spec, self.block_tables, self.final = spec, block_tables, final
        self.folds, self.pair_oracles = folds, pair_oracles

    def failures(self) -> list:
        """One error per failed certificate: folds in order, then pairs."""
        out = []
        for record in self.folds:
            if record.collapse_failures:
                p, q, g = record.collapse_failures[0]
                out.append(CollapseFailureError(
                    f"{record.label}: collapse certificate failed: derived "
                    f"row p={p} is nonzero at q={q} with value {g}"))
            if record.oracle is not None and not record.oracle.ok:
                out.append(_oracle_failure(record.oracle))
        out.extend(_oracle_failure(c) for c in self.pair_oracles if not c.ok)
        return out

    def raise_first_failure(self) -> None:
        """Raise the first of :meth:`failures`, if any."""
        failures = self.failures()
        if failures:
            raise failures[0]


def _oracle_failure(comparison: OracleComparison) -> OracleMismatchError:
    return OracleMismatchError(
        f"{comparison.label}: product-complex oracle failed in "
        f"{comparison.mismatch_lines()[0]}")


def run_pullback(spec: PullbackSpec) -> PullbackRun:
    """Run the full fold, collecting every requested certificate.

    Certificate failures are recorded, not raised; use
    :func:`compute_pullback_cohomology` for the strict contract.
    """
    # one validated block and table per distinct block
    table_of = {b: cohomology_table(bredon_cochain_complex(b))
                for b in dict.fromkeys(spec.blocks)}
    tables = [table_of[b] for b in spec.blocks]

    pairs = {}  # (X, Y) -> the tensor and product-complex tables of X, Y
    folds = []
    acc = tables[0]
    acc_block = spec.blocks[0] if spec.full_product_oracle else None
    for k, block in enumerate(spec.blocks[1:], 1):
        record = FoldRecord(index=k, block_name=block.name)
        if spec.tor_depth > 0:
            record.e2 = em_e2(acc, tables[k], spec.tor_depth)
            record.collapse_failures = record.e2.rows_above_zero()
        acc = kunneth_tensor(acc, tables[k], record.e2)
        if acc_block is not None:
            # reduced between folds: the groups of this and every later
            # product stay the same (see reduce_block)
            acc_block = bredon_cochain_complex(
                reduce_block(product_complex(acc_block, block)))
            product = cohomology_table(acc_block)
            if k == 1:
                pairs[spec.blocks[0], block] = acc, product
            record.oracle = _compare_tables(record.label, acc, product)
        folds.append(record)

    pair_oracles = []
    if spec.oracle_check:
        for k, key in enumerate(zip(spec.blocks, spec.blocks[1:])):
            if key not in pairs:
                pairs[key] = (kunneth_tensor(tables[k], tables[k + 1]),
                              cohomology_table(product_complex(*key)))
            pair_oracles.append(_compare_tables(
                f"pair ({key[0].name}, {key[1].name})", *pairs[key]))

    return PullbackRun(spec, tables, acc, folds, pair_oracles)


def compute_pullback_cohomology(spec: PullbackSpec) -> CohomologyTable:
    """Fold the blocks and enforce every requested certificate.

    Raises :class:`OracleMismatchError` or :class:`CollapseFailureError`
    naming the offending fold when a requested check does not hold.
    """
    run = run_pullback(spec)
    run.raise_first_failure()
    return run.final
