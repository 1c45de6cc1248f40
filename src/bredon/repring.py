"""Modules over the representation ring of a finite cyclic group.

The coefficient ring is R(C_n) = Z[eta]/(eta^n - 1).  A finitely presented
module is stored by its generator count and its relations, each a flat
integer row laid out generator by generator on 1, eta, ..., eta^(n-1).
Every computation is pushed down to exact integer linear algebra: a module
with g generators becomes Z^(g*n) modulo every eta-shift of every relation
row, and the eta action becomes a cyclic permutation of coordinates within
each generator block.

Alongside presentations the module offers a second faithful form for
Z-torsion-free modules, a lattice with an automorphism of finite order,
which :func:`present_lattice` turns into a presentation.  Cohomology
naturally produces lattices; tensor products, ideal quotients and Tor
consume presentations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .intlinalg import (
    FgAbGroup,
    IntMatrix,
    Lattice,
    LinearSolver,
    RowEchelonLattice,
    kernel_lattice,
    quotient_group,
    subquotient_with_action,
)


@dataclass(frozen=True)
class PointGroup:
    """The finite cyclic group C_n acting as common quotient of all blocks."""

    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("point group order must be >= 1")


class FpModule:
    """A finitely presented module over R(C_n).

    ``relations`` is a tuple of flat integer rows of length ``ngens * n``,
    laid out generator by generator on 1, eta, ..., eta^(n-1).  Derived
    data (every eta-shift of every relation, the eta-permutation, the
    underlying abelian group) is computed on demand and cached; instances
    are treated as immutable.
    """

    __slots__ = ("group", "ngens", "relations", "_rel_rows", "_rel_lattice",
                 "_flatten", "_shift")

    def __init__(self, group: PointGroup, ngens: int,
                 relations: Sequence[Sequence[int]] = ()):
        if ngens < 0:
            raise ValueError("negative generator count")
        rels = tuple(tuple(r) for r in relations)
        for rel in rels:
            if len(rel) != ngens * group.order:
                raise ValueError("relation row length must be ngens * n")
        self.group = group
        self.ngens = ngens
        self.relations = rels
        self._rel_rows = None
        self._rel_lattice = None
        self._flatten = None
        self._shift = None

    @property
    def flat_dim(self) -> int:
        return self.ngens * self.group.order

    def __eq__(self, other) -> bool:
        return (isinstance(other, FpModule) and self.group == other.group
                and self.ngens == other.ngens
                and self.relations == other.relations)

    def __repr__(self) -> str:
        return (f"FpModule(order={self.group.order}, gens={self.ngens}, "
                f"rels={len(self.relations)})")

    def relation_rows(self) -> list:
        """Integer relation rows: every relation multiplied by every eta power."""
        if self._rel_rows is None:
            n = self.group.order
            self._rel_rows = [row for rel in self.relations
                              for row in _eta_orbit(rel, self.ngens, n)]
        return self._rel_rows

    def relation_lattice(self) -> RowEchelonLattice:
        if self._rel_lattice is None:
            lat = RowEchelonLattice(self.flat_dim)
            for row in self.relation_rows():
                lat.add(row)
            self._rel_lattice = lat
        return self._rel_lattice

    def relation_columns(self) -> IntMatrix:
        rows = self.relation_lattice().basis_rows()
        return IntMatrix.from_columns(self.flat_dim, rows)

    def shift_matrix(self) -> IntMatrix:
        """The eta action on flattened coordinates (a block cyclic shift)."""
        if self._shift is None:
            n = self.group.order
            dim = self.flat_dim
            rows = [[0] * dim for _ in range(dim)]
            for i in range(self.ngens):
                for t in range(n):
                    rows[i * n + (t + 1) % n][i * n + t] = 1
            self._shift = IntMatrix(dim, dim, rows)
        return self._shift

    def flatten(self) -> FgAbGroup:
        """The underlying abelian group, canonicalized by Smith reduction."""
        if self._flatten is None:
            self._flatten = quotient_group(
                self.flat_dim, Lattice(self.flat_dim, self.relation_columns()))
        return self._flatten

    def pruned(self) -> "FpModule":
        """Drop relations already in the ring span of earlier ones.

        The flattened relation lattice is unchanged, so this presents the
        same module; it just keeps tensor constructions from snowballing.
        """
        n = self.group.order
        span = RowEchelonLattice(self.flat_dim)
        kept = []
        for rel in self.relations:
            if span.contains(rel):
                continue
            kept.append(rel)
            for row in _eta_orbit(rel, self.ngens, n):
                span.add(row)
        if len(kept) == len(self.relations):
            return self
        return FpModule(self.group, self.ngens, kept)


def free_module(group: PointGroup, k: int) -> FpModule:
    """The free module R(C_n)^k."""
    return FpModule(group, k, ())


def restriction_module(group: PointGroup, m: int) -> FpModule:
    """R(C_m) as an R(C_n)-module through character restriction.

    For m dividing n this is the cyclic presentation R(C_n)/(eta^m - 1);
    the flattened rank is m.  m = n gives the free module of rank one.
    """
    n = group.order
    if m < 1 or n % m:
        raise ValueError(f"isotropy order {m} does not divide {n}")
    if m == n:
        return free_module(group, 1)
    rel = [0] * n
    rel[m] = 1
    rel[0] = -1
    return FpModule(group, 1, (rel,))


def quotient_by_ideal(M: FpModule, k: int) -> FpModule:
    """M/(eta^k - 1)M, presented by appending one relation per generator."""
    n = M.group.order
    if not 0 <= k <= n:
        raise ValueError("ideal power out of range")
    extra = []
    for i in range(M.ngens):
        rel = [0] * M.flat_dim
        rel[i * n + k % n] += 1
        rel[i * n] -= 1
        extra.append(rel)
    return FpModule(M.group, M.ngens, M.relations + tuple(extra)).pruned()


def direct_sum_modules(mods: Sequence[FpModule]) -> FpModule:
    """Direct sum, with generators concatenated in the given order."""
    if not mods:
        raise ValueError("empty direct sum needs an explicit point group")
    group = mods[0].group
    total = sum(m.flat_dim for m in mods)
    relations = []
    offset = 0
    for m in mods:
        if m.group != group:
            raise ValueError("point group mismatch in direct sum")
        for rel in m.relations:
            padded = [0] * total
            padded[offset:offset + len(rel)] = rel
            relations.append(padded)
        offset += m.flat_dim
    return FpModule(group, sum(m.ngens for m in mods), relations)


def tensor_over_ring(M: FpModule, N: FpModule) -> FpModule:
    """M tensor N over R(C_n), by the standard presentation.

    Generators are pairs (i, j) ordered with the M index major; relations
    are every M-relation against each N-generator and every N-relation
    against each M-generator.
    """
    if M.group != N.group:
        raise ValueError("point group mismatch in tensor product")
    n = M.group.order
    g = M.ngens * N.ngens
    relations = []
    for rel in M.relations:
        for j in range(N.ngens):
            row = [0] * (g * n)
            for i in range(M.ngens):
                at = (i * N.ngens + j) * n
                row[at:at + n] = rel[i * n:(i + 1) * n]
            relations.append(row)
    for i in range(M.ngens):
        for rel in N.relations:
            row = [0] * (g * n)
            row[i * N.flat_dim:(i + 1) * N.flat_dim] = rel
            relations.append(row)
    return FpModule(M.group, g, relations).pruned()


def _shift_vector(vec: Sequence[int], ngens: int, n: int) -> list:
    """Multiplication of a flat vector by eta."""
    out = [0] * len(vec)
    for g in range(ngens):
        base = g * n
        for t in range(n):
            out[base + (t + 1) % n] = vec[base + t]
    return out


def check_equivariance(matrix: IntMatrix, n: int) -> None:
    """Raise unless the flat matrix commutes with eta.

    Columns must satisfy col(i, t+1) = eta * col(i, t); checking columns
    avoids forming full matrix products.
    """
    for i in range(matrix.cols // n):
        prev = matrix.column(i * n)
        for t in range(1, n + 1):
            col = matrix.column(i * n + t % n)
            if col != _shift_vector(prev, matrix.rows // n, n):
                raise ValueError("map is not eta-equivariant")
            prev = col


def _eta_orbit(vec: Sequence[int], ngens: int, n: int):
    """Yield vec, eta * vec, ..., eta^(n-1) * vec as lists."""
    vec = list(vec)
    yield vec
    for _ in range(n - 1):
        vec = _shift_vector(vec, ngens, n)
        yield vec


def tensor_map_left(matrix: IntMatrix, ngens: int, n: int) -> IntMatrix:
    """Flattened matrix of f tensor id_N.

    ``matrix`` is the flat matrix of f and N has ``ngens`` generators.
    """
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


def tensor_map_right(matrix: IntMatrix, ngens: int, n: int,
                     sign: int = 1) -> IntMatrix:
    """Flattened matrix of sign * (id_M tensor g).

    ``matrix`` is the flat matrix of g and M has ``ngens`` generators.
    """
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


@dataclass(frozen=True)
class LatticeModule:
    """A Z-torsion-free module as a lattice with an automorphism of finite order."""

    group: PointGroup
    rank: int
    action: IntMatrix

    def __post_init__(self):
        if self.action.rows != self.rank or self.action.cols != self.rank:
            raise ValueError("action must be a square matrix of the given rank")
        power = IntMatrix.identity(self.rank)
        for _ in range(self.group.order):
            power = self.action * power
        if power != IntMatrix.identity(self.rank):
            raise ValueError("action order does not divide the point group order")


def present_lattice(L: LatticeModule):
    """Present a lattice-with-automorphism as an FpModule.

    Generators are chosen greedily from the standard basis, skipping
    vectors already in the ring span of earlier choices.  Candidates are
    tried in order of the Z-rank of their eta-orbit, largest first, ties
    by lowest index, which keeps the presentation small.
    Relations are a generating set of the kernel of the evaluation map:
    a basis of its kernel lattice, thinned by :meth:`FpModule.pruned`.
    Returns ``(module, evaluation)`` where ``evaluation`` sends flattened
    module generators onto Z^rank and intertwines eta with the action.
    """
    group = L.group
    n = group.order
    r = L.rank
    if r == 0:
        return FpModule(group, 0, ()), IntMatrix.zeros(0, 0)

    powers = [IntMatrix.identity(r)]
    for _ in range(n - 1):
        powers.append(L.action * powers[-1])

    def orbit_rank(j: int) -> int:
        orbit = RowEchelonLattice(r)
        for power in powers:
            orbit.add(power.column(j))
        return orbit.rank

    span = RowEchelonLattice(r)
    chosen = []
    for j in sorted(range(r), key=lambda j: (-orbit_rank(j), j)):
        e = [0] * r
        e[j] = 1
        if span.contains(e):
            continue
        chosen.append(e)
        for t in range(n):
            span.add(powers[t].mul_vector(e))
    s = len(chosen)

    columns = []
    for g in chosen:
        for t in range(n):
            columns.append(powers[t].mul_vector(g))
    evaluation = IntMatrix.from_columns(r, columns)

    kernel = kernel_lattice(evaluation)
    module = FpModule(group, s, kernel.basis.columns()).pruned()

    flat = module.flatten()
    if not flat.is_free or flat.free_rank != r:
        raise AssertionError("lattice presentation failed to reproduce the rank")
    return module, evaluation


def _preimage(matrix: IntMatrix, target: FpModule) -> IntMatrix:
    """Basis of the flat source vectors that ``matrix`` sends to zero in target.

    The kernel of ``[matrix | target relation columns]``, projected onto
    the source coordinates and re-spanned.
    """
    rel_cols = target.relation_columns()
    stacked = matrix.hstack(rel_cols) if rel_cols.cols else matrix
    span = RowEchelonLattice(matrix.cols)
    for col in kernel_lattice(stacked).basis.columns():
        span.add(col[:matrix.cols])
    return span.basis_columns_matrix(matrix.cols)


def presentation_kernel(matrix: IntMatrix, target: FpModule):
    """Kernel of a map out of a free module, as a presented module.

    ``matrix`` is the flat matrix of an eta-equivariant map from the free
    module on ``matrix.cols // n`` generators to ``target``.  The kernel
    lattice, with the eta action restricted to it, is presented by
    :func:`present_lattice`.  Returns ``(K, inclusion)`` where the flat
    matrix ``inclusion`` sends K into the source and composes with
    ``matrix`` to zero modulo the target relations.
    """
    group = target.group
    basis = _preimage(matrix, target)
    d = basis.cols
    if d == 0:
        return FpModule(group, 0, ()), basis
    source = free_module(group, matrix.cols // group.order)
    shifted = LinearSolver(basis).solve_matrix(source.shift_matrix() * basis)
    if shifted is None:
        raise AssertionError("kernel lattice is not shift-stable")
    K, evaluation = present_lattice(LatticeModule(group, d, shifted))
    return K, basis * evaluation


def free_resolution_maps(M: FpModule, length: int) -> list:
    """Flat matrices of a partial free resolution of M.

    Entry 0 is the cover of M by the free module on its generators (the
    identity); entry p >= 1 is the matrix of F_p -> F_(p-1).  Each F_p is
    free on ``matrix.cols // n`` generators.  The list holds ``length + 1``
    matrices, enough to read off Tor up to degree ``length``.
    """
    maps = [IntMatrix.identity(M.flat_dim)]
    target = M
    for _ in range(length):
        _, inclusion = presentation_kernel(maps[-1], target)
        target = free_module(M.group, maps[-1].cols // M.group.order)
        maps.append(inclusion)
    return maps


def homology_of_presented_complex(modules: Sequence[FpModule],
                                  matrices: Sequence[Optional[IntMatrix]]):
    """Homology groups of a complex of presented modules.

    ``matrices[p]`` carries degree p to degree p-1 (``matrices[0]`` is
    ignored and may be None).  Homology at p is computed for
    p = 0 .. len(modules)-2, leaving one extra term to supply incoming
    boundaries at the top computed degree.
    """
    out = []
    for p in range(len(modules) - 1):
        dim = modules[p].flat_dim
        if dim == 0:
            out.append(FgAbGroup.trivial())
            continue
        if p == 0:
            cycles = IntMatrix.identity(dim)
        else:
            cycles = _preimage(matrices[p], modules[p - 1])
        boundary_cols = modules[p].relation_lattice().basis_rows()
        nxt = matrices[p + 1]
        if nxt is not None:
            boundary_cols = boundary_cols + [nxt.column(j) for j in range(nxt.cols)]
        B = IntMatrix.from_columns(dim, boundary_cols)
        group, _ = subquotient_with_action(cycles, B)
        out.append(group)
    return out


def tor(M: FpModule, N: FpModule, p_max: int = 2) -> list:
    """Tor_p(M, N) over R(C_n) for p = 0 .. p_max.

    Builds a partial free resolution of M by iterated syzygies, tensors
    it with N, and takes homology.  Degree 0 always agrees with the
    flattening of the tensor product.
    """
    if M.group != N.group:
        raise ValueError("point group mismatch in Tor")
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    N = N.pruned()
    n = M.group.order
    maps = free_resolution_maps(M, p_max + 1)
    modules = [tensor_over_ring(free_module(M.group, step.cols // n), N)
               for step in maps]
    matrices = [None] + [tensor_map_left(step, N.ngens, n) for step in maps[1:]]
    return homology_of_presented_complex(modules, matrices)
