"""Modules over the representation ring of a finite cyclic group.

The coefficient ring is R(C_n) = Z[eta]/(eta^n - 1).  A finitely presented
module is stored by generators and relation vectors over the ring; every
computation is pushed down to exact integer linear algebra by flattening:
a module with g generators becomes Z^(g*n) modulo one integer relation row
per ring relation per power of eta, and the eta action becomes a cyclic
permutation of coordinates within each generator block.

Alongside presentations the module offers a second faithful form for
Z-torsion-free modules, a lattice with an automorphism of finite order,
plus converters in both directions.  Cohomology naturally produces
lattices; tensor products, ideal quotients and Tor consume presentations.
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


@dataclass(frozen=True)
class RingElement:
    """An element of Z[eta]/(eta^n - 1) by coordinates on 1, eta, ..., eta^(n-1)."""

    group: PointGroup
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if len(self.coords) != self.group.order:
            raise ValueError("coordinate length must equal the point group order")

    @classmethod
    def zero(cls, group: PointGroup) -> "RingElement":
        return cls(group, (0,) * group.order)

    @classmethod
    def one(cls, group: PointGroup) -> "RingElement":
        return cls.eta_power(group, 0)

    @classmethod
    def eta_power(cls, group: PointGroup, k: int) -> "RingElement":
        coords = [0] * group.order
        coords[k % group.order] = 1
        return cls(group, coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def shift(self, k: int) -> "RingElement":
        """Multiplication by eta^k."""
        n = self.group.order
        k %= n
        return RingElement(self.group, self.coords[n - k:] + self.coords[:n - k])

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.group,
                           tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __neg__(self) -> "RingElement":
        return RingElement(self.group, tuple(-a for a in self.coords))

    def __mul__(self, other: "RingElement") -> "RingElement":
        return ring_multiply(self, other)

    def _check(self, other: "RingElement") -> None:
        if self.group != other.group:
            raise ValueError("point group order mismatch")


def ring_multiply(a: RingElement, b: RingElement) -> RingElement:
    """Product in Z[eta]/(eta^n - 1): cyclic convolution of coordinates."""
    a._check(b)
    n = a.group.order
    out = [0] * n
    for i, x in enumerate(a.coords):
        if x:
            for j, y in enumerate(b.coords):
                if y:
                    out[(i + j) % n] += x * y
    return RingElement(a.group, out)


class FpModule:
    """A finitely presented module over R(C_n).

    ``relations`` is a tuple of relation vectors; each vector has one ring
    element per generator.  Flattened data (integer relation rows, the
    eta-permutation, the underlying abelian group) is computed on demand
    and cached; instances are treated as immutable.
    """

    __slots__ = ("group", "ngens", "relations", "_rel_rows", "_rel_lattice",
                 "_flatten", "_shift")

    def __init__(self, group: PointGroup, ngens: int,
                 relations: Sequence[Sequence[RingElement]] = ()):
        if ngens < 0:
            raise ValueError("negative generator count")
        rels = tuple(tuple(r) for r in relations)
        for rel in rels:
            if len(rel) != ngens:
                raise ValueError("relation length must equal generator count")
            for c in rel:
                if c.group != group:
                    raise ValueError("relation entry over the wrong ring")
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
            rows = []
            for rel in self.relations:
                for t in range(n):
                    row = []
                    for c in rel:
                        row.extend(c.shift(t).coords)
                    rows.append(row)
            self._rel_rows = rows
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
            row = []
            for c in rel:
                row.extend(c.coords)
            if span.contains(row):
                continue
            kept.append(rel)
            for t in range(n):
                shifted = []
                for c in rel:
                    shifted.extend(c.shift(t).coords)
                span.add(shifted)
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
    rel = RingElement.eta_power(group, m) - RingElement.one(group)
    return FpModule(group, 1, ((rel,),))


def quotient_by_ideal(M: FpModule, k: int) -> FpModule:
    """M/(eta^k - 1)M, presented by appending one relation per generator."""
    n = M.group.order
    if not 0 <= k <= n:
        raise ValueError("ideal power out of range")
    gen_rel = RingElement.eta_power(M.group, k) - RingElement.one(M.group)
    zero = RingElement.zero(M.group)
    extra = []
    for i in range(M.ngens):
        rel = [zero] * M.ngens
        rel[i] = gen_rel
        extra.append(tuple(rel))
    return FpModule(M.group, M.ngens, M.relations + tuple(extra)).pruned()


def direct_sum_modules(mods: Sequence[FpModule]) -> FpModule:
    """Direct sum, with generators concatenated in the given order."""
    if not mods:
        raise ValueError("empty direct sum needs an explicit point group")
    group = mods[0].group
    zero = RingElement.zero(group)
    total = sum(m.ngens for m in mods)
    relations = []
    offset = 0
    for m in mods:
        if m.group != group:
            raise ValueError("point group mismatch in direct sum")
        for rel in m.relations:
            padded = [zero] * total
            for i, c in enumerate(rel):
                padded[offset + i] = c
            relations.append(tuple(padded))
        offset += m.ngens
    return FpModule(group, total, relations)


def tensor_over_ring(M: FpModule, N: FpModule) -> FpModule:
    """M tensor N over R(C_n), by the standard presentation.

    Generators are pairs (i, j) ordered with the M index major; relations
    are every M-relation against each N-generator and every N-relation
    against each M-generator.
    """
    if M.group != N.group:
        raise ValueError("point group mismatch in tensor product")
    group = M.group
    zero = RingElement.zero(group)
    g = M.ngens * N.ngens
    relations = []
    for rel in M.relations:
        for j in range(N.ngens):
            row = [zero] * g
            for i, c in enumerate(rel):
                row[i * N.ngens + j] = c
            relations.append(tuple(row))
    for i in range(M.ngens):
        for rel in N.relations:
            row = [zero] * g
            for j, c in enumerate(rel):
                row[i * N.ngens + j] = c
            relations.append(tuple(row))
    return FpModule(group, g, relations).pruned()


class ModuleMap:
    """An eta-equivariant map between presented modules.

    The matrix acts on flattened generator coordinates (target rows by
    source columns).  Validity means commuting with the eta permutation
    and sending source relations into the target relation lattice.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FpModule, target: FpModule, matrix: IntMatrix,
                 check: bool = True):
        if matrix.rows != target.flat_dim or matrix.cols != source.flat_dim:
            raise ValueError("matrix shape does not match flattened modules")
        self.source = source
        self.target = target
        self.matrix = matrix
        if check:
            self.validate()

    @classmethod
    def identity(cls, module: FpModule) -> "ModuleMap":
        return cls(module, module, IntMatrix.identity(module.flat_dim), check=False)

    @classmethod
    def zero(cls, source: FpModule, target: FpModule) -> "ModuleMap":
        return cls(source, target,
                   IntMatrix.zeros(target.flat_dim, source.flat_dim), check=False)

    def validate(self) -> None:
        if self.source.group != self.target.group:
            raise ValueError("point group mismatch")
        self._check_equivariance()
        lat = self.target.relation_lattice()
        for row in self.source.relation_rows():
            image = self.matrix.mul_vector(row)
            if not lat.contains(image):
                raise ValueError("map does not preserve relations")

    def _check_equivariance(self) -> None:
        # Columns must satisfy col(i, t+1) = shift_target * col(i, t);
        # checking columns avoids forming full matrix products.
        n = self.source.group.order
        mat = self.matrix
        for i in range(self.source.ngens):
            prev = mat.column(i * n)
            for t in range(1, n + 1):
                expected = _shift_vector(prev, self.target.ngens, n)
                col = mat.column(i * n + t % n)
                if col != expected:
                    raise ValueError("map is not eta-equivariant")
                prev = col

    def compose(self, inner: "ModuleMap") -> "ModuleMap":
        """self after inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise ValueError("composition mismatch")
        return ModuleMap(inner.source, self.target,
                         self.matrix * inner.matrix, check=False)

    def is_zero_map(self) -> bool:
        """Zero as a map to the presented target (zero modulo relations)."""
        lat = self.target.relation_lattice()
        for j in range(self.matrix.cols):
            if not lat.contains(self.matrix.column(j)):
                return False
        return True


def _shift_vector(vec: Sequence[int], ngens: int, n: int) -> list:
    out = [0] * len(vec)
    for g in range(ngens):
        base = g * n
        for t in range(n):
            out[base + (t + 1) % n] = vec[base + t]
    return out


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
    Relations are a generating set of the kernel of the evaluation map,
    selected greedily from its kernel lattice by the same rule.  Returns
    ``(module, evaluation)`` where ``evaluation`` sends flattened module
    generators onto Z^rank and intertwines eta with the action.
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
    rel_span = RowEchelonLattice(s * n)
    relations = []
    for col in kernel.basis.columns():
        if rel_span.contains(col):
            continue
        relations.append(tuple(
            RingElement(group, col[i * n:(i + 1) * n]) for i in range(s)))
        for t in range(n):
            rel_span.add(_shift_iterate(col, s, n, t))
    module = FpModule(group, s, relations)

    flat = module.flatten()
    if not flat.is_free or flat.free_rank != r:
        raise AssertionError("lattice presentation failed to reproduce the rank")
    return module, evaluation


def _shift_iterate(vec: Sequence[int], ngens: int, n: int, times: int) -> list:
    out = list(vec)
    for _ in range(times):
        out = _shift_vector(out, ngens, n)
    return out


def lattice_to_fp(L: LatticeModule) -> FpModule:
    """The presentation half of :func:`present_lattice`."""
    return present_lattice(L)[0]


def presentation_kernel(f: ModuleMap):
    """Kernel of a map out of a free module, as a presented module.

    Computes the integer lattice of flattened source vectors whose image
    lands in the target relation lattice, restricts the eta action to it,
    and presents the result.  Returns ``(K, inclusion)`` with the
    inclusion composing with f to the zero map.
    """
    if f.source.relations:
        raise ValueError("presentation_kernel needs a free source")
    src_dim = f.source.flat_dim
    rel_cols = f.target.relation_columns()
    stacked = f.matrix.hstack(rel_cols) if rel_cols.cols else f.matrix
    raw = kernel_lattice(stacked)
    projected = [col[:src_dim] for col in raw.basis.columns()]
    span = RowEchelonLattice(src_dim)
    for col in projected:
        span.add(col)
    basis = span.basis_columns_matrix(src_dim)
    d = basis.cols
    group = f.source.group
    if d == 0:
        K = FpModule(group, 0, ())
        return K, ModuleMap(K, f.source, IntMatrix.zeros(src_dim, 0), check=False)

    solver = LinearSolver(basis)
    shifted = solver.solve_matrix(f.source.shift_matrix() * basis)
    if shifted is None:
        raise AssertionError("kernel lattice is not shift-stable")
    K, evaluation = present_lattice(LatticeModule(group, d, shifted))
    inclusion = ModuleMap(K, f.source, basis * evaluation, check=False)
    return K, inclusion


def free_resolution_maps(M: FpModule, length: int) -> list:
    """Maps of a partial free resolution of M.

    Entry 0 is the cover of M by the free module on its generators; entry
    p >= 1 is the flat matrix of F_p -> F_(p-1).  The list holds
    ``length + 1`` maps, enough to read off Tor up to degree ``length``.
    """
    cover = ModuleMap(free_module(M.group, M.ngens), M,
                      IntMatrix.identity(M.flat_dim), check=False)
    maps = [cover]
    current = cover
    for _ in range(length):
        K, inclusion = presentation_kernel(current)
        step = ModuleMap(free_module(M.group, K.ngens), current.source,
                         inclusion.matrix, check=False)
        maps.append(step)
        current = step
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
        T = modules[p]
        dim = T.flat_dim
        if dim == 0:
            out.append(FgAbGroup.trivial())
            continue
        if p == 0:
            cycles = IntMatrix.identity(dim)
        else:
            prev = modules[p - 1]
            rel_cols = prev.relation_columns()
            mat = matrices[p]
            stacked = mat.hstack(rel_cols) if rel_cols.cols else mat
            raw = kernel_lattice(stacked)
            span = RowEchelonLattice(dim)
            for col in raw.basis.columns():
                span.add(col[:dim])
            cycles = span.basis_columns_matrix(dim)
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
    maps = free_resolution_maps(M, p_max + 1)
    modules = [tensor_over_ring(free_module(M.group, step.source.ngens), N)
               for step in maps]
    matrices = [None] + [tensor_map_left(step.matrix, N.ngens, M.group.order)
                         for step in maps[1:]]
    return homology_of_presented_complex(modules, matrices)
