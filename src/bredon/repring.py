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

from collections.abc import Sequence
from itertools import compress

from .intlinalg import (
    FgAbGroup,
    IntMatrix,
    LinearSolver,
    RowEchelonLattice,
    _Value,
    kernel_lattice,
    smith_diagonal,
    smith_with_inverse,
)


class PointGroup(_Value):
    """The finite cyclic group C_n acting as common quotient of all blocks."""

    __slots__ = ("order",)

    def __init__(self, order: int):
        self.order = order
        if self.order < 1:
            raise ValueError("point group order must be >= 1")


class FpModule:
    """A finitely presented module over R(C_n).

    ``relations`` is a tuple of flat integer rows of length ``ngens * n``,
    laid out generator by generator on 1, eta, ..., eta^(n-1).  Derived
    data (every eta-shift of every relation, the underlying abelian group)
    is computed on demand and cached; instances are treated as immutable.
    """

    __slots__ = ("group", "ngens", "relations", "_rel_rows", "_rel_lattice",
                 "_flatten", "_coords", "_resolution")

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
        self._coords = None
        self._resolution = None

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
                              for row in _eta_orbit(rel, n)]
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

    def flatten(self) -> FgAbGroup:
        """The underlying abelian group, canonicalized by Smith reduction."""
        if self._flatten is None:
            self._flatten = FgAbGroup.from_smith_diagonal(
                self.flat_dim, smith_diagonal(self.relation_columns()))
        return self._flatten

    def smith_coordinates(self):
        """The module as Z^c modulo diagonal relations: ``(orders, powers)``.

        ``orders`` lists the c orders d_i != 1 of the summands Z/d_i of the
        flattening (0 for Z), and ``powers[u]`` is the c x c matrix
        pi P^u sigma of eta^u, for P the flat eta shift and pi, sigma the
        maps of :func:`_smith_basis`.  Cached on the module.
        """
        if self._coords is None:
            orders, pi, sigma = _smith_basis(self)
            powers = []
            for _ in range(self.group.order):
                powers.append(pi * sigma)
                sigma = IntMatrix(sigma.rows, sigma.cols,
                                  _shift_vector(sigma.data, self.group.order))
            self._coords = (orders, powers)
        return self._coords

    def pruned(self) -> "FpModule":
        """Drop relations already in the ring span of earlier ones.

        The flattened relation lattice is unchanged, so this presents the
        same module; it just keeps tensor constructions from snowballing.
        The result carries the echelon built on the way: the one
        :meth:`relation_lattice` would build from the kept relations.
        """
        n = self.group.order
        span = RowEchelonLattice(self.flat_dim)
        kept = []
        for rel in self.relations:
            if span.contains(rel):
                continue
            kept.append(rel)
            for row in _eta_orbit(rel, n):
                span.add(row)
        out = (self if len(kept) == len(self.relations)
               else FpModule(self.group, self.ngens, kept))
        out._rel_lattice = span
        return out


def _smith_basis(M: FpModule):
    """``(orders, pi, sigma)``: Smith coordinates of M's flattening.

    Each echelon row of :meth:`FpModule.relation_lattice` whose pivot is
    +-1 eliminates its pivot coordinate: back-substitution from the last
    pivot gives phi, the map onto the other (kept) coordinates that sends
    each such row to 0, so that Z^dim / L = Z^kept / phi(R) with R the
    rows of other pivots.  A Smith form U phi(R) V = D of that residual
    keeps the c coordinates with d_i != 1, whose d_i are ``orders``:
    ``pi`` (c x dim) is their rows of U composed with phi, and ``sigma``
    (dim x c) their columns of U^-1 on the kept coordinates, so that
    pi sigma = I and pi maps L into the span of D.
    """
    dim = M.flat_dim
    lattice = M.relation_lattice()
    units = {p: row for row, p in zip(lattice.rows, lattice.pivots)
             if row[p] in (1, -1)}
    kept = [j for j in range(dim) if j not in units]
    # phi[j]: e_j modulo the unit rows, sparse over the kept coordinates
    phi = [None] * dim
    for k, j in enumerate(kept):
        phi[j] = {k: 1}
    for p in sorted(units, reverse=True):
        row, image = units[p], {}
        for j in compress(range(p + 1, dim), row[p + 1:]):
            c = -row[p] * row[j]  # e_p = -(+-1) sum_(j > p) row[j] e_j
            for k, x in phi[j].items():
                image[k] = image.get(k, 0) + c * x
        phi[p] = {k: x for k, x in image.items() if x}
    rows = [[0] * dim for _ in kept]  # phi as a kept x dim matrix
    for j, column in enumerate(phi):
        for k, x in column.items():
            rows[k][j] = x
    phi = IntMatrix(len(kept), dim, rows)
    residual = phi * IntMatrix.from_columns(
        dim, [row for row, p in zip(lattice.rows, lattice.pivots)
              if p not in units])
    diag, U, Uinv = smith_with_inverse(residual)
    diag += [0] * (len(kept) - len(diag))
    keep = [i for i, d in enumerate(diag) if d != 1]
    pi = IntMatrix(len(keep), len(kept), [U.data[i] for i in keep]) * phi
    sigma = [[0] * len(keep) for _ in range(dim)]
    for j, row in zip(kept, Uinv.data):
        sigma[j] = [row[i] for i in keep]
    return (tuple(diag[i] for i in keep), pi,
            IntMatrix(dim, len(keep), sigma))


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
    """Direct sum, with generators concatenated in the given order.

    If every summand with relations carries its echelon, so does the sum:
    their rows padded, pivots shifted, which is row for row the fresh
    echelon, as a summand's rows never reduce against another's.
    """
    if not mods:
        raise ValueError("empty direct sum needs an explicit point group")
    group = mods[0].group
    total = sum(m.flat_dim for m in mods)
    relations = []
    lattice = RowEchelonLattice(total)
    offset = 0
    for m in mods:
        if m.group != group:
            raise ValueError("point group mismatch in direct sum")
        head, tail = [0] * offset, [0] * (total - offset - m.flat_dim)
        relations += [head + list(rel) + tail for rel in m.relations]
        if m.relations and m._rel_lattice is None:
            lattice = None  # built on demand
        elif m.relations and lattice is not None:
            lattice.rows += [head + row + tail for row in m._rel_lattice.rows]
            lattice.pivots += [p + offset for p in m._rel_lattice.pivots]
        offset += m.flat_dim
    out = FpModule(group, sum(m.ngens for m in mods), relations)
    out._rel_lattice = lattice
    return out


def tensor_over_ring(M: FpModule, N: FpModule) -> FpModule:
    """M tensor N over R(C_n), by the standard presentation.

    Generators are pairs (i, j) ordered with the M index major; relations
    are every M-relation against each N-generator and every N-relation
    against each M-generator, pruned, so the result carries its echelon.
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


def _shift_vector(vec: Sequence[int], n: int) -> list:
    """Multiplication of a flat vector by eta: rotate every generator block.
    On the rows of a matrix it applies eta to every column."""
    out = [0] * len(vec)
    for t in range(n):
        out[(t + 1) % n::n] = vec[t::n]
    return out


def _eta_orbit(vec: Sequence[int], n: int):
    """Yield vec, eta * vec, ..., eta^(n-1) * vec as lists."""
    vec = list(vec)
    yield vec
    for _ in range(n - 1):
        vec = _shift_vector(vec, n)
        yield vec


class LatticeModule(_Value):
    """A Z-torsion-free module as a lattice with an automorphism of finite order."""

    __slots__ = ("group", "rank", "action")

    def __init__(self, group: PointGroup, rank: int, action: IntMatrix):
        self.group, self.rank, self.action = group, rank, action
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
    columns = []  # eta^t e_j, which is column j of powers[t]
    for j in sorted(range(r), key=lambda j: (-orbit_rank(j), j)):
        e = [0] * r
        e[j] = 1
        if span.contains(e):
            continue
        for power in powers:
            columns.append(power.column(j))
            span.add(columns[-1])
    s = len(columns) // n
    evaluation = IntMatrix.from_columns(r, columns)

    module = FpModule(group, s, kernel_lattice(evaluation).columns()).pruned()

    flat = module.flatten()
    if not flat.is_free or flat.free_rank != r:
        raise AssertionError("lattice presentation failed to reproduce the rank")
    return module, evaluation


def presentation_kernel(matrix: IntMatrix, target: FpModule):
    """Kernel of a map out of a free module, as a presented module.

    ``matrix`` is the flat matrix of an eta-equivariant map from the free
    module on ``matrix.cols // n`` generators to ``target``.  The kernel
    lattice (that of ``[matrix | relations]``, projected onto the source)
    is presented with its eta action by :func:`present_lattice`.  Returns
    ``(K, inclusion)`` where the flat matrix ``inclusion`` sends K into
    the source and composes with ``matrix`` to zero modulo the target
    relations.
    """
    group = target.group
    relations = target.relation_columns()
    stacked = matrix.hstack(relations) if relations.cols else matrix
    span = RowEchelonLattice(matrix.cols)
    for col in kernel_lattice(stacked).columns():
        span.add(col[:matrix.cols])
    basis = span.basis_columns_matrix(matrix.cols)
    d = basis.cols
    if d == 0:
        return FpModule(group, 0, ()), basis
    shifted = LinearSolver(basis).solve_matrix(
        IntMatrix(basis.rows, d, _shift_vector(basis.data, group.order)))
    if shifted is None:
        raise AssertionError("kernel lattice is not shift-stable")
    K, evaluation = present_lattice(LatticeModule(group, d, shifted))
    return K, basis * evaluation


def free_resolution_maps(M: FpModule, length: int) -> list:
    """Flat matrices of a partial free resolution of M.

    Entry 0 is the cover of M by the free module on its generators (the
    identity); entry p >= 1 is the matrix of F_p -> F_(p-1).  Each F_p is
    free on ``matrix.cols // n`` generators.  The list holds ``length + 1``
    matrices, enough to read off Tor up to degree ``length``.  The
    resolution is cached on M and only ever extended.
    """
    maps = M._resolution or [IntMatrix.identity(M.flat_dim)]
    while len(maps) <= length:
        target = (M if len(maps) == 1 else
                  free_module(M.group, maps[-2].cols // M.group.order))
        maps.append(presentation_kernel(maps[-1], target)[1])
    M._resolution = maps
    return maps[:length + 1]


def _act(matrix: IntMatrix, powers: Sequence[IntMatrix], n: int) -> IntMatrix:
    """Matrix of f tensor id_N in N's Smith coordinates.

    ``matrix`` is the flat matrix of a map f of free modules and
    ``powers[u]`` the coordinate matrix of eta^u on N; the ring entry
    a(eta) = sum_u a_u eta^u of f in row generator r and column
    generator i becomes the block sum_u a_u powers[u].
    """
    c = powers[0].rows
    gA, gB = matrix.cols // n, matrix.rows // n
    rows = [[0] * (gA * c) for _ in range(gB * c)]
    for i in range(gA):
        base_col = matrix.column(i * n)
        for r in range(gB):
            for u, a in enumerate(base_col[r * n:(r + 1) * n]):
                for s, erow in enumerate(powers[u].data if a else ()):
                    target = rows[r * c + s]
                    for t, e in enumerate(erow):
                        if e:
                            target[i * c + t] += a * e
    return IntMatrix(gB * c, gA * c, rows)


def _divide_rows(rows, orders: Sequence[int]) -> list:
    """The rows of X with D X = ``rows``, D the columns d_i e_i of the
    nonzero ``orders``: row i divided by d_i.  The columns of ``rows`` must
    lie in the span of D, so each division is exact and a row of order 0
    is zero.
    """
    out = []
    for d, row in zip(orders, rows):
        if any(x % d for x in row) if d else any(row):
            raise AssertionError("lifted map leaves the diagonal relations")
        if d:
            out.append([x // d for x in row])
    return out


def tor(M: FpModule, N: FpModule, p_max: int = 2) -> list:
    """Tor_p(M, N) over R(C_n) for p = 0 .. p_max.

    Builds a partial free resolution F of M by iterated syzygies and works
    in N's Smith coordinates (see :meth:`FpModule.smith_coordinates`):
    F_p tensor N is Z^(k_p) / D_p, with D_p injecting Z^(t_p) as the
    columns d_i e_i of the coordinates of nonzero order.  With A_p the
    lift of the differential (:func:`_act`) and h_p, s_p the exact
    quotients A_p D_p = D_(p-1) h_p and A_(p-1) A_p = D_(p-2) s_p, the
    free total complex T_p = Z^(k_p) + Z^(t_(p-1)) with
    d_p(x, y) = (A_p x + D_(p-1) y, -s_p x - h_(p-1) y) has the homology
    of F tensor N (the mapping cone of D).  One Smith diagonal per d_p
    gives every group, as in :func:`cohomology_table`:
    Tor_p = Z^(dim T_p - r_p - r_(p+1)) plus the torsion of d_(p+1).
    Degree 0 is the flattening of the tensor product, which is why a fold
    under a derived page takes its groups from it.
    """
    if M.group != N.group:
        raise ValueError("point group mismatch in Tor")
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    n = M.group.order
    orders, powers = N.smith_coordinates()
    maps = free_resolution_maps(M, p_max + 1)
    degree_orders = [orders * (step.cols // n) for step in maps]
    acting = [None] + [_act(step, powers, n) for step in maps[1:]]
    totals = []
    for p in range(1, p_max + 2):
        A, below = acting[p], degree_orders[p - 1]
        kept = [(j, d) for j, d in enumerate(below) if d]
        twist = lift = []
        if p > 1:  # s_p and h_(p-1), both into Z^(t_(p-2))
            prev, base = acting[p - 1], degree_orders[p - 2]
            twist = _divide_rows((prev * A).data, base)
            lift = _divide_rows([[row[j] * d for j, d in kept]
                                 for row in prev.data], base)
        total = [list(row) + [0] * len(kept) for row in A.data]
        for k, (j, d) in enumerate(kept):
            total[j][A.cols + k] = d
        total += [[-x for x in s + h] for s, h in zip(twist, lift)]
        totals.append(IntMatrix(len(total), A.cols + len(kept), total))
    diagonals = [smith_diagonal(total) for total in totals]
    ranks = [0] + [sum(1 for x in diag if x) for diag in diagonals]
    return [FgAbGroup(totals[p].rows - ranks[p] - ranks[p + 1],
                      tuple(x for x in diagonals[p] if x > 1))
            for p in range(p_max + 1)]
