"""Exact integer linear algebra.

Everything in this module runs on arbitrary-precision Python integers, so
all results are exact.  It provides Smith normal form with unimodular
transforms, kernel lattices, row-echelon lattices, canonical finitely generated
abelian groups, and exact linear solving.  All higher layers (group-ring
modules, cochain complexes, the pullback engine) reduce their questions to
these primitives.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from heapq import heapify, heappop, heappush
from itertools import compress, groupby
from math import gcd


class _Value:
    """Equality, hashing and repr read off ``__slots__``, for small
    immutable value types whose instances are equal field by field."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")")


class IntMatrix:
    """An immutable integer matrix stored as a tuple of row tuples.

    Multiplication skips zero entries, which matters here: almost every
    matrix in the engine is a sparse incidence-style matrix with entries
    in {-1, 0, 1}.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Iterable[Iterable[int]]):
        tup = tuple(map(tuple, data))
        if len(tup) != rows or any(len(r) != cols for r in tup):
            raise ValueError(f"shape mismatch: expected {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.data = tup

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(r, c, rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, _eye(n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, ambient: int, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(ambient, len(columns),
                   zip(*columns) if columns else [()] * ambient)

    def entry(self, i: int, j: int) -> int:
        return self.data[i][j]

    def column(self, j: int) -> list:
        return [r[j] for r in self.data]

    def columns(self) -> list:
        return list(map(list, zip(*self.data))) or [[] for _ in range(self.cols)]

    def to_lists(self) -> list:
        return [list(r) for r in self.data]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, self.columns())

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         [[-x for x in r] for r in self.data])

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return IntMatrix(self.rows, self.cols,
                         [[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in multiplication")
        # the nonzeros of each row as (column, value), found at C level
        sparse = [list(zip(compress(range(other.cols), r), filter(None, r)))
                  for r in other.data]
        out = []
        for row in self.data:
            acc = [0] * other.cols
            for k, a in zip(compress(range(self.cols), row), filter(None, row)):
                for j, b in sparse[k]:
                    acc[j] += a * b
            out.append(acc)
        return IntMatrix(self.rows, other.cols, out)

    def mul_vector(self, vec: Sequence[int]) -> list:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self.data:
            s = 0
            for a, b in zip(row, vec):
                if a and b:
                    s += a * b
            out.append(s)
        return out

    def submatrix(self, row_start: int, row_stop: int,
                  col_start: int, col_stop: int) -> "IntMatrix":
        return IntMatrix(row_stop - row_start, col_stop - col_start,
                         [r[col_start:col_stop]
                          for r in self.data[row_start:row_stop]])

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return IntMatrix(self.rows, self.cols + other.cols,
                         [r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


class SnfDecomposition(_Value):
    """Smith normal form U*A*V = D with U, V unimodular and D diagonal.

    Diagonal entries are nonnegative, each divides the next nonzero one,
    and zero entries trail.
    """

    __slots__ = ("U", "D", "V")

    def __init__(self, U: IntMatrix, D: IntMatrix, V: IntMatrix):
        self.U, self.D, self.V = U, D, V

    def diagonal(self) -> list:
        k = min(self.D.rows, self.D.cols)
        return [self.D.entry(i, i) for i in range(k)]


def _eye(k: int) -> list:
    return [[0] * i + [1] + [0] * (k - i - 1) for i in range(k)]


def _least(row) -> int:
    """Least nonzero |entry| of a row; 0 for a zero row."""
    vals = set(row)
    vals.discard(0)
    return min(map(abs, vals), default=0)


def _row_sub(rows, i, t, q, start):
    ri, rt = rows[i], rows[t]
    for j in compress(range(start, len(ri)), rt[start:]):
        ri[j] -= q * rt[j]


def _col_sub(rows, j, t, q):
    for r in rows:
        x = r[t]
        if x:
            r[j] -= q * x


def _smith(data, m, n, want_u=False, want_uinv=False, want_v=False):
    """In-place Smith reduction.

    ``data`` is a list of row lists and is destroyed.  Returns
    ``(data, u, uinv, v)`` where the trackers are lists of row lists or
    None.  Pivot choice: smallest nonzero absolute value, ties broken by
    lowest (row, col); this makes all transforms reproducible.
    """
    d = data
    u = _eye(m) if want_u else None
    uinv = _eye(m) if want_uinv else None
    v = _eye(n) if want_v else None
    low = [_least(r) for r in d]  # exact for the rows below the pivot

    def swap_rows(a, b):
        d[a], d[b] = d[b], d[a]
        low[a], low[b] = low[b], low[a]
        if u is not None:
            u[a], u[b] = u[b], u[a]
        if uinv is not None:
            for r in uinv:
                r[a], r[b] = r[b], r[a]

    def negate_row(a):
        d[a] = [-x for x in d[a]]
        if u is not None:
            u[a] = [-x for x in u[a]]
        if uinv is not None:
            for r in uinv:
                r[a] = -r[a]

    def row_op(i, t, q, start):
        # row_i -= q * row_t
        _row_sub(d, i, t, q, start)
        low[i] = _least(d[i])
        if u is not None:
            _row_sub(u, i, t, q, 0)
        if uinv is not None:
            # inverse: col_t += q * col_i
            for r in uinv:
                x = r[i]
                if x:
                    r[t] += q * x

    def swap_cols(a, b):
        # rows above the pivot are zero in every column from t on
        for r in d[t:]:
            r[a], r[b] = r[b], r[a]
        if v is not None:
            for r in v:
                r[a], r[b] = r[b], r[a]

    def col_op(j, t, q):
        # col_j -= q * col_t; col_t of d is zero off row t by now
        d[t][j] -= q * d[t][t]
        if v is not None:
            _col_sub(v, j, t, q)

    limit = min(m, n)
    t = 0
    while t < limit:
        # pivot: minimal |entry|, lowest (row, col) on ties.  Rows from t
        # on are zero left of column t.
        best = min(filter(None, low[t:]), default=0)
        if not best:
            break
        i = low.index(best, t)
        piv = (i, min(d[i].index(x) for x in (best, -best) if x in d[i]))
        if piv[0] != t:
            swap_rows(piv[0], t)
        if piv[1] != t:
            swap_cols(piv[1], t)

        while True:
            if d[t][t] < 0:
                negate_row(t)
            p = d[t][t]
            restart = False
            for i in range(t + 1, m):
                x = d[i][t]
                if x:
                    q = x // p
                    if q:
                        row_op(i, t, q, t)
                    if d[i][t]:
                        swap_rows(i, t)
                        low[i] = _least(d[i])  # col ops may have changed it
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                x = d[t][j]
                if x:
                    q = x // p
                    if q:
                        col_op(j, t, q)
                    if d[t][j]:
                        swap_cols(j, t)
                        restart = True
                        break
            if restart:
                continue
            if p == 1:
                break  # a unit pivot divides the remaining block
            # pivot must divide the remaining block for the invariant chain;
            # rows below t are zero up to column t, so whole rows are tested
            viol = next((i for i in range(t + 1, m)
                         if any(x % p for x in set(d[i]))), None)
            if viol is None:
                break
            row_op(t, viol, -1, t)
        t += 1
    return d, u, uinv, v


def snf(A: IntMatrix) -> SnfDecomposition:
    """Smith normal form of A with both unimodular transforms."""
    d, u, _, v = _smith(A.to_lists(), A.rows, A.cols, want_u=True, want_v=True)
    return SnfDecomposition(IntMatrix(A.rows, A.rows, u),
                            IntMatrix(A.rows, A.cols, d),
                            IntMatrix(A.cols, A.cols, v))


def smith_diagonal(A: IntMatrix) -> list:
    """Diagonal of the Smith form, without computing transforms.

    Unit pivots go first, on a sparse copy: a +-1 entry of the sparsest
    column, in its shortest row, clears its column by row operations and
    splits off a 1 (clearing its row then touches no other row).  The
    rows and columns still nonzero after that go to the dense reduction.
    """
    m, n = A.rows, A.cols
    rows = [dict(zip(compress(range(n), r), filter(None, r))) for r in A.data]
    cols = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    heap = [(len(c), j) for j, c in enumerate(cols) if c]
    heapify(heap)
    units = 0
    while heap:
        size, j = heappop(heap)
        live = cols[j]
        if size != len(live):
            continue  # stale; the column was pushed again when it changed
        piv = min((i for i in live if rows[i][j] in (1, -1)),
                  key=lambda i: (len(rows[i]), i), default=None)
        if piv is None:
            continue  # pushed again if a row operation changes it
        prow = rows[piv]
        s = prow[j]
        for i in live - {piv}:
            row, q = rows[i], rows[i][j] * s
            for k, y in prow.items():
                x = row.get(k, 0) - q * y
                if x:
                    row[k] = x
                    cols[k].add(i)
                else:
                    del row[k]
                    cols[k].discard(i)
        for k in prow:
            cols[k].discard(piv)
            heappush(heap, (len(cols[k]), k))
        rows[piv] = {}
        units += 1
    keep = [j for j in range(n) if cols[j]]
    rest = [[row.get(j, 0) for j in keep] for row in rows if row]
    d, _, _, _ = _smith(rest, len(rest), len(keep))
    diag = [1] * units + [d[i][i] for i in range(min(len(rest), len(keep)))]
    return diag + [0] * (min(m, n) - len(diag))


def smith_with_inverse(A: IntMatrix):
    """Smith data (diag, U, U^-1) used for presenting quotients Z^n / rows."""
    d, u, uinv, _ = _smith(A.to_lists(), A.rows, A.cols,
                           want_u=True, want_uinv=True)
    diag = [d[i][i] for i in range(min(A.rows, A.cols))]
    return diag, IntMatrix(A.rows, A.rows, u), IntMatrix(A.rows, A.rows, uinv)


def kernel_lattice(A: IntMatrix) -> IntMatrix:
    """Basis columns of the integer kernel {x : A x = 0}; always saturated."""
    d, _, _, v = _smith(A.to_lists(), A.rows, A.cols, want_v=True)
    limit = min(A.rows, A.cols)
    r = sum(1 for i in range(limit) if d[i][i])
    return IntMatrix(A.cols, A.cols - r, [row[r:] for row in v])


class RowEchelonLattice:
    """Mutable integer lattice kept as a row-echelon basis.

    Supports adding vectors (gcd-combining rows as needed) and exact
    membership tests.  Used for column spans, relation lattices and the
    greedy generator selection in module presentations.
    """

    __slots__ = ("n", "rows", "pivots")

    def __init__(self, n: int):
        self.n = n
        self.rows = []
        self.pivots = []  # pivot column of each row, strictly increasing

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec, record=False):
        # Returns remainder after reduction; if record, rows may be combined.
        vec = list(vec)
        n, rows, pivots = self.n, self.rows, self.pivots
        i = 0
        for j in compress(range(n), vec):
            x = vec[j]
            i = bisect_left(pivots, j, i)
            if i < len(pivots) and pivots[i] == j:
                row = rows[i]
                a = row[j]
                if x % a == 0:
                    q = x // a
                    for k in compress(range(j, n), row[j:]):
                        vec[k] -= q * row[k]
                elif not record:
                    return vec
                else:
                    g, s, t = _xgcd(a, x)
                    aq, xq = a // g, x // g
                    for k in range(j, n):
                        rk, vk = row[k], vec[k]
                        row[k] = s * rk + t * vk
                        vec[k] = -xq * rk + aq * vk
                    # Hermite-reduce the new row by the rows below it;
                    # repeated gcd steps blow its entries up otherwise
                    for below, p in zip(rows[i + 1:], pivots[i + 1:]):
                        q = row[p] // below[p]
                        if q:
                            for k in compress(range(p, n), below[p:]):
                                row[k] -= q * below[k]
            elif not record:
                return vec
            else:
                rows.insert(i, vec)
                pivots.insert(i, j)
                return None
        return vec if any(vec) else None

    def contains(self, vec: Sequence[int]) -> bool:
        rem = self._reduce(vec, record=False)
        return rem is None or not any(rem)

    def add(self, vec: Sequence[int]) -> None:
        self._reduce(vec, record=True)

    def basis_rows(self) -> list:
        return [list(r) for r in self.rows]

    def basis_columns_matrix(self, ambient: int) -> IntMatrix:
        return IntMatrix.from_columns(ambient, self.basis_rows())


def _xgcd(a: int, b: int):
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _sparse(col) -> tuple:
    """A column as (rows, values) of its nonzeros; an empty column is ()."""
    return tuple(zip(*[(i, x) for i, x in enumerate(col) if x]))


def _col_combine(cols, k, j, a, b, c, d, start):
    """(col_k, col_j) <- (a col_k + b col_j, c col_k + d col_j) from row start."""
    ck, cj = cols[k], cols[j]
    for i in range(start, len(ck)):
        x, y = ck[i], cj[i]
        if x or y:
            ck[i], cj[i] = a * x + b * y, c * x + d * y


class LinearSolver:
    """Solves A x = b repeatedly and exactly from a column echelon form.

    Unimodular column operations, tracked in V, bring A to H = A V in
    lower echelon form: column k of H is zero above its pivot row, the
    pivot rows increase, and the columns past the rank are zero.  Then
    y comes by back-substitution in H and x = V y, both on sparse
    columns.  A basis already in echelon form, such as one from a
    :class:`RowEchelonLattice`, needs no column operations.
    """

    def __init__(self, A: IntMatrix):
        self.A = A
        h = [list(col) for col in zip(*A.data)] or [[] for _ in range(A.cols)]
        v = _eye(A.cols)  # column k of V is v[k]
        pivots = []
        for i in range(A.rows):
            k = len(pivots)
            live = [j for j in range(k, A.cols) if h[j][i]]
            if not live:
                continue
            # least |entry| of row i first, so most steps are exact divisions
            j = min(live, key=lambda j: abs(h[j][i]))
            h[k], h[j], v[k], v[j] = h[j], h[k], v[j], v[k]
            for j in live:
                x, p = h[j][i], h[k][i]
                if j != k and x:
                    g, s, t = (p, 1, 0) if x % p == 0 else _xgcd(p, x)
                    _col_combine(h, k, j, s, t, -(x // g), p // g, i)
                    _col_combine(v, k, j, s, t, -(x // g), p // g, 0)
            pivots.append(i)
        # per pivot: its row, its value, and columns k of H and of V
        self._steps = [(i, h[k][i], _sparse(h[k]), _sparse(v[k]))
                       for k, i in enumerate(pivots)]

    def solve(self, b: Sequence[int]) -> list | None:
        if len(b) != self.A.rows:
            raise ValueError("vector length mismatch")
        rest = list(b)
        x = [0] * self.A.cols
        for i, p, col, vcol in self._steps:
            if rest[i]:
                y, rem = divmod(rest[i], p)
                if rem:
                    return None
                for r, h in zip(*col):
                    rest[r] -= h * y
                for r, v in zip(*vcol):
                    x[r] += v * y
        if any(rest):
            return None
        return x

    def solve_matrix(self, B: IntMatrix) -> IntMatrix | None:
        cols = []
        for col in B.columns():
            x = self.solve(col)
            if x is None:
                return None
            cols.append(x)
        return IntMatrix.from_columns(self.A.cols, cols)


def solve_exact(A: IntMatrix, b: Sequence[int]) -> list | None:
    """Some integer solution of A x = b, or None when none exists."""
    x = LinearSolver(A).solve(b)
    if x is not None:
        check = A.mul_vector(x)
        if list(check) != [int(t) for t in b]:
            raise AssertionError("solver produced an invalid solution")
    return x


class FgAbGroup(_Value):
    """A finitely generated abelian group in canonical form.

    ``invariant_factors`` is the ascending divisibility chain of torsion
    orders, every factor at least 2.  Two values are equal exactly when
    they describe isomorphic groups.

    >>> print(FgAbGroup(2, (2, 4)))
    Z^2 ⊕ Z/2 ⊕ Z/4
    """

    __slots__ = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int, invariant_factors: Iterable[int] = ()):
        self.free_rank = free_rank
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        facs = tuple(int(d) for d in invariant_factors)
        self.invariant_factors = facs
        for d in facs:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(facs, facs[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, order: int) -> "FgAbGroup":
        return cls(0, (order,)) if order > 1 else cls.trivial()

    @classmethod
    def from_smith_diagonal(cls, ambient_rank: int, diag: Sequence[int]) -> "FgAbGroup":
        nonzero = [d for d in diag if d]
        factors = tuple(d for d in nonzero if d > 1)
        return cls(ambient_rank - len(nonzero), factors)

    @property
    def rank(self) -> int:
        return self.free_rank

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def is_free(self) -> bool:
        return not self.invariant_factors

    def direct_sum(self, *others: "FgAbGroup") -> "FgAbGroup":
        groups = (self,) + others
        factors = sorted(d for g in groups for d in g.invariant_factors)
        # a sorted divisibility chain (every 2-primary sum) is canonical
        # already; else Z/a + Z/b = Z/gcd + Z/lcm, after which factors[i]
        # divides all later ones
        if any(b % a for a, b in zip(factors, factors[1:])):
            for i in range(len(factors)):
                for j in range(i + 1, len(factors)):
                    a, b = factors[i], factors[j]
                    factors[i] = g = gcd(a, b)
                    factors[j] = a // g * b
        return FgAbGroup(sum(g.free_rank for g in groups),
                         tuple(d for d in factors if d > 1))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for d, run in groupby(self.invariant_factors):
            count = len(list(run))
            parts.append(f"Z/{d}" if count == 1 else f"(Z/{d})^{count}")
        return " ⊕ ".join(parts) if parts else "0"


def hom_ext_z(G: FgAbGroup):
    """Hom(G, Z) and Ext(G, Z): the free part and the torsion part."""
    return FgAbGroup.free(G.free_rank), FgAbGroup(0, G.invariant_factors)


def unimodular_inverse(M: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    dec = snf(M)
    if any(d != 1 for d in dec.diagonal()) or M.rows != M.cols:
        raise ValueError("matrix is not unimodular")
    return dec.V * dec.U


def determinant(A: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant needs a square matrix")
    n = A.rows
    if n == 0:
        return 1
    a = A.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pk - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def subquotient_with_action(A_basis: IntMatrix, B_columns: IntMatrix,
                            action: IntMatrix):
    """The quotient of lattice A by sublattice B, with the induced action.

    ``A_basis`` holds independent columns spanning A inside some Z^m;
    ``B_columns`` spans a sublattice B of A (columns need not be
    independent); ``action`` is the m x a matrix of the images of A's
    basis columns under an automorphism of Z^m preserving both A and B.

    Returns ``(group, T)`` where ``group`` is A/B in canonical form and T
    is the matrix of the induced action on A/B when that quotient is
    free, else None.  The free coordinates come from the rows of the left
    Smith transform beyond the torsion block, so T is well defined.
    """
    a = A_basis.cols
    if a == 0:
        return FgAbGroup.trivial(), IntMatrix.zeros(0, 0)
    solver = LinearSolver(A_basis)
    C = solver.solve_matrix(B_columns)
    if C is None:
        raise ValueError("columns do not lie in the given lattice")
    diag, U, Uinv = smith_with_inverse(C)
    r = sum(1 for d in diag if d)
    group = FgAbGroup.from_smith_diagonal(a, diag)
    if not group.is_free:
        return group, None
    S = solver.solve_matrix(action)
    if S is None:
        raise ValueError("action does not preserve the lattice")
    Sy = U * S * Uinv
    T = Sy.submatrix(r, a, r, a)
    return group, T
