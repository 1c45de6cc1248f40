"""Exact integer linear algebra.

Everything in this module runs on arbitrary-precision Python integers, so
all results are exact.  It provides Smith normal form with unimodular
transforms, kernel and column-span lattices, canonical finitely generated
abelian groups, and exact linear solving.  All higher layers (group-ring
modules, cochain complexes, the pullback engine) reduce their questions to
these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


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
        return cls(n, n, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, ambient: int, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(ambient, len(columns),
                   [[col[i] for col in columns] for i in range(ambient)])

    def entry(self, i: int, j: int) -> int:
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def column(self, j: int) -> list:
        return [r[j] for r in self.data]

    def columns(self) -> list:
        return [[r[j] for r in self.data] for j in range(self.cols)]

    def to_lists(self) -> list:
        return [list(r) for r in self.data]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         [[self.data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in r) for r in self.data)

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
        out = [[0] * other.cols for _ in range(self.rows)]
        odata = other.data
        for i, row in enumerate(self.data):
            acc = out[i]
            for k, a in enumerate(row):
                if a:
                    orow = odata[k]
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] += a * b
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


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith normal form U*A*V = D with U, V unimodular and D diagonal.

    Diagonal entries are nonnegative, each divides the next nonzero one,
    and zero entries trail.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> list:
        k = min(self.D.rows, self.D.cols)
        return [self.D.entry(i, i) for i in range(k)]

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def _row_sub(rows, i, t, q, start):
    ri, rt = rows[i], rows[t]
    for j in range(start, len(ri)):
        x = rt[j]
        if x:
            ri[j] -= q * x


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
    u = [[int(i == j) for j in range(m)] for i in range(m)] if want_u else None
    uinv = [[int(i == j) for j in range(m)] for i in range(m)] if want_uinv else None
    v = [[int(i == j) for j in range(n)] for i in range(n)] if want_v else None

    def swap_rows(a, b):
        d[a], d[b] = d[b], d[a]
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
        if u is not None:
            _row_sub(u, i, t, q, 0)
        if uinv is not None:
            # inverse: col_t += q * col_i
            for r in uinv:
                x = r[i]
                if x:
                    r[t] += q * x

    def swap_cols(a, b):
        for r in d:
            r[a], r[b] = r[b], r[a]
        if v is not None:
            for r in v:
                r[a], r[b] = r[b], r[a]

    def col_op(j, t, q):
        # col_j -= q * col_t
        _col_sub(d, j, t, q)
        if v is not None:
            _col_sub(v, j, t, q)

    limit = min(m, n)
    t = 0
    while t < limit:
        # locate pivot: minimal |entry|, lowest (row, col) on ties
        piv = None
        best = None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    ax = -x if x < 0 else x
                    if best is None or ax < best:
                        best = ax
                        piv = (i, j)
                        if ax == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
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
            # pivot must divide the remaining block for the invariant chain
            viol = None
            for i in range(t + 1, m):
                row = d[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        viol = i
                        break
                if viol is not None:
                    break
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
    """Diagonal of the Smith form, without computing transforms."""
    d, _, _, _ = _smith(A.to_lists(), A.rows, A.cols)
    return [d[i][i] for i in range(min(A.rows, A.cols))]


def smith_with_inverse(A: IntMatrix):
    """Smith data (diag, U, U^-1) used for presenting quotients Z^n / rows."""
    d, u, uinv, _ = _smith(A.to_lists(), A.rows, A.cols,
                           want_u=True, want_uinv=True)
    diag = [d[i][i] for i in range(min(A.rows, A.cols))]
    return diag, IntMatrix(A.rows, A.rows, u), IntMatrix(A.rows, A.rows, uinv)


@dataclass(frozen=True)
class Lattice:
    """A sublattice of Z^ambient_rank given by Z-independent basis columns."""

    ambient_rank: int
    basis: IntMatrix

    def __post_init__(self):
        if self.basis.rows != self.ambient_rank:
            raise ValueError("basis rows must equal ambient rank")

    @property
    def rank(self) -> int:
        return self.basis.cols


def kernel_lattice(A: IntMatrix) -> Lattice:
    """Basis of the integer kernel {x : A x = 0}; always saturated."""
    d, _, _, v = _smith(A.to_lists(), A.rows, A.cols, want_v=True)
    limit = min(A.rows, A.cols)
    r = sum(1 for i in range(limit) if d[i][i])
    cols = [[v[i][j] for i in range(A.cols)] for j in range(r, A.cols)]
    return Lattice(A.cols, IntMatrix.from_columns(A.cols, cols))


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
        n = self.n
        i = 0
        for j in range(n):
            x = vec[j]
            if not x:
                continue
            while i < len(self.pivots) and self.pivots[i] < j:
                i += 1
            if i < len(self.pivots) and self.pivots[i] == j:
                row = self.rows[i]
                a = row[j]
                if x % a == 0:
                    q = x // a
                    for k in range(j, n):
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
            elif not record:
                return vec
            else:
                self.rows.insert(i, vec)
                self.pivots.insert(i, j)
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


def column_span_basis(A: IntMatrix) -> Lattice:
    """Basis of the lattice spanned by the columns of A (exact span)."""
    lat = RowEchelonLattice(A.rows)
    for col in A.columns():
        lat.add(col)
    return Lattice(A.rows, lat.basis_columns_matrix(A.rows))


class LinearSolver:
    """Caches a Smith decomposition to solve A x = b repeatedly and exactly."""

    def __init__(self, A: IntMatrix):
        self.A = A
        self._dec = snf(A)
        self._diag = self._dec.diagonal()
        self._rank = sum(1 for d in self._diag if d)

    def solve(self, b: Sequence[int]) -> Optional[list]:
        dec = self._dec
        c = dec.U.mul_vector(b)
        y = [0] * self.A.cols
        for i in range(self.A.rows):
            di = self._diag[i] if i < len(self._diag) else 0
            if di:
                if c[i] % di:
                    return None
                y[i] = c[i] // di
            elif c[i]:
                return None
        return dec.V.mul_vector(y)

    def solve_matrix(self, B: IntMatrix) -> Optional[IntMatrix]:
        cols = []
        for col in B.columns():
            x = self.solve(col)
            if x is None:
                return None
            cols.append(x)
        return IntMatrix.from_columns(self.A.cols, cols)


def solve_exact(A: IntMatrix, b: Sequence[int]) -> Optional[list]:
    """Some integer solution of A x = b, or None when none exists."""
    x = LinearSolver(A).solve(b)
    if x is not None:
        check = A.mul_vector(x)
        if list(check) != [int(t) for t in b]:
            raise AssertionError("solver produced an invalid solution")
    return x


@dataclass(frozen=True)
class FgAbGroup:
    """A finitely generated abelian group in canonical form.

    ``invariant_factors`` is the ascending divisibility chain of torsion
    orders, every factor at least 2.  Two values are equal exactly when
    they describe isomorphic groups.

    >>> print(FgAbGroup(2, (2, 4)))
    Z^2 ⊕ Z/2 ⊕ Z/4
    """

    free_rank: int
    invariant_factors: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        facs = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", facs)
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
        rank = self.free_rank + sum(g.free_rank for g in others)
        factors = list(self.invariant_factors)
        for g in others:
            factors.extend(g.invariant_factors)
        if not factors:
            return FgAbGroup(rank, ())
        # re-canonicalize the combined torsion via Smith form of a diagonal
        k = len(factors)
        diag = [[factors[i] if i == j else 0 for j in range(k)] for i in range(k)]
        chain = smith_diagonal(IntMatrix(k, k, diag))
        return FgAbGroup(rank, tuple(d for d in chain if d > 1))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        i = 0
        facs = self.invariant_factors
        while i < len(facs):
            j = i
            while j < len(facs) and facs[j] == facs[i]:
                j += 1
            count = j - i
            parts.append(f"Z/{facs[i]}" if count == 1
                         else f"(Z/{facs[i]})^{count}")
            i = j
        return " ⊕ ".join(parts) if parts else "0"


def quotient_group(ambient_rank: int, sub: Lattice) -> FgAbGroup:
    """Z^ambient_rank modulo the span of ``sub``, in canonical form."""
    if sub.ambient_rank != ambient_rank:
        raise ValueError("ambient rank mismatch")
    diag = smith_diagonal(sub.basis)
    return FgAbGroup.from_smith_diagonal(ambient_rank, diag)


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
                            action: Optional[IntMatrix] = None):
    """The quotient of lattice A by sublattice B, with the induced action.

    ``A_basis`` holds independent columns spanning A inside some Z^m;
    ``B_columns`` spans a sublattice B of A (columns need not be
    independent); ``action`` is an m x m matrix preserving both A and B.

    Returns ``(group, T)`` where ``group`` is A/B in canonical form and T
    is the matrix of the induced action on A/B when that quotient is
    free, else None.  The free coordinates come from the rows of the left
    Smith transform beyond the torsion block, so T is well defined.
    """
    a = A_basis.cols
    if a == 0:
        empty = IntMatrix.zeros(0, 0)
        return FgAbGroup.trivial(), (empty if action is not None else None)
    solver = LinearSolver(A_basis)
    C = solver.solve_matrix(B_columns)
    if C is None:
        raise ValueError("columns do not lie in the given lattice")
    diag, U, Uinv = smith_with_inverse(C)
    r = sum(1 for d in diag if d)
    group = FgAbGroup.from_smith_diagonal(a, diag)
    if action is None:
        return group, None
    if not group.is_free:
        return group, None
    S = solver.solve_matrix(action * A_basis)
    if S is None:
        raise ValueError("action does not preserve the lattice")
    Sy = U * S * Uinv
    T = Sy.submatrix(r, a, r, a)
    return group, T
