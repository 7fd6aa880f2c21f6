"""Sparse matrices over the exact rational-function field.

A matrix is stored as one dict per row mapping a column index to a nonzero
RatFunc entry; zero entries are never stored.  The generator matrices of
the evaluation modules are mostly zero (ladder, diagonal and current
matrices have at most one or two nonzeros per row), so every operation
loops over stored entries only: a product costs one scalar product per
pair of nonzeros that meet, and a diagonal conjugation W X W^-1 costs
2 nnz(X) products.  A commutator [D, X] with one diagonal factor costs at
most nnz(X) products and one subtraction each, and none at all when both
factors are diagonal; any other commutator makes the scalar products of
a @ b and of b @ a in one pass, summed into one row at a time, with no
intermediate matrix and no negated copy.  A difference walks both rows
and negates only the entries it does not meet.
Matrices are immutable after construction; `rows` gives the dense view.
"""

from __future__ import annotations

from bisect import bisect

from .errors import DivisionByZero
from .field import ONE, ZERO, RatFunc


def _add_rows(row, other, f=None):
    """row + f * other for sparse rows (row + other when f is None),
    dropping the entries that cancel."""
    out = dict(row)
    for j, y in other.items():
        if f is not None:
            y = f * y
        x = out.get(j)
        if x is None:
            out[j] = y
        else:
            v = x + y
            if v:
                out[j] = v
            else:
                del out[j]
    return out


def _sub_rows(row, other):
    """row - other for sparse rows, dropping the entries that cancel."""
    out = dict(row)
    for j, y in other.items():
        x = out.get(j)
        if x is None:
            out[j] = -y
        else:
            v = x - y
            if v:
                out[j] = v
            else:
                del out[j]
    return out


class Matrix:
    __slots__ = ("_rows", "n", "m")

    def __init__(self, rows):
        rows = [list(row) for row in rows]
        if not rows:
            raise ValueError("empty matrix")
        m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        sparse = []
        for row in rows:
            entries = {}
            for j, x in enumerate(row):
                x = RatFunc._coerce(x)
                if x is NotImplemented:
                    raise TypeError("matrix entries must be RatFunc, int or Fraction")
                if x:
                    entries[j] = x
            sparse.append(entries)
        self._rows = tuple(sparse)
        self.n = len(sparse)
        self.m = m

    @classmethod
    def _sparse(cls, rows, m):
        """Trusted constructor: rows are dicts of nonzero entries below m."""
        self = object.__new__(cls)
        self._rows = tuple(rows)
        self.n = len(self._rows)
        self.m = m
        return self

    @classmethod
    def zeros(cls, n, m=None):
        return cls._sparse([{} for _ in range(n)], n if m is None else m)

    @classmethod
    def identity(cls, n):
        return cls._sparse([{i: ONE} for i in range(n)], n)

    @classmethod
    def diagonal(cls, entries):
        entries = [RatFunc._coerce(x) for x in entries]
        return cls._sparse([{i: x} if x else {} for i, x in enumerate(entries)], len(entries))

    @property
    def rows(self):
        """Dense read-only view: a tuple of row tuples."""
        return tuple(tuple(row.get(j, ZERO) for j in range(self.m)) for row in self._rows)

    def __getitem__(self, ij):
        i, j = ij
        return self._rows[i].get(range(self.m)[j], ZERO)  # range() bounds-checks j

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.m == other.m and self._rows == other._rows

    def __hash__(self):
        return hash((self.m, tuple(frozenset(row.items()) for row in self._rows)))

    def __add__(self, other):
        if self.n != other.n or self.m != other.m:
            raise ValueError("dimension mismatch")
        return Matrix._sparse([_add_rows(ra, rb) for ra, rb in zip(self._rows, other._rows)], self.m)

    def __sub__(self, other):
        if self.n != other.n or self.m != other.m:
            raise ValueError("dimension mismatch")
        return Matrix._sparse([_sub_rows(ra, rb) for ra, rb in zip(self._rows, other._rows)], self.m)

    def __neg__(self):
        return Matrix._sparse([{j: -a for j, a in row.items()} for row in self._rows], self.m)

    def scale(self, c) -> "Matrix":
        c = RatFunc._coerce(c)
        if not c:
            return Matrix.zeros(self.n, self.m)
        if c.is_one():
            return self
        return Matrix._sparse([{j: a * c for j, a in row.items()} for row in self._rows], self.m)

    def scale_columns(self, factors) -> "Matrix":
        """self @ diag(factors), factors nonzero: one product per entry."""
        return Matrix._sparse([{j: a * factors[j] for j, a in row.items()} for row in self._rows], self.m)

    def map(self, fn) -> "Matrix":
        """Entrywise image: fn applied to the nonzero entries only (so fn
        must send zero to zero); results that are zero are dropped."""
        out = []
        for row in self._rows:
            new = {}
            for j, a in row.items():
                b = RatFunc._coerce(fn(a))
                if b:
                    new[j] = b
            out.append(new)
        return Matrix._sparse(out, self.m)

    def __matmul__(self, other) -> "Matrix":
        if self.m != other.n:
            raise ValueError("dimension mismatch")
        brows = other._rows
        out = []
        for row in self._rows:
            acc = {}
            for j, a in row.items():
                for k, b in brows[j].items():
                    p = a * b
                    v = acc.get(k)
                    acc[k] = p if v is None else v + p
            out.append({k: v for k, v in acc.items() if v})
        return Matrix._sparse(out, other.m)

    def __pow__(self, k: int) -> "Matrix":
        if k < 0:
            return self.inverse() ** (-k)
        out = Matrix.identity(self.n)
        for _ in range(k):
            out = out @ self
        return out

    def apply(self, vec):
        """Matrix action on a column vector (list of RatFunc)."""
        if len(vec) != self.m:
            raise ValueError("dimension mismatch")
        out = []
        for row in self._rows:
            acc = ZERO
            for j, a in row.items():
                v = vec[j]
                if v:
                    acc = acc + a * v
            out.append(acc)
        return out

    def is_zero(self) -> bool:
        return not any(self._rows)

    def is_identity(self) -> bool:
        return self == Matrix.identity(self.n)

    def is_diagonal(self) -> bool:
        return all(row.keys() <= {i} for i, row in enumerate(self._rows))

    def kron(self, other) -> "Matrix":
        """Kronecker product (left factor acts on the outer index)."""
        mb = other.m
        out = []
        for ra in self._rows:
            for rb in other._rows:
                out.append({ja * mb + jb: a * b for ja, a in ra.items() for jb, b in rb.items()})
        return Matrix._sparse(out, self.m * mb)

    def inverse(self) -> "Matrix":
        if self.n != self.m:
            raise ValueError("inverse of a non-square matrix")
        # the reduced echelon form of [self | I] is [I | self^-1] exactly
        # when self is invertible, i.e. when the last pivot is column n-1
        n = self.n
        pivots, rows = [], []
        for i, row in enumerate(self._rows):
            echelon_insert(pivots, rows, {**row, n + i: ONE})
        if pivots[-1] >= n:
            raise DivisionByZero("singular matrix")
        return Matrix._sparse([{j - n: x for j, x in row.items() if j >= n} for row in rows], n)

    def __repr__(self):
        body = "; ".join(", ".join(str(a) for a in row) for row in self.rows)
        return f"Matrix[{body}]"


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """[a, b] = a @ b - b @ a for square matrices of one size.

    When one factor is diagonal (tested exactly, on these operands),
    [D, X]_ij = (d_i - d_j) X_ij: one product per nonzero of X whose two
    diagonal entries differ.  Two diagonal factors commute.  Otherwise
    row i sums the products a_ij b_jk and subtracts the products b_ij a_jk
    in one dict, and drops the entries that cancel once, at the end.
    """
    n = a.n
    if a.m != n or b.n != n or b.m != n:
        raise ValueError("dimension mismatch")
    if a.is_diagonal():
        if b.is_diagonal():
            return Matrix.zeros(n)
        d, x, sign = a, b, 1
    elif b.is_diagonal():
        d, x, sign = b, a, -1
    else:
        arows, brows = a._rows, b._rows
        out = []
        for ra, rb in zip(arows, brows):
            acc = {}
            for j, x in ra.items():
                for k, y in brows[j].items():
                    p = x * y
                    v = acc.get(k)
                    acc[k] = p if v is None else v + p
            for j, y in rb.items():
                for k, x in arows[j].items():
                    p = y * x
                    v = acc.get(k)
                    acc[k] = -p if v is None else v - p
            out.append({k: v for k, v in acc.items() if v})
        return Matrix._sparse(out, n)
    diag = [row.get(i, ZERO) for i, row in enumerate(d._rows)]
    out = []
    for i, row in enumerate(x._rows):
        di = diag[i]
        new = {}
        for j, y in row.items():
            c = di - diag[j] if sign > 0 else diag[j] - di
            if c:
                new[j] = c * y
        out.append(new)
    return Matrix._sparse(out, n)


def echelon_insert(pivots, rows, v):
    """Add the sparse vector v to a reduced echelon basis, in place.

    `rows` are sparse reduced rows sorted by their pivot columns `pivots`.
    v is reduced against them; a nonzero remainder is scaled to a leading
    one, eliminated from the other rows and inserted in pivot order.
    Returns its pivot column, or None when v was already in the span.
    """
    for p, row in zip(pivots, rows):
        f = v.get(p)
        if f is not None:
            v = _add_rows(v, row, -f)
    if not v:
        return None
    piv = min(v)
    if not v[piv].is_one():
        inv = v[piv].inv()
        v = {j: x * inv for j, x in v.items()}
    for k, row in enumerate(rows):
        f = row.get(piv)
        if f is not None:
            rows[k] = _add_rows(row, v, -f)
    idx = bisect(pivots, piv)
    pivots.insert(idx, piv)
    rows.insert(idx, v)
    return piv

