"""Affine Cartan data: integer Cartan matrices, symmetrizers, and the
two-parameter pairing tables for the seven untwisted families.

Tables are stored as data: per-family band rules plus explicit affine-row
and corner entries, with the exceptional families written out entry by
entry.  Construction re-checks the diagonal law <i,i> = r_i s_i^-1 and the
compatibility law <i,j><j,i> = (r_i s_i^-1)^(a_ij); violations are recorded
as diagnostics on the table, never silently repaired.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IndexOutOfRange, UnsupportedRank
from .field import ONE, R, S, RatFunc, parse, render
from .matrix import Matrix

FAMILIES = ("A", "B", "C", "D", "E6", "F4", "G2")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
# The table of rank N has (N+1)^2 entries and takes quadratic time: on a
# 2-vCPU machine `table --type A128` takes about 0.9 s, A256 about 4 s.
MAX_RANK = 128
_FIXED_RANK = {"E6": 6, "F4": 4, "G2": 2}


@dataclass(frozen=True)
class AffineType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedRank(f"unknown family {self.family!r}")
        if self.family in _FIXED_RANK:
            if self.rank != _FIXED_RANK[self.family]:
                raise UnsupportedRank(
                    f"{self.family} has fixed rank {_FIXED_RANK[self.family]}"
                )
        elif self.rank < _MIN_RANK[self.family]:
            raise UnsupportedRank(
                f"family {self.family} needs rank >= {_MIN_RANK[self.family]}"
            )
        elif self.rank > MAX_RANK:
            raise UnsupportedRank(f"rank {self.rank} exceeds the maximum rank {MAX_RANK}")

    @property
    def size(self) -> int:
        """Number of affine nodes (finite rank + 1)."""
        return self.rank + 1

    def __str__(self):
        return self.family if self.family in _FIXED_RANK else f"{self.family}{self.rank}"


def parse_type(text: str) -> AffineType:
    """'A1', 'B3', 'G2' ... -> AffineType."""
    for fam in ("E6", "F4", "G2"):
        if text == fam:
            return AffineType(fam, _FIXED_RANK[fam])
    fam, num = text[:1], text[1:]
    if fam not in ("A", "B", "C", "D") or not (num.isascii() and num.isdigit()):
        raise UnsupportedRank(f"cannot parse affine type {text!r}")
    # checked on the text: int() refuses strings of more than 4300 digits,
    # leading zeros included
    digits = num.lstrip("0") or "0"
    if len(digits) > len(str(MAX_RANK)):
        raise UnsupportedRank(f"rank {digits} exceeds the maximum rank {MAX_RANK}")
    return AffineType(fam, int(digits))


# ---------------------------------------------------------------------------
# symmetrizers and integer Cartan matrices
# ---------------------------------------------------------------------------


def symmetrizers(t: AffineType):
    n = t.rank
    half = Fraction(1, 2)
    if t.family == "A" or t.family == "D" or t.family == "E6":
        return tuple([Fraction(1)] * (n + 1))
    if t.family == "B":
        return tuple([Fraction(1)] * n + [half])
    if t.family == "C":
        return tuple([Fraction(1)] + [half] * (n - 1) + [Fraction(1)])
    if t.family == "F4":
        return (Fraction(1), Fraction(1), Fraction(1), half, half)
    if t.family == "G2":
        return (Fraction(1), Fraction(1), Fraction(1, 3))
    raise UnsupportedRank(t.family)


def cartan_matrix(t: AffineType):
    """Integer affine Cartan matrix a_ij = 2(alpha_i, alpha_j)/(alpha_i, alpha_i)."""
    n = t.rank
    N = n + 1
    a = [[2 if i == j else 0 for j in range(N)] for i in range(N)]

    def edge(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    fam = t.family
    if fam == "A":
        if n == 1:
            edge(0, 1, -2, -2)
        else:
            for i in range(N):
                a[i][(i + 1) % N] = -1
                a[i][(i - 1) % N] = -1
    elif fam == "B":
        for i in range(1, n):
            edge(i, i + 1)
        a[n - 1][n] = -1
        a[n][n - 1] = -2
        if n == 2:
            edge(0, 2, -1, -2)
        else:
            edge(0, 2)
    elif fam == "C":
        for i in range(1, n - 1):
            edge(i, i + 1)
        a[n - 1][n] = -2
        a[n][n - 1] = -1
        edge(0, 1, -1, -2)
    elif fam == "D":
        for i in range(1, n - 1):
            edge(i, i + 1)
        edge(n - 2, n)
        edge(0, 2)
    elif fam == "E6":
        for i, j in ((0, 2), (2, 4), (1, 3), (3, 4), (4, 5), (5, 6)):
            edge(i, j)
    elif fam == "F4":
        edge(0, 1)
        edge(1, 2)
        edge(2, 3, -1, -2)
        edge(3, 4)
    elif fam == "G2":
        edge(0, 1)
        edge(1, 2, -1, -3)
    return tuple(tuple(row) for row in a)


# ---------------------------------------------------------------------------
# pairing tables
# ---------------------------------------------------------------------------

_RS = R * S
_RSI = (R * S) ** -1

_E6_GRID = [
    ["r*s^(-1)", "(r*s)^(-1)", "r^(-2)*s^(-1)", "(r*s)^(-1)", "r*s", "r*s", "r*s"],
    ["r*s", "r*s^(-1)", "1", "r^(-1)", "1", "1", "1"],
    ["r*s^2", "1", "r*s^(-1)", "1", "r^(-1)", "1", "1"],
    ["r*s", "s", "1", "r*s^(-1)", "r^(-1)", "1", "1"],
    ["(r*s)^(-1)", "1", "s", "s", "r*s^(-1)", "r^(-1)", "1"],
    ["(r*s)^(-1)", "1", "1", "1", "s", "r*s^(-1)", "r^(-1)"],
    ["(r*s)^(-1)", "1", "1", "1", "1", "s", "r*s^(-1)"],
]

_F4_GRID = [
    ["r*s^(-1)", "r^(-2)*s^(-1)", "(r*s)^(-1)", "r*s", "r*s"],
    ["r*s^2", "r*s^(-1)", "r^(-1)", "1", "1"],
    ["r*s", "s", "r*s^(-1)", "r^(-1)", "1"],
    ["(r*s)^(-1)", "1", "s", "r^(1/2)*s^(-1/2)", "r^(-1/2)"],
    ["(r*s)^(-1)", "1", "1", "s^(1/2)", "r^(1/2)*s^(-1/2)"],
]

_G2_GRID = [
    ["r*s^(-1)", "r^(-2)*s^(-1)", "r*s"],
    ["r*s^2", "r*s^(-1)", "r^(-1)"],
    ["(r*s)^(-1)", "s", "r^(1/3)*s^(-1/3)"],
]


def _mono(er, es):
    return RatFunc.monomial(1, er, es, 0)


def _entries(t: AffineType):
    n = t.rank
    N = n + 1
    fam = t.family
    if fam == "E6":
        return [[parse(e) for e in row] for row in _E6_GRID]
    if fam == "F4":
        return [[parse(e) for e in row] for row in _F4_GRID]
    if fam == "G2":
        return [[parse(e) for e in row] for row in _G2_GRID]

    d = symmetrizers(t)
    J = [[ONE for _ in range(N)] for _ in range(N)]
    for i in range(N):
        J[i][i] = _mono(d[i], -d[i])

    if fam == "A":
        if n == 1:
            J[0][1] = J[1][0] = R**-1 * S
        else:
            for i in range(N):
                J[i][(i + 1) % N] = R**-1
                J[i][(i - 1) % N] = S
        return J

    if fam == "B":
        for i in range(1, n):
            J[i][i + 1] = R**-1
        for i in range(2, N):
            J[i][i - 1] = S
        J[0][1], J[1][0] = _RSI, _RS
        J[0][2], J[2][0] = R**-1, S
        J[0][n], J[n][0] = _RS, _RSI  # corner wins the n = 2 collision
        return J

    if fam == "C":
        for i in range(1, n - 1):
            J[i][i + 1] = _mono(Fraction(-1, 2), 0)
        J[n - 1][n] = R**-1
        for i in range(2, n):
            J[i][i - 1] = _mono(0, Fraction(1, 2))
        J[n][n - 1] = S
        J[0][1], J[1][0] = R**-1, S
        J[0][n], J[n][0] = _RS, _RSI
        return J

    if fam == "D":
        for i in range(1, n - 1):
            J[i][i + 1] = R**-1
        J[n - 1][n] = _RSI
        for i in range(2, n):
            J[i][i - 1] = S
        J[n][n - 1] = _RS
        J[n - 2][n], J[n][n - 2] = R**-1, S
        J[0][1], J[1][0] = _RSI, _RS
        J[0][2], J[2][0] = R**-1, S
        J[0][n], J[n][0] = _RS**2, _RSI**2
        return J

    raise UnsupportedRank(fam)


@dataclass(frozen=True)
class PairingTable:
    """Quantum Cartan matrix J of an affine type, with its classical data.

    Immutable; entries are exact RatFunc values.  diagnostics lists every
    printed entry that fails the diagonal or compatibility law (construction
    never repairs the source tables).  rs holds the images of r and s, which
    a specialization maps with the entries, so 1/(r - s) lives in their field.
    """

    type: AffineType
    entries: tuple
    cartan: tuple
    d: tuple
    diagnostics: tuple
    rs: tuple = (R, S)

    @property
    def size(self) -> int:
        return self.type.size

    def entry(self, i: int, j: int) -> RatFunc:
        N = self.size
        if not (0 <= i < N and 0 <= j < N):
            raise IndexOutOfRange(f"pairing index ({i},{j}) outside 0..{N - 1}")
        return self.entries[i][j]


def build_pairing(t: AffineType) -> PairingTable:
    J = _entries(t)
    a = cartan_matrix(t)
    d = symmetrizers(t)
    N = t.size

    diags = []
    rho = R * S**-1
    for i in range(N):
        expected = _mono(d[i], -d[i])
        if J[i][i] != expected:
            diags.append(f"diagonal <{i},{i}> = {render(J[i][i])} != r_i*s_i^(-1)")
        if d[i] * a[i][i] != 2 * d[i]:
            diags.append(f"cartan diagonal a[{i}][{i}] != 2")
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            if d[i] * a[i][j] != d[j] * a[j][i]:
                diags.append(f"symmetrizer mismatch at ({i},{j})")
            prod = J[i][j] * J[j][i]
            want = rho ** (d[i] * a[i][j])
            if prod != want:
                diags.append(
                    f"compatibility <{i},{j}><{j},{i}> = {render(prod)}"
                    f" != (r*s^(-1))^({d[i] * a[i][j]})"
                )

    return PairingTable(
        type=t,
        entries=tuple(tuple(row) for row in J),
        cartan=a,
        d=tuple(d),
        diagnostics=tuple(diags),
    )


def pairing(t: PairingTable, i: int, j: int) -> RatFunc:
    """Exact table entry <i, j>."""
    return t.entry(i, j)


def weight_pairing(t: PairingTable, lam, i: int) -> RatFunc:
    """Multiplicative extension of the pairing from the root lattice to the
    weight lattice: lam is given in fundamental-weight coordinates of the
    finite part (length = rank), with entries in (1/2)Z.

    Writing lam = sum_j m_j alpha_j (finite simple roots), the value is
    prod_j <j, i>^(m_j); exponents must stay in the (1/6)Z lattice.
    """
    n = t.type.rank
    if not (0 <= i <= n):
        raise IndexOutOfRange(f"node index {i} outside 0..{n}")
    lam = [Fraction(c) for c in lam]
    if len(lam) != n:
        raise ValueError(f"weight must have {n} fundamental coordinates")
    # m solves fin . m = lam, fin the finite Cartan matrix (nodes 1..n)
    fin = Matrix([row[1:] for row in t.cartan[1:]])
    out = ONE
    for j, mj in enumerate(fin.inverse().apply(lam)):
        if mj:
            out = out * t.entry(j + 1, i) ** mj.as_fraction()
    return out


def table_to_json(t: PairingTable) -> dict:
    """Deterministic JSON-ready form with canonical entry text."""
    return {
        "family": t.type.family,
        "rank": t.type.rank,
        "d": [str(x) for x in t.d],
        "cartan": [list(row) for row in t.cartan],
        "entries": [[render(e) for e in row] for row in t.entries],
        "diagnostics": list(t.diagnostics),
    }
