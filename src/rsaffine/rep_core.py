"""Generator symbols, matrix modules, and the relation-verification engine.

Every defining relation of both presentations is checked as an exact matrix
identity over Q(r, s, a, b).  Reports carry instance counts and both sides
of every failing instance, rendered on output; an empty failure list means
the relation holds exactly on the module.

Pinned modules.  A module with a or b pinned is the substitution
specialize.substitute_module(symbolic, a=..., b=...).  Substitution is a
ring homomorphism on the rational functions that are regular at the pin
(their denominators do not vanish there), so it commutes with every matrix
product, sum and scaling a check computes.  The scalars the checks bring in
(table entries, rho, theta(l), 1/(r-s)) contain no a or b.  So when every
entry of the symbolic module is regular at the pin, both sides of every
instance on the pinned module are the images of its symbolic sides: an
instance that holds symbolically holds at the pin, and one that fails
symbolically holds at the pin exactly when those images agree.
specialize.reports_at_pin decides every pinned verdict that way.

Currents on the form.  On the evaluation modules every current is
x(k) = x(0) D^k with D diagonal and invertible (sl2.current_matrices), one
D for x+ and one for x-.  current_form reads a D from x(1) against x(0) and
answers per sign: D when every stored x(k) with |k| <= kmax + 1 equals
x(0) D^k exactly, None otherwise.  Lemma: for D
diagonal and invertible and X(k) = X(0) D^k,
  - A X(k) = (A X(0)) D^k for any A;
  - [G, X(k)] = [G, X(0)] D^k, and G X(k) H = (G X(0) H) D^k, for G and H
    diagonal, since they commute with D^k;
  - U D^k = V D^k exactly when U = V.
So an instance whose two sides are U D^k and V D^k has the verdict of
U = V: D4 (with w and w^-1 diagonal) has one verdict per tag and D5 (with
a(l) and K^-l diagonal) one per (l, x+ or x-), each computed once.

Conjugation lemma.  For diagonals g and h, (g x h)_ab = g_a x_ab h_b, so
g x h = c x holds exactly when g_a h_b = c at every nonzero x_ab (the
entries lie in a field).  A module's weight view (MatrixModule.weights,
read once: modules are read-only) holds its weights as lattice points: the
(exponent key, coefficient) of each entry of a diagonal group-like g (gamma
halves too) whose entries are all nonzero monomials.  A product of two
monomials is a sum of keys, an inverse a negated key, and equal monomials
have equal points, so the view holds whether g and its partner h of the
other sign are an inverse pair, and per (g, x) the common value of g_a h_b,
or that g or h has no points, or that g_a h_b is not constant, with no
RatFunc product.  A diagonal group-like with a zero or non-monomial entry
has no points, and its instances take their plain products.  The view also
names every stored generator that is diagonal, of any kind.  Every
precondition below is a lookup in it.
  - The constructor, R1 and D1 read h g = 1 off the inverse set and multiply
    out only a pair not in it; level zero, (gh gh)(gph gph) = 1, holds with
    no product when both gamma halves are the identity.
  - Two diagonal matrices commute: R1's [w, w], [w, w'], [w', w'], D1's
    [w, w'], D2's [a(l1), a(l2)] and D3's [a(l), w^+-1], [a(l), w'^+-1] hold
    when both generators are in the diagonal set, with no commutator.
  - R2 (g x h = c x for a group-like pair (w, w^-1) or (w', w'^-1) and
    x = e_i or f_i) and D4's family at k = 0 are read off it, with no
    product.
  - R4.  Let h g = 1 and g x h = p x for x = e_i, q x for x = e_j.  Then
    g (x y) h = (g x h)(g y h), so the t-th iterate b_t of
    b -> e_i b - (g b h) e_i, a sum of words with t letters e_i and one e_j,
    has g b_t h = q p^t b_t, and the step is e_i b - b (q p^t e_i): two
    products, not four.  ad_r f is the same with g = w'^-1, h = w' and
    b -> b f_i - f_i (g b h) = b f_i - (q p^t f_i) b.
  Kassel, Quantum Groups, IV.2, for the ad-iterates; Benkart and
  Witherspoon (2004) for R2 and R4 of U_{r,s}.

Scaling lemma.  Let c = r - s (the table's image) and c E_i, c F_i the
generators scaled by it.  The commutator is bilinear, so [c E_i, F_j] =
c [E_i, F_j], and R3, which reads [E_i, F_j] = (W_i - W'_i)/(r - s) or 0,
holds exactly when [c E_i, F_j] = W_i - W'_i or 0.  An R4 iterate is linear
in each of its t + 1 letters e_i, e_j (f_i, f_j), and its conjugation
scalars depend only on where x is nonzero, so the iterate of c x on c y is
c^(t+1) times that of x on y, and zero exactly when it is.  On the ladder
modules each [k] in these products becomes the binomial r^k - s^k.  The
generators are scaled only when c and every entry of E_i and F_i are
Laurent polynomials (scaled_chevalley), so the scaling takes no gcd.

Commutation lemmas.  For diagonals F and G, F X = c X G holds exactly when
F_i = c G_j at every nonzero X_ij, so each identity below is checked entry
by entry, without a product.
  - D5.  With a = a(e) and K^-l diagonal, the family identity
    [a, x(0)] = t K^-l x(0) D^e, for t = +-theta(l) and K^-l = 1 on the
    side of the sign of e, reads (a_i - a_j) x(0)_ij = t (K^-l)_ii x(0)_ij
    D_j^e.  The entries lie in an integral domain, so each nonzero x(0)_ij
    cancels: the family holds exactly when a_i - a_j = t (K^-l)_ii D_j^e at
    every nonzero x(0)_ij.  With a(e) or K^-l not diagonal each instance
    takes its plain products.
  - D6.  Let X(a) = X(0) D^a for every |a| <= kmax + 1, E the diagonal with
    E_i = D_j at the first nonzero X(0)_ij (1 on an empty row), Q = X(0)X(0)
    and kappa = E_i / D_j at the first nonzero Q_ij.  If X(0) D = E X(0) and
    E Q = kappa Q D, then X(0) D^a = E^a X(0) and E^a Q = kappa^a Q D^a, so
    X(a)X(b) = kappa^a Q D^(a+b).  The two sides of instance (k, k2) then
    differ by (kappa - rr)(kappa^k + kappa^k2) Q D^(k+k2+1), and the instance
    fails exactly when that scalar times Q is nonzero.  On V_n(a),
    kappa = rr.  E is read from the rows of X(0), not taken as a multiple of
    D: current_form sets D to 1 on an empty column, so on the evaluation
    modules D X(0) is not a multiple of X(0) D.
  - D7.  Let x+(k) and x-(k) be on the form for every |k| <= kmax, K = c I
    with K^-1 (the matrix kpow uses) = c^-1 I, and D+ x-(0) = c^-1 x-(0) D-,
    D- x+(0) = c x+(0) D+.  Then [x+(k), x-(k2)] = c^-k L(m) for m = k + k2
    and L(m) = x+(0)x-(0) D-^m - c^m x-(0)x+(0) D+^m, while the right side is
    c^-k (c^m w(m) - w'(m))/(r-s).  So instance (k, k2) has the verdict of
    L(m) (r-s) = c^m w(m) - w'(m): one per m, 4 kmax + 1 in all.  A scalar
    commutes with the column scaling by a diagonal, so
    L(m) (r-s) = (x+(0)x-(0) (r-s)) D-^m - c^m (x-(0)x+(0) (r-s)) D+^m,
    and the two products are scaled by r - s once, before the m loop.
Tensor lemmas.  Let M store exactly the coproduct images of the Chevalley
generators of two factors, E_i = e_i(x)1 + w_i(x)e_i, F_i = 1(x)f_i +
f_i(x)w'_i, W_i^+-1 = w_i^+-1(x)w_i^+-1 and W'_i^+-1 = w'_i^+-1(x)w'_i^+-1,
and recall (A(x)B)(C(x)D) = AC(x)BD.  The modules hopf.tensor returns are
these by construction: it builds every image from the factors it records,
and modules are read-only, so neither can change after the build.
  - R3.  [E_i, F_j] = [e_i, f_j](x)w'_j + w_i(x)[e_i, f_j] + (w_i f_j (x)
    e_i w'_j - f_j w_i (x) w'_j e_i).  Let w_i^-1 w_i = 1 and
    w_i f_j w_i^-1 = c f_j on the left factor, and w'_j^-1 w'_j = 1 and
    w'_j e_i w'_j^-1 = c e_i on the right one, for the same c.  Then
    w_i f_j = c f_j w_i and w'_j e_i = c e_i w'_j, so the bracket is
    c (f_j w_i (x) e_i w'_j) - c (f_j w_i (x) e_i w'_j) = 0.  When instance
    (i, j) holds on both factors, [E_i, F_j] is 0 for i != j, and for i = j
    it is ((w_i - w'_i)(x)w'_i + w_i(x)(w_i - w'_i))/(r-s) =
    (W_i - W'_i)/(r-s): the instance holds on M.  Otherwise its left side
    is the first two terms, built by Kronecker products.
  - R4: the quantum Serre element is skew-primitive.  Let w_a^-1 w_a = 1
    and w_a e_b w_a^-1 = P_ab e_b on both factors for a, b in {i, j}, with
    the same P_ab on both, and P_ij P_ji = P_ii^a for a = a_ij; let
    T = 1 - a, q = P_ii, x = P_ij P_ji = q^a, and u_t be the t-th iterate
    of b -> e_i b - (w_i b w_i^-1) e_i from e_j on a factor, so that
    w_i u_t w_i^-1 = P_ij q^t u_t.  By induction on t, the iterate on M is
        B_t = u_t(x)1 + sum_(k <= t) c_tk e_i^(t-k) w_i^k w_j (x) u_k
    with c_tt = 1: the step sends u_t(x)1 to u_(t+1)(x)1, and moving e_i to
    the left past w_i^k w_j (the scalar q^k P_ji) and u_k past w_i gives
    c_(t+1)k = (1 - q^(t+k) x) c_tk + q^(t-k+1) c_t(k-1).  The q-Pascal rules
    [t+1, k] = [t, k] + q^(t+1-k) [t, k-1] = q^k [t, k] + [t, k-1] solve it
    as c_tk = [t, k]_q prod_(l=k..t-1) (1 - q^l x).  At t = T the factor
    l = T - 1 = -a is 1 - q^-a q^a = 0 for every k < T, so
    B_T = u_T(x)1 + w_i^T w_j (x) u_T.  ad_r f is the same argument,
    transposed, on the flipped tensor (f^t and w' in place of e and w):
    with P_ab read from w'_a^-1 f_b w'_a, the iterate of b -> b f_i -
    f_i (w'_i^-1 b w'_i) on M is 1(x)v_T + v_T(x)w'_i^T w'_j.  So the
    instance holds when both factors' iterates are zero, and otherwise its
    left side is that sum, built by Kronecker products.  Equal P_ab alone
    are not enough: twisting W(k) on both factors by one diagonal keeps
    them equal and breaks P_ij P_ji = P_ii^a, and with it the identity.
  Jantzen, Lectures on Quantum Groups, ch. 4, for the skew-primitive Serre
  element; Benkart and Witherspoon (2004) for U_{r,s}.
Every instance is counted by _Checker.verdict, with the verdict of a lemma
or by comparing its two sides.  A commutator instance of R1, D1, D2 or D3
takes its commutator when a generator is not in the diagonal set.  R2
takes its plain products when the weight view has no scalar c for it, and
an R4 ad-iterate when w^-1 w = 1 fails or e_i or e_j (f_i or f_j) has no
scalar in the weight view.  R3 and R4 (not
R1: Kronecker products of diagonals are diagonal) of a module hopf.tensor
returned take the tensor lemmas when an instance meets their hypotheses,
and every other instance of a tensor its products; R3 and R4 of any other
module compare the scaled generators when the scaling lemma applies, and
their plain products otherwise.  A sign off the form has its D4, D5 and D6
instances take their plain products, and D7 takes them unless both signs
are on the form; so does an instance of D4 whose x(0) has no scalar c in
the weight view, of D5 with a non-diagonal a(l) or K^-l, and every instance
of a D6 sign or of D7 when a commutation identity fails.  D6 then still
builds each product X(a)X(b) once and decides each pair k <= k2 once.  A
failing decided instance, a scaled one too, is reported with the sides its
plain expressions build, so reports_at_pin maps it unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .cartan import PairingTable
from .errors import MissingGenerator, UnsupportedRank, WindowTooSmall
from .field import ONE, RatFunc, monomial_quotient, rf, render
from .matrix import Matrix, commutator

# -- generator symbols ---------------------------------------------------------

E_KIND = "E"
F_KIND = "F"
W_KIND = "W"
WP_KIND = "Wp"
GH_KIND = "GammaHalf"
GPH_KIND = "GammaPrimeHalf"
XP_KIND = "Xp"
XM_KIND = "Xm"
AIM_KIND = "Aimag"
WSER_KIND = "Wser"
WPSER_KIND = "Wpser"
_GROUP_LIKE_KINDS = (W_KIND, WP_KIND, GH_KIND, GPH_KIND)


@dataclass(frozen=True)
class Gen:
    """A generator symbol; `i` is the node index, `k` the loop/series index."""

    kind: str
    i: int = 0
    k: int = 0

    def __post_init__(self):
        if self.kind == AIM_KIND and self.k == 0:
            raise ValueError("imaginary root vectors need a nonzero index")

    def __str__(self):
        if self.kind in (E_KIND, F_KIND):
            return f"{self.kind}({self.i})"
        if self.kind in _GROUP_LIKE_KINDS:
            sign = "+1" if self.k >= 0 else "-1"
            return f"{self.kind}({self.i},{sign})" if self.kind in (W_KIND, WP_KIND) else f"{self.kind}({sign})"
        return f"{self.kind}({self.i},{self.k})"

    @property
    def partner(self) -> "Gen":
        """The group-like of the other sign: W(i, -1) for W(i), and so on."""
        return Gen(self.kind, self.i, -self.k)


def E(i):
    return Gen(E_KIND, i)


def F(i):
    return Gen(F_KIND, i)


def W(i, e=1):
    return Gen(W_KIND, i, 1 if e >= 0 else -1)


def Wp(i, e=1):
    return Gen(WP_KIND, i, 1 if e >= 0 else -1)


def GammaHalf(e=1):
    return Gen(GH_KIND, 0, 1 if e >= 0 else -1)


def GammaPrimeHalf(e=1):
    return Gen(GPH_KIND, 0, 1 if e >= 0 else -1)


def Xp(i, k):
    return Gen(XP_KIND, i, k)


def Xm(i, k):
    return Gen(XM_KIND, i, k)


def Aim(i, ell):
    return Gen(AIM_KIND, i, ell)


def Wser(i, m):
    return Gen(WSER_KIND, i, m)


def Wpser(i, m):
    return Gen(WPSER_KIND, i, m)


# -- modules --------------------------------------------------------------------


class MatrixModule:
    """A finite set of generator symbols mapped to square RatFunc matrices.

    Read-only: assign is a read-only view of the module's own copy of the
    mapping, and Matrix values are immutable, so a derived module is a new
    one (with_assign).  Construction verifies the group-like inverse pairs
    and level zero (gamma gamma' acts as the identity), with no product for
    a pair in the weight view's inverse set or identity gamma halves.
    """

    factors = None  # (mL, mR) on a module hopf.tensor returned, None on every other

    def __init__(self, table: PairingTable, assign: dict, check=True):
        dims = {m.n for m in assign.values()} | {m.m for m in assign.values()}
        if len(dims) != 1:
            raise ValueError("all generator matrices must share one square size")
        self.dim = dims.pop()
        self.table = table
        self.assign = MappingProxyType(dict(assign))
        self.kmax = max(
            (abs(g.k) for g in assign if g.kind in (XP_KIND, XM_KIND)), default=-1
        )
        if check:
            self._check_invariants()

    def _check_invariants(self):
        ident, unread = Matrix.identity(self.dim), self.assign.keys() - self.weights.inverse
        for i in range(self.table.size):
            for kind in (W_KIND, WP_KIND):
                plus, minus = Gen(kind, i, 1), Gen(kind, i, -1)
                if {plus, minus} <= unread and self.assign[plus] @ self.assign[minus] != ident:
                    raise ValueError(f"{kind}({i}) inverse pair broken")
        g, gp = self.assign.get(GammaHalf()), self.assign.get(GammaPrimeHalf())
        if None not in (g, gp) and not (g.is_identity() and gp.is_identity()) and (g @ g) @ (gp @ gp) != ident:
            raise ValueError("gamma gamma' must act as the identity (c = 0)")

    def get(self, gen: Gen) -> Matrix:
        # out-of-range series elements are zero by definition
        if gen.kind == WSER_KIND and gen.k < 0:
            return Matrix.zeros(self.dim)
        if gen.kind == WPSER_KIND and gen.k > 0:
            return Matrix.zeros(self.dim)
        try:
            return self.assign[gen]
        except KeyError:
            raise MissingGenerator(str(gen)) from None

    @cached_property
    def weights(self) -> "Weights":
        """The module's weight data, read once: the module is read-only."""
        return Weights(self)

    def with_assign(self, gen: Gen, mat: Matrix) -> "MatrixModule":
        new = dict(self.assign)
        new[gen] = mat
        return MatrixModule(self.table, new, check=False)

    def generators(self):
        return sorted(self.assign, key=lambda g: (g.kind, g.i, g.k))

    def to_json(self) -> dict:
        return {
            "type": str(self.table.type),
            "dim": self.dim,
            "generators": [
                {
                    "symbol": str(g),
                    "matrix": [[render(x) for x in row] for row in self.assign[g].rows],
                }
                for g in self.generators()
            ],
        }


class Weights:
    """The weight data of a module (the conjugation lemma in the module
    docstring), with weights as lattice points.

    - diagonal: the stored generators whose matrices are diagonal, of every
      kind, read on first use; two of them commute, which R1, D1, D2 and
      D3 read.
    - points: per diagonal group-like (gamma halves too) whose entries are
      all nonzero monomials, the lattice point (field.RatFunc.as_point) of
      each entry.  A group-like with a zero or non-monomial entry is not in
      the view, and its instances take their plain products.
    - inverse: the g with g and g.partner in points and g.partner g = 1,
      that is each point of g.partner the negated key and the reciprocal
      coefficient of g's; the constructor, R1 and D1 read it.
    - scalar(g, x), read once per (g, x): the sum of the keys of g_a and
      h_b and the product of their coefficients, which must be one point
      over the support of x; its RatFunc is built once.
    """

    def __init__(self, mod: MatrixModule):
        # the matrices, not the module: a view that referred back to its
        # module would keep both alive until the cycle collector runs
        self._assign = mod.assign
        self._scalars = {}
        self.points = {}
        for g, m in mod.assign.items():
            if g.kind in _GROUP_LIKE_KINDS and m.is_diagonal():
                pts = [row[a].as_point() if row else None for a, row in enumerate(m._rows)]
                if None not in pts:
                    self.points[g] = pts
        pairs = ((g, pts, self.points.get(g.partner)) for g, pts in self.points.items())
        self.inverse = {g for g, pts, hp in pairs if hp == [_point_inv(p) for p in pts]}

    @cached_property
    def diagonal(self) -> frozenset:
        return frozenset(g for g, m in self._assign.items() if m.is_diagonal())

    def scalar(self, g: Gen, x: Gen):
        """The c with g x h == c x for h = g.partner: the common value of
        g_a h_b at the nonzero x_ab, ONE when x is zero (every c holds then);
        False when g_a h_b is not constant there; None when g or h is not in
        the view."""
        if (g, x) not in self._scalars:
            gp, hp, c = self.points.get(g), self.points.get(g.partner), None
            if gp is not None and hp is not None:
                if x not in self._assign:
                    raise MissingGenerator(str(x))
                # lazily, so that the first point that differs ends the read
                cs = (_point_mul(gp[a], hp[b]) for a, row in enumerate(self._assign[x]._rows) for b in row)
                c = next(cs, None)
                c = ONE if c is None else RatFunc.from_point(*c) if all(v == c for v in cs) else False
            self._scalars[g, x] = c
        return self._scalars[g, x]


def _point_mul(p, q):
    """The lattice point of the product of two monomials."""
    (k, c), (l, d) = p, q
    return (k[0] + l[0], k[1] + l[1], k[2] + l[2], k[3] + l[3]), c * d


def _point_inv(p):
    """The lattice point of the inverse of a monomial; a coefficient of 1 or
    -1 is its own inverse."""
    k, c = p
    return (-k[0], -k[1], -k[2], -k[3]), (c if c in (1, -1) else 1 / Fraction(c))


@dataclass
class RelationReport:
    relation_id: str
    instances_checked: int = 0
    mismatches: list = field(default_factory=list)  # (instance, lhs, rhs) per failure
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.mismatches

    @property
    def failures(self) -> list:
        return [
            {"instance": str(inst), "lhs": _render_matrix(lhs), "rhs": _render_matrix(rhs)}
            for inst, lhs, rhs in self.mismatches
        ]

    def to_json(self) -> dict:
        return {
            "relation_id": self.relation_id,
            "instances_checked": self.instances_checked,
            "failures": self.failures,
        }


class _Checker:
    def __init__(self, relation_id):
        self.report = RelationReport(relation_id)
        self._t0 = time.monotonic()

    def verdict(self, instance, holds, sides, c=None) -> bool:
        """Count one instance and return its verdict: holds, the verdict of
        a lemma, or for holds None the comparison of the two sides (lhs, rhs)
        that sides() builds.  sides() is called only for that comparison or
        for a failure.  With a scalar c = p/q, such as 1/(r-s), the instance
        reads lhs == rhs c and is compared as lhs q == rhs p, so Laurent
        entries need no polynomial gcd; a failure is reported with rhs c."""
        self.report.instances_checked += 1
        if holds:
            return True
        lhs, rhs = sides()
        if holds is None:
            if c is None:
                holds = lhs == rhs
            else:
                p, q = c.as_quotient()
                holds = lhs.scale(q) == rhs.scale(p)
        if not holds:
            self.report.mismatches.append((instance, lhs, rhs if c is None else rhs.scale(c)))
        return holds

    def check(self, instance, lhs: Matrix, rhs: Matrix) -> bool:
        return self.verdict(instance, None, lambda: (lhs, rhs))

    def done(self):
        self.report.elapsed_ms = (time.monotonic() - self._t0) * 1000.0
        return self.report


def _render_matrix(m: Matrix) -> str:
    return "[" + "; ".join(", ".join(render(x) for x in row) for row in m.rows) + "]"


# -- Chevalley relations ---------------------------------------------------------


def check_chevalley(mod: MatrixModule) -> list:
    """Verify (R1)-(R4) at every node as exact matrix identities; returns one
    report each."""
    table = mod.table
    nodes = range(table.size)
    zero = Matrix.zeros(mod.dim)
    reports = []

    c = _Checker("R1")
    for i in nodes:
        for tag, g in (("winv", W(i)), ("wpinv", Wp(i))):
            _inverse_verdict(c, (tag, i), mod, g)
    for i in nodes:
        for j in nodes:
            for tag, g, h in (("ww", W(i), W(j)), ("wwp", W(i), Wp(j)), ("wpwp", Wp(i), Wp(j))):
                _commute_verdict(c, (tag, i, j), mod, g, h)
    _gamma_verdicts(c, mod)
    reports.append(c.done())

    # R2 reads g x h == c x for the group-like g and h = g.partner: it holds
    # when the weight view's scalar is c, and otherwise its sides are compared
    c = _Checker("R2")
    for i in nodes:
        for j in nodes:
            pij, pji = table.entry(i, j), table.entry(j, i)
            for tag, g, x, sc in (
                ("we", W(j), E(i), pij),
                ("wf", W(j), F(i), pij.inv()),
                ("wpe", Wp(j), E(i), pji.inv()),
                ("wpf", Wp(j), F(i), pji),
            ):
                v = mod.weights.scalar(g, x)
                sides = lambda: (mod.get(g) @ mod.get(x) @ mod.get(g.partner), mod.get(x).scale(sc))
                c.verdict((tag, i, j), v is not False and v == sc or None, sides)
    reports.append(c.done())

    # R3 and R4 of a tensor module are read off its factors (the tensor
    # lemmas in the module docstring); on any other module they compare
    # generators scaled by c = r - s when that takes no gcd (the scaling
    # lemma), and a failing instance builds its sides unscaled
    factors = mod.factors
    rsub, ssub = table.rs
    rsinv = (rsub - ssub).inv()
    scaled = None if factors else scaled_chevalley(mod, rsub - ssub)
    c = _Checker("R3")
    for i in nodes:
        for j in nodes:
            rhs = (lambda: mod.get(W(i)) - mod.get(Wp(i))) if i == j else (lambda: zero)
            holds, lhs = None, lambda: commutator(mod.get(E(i)), mod.get(F(j)))
            if scaled is not None:
                holds = commutator(scaled.get(E(i)), mod.get(F(j))) == rhs()
            elif factors:
                holds, lhs = _r3_on_factors(*factors, i, j, rsinv) or (holds, lhs)
            c.verdict((i, j), holds, lambda: (lhs(), rhs()), rsinv if i == j else None)
    reports.append(c.done())

    c = _Checker("R4")
    for i in nodes:
        for j in nodes:
            if i == j:
                continue
            aij = table.cartan[i][j]
            for tag, left in (("ad_l e", True), ("ad_r f", False)):
                holds, b = None, lambda: ad_iterate(mod, i, j, 1 - aij, left)
                if scaled is not None:
                    holds = ad_iterate(scaled, i, j, 1 - aij, left).is_zero()
                elif factors:
                    holds, b = _r4_on_factors(*factors, i, j, aij, left) or (holds, b)
                c.verdict((tag, i, j), holds, lambda: (b(), zero))
    reports.append(c.done())

    return reports


def _inverse_verdict(c: _Checker, instance, mod: MatrixModule, g: Gen):
    """Instance g g.partner == 1, held by the weight view's inverse set."""
    sides = lambda: (mod.get(g) @ mod.get(g.partner), Matrix.identity(mod.dim))
    c.verdict(instance, g in mod.weights.inverse or None, sides)


def _commute_verdict(c: _Checker, instance, mod: MatrixModule, g: Gen, h: Gen):
    """Instance [g, h] == 0, held when g and h are in the weight view's
    diagonal set: two diagonal matrices commute."""
    sides = lambda: (commutator(mod.get(g), mod.get(h)), Matrix.zeros(mod.dim))
    c.verdict(instance, {g, h} <= mod.weights.diagonal or None, sides)


def _gamma_verdicts(c: _Checker, mod: MatrixModule):
    """R1's and D1's gamma instances; identity halves hold level zero."""
    gh, gph = mod.get(GammaHalf()), mod.get(GammaPrimeHalf())
    _inverse_verdict(c, ("ghinv",), mod, GammaHalf())
    _inverse_verdict(c, ("gphinv",), mod, GammaPrimeHalf())
    sides = lambda: ((gh @ gh) @ (gph @ gph), Matrix.identity(mod.dim))
    c.verdict(("central-product",), gh.is_identity() and gph.is_identity() or None, sides)


def scaled_chevalley(mod: MatrixModule, c: RatFunc):
    """mod with every E_i and F_i scaled by c, for the scaling lemma (module
    docstring); None unless c is a nonzero Laurent polynomial and every entry
    of E_i and F_i is one, so that the scaling takes no gcd.  It shares mod's
    weight view, since c x has the support of x."""
    gens = [g(i) for i in range(mod.table.size) for g in (E, F)]
    entries = (x for g in gens for row in mod.get(g)._rows for x in row.values())
    if not (c and c.is_laurent_polynomial() and all(x.is_laurent_polynomial() for x in entries)):
        return None
    assign = dict(mod.assign)
    assign.update((g, mod.get(g).scale(c)) for g in gens)
    out = MatrixModule(mod.table, assign, check=False)
    out.weights = mod.weights
    return out


def chevalley_instance_counts(table: PairingTable) -> dict:
    N = table.size
    return {
        "R1": 2 * N + 3 * N * N + 3,
        "R2": 4 * N * N,
        "R3": N * N,
        "R4": 2 * N * (N - 1),
    }


# -- Drinfeld relations -----------------------------------------------------------


def current_form(mod: MatrixModule, sign: int, kmax: int):
    """D, the entries of a diagonal read from x(1) against x(0), when every
    stored x(k) with |k| <= kmax + 1 equals x(0) D^k exactly, for the
    currents x = x+ (sign > 0) or x- of a rank-1 module; None otherwise.

    Column j of D is x(1)_ij / x(0)_ij at the first nonzero x(0)_ij, taken
    as a monomial quotient when there is one (no gcd), and 1 where that
    ratio is zero or the column of x(0) is.  Every entry is nonzero, and any
    such D is sound, because each k is then checked against the stored x(k).
    """
    gen = Xp if sign > 0 else Xm
    x0 = mod.get(gen(1, 0))
    diag = []
    for col0, col1 in zip(zip(*x0.rows), zip(*mod.get(gen(1, 1)).rows)):
        y, z = next(((y, z) for y, z in zip(col0, col1) if y), (ONE, ONE))
        diag.append((monomial_quotient(z, y) or z / y) if z else ONE)
    # outward from k = 0: x(k-1) = x(0) D^(k-1) is checked first, so
    # x(k) == x(k-1) D exactly when x(k) == x(0) D^k (likewise with D^-1)
    for step, ks in ((diag, range(1, kmax + 2)), ([x.inv() for x in diag], range(-1, -kmax - 2, -1))):
        x = x0
        for k in ks:
            stored = mod.get(gen(1, k))
            if stored != x.scale_columns(step):
                return None
            x = stored
    return diag


def _intertwines(x: Matrix, left, right) -> bool:
    """left x == x right for the diagonals with entries left and right, that
    is left_i == right_j at every nonzero x_ij."""
    return all(left[i] == right[j] for i, row in enumerate(x._rows) for j in row)


def ad_iterate(mod: MatrixModule, i: int, j: int, times: int, left: bool) -> Matrix:
    """The R4 iterate: b -> e_i b - (w_i b w_i^-1) e_i (left) or
    b -> b f_i - f_i (w'_i^-1 b w'_i), applied times times from e_j or f_j;
    each step takes two products when the weight view has the scalars of the
    R4 lemma (module docstring), four otherwise."""
    xi, xj, gi = (E(i), E(j), W(i)) if left else (F(i), F(j), Wp(i, -1))
    wts = mod.weights
    p, q = (wts.scalar(gi, xi), wts.scalar(gi, xj)) if gi in wts.inverse else (None, None)
    x, b, g, h = mod.get(xi), mod.get(xj), mod.get(gi), mod.get(gi.partner)
    for t in range(times):
        c = q * p**t if p and q else None
        if left:
            b = x @ b - (b @ x.scale(c) if c else g @ b @ h @ x)
        else:
            b = b @ x - (x.scale(c) @ b if c else x @ g @ b @ h)
    return b


def _r3_on_factors(mL: MatrixModule, mR: MatrixModule, i: int, j: int, rsinv):
    """(holds, lhs) for instance (i, j) of R3 on the tensor of mL and mR by
    the R3 tensor lemma (module docstring): holds is True when the instance
    holds on both factors and None otherwise, and lhs() builds [E_i, F_j]
    from Kronecker products; None when the lemma's scalars differ."""
    wL, wR = mL.weights, mR.weights
    if not (W(i) in wL.inverse and Wp(j) in wR.inverse):
        return None
    c = wL.scalar(W(i), F(j))
    if not (c and c == wR.scalar(Wp(j), E(i))):
        return None
    p, q = rsinv.as_quotient()
    ks = [commutator(m.get(E(i)), m.get(F(j))) for m in (mL, mR)]
    if i == j:
        holds = all(k.scale(q) == (m.get(W(i)) - m.get(Wp(i))).scale(p) for m, k in zip((mL, mR), ks))
    else:
        holds = ks[0].is_zero() and ks[1].is_zero()
    return holds or None, lambda: ks[0].kron(mR.get(Wp(j))) + mL.get(W(i)).kron(ks[1])


def _r4_on_factors(mL: MatrixModule, mR: MatrixModule, i: int, j: int, aij: int, left: bool):
    """(holds, b) for the R4 instance (ad_l e when left, else ad_r f) at
    (i, j) on the tensor of mL and mR by the R4 tensor lemma (module
    docstring): holds is True when both factors' iterates are zero and None
    otherwise, and b() builds the tensor's iterate from Kronecker products;
    None when a hypothesis fails."""
    gs, xs = ((W(i), W(j)), (E(i), E(j))) if left else ((Wp(i, -1), Wp(j, -1)), (F(i), F(j)))
    scalars = []
    for wts in (mL.weights, mR.weights):
        if not (gs[0] in wts.inverse and gs[1] in wts.inverse):
            return None
        # P_ii, P_ij, P_ji, P_jj: the scalar of g_a on x_b
        scalars.append([wts.scalar(g, x) for g in gs for x in xs])
    pii, pij, pji, _ = scalars[0]
    if not (all(scalars[0]) and scalars[0] == scalars[1] and pij * pji == pii**aij):
        return None
    times = 1 - aij
    uL, uR = (ad_iterate(m, i, j, times, left) for m in (mL, mR))

    def b():
        if left:
            k = mL.get(W(i)) ** times @ mL.get(W(j))
            return uL.kron(Matrix.identity(mR.dim)) + k.kron(uR)
        k = mR.get(Wp(i)) ** times @ mR.get(Wp(j))
        return Matrix.identity(mL.dim).kron(uR) + uL.kron(k)

    return (uL.is_zero() and uR.is_zero()) or None, b


def anti_diagonal_form(x0: Matrix, d):
    """(Q, kappa) with X(a)X(b) = kappa^a Q D^(a+b) whenever X(a) = x0 D^a for
    the diagonal D with entries d (the D6 lemma in the module docstring), or
    None when x0 D = E x0 or E Q = kappa Q D fails."""
    e = [d[min(row)] if row else ONE for row in x0._rows]
    if not _intertwines(x0, e, d):
        return None
    q = x0 @ x0
    i, j = next(((i, min(row)) for i, row in enumerate(q._rows) if row), (0, 0))
    kappa = monomial_quotient(e[i], d[j]) or e[i] / d[j]
    return (q, kappa) if _intertwines(q, e, [kappa * x for x in d]) else None


def commutation_scalar(kc: Matrix, kcinv: Matrix, xp0: Matrix, xm0: Matrix, dp, dm):
    """The c of the D7 lemma in the module docstring: kc = c I, kcinv = c^-1 I,
    D+ x-(0) = c^-1 x-(0) D- and D- x+(0) = c x+(0) D+ for the diagonals
    with entries dp and dm; None when one of them fails."""
    c = kc[0, 0]
    if not c or kc != Matrix.identity(kc.n).scale(c) or kcinv != Matrix.identity(kc.n).scale(c.inv()):
        return None
    cdp = [c * x for x in dp]
    return c if _intertwines(xm0, cdp, dm) and _intertwines(xp0, dm, cdp) else None


def check_drinfeld(mod: MatrixModule, kmax: int, lmax: int) -> list:
    """Verify (D1)-(D8) on a rank-1 current module, exactly.

    Level-zero convention: the series generators Wser/Wpser and the
    imaginary generators are the operational ones, as stored: on the
    evaluation modules the series are read off the ladder and a(l) off the
    telescoped per-weight form (sl2 module docstring).  In that
    normalization the central prefactors of D5/D7 are integer powers of the
    central group-like K = omega omega' (central because rank 1), and the
    gamma half-generators enter only the D1 inverse/centrality checks.
    """
    table = mod.table
    if table.type.family != "A" or table.type.rank != 1:
        raise UnsupportedRank("current-level verification is rank-1 only")
    if kmax < 1 or lmax < 1:
        raise WindowTooSmall("need kmax >= 1 and lmax >= 1")
    if mod.kmax < 0:
        raise WindowTooSmall("the module stores no currents")
    if mod.kmax < kmax + 1:
        raise WindowTooSmall(f"currents materialized to |k| <= {mod.kmax}, need {kmax + 1}")
    i = 1
    needed = [Wser(i, m) for m in range(2 * kmax + 1)] + [Wpser(i, -m) for m in range(2 * kmax + 1)]
    needed += [Aim(i, l) for l in range(-lmax, lmax + 1) if l]
    missing = next((g for g in needed if g not in mod.assign), None)
    if missing is not None:
        raise WindowTooSmall(
            f"{missing} is not stored: need the series to order {2 * kmax} and a(l) to |l| <= {lmax}"
        )
    dim = mod.dim
    ident = Matrix.identity(dim)
    rho = table.entry(i, i)
    rsub, ssub = mod.table.rs
    rs = (rsub - ssub).inv()

    w, winv = mod.get(W(i)), mod.get(W(i, -1))
    wp, wpinv = mod.get(Wp(i)), mod.get(Wp(i, -1))
    kc = w @ wp
    kcinv = winv @ wpinv

    kpows = {0: ident}

    def kpow(n):
        if n not in kpows:
            kpows[n] = kpow(n - 1) @ kc if n > 0 else kpow(n + 1) @ kcinv
        return kpows[n]

    reports = []

    c = _Checker("D1")
    _inverse_verdict(c, ("winv",), mod, W(i))
    _inverse_verdict(c, ("wpinv",), mod, Wp(i))
    _commute_verdict(c, ("wwp",), mod, W(i), Wp(i))
    _gamma_verdicts(c, mod)
    reports.append(c.done())

    ells = [l for l in range(-lmax, lmax + 1) if l != 0]

    c = _Checker("D2")
    for l1 in ells:
        for l2 in ells:
            # type 1: gamma^|l| - gamma'^|l| annihilates the right side
            _commute_verdict(c, (l1, l2), mod, Aim(i, l1), Aim(i, l2))
    reports.append(c.done())

    c = _Checker("D3")
    for l in ells:
        for tag, g in (("w", W(i)), ("winv", W(i, -1)), ("wp", Wp(i)), ("wpinv", Wp(i, -1))):
            _commute_verdict(c, (l, tag), mod, Aim(i, l), g)
    reports.append(c.done())

    # D4-D7 read the currents through current_form: a sign on the form has
    # its instances decided by the lemmas in the module docstring, and every
    # other instance takes its plain products.
    X = {1: lambda k: mod.get(Xp(i, k)), -1: lambda k: mod.get(Xm(i, k))}
    diag = {sign: current_form(mod, sign, kmax) for sign in (1, -1)}
    dpows = {}  # (sign, k) -> D^k

    def dpow(sign, k):
        """The entries of D^k for the diagonal D of sign."""
        if (sign, k) not in dpows:
            dpows[sign, k] = [x**k for x in diag[sign]]
        return dpows[sign, k]

    c = _Checker("D4")
    conj = (
        ("w x+", W(i), 1, rho),
        ("w x-", W(i), -1, rho.inv()),
        ("wp x+", Wp(i), 1, rho.inv()),
        ("wp x-", Wp(i), -1, rho),
    )
    # one verdict per tag for a sign on the form: True when the weight view's
    # scalar of g on x(0) is sc, and otherwise each instance takes its products
    family = {}
    for tag, g, sign, sc in conj:
        v = mod.weights.scalar(g, (Xp if sign > 0 else Xm)(i, 0)) if diag[sign] is not None else None
        family[tag] = v is not False and v == sc or None
    for k in range(-(kmax + 1), kmax + 2):
        for tag, g, sign, sc in conj:
            x = X[sign](k)
            c.verdict((tag, k), family[tag], lambda: (mod.get(g) @ x @ mod.get(g.partner), x.scale(sc)))
    reports.append(c.done())

    def theta(l):
        """(rho^l - rho^-l) / (l (r-s)); the field divides exactly, with no
        gcd, when r - s divides as a Laurent polynomial."""
        return (rho**l - rho**-l) / (rsub - ssub) / rf(l)

    thetas = {l: theta(l) for l in range(1, lmax + 1)}

    # Instance (tag, e, k) of D5 reads [a(e), x(k)] == rhs(x(k + e)) for x = x+
    # or x-, where rhs(m) = +-theta(l) m, with K^-l m in place of m on the
    # side whose sign is not that of e.  With a(e) and K^-l diagonal and x on
    # the form its verdict is that of [a(e), x(0)] == rhs(x(0) D^e), one per
    # family (e, tag), read entry by entry (the D5 lemma in the module
    # docstring); otherwise each instance takes its products.
    for rid, e_sign in (("D5_1", 1), ("D5_2", -1)):
        c = _Checker(rid)
        for l in range(1, lmax + 1):
            e = e_sign * l
            al = mod.get(Aim(i, e))
            th = thetas[l]

            def rhs(sign, m):
                if sign != e_sign:
                    m = kpow(-l) @ m
                return m.scale(th if sign > 0 else -th)

            a, diffs = [al[j, j] for j in range(dim)], {}

            def diff(i, j):
                """a_i - a_j, formed once per pair: x-(0) has its nonzeros
                where x+(0) has them transposed, so its family reads the
                negations."""
                if (j, i) in diffs:
                    return -diffs[j, i]
                if (i, j) not in diffs:
                    diffs[i, j] = a[i] - a[j]
                return diffs[i, j]

            def family(sign):
                if diag[sign] is None or Aim(i, e) not in mod.weights.diagonal:
                    return None
                kl = ident if sign == e_sign else kpow(-l)
                if not kl.is_diagonal():
                    return None
                x0 = X[sign](0)
                t = th if sign > 0 else -th
                d = dpow(sign, e)
                ts = [t] * dim if kl is ident else [t * kl[j, j] for j in range(dim)]
                return all(diff(i, j) == ts[i] * d[j] for i, row in enumerate(x0._rows) for j in row)

            families = {sign: family(sign) for sign in (1, -1)}
            for k in range(-kmax, kmax + 1):
                if abs(k + e) > kmax + 1:
                    continue
                for sign, tag in ((1, "x+"), (-1, "x-")):
                    c.verdict(
                        (tag, e, k), families[sign], lambda: (commutator(al, X[sign](k)), rhs(sign, X[sign](k + e)))
                    )
        reports.append(c.done())

    # Instance (k, k2) of D6 reads L(k, k2) == -L(k2, k) for
    # L(k, k2) = P(k+1, k2) - rr P(k2, k+1) and P(a, b) = X(a)X(b)
    # (sqrt_factor = 1), that is
    #     P(k+1, k2) + P(k2+1, k) == rr (P(k2, k+1) + P(k, k2+1)).
    # Under the D6 lemma (module docstring) its verdict is read off kappa.
    # Otherwise the identity, symmetric in k and k2, is decided once per
    # pair k <= k2, with each product P(a, b) built once; k = k2 reads
    # P(k+1, k) == rr P(k, k+1).  Only a failure builds its two sides.
    c = _Checker("D6")
    sqrt_factor = ONE  # (<j,i><i,j>^-1)^(1/2) at i = j
    ks = range(-(kmax + 1), kmax + 1)
    for sign in (+1, -1):
        rr = rho if sign > 0 else rho.inv()
        P = {}

        def prod(a, b):
            if (a, b) not in P:
                P[a, b] = X[sign](a) @ X[sign](b)
            return P[a, b]

        def L(k, k2):
            return prod(k + 1, k2) - prod(k2, k + 1).scale(rr)

        form = anti_diagonal_form(X[sign](0), diag[sign]) if diag[sign] is not None else None
        failed = set()
        if form is not None:
            square, kappa = form
            if not square.is_zero() and kappa != rr:
                pw = {k: kappa**k for k in ks}
                failed = {(k, k2) for k in ks for k2 in ks if pw[k] + pw[k2]}
        else:
            for k in ks:
                for k2 in ks[k - ks[0] :]:
                    if k == k2:
                        u, v = prod(k + 1, k), prod(k, k + 1)
                    else:
                        u, v = prod(k + 1, k2) + prod(k2 + 1, k), prod(k2, k + 1) + prod(k, k2 + 1)
                    if u != v.scale(rr):
                        failed.update(((k, k2), (k2, k)))
        for k in ks:
            for k2 in ks:
                c.verdict((sign, k, k2), (k, k2) not in failed, lambda: (L(k, k2), L(k2, k).scale(-sqrt_factor)))
    reports.append(c.done())

    # D7 reads [x+(k), x-(k2)] == (K^k2 w(m) - K^-k w'(m))/(r-s), m = k + k2;
    # under the D7 lemma (module docstring) it has one verdict per m.
    c = _Checker("D7")
    window = range(-kmax, kmax + 1)
    holds = {}
    scalar = None if None in diag.values() else commutation_scalar(kc, kcinv, X[1](0), X[-1](0), diag[1], diag[-1])
    if scalar is not None:
        # both products scaled by r - s once (the D7 lemma)
        p, q = rs.as_quotient()
        pm, mp = (X[1](0) @ X[-1](0)).scale(q), (X[-1](0) @ X[1](0)).scale(q)
        for m in range(-2 * kmax, 2 * kmax + 1):
            cm = scalar**m
            lhs = pm.scale_columns(dpow(-1, m)) - mp.scale_columns(dpow(1, m)).scale(cm)
            holds[m] = lhs == (mod.get(Wser(i, m)).scale(cm) - mod.get(Wpser(i, m))).scale(p)

    def rhs(k, k2):
        return kpow(k2) @ mod.get(Wser(i, k + k2)) - kpow(-k) @ mod.get(Wpser(i, k + k2))

    for k in window:
        for k2 in window:
            c.verdict((k, k2), holds.get(k + k2), lambda: (commutator(X[1](k), X[-1](k2)), rhs(k, k2)), rs)
    reports.append(c.done())

    for rid in ("D8_1", "D8_2", "D8_3"):
        c = _Checker(rid)  # vacuous at rank 1: no i != j pairs
        reports.append(c.done())

    return reports


def drinfeld_instance_counts(kmax: int, lmax: int) -> dict:
    d5 = 0
    for l in range(1, lmax + 1):
        for k in range(-kmax, kmax + 1):
            if abs(l + k) <= kmax + 1:
                d5 += 2
    return {
        "D1": 6,
        "D2": (2 * lmax) ** 2,
        "D3": 2 * lmax * 4,
        "D4": 4 * (2 * kmax + 3),
        "D5_1": d5,
        "D5_2": d5,
        "D6": 2 * (2 * kmax + 2) ** 2,
        "D7": (2 * kmax + 1) ** 2,
        "D8_1": 0,
        "D8_2": 0,
        "D8_3": 0,
    }


def apply_word(mod: MatrixModule, word, vec):
    """Right-to-left action of a generator word on a vector."""
    out = [RatFunc._coerce(x) for x in vec]
    for gen in reversed(list(word)):
        out = mod.get(gen).apply(out)
    return out


def all_pass(reports) -> bool:
    return all(r.passed for r in reports)
