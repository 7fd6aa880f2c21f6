"""Coproduct-built tensor modules, span closure, and the sign twist.

The coproduct acts on Chevalley generators only (e -> e(x)1 + w(x)e,
f -> 1(x)f + f(x)w', group-likes multiply), so tensor modules live at the
Chevalley level.  tensor stores exactly the coproduct image of the
factors' generators and records the two factors; modules are read-only, so
that form holds by construction, and check_chevalley reads R3 and R4 of the
module off its factors through the tensor lemmas (rep_core).  The module is
checked at construction like every other, and its group-likes are diagonal
when the factors' are, so R1 and the inverse pairs are weight-view lookups.
Every other instance is checked on the module's own matrices.  span_closure
certifies a full span mod p, and full_span_certified certifies it for a
pinned module on the symbolic one, so a pinned module is built only when
the certificate fails (span_closure docstring).  The sign twist
transforms the Chevalley generator matrices, and the caller re-runs the
relation suite on the result: the automorphism property is verified, not
assumed.  The loop twists are the reparameterizations a -> c a, which the
twist command decides through specialize.reports_at_pin.
"""

from __future__ import annotations

from .errors import IndexOutOfRange, MissingGenerator, TypeMismatch
from .field import ONE, P61, ZERO, RatFunc, eval_mod
from .matrix import Matrix, echelon_insert
from .rep_core import E_KIND, WP_KIND, W_KIND, E, F, GammaHalf, GammaPrimeHalf, MatrixModule, W, Wp


def tensor(mL: MatrixModule, mR: MatrixModule) -> MatrixModule:
    """Coproduct action on the tensor square:
    E(i) -> E(x)1 + W(x)E, F(i) -> 1(x)F + F(x)W', group-likes factorwise.
    The module records (mL, mR) as its factors: it is the only module that
    does.  It is built checked: a Kronecker product of diagonal inverse
    pairs is a diagonal inverse pair, which the weight view reads with no
    product, and the gamma halves are the identity."""
    if mL.table.type != mR.table.type:
        raise TypeMismatch(
            f"tensor needs one affine type, got {mL.table.type} and {mR.table.type}"
        )
    if mL.table.rs != mR.table.rs:
        raise TypeMismatch("tensor factors live over different parameter images")
    for m in (mL, mR):
        if not (m.get(GammaHalf()).is_identity() and m.get(GammaPrimeHalf()).is_identity()):
            raise TypeMismatch("tensor factors must be level zero")

    idL, idR = Matrix.identity(mL.dim), Matrix.identity(mR.dim)
    assign = {}
    for i in range(mL.table.size):
        assign[E(i)] = mL.get(E(i)).kron(idR) + mL.get(W(i)).kron(mR.get(E(i)))
        assign[F(i)] = idL.kron(mR.get(F(i))) + mL.get(F(i)).kron(mR.get(Wp(i)))
        for e in (1, -1):
            for g in (W(i, e), Wp(i, e)):
                assign[g] = mL.get(g).kron(mR.get(g))
    ident = Matrix.identity(mL.dim * mR.dim)
    for g in (GammaHalf(1), GammaHalf(-1), GammaPrimeHalf(1), GammaPrimeHalf(-1)):
        assign[g] = ident
    out = MatrixModule(mL.table, assign)
    out.factors = (mL, mR)
    return out


def tensor_basis_vector(mL: MatrixModule, mR: MatrixModule, i: int, j: int):
    """Standard basis vector v_i (x) v_j of the tensor space."""
    if not (0 <= i < mL.dim and 0 <= j < mR.dim):
        raise IndexOutOfRange(f"basis index ({i},{j}) outside 0..{mL.dim - 1} x 0..{mR.dim - 1}")
    out = [ZERO] * (mL.dim * mR.dim)
    out[i * mR.dim + j] = ONE
    return out


# The span certificate's points (t_r, t_s, a, b) mod P61, r = t_r^6, s = t_s^6
_POINTS = (
    (144471030931734330, 2143091457179325563, 365550386486063846, 300552282432094508),
    (188795199523072135, 1928334045343398362, 501680558545474880, 324636754553547369),
    (2196488239196475238, 678387143078361356, 2198515853106766764, 1041722944014863979),
)


def _pinned_point(point, a, b):
    """point with its a and b coordinates replaced by the values of the pins
    a and b there (a pin that is None keeps the coordinate); None where a
    pin is not regular or is zero at the point."""
    t_r, t_s, a0, b0 = point
    if a is not None:
        a0 = eval_mod(a, point)
    if b is not None:
        b0 = eval_mod(b, point)
    return (t_r, t_s, a0, b0) if a0 and b0 else None


def _columns_mod(mats, dim, point, monomials):
    """The matrices at the point, each as its columns of {row: value} int
    dicts; None when an entry is not regular there."""
    cols = [[{} for _ in range(dim)] for _ in mats]
    for mat, col in zip(mats, cols):
        for i, row in enumerate(mat._rows):
            for j, x in row.items():
                y = col[j][i] = eval_mod(x, point, monomials)
                if y is None:
                    return None
    return cols


def _spans_mod(cols, v, dim):
    """Whether span_closure's worklist, run on int dicts over GF(P61) from
    the seed v with the evaluated matrices cols, spans GF(P61)^dim."""
    basis, todo = {}, []

    def insert(v):
        while v:
            p = min(v)
            row = basis.get(p)
            if row is None:
                inv = pow(v[p], -1, P61)
                basis[p] = v = {j: x * inv % P61 for j, x in v.items()}
                todo.append(v)
                return
            f = v[p]
            for j, x in row.items():
                v[j] = (v.get(j, 0) - f * x) % P61
            v = {j: x for j, x in v.items() if x}

    insert({j: x for j, x in v.items() if x})
    while todo and len(basis) < dim:
        vec = todo.pop()
        for col in cols:
            img = {}
            for j, x in vec.items():
                for i, y in col[j].items():
                    img[i] = (img.get(i, 0) + x * y) % P61
            insert({i: y for i, y in img.items() if y})
    return len(basis) == dim


def _sparse_seed(mod, seed):
    """The seed vector as a dict of its nonzero coordinates."""
    seed = list(seed)
    if len(seed) != mod.dim:
        raise ValueError("dimension mismatch")
    v = {j: x for j, x in enumerate(map(RatFunc._coerce, seed)) if x}
    if not v:
        raise ValueError("seed vector must be nonzero")
    return v


def full_span_certified(mod, seeds, a=None, b=None):
    """Per seed, True when the certificate of span_closure proves that the
    closure of the seed in substitute_module(mod, a=a, b=b) is the whole
    space (in mod itself when there is no pin); False when it proves
    nothing.  The generator matrices are evaluated once per point, at the
    first point of _POINTS where the pins' values are regular and nonzero
    and every entry is regular, and each seed not yet decided runs the
    modular worklist there if its coordinates are regular too."""
    mats = [mod.assign[g] for g in mod.generators()]
    seeds = [_sparse_seed(mod, seed) for seed in seeds]
    verdicts = [None] * len(seeds)
    for point in _POINTS:
        point = _pinned_point(point, a, b)
        if point is None:
            continue
        monomials = {}
        cols = _columns_mod(mats, mod.dim, point, monomials)
        if cols is None:
            continue
        for k, v in enumerate(seeds):
            if verdicts[k] is None:
                vm = {j: eval_mod(x, point, monomials) for j, x in v.items()}
                if None not in vm.values():
                    verdicts[k] = _spans_mod(cols, vm, mod.dim)
        if None not in verdicts:
            break
    return [bool(x) for x in verdicts]


def span_closure(mod, seed):
    """Exact basis of the smallest generator-invariant subspace containing
    the seed vector: its reduced echelon rows, in pivot order.

    First a certificate mod p = P61 (full_span_certified), at the first
    point of _POINTS where every generator entry and seed coordinate is
    regular.  Evaluation is a ring homomorphism on the values regular
    there, so it sends each word image M_w1 ... M_wk seed to that of the
    evaluated matrices.  If those span GF(p)^dim (the same worklist, over
    GF(p)), some dim x dim minor of them is nonzero mod p, so the same minor
    of the exact word images is nonzero: the exact span is the whole space,
    and its reduced echelon basis the identity.  Rank can only drop under
    evaluation, so a smaller modular span proves nothing and falls through
    to the exact worklist (exact_span_closure).

    Lemma (pinned certificate): let the pins a and b have the values a_0
    and b_0 mod p at a point (t_r, t_s, t_a, t_b), both regular and nonzero.
    The rational functions whose denominators are nonzero mod p at that
    point form a ring O, and evaluation there is a ring homomorphism from O
    to GF(p).  The pins lie in O, and a_0, b_0 != 0 make them units of O,
    so putting them for a and b sends each Laurent polynomial N into O, to
    a value that evaluates to N(t_r, t_s, a_0, b_0).  If the denominator D
    of an entry N/D of mod is nonzero at (t_r, t_s, a_0, b_0), the image of
    D is a unit of O, so the pinned entry lies in O and evaluates to the
    entry of mod evaluated at (t_r, t_s, a_0, b_0).  So the word images of
    substitute_module(mod, a=a, b=b) lie in O and evaluate to those of mod
    at (t_r, t_s, a_0, b_0): a full modular span there proves, by the minor
    argument above, that the pinned closure is the whole space, and no
    pinned module is built.  A point where a pin is not regular or is zero
    is skipped.

    The exact closure is a worklist on one echelon basis: the seed is
    inserted, then each pivot is expanded once, by inserting the image
    under every generator of the current reduced row with that pivot, until
    no pivot is left or the span is the whole space.  The expanded rows
    lead at distinct columns, so they are a basis of the result, and their
    images lie in it, so it is invariant.  At most dim x #generators images
    are computed.
    """
    seed = list(seed)
    if full_span_certified(mod, [seed])[0]:
        return [[ONE if j == i else ZERO for j in range(mod.dim)] for i in range(mod.dim)]
    return exact_span_closure(mod, seed)


def exact_span_closure(mod, seed):
    """span_closure's exact worklist alone, with no certificate."""
    mats = [mod.assign[g] for g in mod.generators()]
    pivots, rows = [], []
    todo = [echelon_insert(pivots, rows, _sparse_seed(mod, seed))]
    while todo and len(rows) < mod.dim:
        row = rows[pivots.index(todo.pop())]
        vec = [row.get(j, ZERO) for j in range(mod.dim)]
        for mat in mats:
            img = mat.apply(vec)
            piv = echelon_insert(pivots, rows, {j: x for j, x in enumerate(img) if x})
            if piv is not None:
                todo.append(piv)
                if len(rows) == mod.dim:
                    break
    return [[row.get(j, ZERO) for j in range(mod.dim)] for row in rows]


# -- sign twist ---------------------------------------------------------------


def twist_sigma(mod: MatrixModule, signs) -> MatrixModule:
    """Sign twist: e_i -> sigma_i e_i, omega_i -> sigma_i omega_i (both
    primed and unprimed), f_i fixed."""
    N = mod.table.size
    signs = tuple(signs)
    if len(signs) != N or any(s not in (1, -1) for s in signs):
        raise ValueError(f"need {N} signs in {{+1,-1}}")
    if not any(E(i) in mod.assign for i in range(N)):
        raise MissingGenerator("sign twist acts on Chevalley generators")
    assign = {}
    for g, mat in mod.assign.items():
        if g.kind in (E_KIND, W_KIND, WP_KIND):
            assign[g] = mat.scale(signs[g.i])
        else:
            assign[g] = mat
    return MatrixModule(mod.table, assign)
