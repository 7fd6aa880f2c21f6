"""Coproduct-built tensor modules, span closure, and the sign twist.

The coproduct acts on Chevalley generators only (e -> e(x)1 + w(x)e,
f -> 1(x)f + f(x)w', group-likes multiply), so tensor modules live at the
Chevalley level.  tensor stores exactly the coproduct image of the
factors' generators and records the two factors; modules are read-only, so
that form holds by construction, and check_chevalley reads R3 and R4 of the
module off its factors through the tensor lemmas (rep_core).  Every other
relation is checked on the module's own matrices.  The sign twist
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
    does."""
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


def _spans_mod(mats, seed, dim, point):
    """Whether span_closure's worklist, run at the point on int dicts, spans
    GF(P61)^dim; None when an entry of mats or of the seed is not regular."""
    monomials = {}
    v = {j: eval_mod(x, point, monomials) for j, x in seed.items()}
    cols = [[{} for _ in range(dim)] for _ in mats]
    for mat, col in zip(mats, cols):
        for i, row in enumerate(mat._rows):
            for j, x in row.items():
                y = col[j][i] = eval_mod(x, point, monomials)
                if y is None:
                    return None
    if None in v.values():
        return None
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


def span_closure(mod, seed):
    """Exact basis of the smallest generator-invariant subspace containing
    the seed vector: its reduced echelon rows, in pivot order.

    First a certificate mod p = P61, at the first point of _POINTS where
    every generator entry and seed coordinate is regular.  Evaluation is a
    ring homomorphism on the values regular there, so it sends each word
    image M_w1 ... M_wk seed to that of the evaluated matrices.  If those
    span GF(p)^dim (the same worklist, over GF(p)), some dim x dim minor of
    them is nonzero mod p, so the same minor of the exact word images is
    nonzero: the exact span is the whole space, and its reduced echelon
    basis the identity.  Rank can only drop under evaluation, so a smaller
    modular span proves nothing and falls through to the exact worklist.

    The exact closure is a worklist on one echelon basis: the seed is
    inserted, then each pivot is expanded once, by inserting the image
    under every generator of the current reduced row with that pivot, until
    no pivot is left or the span is the whole space.  The expanded rows
    lead at distinct columns, so they are a basis of the result, and their
    images lie in it, so it is invariant.  At most dim x #generators images
    are computed.
    """
    seed = list(seed)
    if len(seed) != mod.dim:
        raise ValueError("dimension mismatch")
    mats = [mod.assign[g] for g in mod.generators()]
    v = {j: x for j, x in enumerate(map(RatFunc._coerce, seed)) if x}
    if not v:
        raise ValueError("seed vector must be nonzero")
    for point in _POINTS:
        full = _spans_mod(mats, v, mod.dim, point)
        if full is not None:
            break
    if full:
        return [[ONE if j == i else ZERO for j in range(mod.dim)] for i in range(mod.dim)]
    pivots, rows = [], []
    todo = [echelon_insert(pivots, rows, v)]
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
