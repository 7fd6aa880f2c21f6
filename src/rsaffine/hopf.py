"""Coproduct-built tensor modules, span closure, antipode checks, and the
sign/loop automorphism twists.

The coproduct acts on Chevalley generators only (e -> e(x)1 + w(x)e,
f -> 1(x)f + f(x)w', group-likes multiply), so tensor modules live at the
Chevalley level.  Twists transform the primary generator matrices and
re-derive the operational series generators, then the relation suites are
re-run by the caller: the automorphism property is verified, not assumed.
"""

from __future__ import annotations

from .errors import MissingGenerator, TypeMismatch
from .field import ONE, ZERO, RatFunc
from .matrix import Matrix, echelon_insert
from .rep_core import (
    AIM_KIND,
    E,
    F,
    GammaHalf,
    GammaPrimeHalf,
    MatrixModule,
    W,
    WSER_KIND,
    Wp,
    XM_KIND,
    XP_KIND,
    Gen,
)
from .sl2 import with_series


def tensor(mL: MatrixModule, mR: MatrixModule) -> MatrixModule:
    """Coproduct action on the tensor square:
    E(i) -> E(x)1 + W(x)E, F(i) -> 1(x)F + F(x)W', group-likes factorwise."""
    if mL.table.type != mR.table.type:
        raise TypeMismatch(
            f"tensor needs one affine type, got {mL.table.type} and {mR.table.type}"
        )
    if mL.rs != mR.rs:
        raise TypeMismatch("tensor factors live over different parameter images")
    idL = Matrix.identity(mL.dim)
    idR = Matrix.identity(mR.dim)
    for m in (mL, mR):
        if not (m.get(GammaHalf()).is_identity() and m.get(GammaPrimeHalf()).is_identity()):
            raise TypeMismatch("tensor factors must be level zero")

    assign = {}
    N = mL.table.size
    for i in range(N):
        eL, eR = mL.get(E(i)), mR.get(E(i))
        fL, fR = mL.get(F(i)), mR.get(F(i))
        assign[E(i)] = eL.kron(idR) + mL.get(W(i)).kron(eR)
        assign[F(i)] = idL.kron(fR) + fL.kron(mR.get(Wp(i)))
        for e in (1, -1):
            assign[W(i, e)] = mL.get(W(i, e)).kron(mR.get(W(i, e)))
            assign[Wp(i, e)] = mL.get(Wp(i, e)).kron(mR.get(Wp(i, e)))
    ident = idL.kron(idR)
    for g in (GammaHalf(1), GammaHalf(-1), GammaPrimeHalf(1), GammaPrimeHalf(-1)):
        assign[g] = ident
    return MatrixModule(mL.table, assign, rs=mL.rs)


def tensor_basis_vector(mL: MatrixModule, mR: MatrixModule, i: int, j: int):
    """Standard basis vector v_i (x) v_j of the tensor space."""
    out = [ZERO] * (mL.dim * mR.dim)
    out[i * mR.dim + j] = ONE
    return out


def span_closure(mod, seed):
    """Exact basis of the smallest generator-invariant subspace containing
    the seed vector: its reduced echelon rows, in pivot order.

    A worklist on one echelon basis: the seed is inserted, then each pivot
    is expanded once, by inserting the image under every generator of the
    current reduced row with that pivot, until no pivot is left or the span
    is the whole space.  The expanded rows lead at distinct columns, so
    they are a basis of the result, and their images lie in it, so it is
    invariant.  At most dim x #generators images are computed.
    """
    seed = list(seed)
    if len(seed) != mod.dim:
        raise ValueError("dimension mismatch")
    mats = [mod.assign[g] for g in mod.generators()]
    v = {j: x for j, x in enumerate(map(RatFunc._coerce, seed)) if x}
    if not v:
        raise ValueError("seed vector must be nonzero")
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


# -- twists ------------------------------------------------------------------


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
        if g.kind in ("E", "W", "Wp"):
            assign[g] = mat.scale(signs[g.i])
        else:
            assign[g] = mat
    return MatrixModule(mod.table, assign, rs=mod.rs)


def _retwist_series(mod: MatrixModule, assign) -> MatrixModule:
    """The twisted module, its series and imaginary generators re-derived
    from the new currents to the orders mod carries."""
    twisted = MatrixModule(mod.table, assign, check=False, rs=mod.rs)
    sers = [g.k for g in mod.assign if g.kind == WSER_KIND]
    ells = [g.k for g in mod.assign if g.kind == AIM_KIND]
    return with_series(twisted, max(sers), max(ells, default=0)) if sers else twisted


def twist_gamma1(mod: MatrixModule) -> MatrixModule:
    """Loop-sign twist: x+-(k) -> (-1)^k x+-(k), gamma halves negated; the
    gamma2 twist at c = -1, whose series re-derivation reads no gamma half."""
    assign = dict(twist_gamma2(mod, -1).assign)
    for g in (GammaHalf(1), GammaHalf(-1), GammaPrimeHalf(1), GammaPrimeHalf(-1)):
        if g in assign:
            assign[g] = -assign[g]
    return MatrixModule(mod.table, assign, check=False, rs=mod.rs)


def twist_gamma2(mod: MatrixModule, c) -> MatrixModule:
    """Loop-scaling twist: x+-(k) -> c^k x+-(k) for an invertible scalar c."""
    c = RatFunc._coerce(c)
    if c.is_zero():
        raise ValueError("twist scalar must be invertible")
    if not any(g.kind == XP_KIND for g in mod.assign):
        raise MissingGenerator("loop twists act on current generators")
    assign = {}
    for g, mat in mod.assign.items():
        if g.kind in (XP_KIND, XM_KIND):
            assign[g] = mat.scale(c**g.k)
        else:
            assign[g] = mat
    return _retwist_series(mod, assign)


def twist(mod: MatrixModule, aut: str, signs=None, c=None) -> MatrixModule:
    """Dispatch: aut in {'sigma', 'gamma1', 'gamma2'}."""
    if aut == "sigma":
        return twist_sigma(mod, signs)
    if aut == "gamma1":
        return twist_gamma1(mod)
    if aut == "gamma2":
        return twist_gamma2(mod, c)
    raise ValueError(f"unknown automorphism {aut!r}")


# -- antipode -----------------------------------------------------------------


def antipode_matrix(mod: MatrixModule, gen) -> Matrix:
    """Matrix of the antipode image of a Chevalley generator:
    S(e) = -w^-1 e, S(f) = -f w'^-1, group-likes invert."""
    if gen.kind == "E":
        return -(mod.get(W(gen.i, -1)) @ mod.get(E(gen.i)))
    if gen.kind == "F":
        return -(mod.get(F(gen.i)) @ mod.get(Wp(gen.i, -1)))
    if gen.kind in ("W", "Wp", "GammaHalf", "GammaPrimeHalf"):
        return mod.get(Gen(gen.kind, gen.i, -gen.k))
    raise MissingGenerator(f"antipode not defined on {gen}")


def antipode_axiom_report(mod: MatrixModule) -> dict:
    """Check m(S (x) id)Delta(g) = eps(g) id on every Chevalley generator."""
    ident = Matrix.identity(mod.dim)
    zero = Matrix.zeros(mod.dim)
    failures = []
    checked = 0
    N = mod.table.size
    for i in range(N):
        if E(i) in mod.assign:
            # Delta(e) = e(x)1 + w(x)e -> S(e)*1 + S(w)*e must vanish
            got = antipode_matrix(mod, E(i)) + mod.get(W(i, -1)) @ mod.get(E(i))
            checked += 1
            if got != zero:
                failures.append(f"e_{i}")
        if F(i) in mod.assign:
            got = mod.get(F(i)) + antipode_matrix(mod, F(i)) @ mod.get(Wp(i))
            checked += 1
            if got != zero:
                failures.append(f"f_{i}")
        for kind, ctor in (("W", W), ("Wp", Wp)):
            if ctor(i) in mod.assign:
                got = antipode_matrix(mod, ctor(i)) @ mod.get(ctor(i))
                checked += 1
                if got != ident:
                    failures.append(f"{kind.lower()}_{i}")
    return {"checked": checked, "failures": failures}
