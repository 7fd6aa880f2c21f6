"""The plain R1, R2, R3 and R4 loops: the test oracle for check_chevalley's
conjugation, scaling and tensor lemmas.

Every R1 instance builds its products and commutators, on a tensor module
too; every R2 instance builds both of its sides by matrix products, w x w^-1
against the scaled x; every R3 instance builds E F - F E against
(W - W')/(r - s) or zero; and every step of an R4 ad-iterate takes its four
products, e b - (w b w^-1) e or b f - f (w'^-1 b w'), whatever the module,
a tensor module too.
"""

from __future__ import annotations

from rsaffine.matrix import Matrix
from rsaffine.rep_core import E, F, GammaHalf, GammaPrimeHalf, W, Wp, _render_matrix


def _failures(instances):
    return [
        {"instance": str(inst), "lhs": _render_matrix(lhs), "rhs": _render_matrix(rhs)}
        for inst, lhs, rhs in instances
        if lhs != rhs
    ]


def plain_reports(mod):
    """{"R1": (instances_checked, failures), "R2": (...), "R3": (...),
    "R4": (...)}, plainly."""
    table = mod.table
    nodes = range(table.size)
    zero = Matrix.zeros(mod.dim)
    ident = Matrix.identity(mod.dim)
    rsub, ssub = table.rs
    rsinv = (rsub - ssub).inv()
    r1, r2, r3, r4 = [], [], [], []
    for i in nodes:
        r1.append((("winv", i), mod.get(W(i)) @ mod.get(W(i, -1)), ident))
        r1.append((("wpinv", i), mod.get(Wp(i)) @ mod.get(Wp(i, -1)), ident))
    for i in nodes:
        for j in nodes:
            for tag, g, h in (("ww", W(i), W(j)), ("wwp", W(i), Wp(j)), ("wpwp", Wp(i), Wp(j))):
                x, y = mod.get(g), mod.get(h)
                r1.append(((tag, i, j), x @ y - y @ x, zero))
    gh, gph = mod.get(GammaHalf()), mod.get(GammaPrimeHalf())
    r1.append((("ghinv",), gh @ mod.get(GammaHalf(-1)), ident))
    r1.append((("gphinv",), gph @ mod.get(GammaPrimeHalf(-1)), ident))
    r1.append((("central-product",), gh @ gh @ gph @ gph, ident))
    for i in nodes:
        ei, fi = mod.get(E(i)), mod.get(F(i))
        for j in nodes:
            wj, wjinv = mod.get(W(j)), mod.get(W(j, -1))
            wpj, wpjinv = mod.get(Wp(j)), mod.get(Wp(j, -1))
            pij, pji = table.entry(i, j), table.entry(j, i)
            r2.append((("we", i, j), wj @ ei @ wjinv, ei.scale(pij)))
            r2.append((("wf", i, j), wj @ fi @ wjinv, fi.scale(pij.inv())))
            r2.append((("wpe", i, j), wpj @ ei @ wpjinv, ei.scale(pji.inv())))
            r2.append((("wpf", i, j), wpj @ fi @ wpjinv, fi.scale(pji)))
    for i in nodes:
        for j in nodes:
            ei, fj = mod.get(E(i)), mod.get(F(j))
            rhs = (mod.get(W(i)) - mod.get(Wp(i))).scale(rsinv) if i == j else zero
            r3.append(((i, j), ei @ fj - fj @ ei, rhs))
    for i in nodes:
        ei, wi, wiinv = mod.get(E(i)), mod.get(W(i)), mod.get(W(i, -1))
        fi, wpi, wpiinv = mod.get(F(i)), mod.get(Wp(i)), mod.get(Wp(i, -1))
        for j in nodes:
            if i == j:
                continue
            times = 1 - table.cartan[i][j]
            b = mod.get(E(j))
            for _ in range(times):
                b = ei @ b - wi @ b @ wiinv @ ei
            r4.append((("ad_l e", i, j), b, zero))
            b = mod.get(F(j))
            for _ in range(times):
                b = b @ fi - fi @ wpiinv @ b @ wpi
            r4.append((("ad_r f", i, j), b, zero))
    return {rid: (len(insts), _failures(insts)) for rid, insts in (("R1", r1), ("R2", r2), ("R3", r3), ("R4", r4))}
