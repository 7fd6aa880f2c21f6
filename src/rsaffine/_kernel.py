"""Polynomial kernel.

A polynomial is a dict mapping exponent tuples ``(er, es, ea, eb)`` to
nonzero ``int`` coefficients.  ``er``/``es`` count sixths of the r/s
exponents (the global lattice denominator is 6, fixed by the half- and
third-integer powers the pairing tables need); ``ea``/``eb`` are the plain
integer exponents of the two evaluation parameters.  Exponents may be
negative (Laurent).

These functions are the hot inner loop of every matrix computation.
"""


def padd(p, q):
    """Sum of two coefficient dicts."""
    if not p:
        return dict(q)
    if not q:
        return dict(p)
    out = dict(p)
    for k, c in q.items():
        v = out.get(k)
        if v is None:
            out[k] = c
        else:
            v = v + c
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def psub(p, q):
    if not q:
        return dict(p)
    out = dict(p)
    for k, c in q.items():
        v = out.get(k)
        if v is None:
            out[k] = -c
        else:
            v = v - c
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def pneg(p):
    return {k: -c for k, c in p.items()}


def pshift(p, dr, ds, da, db):
    """Multiply by the monomial with exponent tuple (dr, ds, da, db)."""
    if not (dr or ds or da or db):
        return dict(p)
    return {(k[0] + dr, k[1] + ds, k[2] + da, k[3] + db): c for k, c in p.items()}


def pmul(p, q):
    """Product of two coefficient dicts (sparse convolution)."""
    if not p or not q:
        return {}
    if len(p) > len(q):
        p, q = q, p
    if len(p) == 1:
        (((e0, e1, e2, e3), c),) = p.items()
        return {(e0 + f0, e1 + f1, e2 + f2, e3 + f3): c * d for (f0, f1, f2, f3), d in q.items()}
    out = {}
    get = out.get
    for (e0, e1, e2, e3), c in p.items():
        for (f0, f1, f2, f3), d in q.items():
            k = (e0 + f0, e1 + f1, e2 + f2, e3 + f3)
            v = get(k)
            if v is None:
                out[k] = c * d
            else:
                v = v + c * d
                if v:
                    out[k] = v
                else:
                    del out[k]
    return out
