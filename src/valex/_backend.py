"""Arithmetic kernel for sparse bivariate Laurent terms.

A polynomial is a dict mapping exponent pairs ``(i, j)`` (powers of u and v,
possibly negative) to nonzero int coefficients.  Inputs are never mutated and
zero coefficients are never stored.

This is valex's only kernel.  The module keeps the name ``_backend`` and the
``BACKEND`` constant because external tools key on them: the layer benchmark
records ``valex.BACKEND`` with every run and traces the code objects of
``_backend.mul_terms``, ``fma_terms`` and ``divexact_terms``.
"""

from __future__ import annotations

BACKEND = "python"


def mul_terms(a: dict, b: dict) -> dict:
    """Distributive product of two term dicts."""
    if not a or not b:
        return {}
    if len(a) > len(b):  # iterate the smaller operand outside
        a, b = b, a
    out: dict = {}
    items = list(b.items())
    for (i, j), c in a.items():
        for (k, l), d in items:
            key = (i + k, j + l)
            v = out.get(key, 0) + c * d
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def fma_terms(a: dict, b: dict, c: dict, d: dict) -> dict:
    """a*b - c*d in one accumulation (the Bareiss update numerator)."""
    out = mul_terms(a, b)
    if not c or not d:
        return out
    if len(c) > len(d):
        c, d = d, c
    items = list(d.items())
    for (i, j), x in c.items():
        for (k, l), y in items:
            key = (i + k, j + l)
            v = out.get(key, 0) - x * y
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def _divexact_upoly(a: dict, b: dict) -> dict | None:
    """Exact division of univariate int-coefficient polys {deg: coeff}.

    Returns None when the division is not exact.
    """
    if not a:
        return {}
    r = dict(a)
    db = max(b)
    lead = b[db]
    q: dict = {}
    while r:
        dr = max(r)
        if dr < db:
            return None
        top, rem = divmod(r[dr], lead)
        if rem:
            return None
        shift = dr - db
        q[shift] = top
        for e, c in b.items():
            key = e + shift
            v = r.get(key, 0) - top * c
            if v:
                r[key] = v
            elif key in r:
                del r[key]
    return q


def divexact_terms(a: dict, b: dict) -> dict | None:
    """Exact Laurent quotient a/b, or None when b does not divide a.

    Both operands are shifted by monomial units so exponents are nonnegative,
    then divided as polynomials in u whose coefficients are polynomials in v
    (each leading-coefficient division is an exact division in Z[v]).
    """
    if not a:
        return {}
    a_iu = min(i for i, _ in a)
    a_iv = min(j for _, j in a)
    b_iu = min(i for i, _ in b)
    b_iv = min(j for _, j in b)
    # collect as {u-degree: {v-degree: coeff}} with nonnegative exponents
    au: dict = {}
    for (i, j), c in a.items():
        au.setdefault(i - a_iu, {})[j - a_iv] = c
    bu: dict = {}
    for (i, j), c in b.items():
        bu.setdefault(i - b_iu, {})[j - b_iv] = c

    db = max(bu)
    lead = bu[db]
    q: dict = {}
    r = {i: dict(col) for i, col in au.items()}
    while r:
        dr = max(r)
        if dr < db:
            return None
        top = _divexact_upoly(r[dr], lead)
        if top is None:
            return None
        shift = dr - db
        q[shift] = top
        for i, col in bu.items():
            ri = r.get(i + shift)
            if ri is None:
                ri = r[i + shift] = {}
            for j, c in col.items():
                for tj, tc in top.items():
                    key = j + tj
                    v = ri.get(key, 0) - tc * c
                    if v:
                        ri[key] = v
                    elif key in ri:
                        del ri[key]
            if not ri:
                del r[i + shift]

    su = a_iu - b_iu
    sv = a_iv - b_iv
    out: dict = {}
    for i, col in q.items():
        for j, c in col.items():
            if c:
                out[(i + su, j + sv)] = c
    return out
