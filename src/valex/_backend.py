"""Arithmetic kernel for sparse bivariate Laurent terms.

A polynomial is a dict mapping exponent pairs ``(i, j)`` (powers of u and v,
possibly negative) to nonzero int coefficients.  Inputs are never mutated and
zero coefficients are never stored.

Products are schoolbook sums over term pairs.  Exact division uses Kronecker
substitution (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 8):
the bivariate operands are encoded as univariate ones, divided by one long
division, and the quotient is decoded only if none of its products with the
divisor wrapped past the encoding's v-width (see ``divexact_terms``).

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


def divexact_terms(a: dict, b: dict) -> dict | None:
    """Exact Laurent quotient a/b, or None when b does not divide a.

    Both operands are shifted by monomial units so their lowest u- and
    v-exponents are 0.  With W one more than the v-span of a, the pair (i, j)
    becomes the int key i*W + j (u -> t**W, v -> t), and one long division in
    Z[t] runs on the keys, taking the top key of the remainder each step.

    A Z[t] quotient is the bivariate one only if no product of a quotient
    term and a term of b wraps past W, i.e. every quotient term has
    j + span_v(b) < W.  Then the keys of q*b carry nothing, so q*b == a term
    by term; without the check, (1+uv)/(1+v) would divide in Z[t] and decode
    to the wrong 1 + u - v.  A true quotient always passes, because its
    v-span is span_v(a) - span_v(b), and long division finds it because the
    quotient in Z[t] is unique.

    A monomial b = d * u^i v^j needs no long division: it divides a exactly
    when d divides every coefficient, and the quotient shifts each exponent
    pair by (-i, -j).
    """
    if not a:
        return {}
    if len(b) == 1:
        (((bi, bj), d),) = b.items()
        out: dict = {}
        for (i, j), c in a.items():
            top, rem = divmod(c, d)
            if rem:
                return None
            out[(i - bi, j - bj)] = top
        return out
    a_iu = min(a)[0]
    a_v = [j for _, j in a]
    a_iv = min(a_v)
    b_iu = min(b)[0]
    b_v = [j for _, j in b]
    b_iv = min(b_v)
    w = max(a_v) - a_iv + 1
    span_b = max(b_v) - b_iv
    if span_b >= w:
        return None
    r = {(i - a_iu) * w + j - a_iv: c for (i, j), c in a.items()}
    bk = {(i - b_iu) * w + j - b_iv: c for (i, j), c in b.items()}
    db = max(bk)
    lead = bk.pop(db)  # the top term of r cancels against it by construction
    rest = list(bk.items())
    q: dict = {}
    while r:
        e = max(r)
        if e < db:
            return None
        top, rem = divmod(r.pop(e), lead)
        if rem:
            return None
        shift = e - db
        q[shift] = top
        for k, c in rest:
            key = k + shift
            v = r.get(key, 0) - top * c
            if v:
                r[key] = v
            elif key in r:
                del r[key]

    su = a_iu - b_iu
    sv = a_iv - b_iv
    out = {}
    for k, c in q.items():
        i, j = divmod(k, w)
        if j + span_b >= w:
            return None
        out[(i + su, j + sv)] = c
    return out
