"""Arithmetic kernel for sparse bivariate Laurent terms.

A polynomial is a dict mapping exponent pairs ``(i, j)`` (powers of u and v,
possibly negative) to nonzero int coefficients.  Inputs are never mutated and
zero coefficients are never stored.

Small products are schoolbook sums over term pairs, and so is a product with
a monomial factor, which only shifts the other.  From ``_PACK_MIN`` term
products on, ``mul_terms`` and ``fma_terms`` use Kronecker substitution (von
zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 8; Harvey 2009): each
operand is packed into one int with ``u^i v^j`` in a signed slot of B bits at
slot ``i*W + j``, CPython multiplies the ints, and the product's balanced
slots are its coefficients.  W is one more than the result's v-span, so no
slot of a product wraps into the next u-row, and B is the smallest of 8, 16,
32 and 64 bits that holds every product coefficient with its sign.  Products
whose coefficients need more than 64 bits, or whose slot box is much larger
than their term count (sparse operands with wide spans), stay schoolbook.

Exact division maps u -> t**W and v -> t in the same way.  It runs one long
division in Z[t], or, from ``_DIV_PACK_MIN`` terms of a dense dividend on,
one ``divmod`` of the operands packed into slots of B bits, B the smallest
of 8, 16, 32 and 64 that holds every coefficient of both operands.  When
the quotient's digits cannot be trusted at B bits, the division is packed
again at the next width, and after 64 bits the long division runs.  Either
quotient is decoded only if none of its products with the divisor wrapped
past the encoding's v-width (see ``divexact_terms``).  Packed products and
packed quotients are read back through one slot decoder, ``_decode``.

This is valex's only kernel: every product and quotient of
``alexander.determinant``'s elimination is a call here.  The module keeps
the name ``_backend`` and the ``BACKEND`` constant because external tools
key on them: the layer benchmark records ``valex.BACKEND`` with every run
and traces the code objects of ``_backend.mul_terms``, ``fma_terms`` and
``divexact_terms``.
"""

from __future__ import annotations

import sys
from array import array
from itertools import compress, product

BACKEND = "python"

# slot width in bits -> typecode of a signed machine int of that width:
# 8, 16, 32 and 64 on CPython's platforms
_SLOTS = {array(code).itemsize * 8: code for code in "bhilq"}
_SLOT_BITS = sorted(_SLOTS)
_PACK_MIN = 150       # term products from which a product is packed
_BOX_PER_PRODUCT = 4  # most slots a packed product may span per term product
_DIV_PACK_MIN = 32    # dividend terms from which a quotient is packed
_ONE = {(0, 0): 1}    # the polynomial 1


def _top_bits(bits: int, n: int) -> int:
    """The int with the top bit of each of n slots of the given width set."""
    return int.from_bytes((bytes(bits // 8 - 1) + b"\x80") * n, "little")


def _pack(terms: dict, u0: int, v0: int, w: int, bits: int, off: int) -> int:
    """sum(c * 2**(bits * ((i - u0)*w + j - v0))) over the terms of a dict.

    Every |c| is below 2**(bits - 1), and off = _top_bits(bits, n) for an n
    above every slot.  The slots hold c in two's complement; flipping each
    top bit adds 2**(bits - 1) to every slot, and subtracting off takes it
    away again with the borrows.
    """
    base = u0 * w + v0
    slots = array(_SLOTS[bits], bytes(bits // 8 * (max(terms)[0] - u0 + 1) * w))
    for (i, j), c in terms.items():
        slots[i * w + j - base] = c
    return (int.from_bytes(slots.tobytes(), sys.byteorder) ^ off) - off


def _unpack(x: int, n: int, bits: int) -> array:
    """The n balanced base-2**bits digits of x, as signed slots.

    Adding off = _top_bits(bits, n) makes every digit nonnegative, and
    flipping the top bits again turns each into its two's complement.
    Raises OverflowError when x has no such n digits.
    """
    off = _top_bits(bits, n)
    return array(_SLOTS[bits], ((x + off) ^ off).to_bytes(bits // 8 * n, sys.byteorder))


def _decode(slots: array, rows: range, cols: range) -> dict:
    """The nonzero slots as {(i, j): c}, slot k being (rows[k // W], cols[k % W]).

    W is len(cols); rows needs at least one entry per started row of W slots.
    """
    return dict(compress(zip(product(rows, cols), slots), slots))


def _packed(a: dict, b: dict, c: dict, d: dict) -> dict | None:
    """a*b - c*d by Kronecker substitution, or None when schoolbook is kept.

    Either pair may have an empty operand.  Every u^i v^j of the result goes
    to slot (i - u0)*W + j - v0 of one box, (u0, v0) being the least
    exponents of both products and W one more than their v-span.  x keeps
    its own least exponents and y is packed at the rest of (u0, v0), so the
    product of their ints has each term of x*y in its slot.  A slot of
    a*b - c*d is at most sum(min(|x|, |y|) * max|x| * max|y|) over the two
    pairs in size, which fixes B.  None when B would pass 64 bits or the box
    has more than _BOX_PER_PRODUCT slots per term product.
    """
    packs, lo_u, lo_v, hi_u, hi_v = [], [], [], [], []
    work = bound = 0
    for sign, x, y in ((1, a, b), (-1, c, d)):
        if not x or not y:
            continue
        xv = [j for _, j in x]
        yv = [j for _, j in y]
        xu0, xv0 = min(x)[0], min(xv)
        packs.append((sign, x, y, xu0, xv0))
        lo_u.append(xu0 + min(y)[0])
        lo_v.append(xv0 + min(yv))
        hi_u.append(max(x)[0] + max(y)[0])
        hi_v.append(max(xv) + max(yv))
        work += len(x) * len(y)
        bound += (min(len(x), len(y)) * max(map(abs, x.values()))
                  * max(map(abs, y.values())))
    u0, v0, u1 = min(lo_u), min(lo_v), max(hi_u)
    w = max(hi_v) - v0 + 1
    n = (u1 - u0 + 1) * w
    bits = next((s for s in _SLOT_BITS if bound.bit_length() < s), None)
    if bits is None or n > _BOX_PER_PRODUCT * work:
        return None
    off = _top_bits(bits, n)
    total = 0
    for sign, x, y, xu0, xv0 in packs:
        prod = _pack(x, xu0, xv0, w, bits, off) * _pack(y, u0 - xu0, v0 - xv0, w, bits, off)
        total = total + prod if sign > 0 else total - prod
    return _decode(_unpack(total, n, bits), range(u0, u1 + 1), range(v0, v0 + w))


def mul_terms(a: dict, b: dict) -> dict:
    """Distributive product of two term dicts."""
    if not a or not b:
        return {}
    if len(a) > len(b):  # iterate the smaller operand outside
        a, b = b, a
    if len(a) > 1 and len(a) * len(b) >= _PACK_MIN:
        out = _packed(a, b, {}, {})
        if out is not None:
            return out
    out = {}
    items = b.items()
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
    """a*b - c*d in one accumulation (the Bareiss update numerator).

    Packed from ``_PACK_MIN`` term products of a*b and c*d together on,
    schoolbook below.  On the schoolbook path an a of 1 (the pivot of every
    unit step in ``determinant``) copies b instead of multiplying; the
    packed path packs and multiplies it like any other factor.
    """
    if not c or not d:
        return mul_terms(a, b)
    if len(c) > len(d):
        c, d = d, c
    if len(c) * len(d) + len(a) * len(b) >= _PACK_MIN:
        out = _packed(a, b, c, d)
        if out is not None:
            return out
    out = dict(b) if a == _ONE else mul_terms(a, b)
    items = d.items()
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

    From _DIV_PACK_MIN dividend terms on, when the top key of a (read off
    its lexicographic top term) is below _BOX_PER_PRODUCT times its term
    count, the division is instead one divmod of the two operands packed at
    t = 2**B.  B starts at the smallest of 8, 16, 32 and 64 bits for which
    every coefficient of a and b is below 2**(B - 1) in size.  If b divides
    a in Z[t], with quotient q, then a(2**B) == q(2**B) * b(2**B) exactly,
    so a nonzero remainder means b does not divide a, at any B.  Otherwise
    the quotient's balanced B-bit digits are a polynomial q with
    q(2**B) * b(2**B) == a(2**B).  If also
    min(len q, len b) * max|q| * max|b| < 2**(B - 1), every coefficient of
    q*b is below 2**(B - 1) in size, like those of a, and a balanced digit
    expansion is unique, so q*b == a in Z[t] and q is the Z[t] quotient.  If
    that bound fails, or the quotient has more digits than a Z[t] quotient
    can, the division is packed again at the next width; past 64 bits the
    long division runs instead.

    A Z[t] quotient is the bivariate one only if no product of a quotient
    term and a term of b wraps past W, i.e. every quotient term has
    j + span_v(b) < W.  Then the keys of q*b carry nothing, so q*b == a term
    by term; without the check, (1+uv)/(1+v) would divide in Z[t] and decode
    to the wrong 1 + u - v.  A true quotient always passes, because its
    v-span is span_v(a) - span_v(b), and the quotient in Z[t] is unique.
    The packed quotient is checked once per row of W slots (its last
    span_v(b) slots must be empty) and read back by ``_decode``.

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
    a_top, b_top = max(a), max(b)
    da = (a_top[0] - a_iu) * w + a_top[1] - a_iv
    db = (b_top[0] - b_iu) * w + b_top[1] - b_iv
    if db > da:
        return None
    su = a_iu - b_iu
    sv = a_iv - b_iv
    if _DIV_PACK_MIN <= len(a) and da < _BOX_PER_PRODUCT * len(a):
        n = da - db + 1
        mb = max(map(abs, b.values()))
        size = max(max(map(abs, a.values())), mb).bit_length()
        for bits in [s for s in _SLOT_BITS if size < s]:
            off = _top_bits(bits, da + 1)
            top, rem = divmod(_pack(a, a_iu, a_iv, w, bits, off),
                              _pack(b, b_iu, b_iv, w, bits, off))
            if rem:
                return None
            try:
                slots = _unpack(top, n, bits)
            except OverflowError:  # top has more than n digits
                continue
            if (min(n - slots.count(0), len(b)) * max(map(abs, slots)) * mb) >> (bits - 1) == 0:
                if any(any(slots[k - span_b:k]) for k in range(w, n + w, w)):
                    return None
                return _decode(slots, range(su, su + (n - 1) // w + 1), range(sv, sv + w))
    r = {(i - a_iu) * w + j - a_iv: c for (i, j), c in a.items()}
    bk = {(i - b_iu) * w + j - b_iv: c for (i, j), c in b.items()}
    lead = bk.pop(db)  # the top term of r cancels against it by construction
    rest = list(bk.items())
    q = {}
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

    out = {}
    for k, c in q.items():
        i, j = divmod(k, w)
        if j + span_b >= w:
            return None
        out[(i + su, j + sv)] = c
    return out
