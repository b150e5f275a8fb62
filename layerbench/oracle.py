"""Checks of valex outputs that share no code with its kernel or elimination.

The Gauss-code check is a Schwartz-Zippel test: the Alexander matrix entries
are evaluated at a random point (u, v) modulo a 61-bit prime, the resulting
integer matrix is reduced by plain Gaussian elimination mod p, and its
determinant must equal Delta_0(u, v) mod p.  A wrong Delta_0 of total degree
d passes with probability at most d / p.
"""

from __future__ import annotations

P = (1 << 61) - 1


def eval_mod(poly, u: int, v: int) -> int:
    """A LaurentPoly at (u, v) modulo P; u and v must be nonzero mod P."""
    total = 0
    for (i, j), c in poly.items():
        total += c * pow(u, i, P) * pow(v, j, P)
    return total % P


def det_mod(rows: list) -> int:
    """Determinant of a square int matrix modulo P, by Gaussian elimination."""
    a = [[x % P for x in row] for row in rows]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        pivot = a[k][k]
        det = det * pivot % P
        inv = pow(pivot, P - 2, P)
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            f = row_i[k] * inv % P
            if f:
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] - f * row_k[j]) % P
    return det % P


def odd_writhe(line: str) -> int:
    """Odd writhe of a one-component signed Gauss code, read from its text."""
    tokens = []
    pos = 0
    while pos < len(line):
        end = pos + 1
        while line[end] not in "+-":
            end += 1
        tokens.append((int(line[pos + 1:end]), 1 if line[end] == "+" else -1))
        pos = end + 1
    seen: dict = {}
    total = 0
    for t, (cid, sign) in enumerate(tokens):
        if cid in seen:
            if (t - seen[cid] - 1) % 2:
                total += sign
        else:
            seen[cid] = t
    return total


def at_minus_one(poly) -> int:
    """p(-1, -1) for a LaurentPoly, from its terms."""
    return sum(c if (i + j) % 2 == 0 else -c for (i, j), c in poly.items())


def check_gauss(valex, line: str, report, rng) -> list:
    """Failed check names for one ``invariant_report`` of a knot code."""
    d = valex.parse_gauss(line)
    matrix = valex.build_matrix(valex.derive_incidence(d)[1])
    u = rng.randrange(2, P - 1)
    v = rng.randrange(2, P - 1)
    failed = []
    det = det_mod([[eval_mod(e, u, v) for e in row] for row in matrix.entries])
    delta0 = eval_mod(report.delta0, u, v)
    if det != delta0:
        failed.append("delta0_mod_p")
    knot_factor = (u - 1) * (v - 1) * (u * v - 1) % P
    if knot_factor * eval_mod(report.dbar, u, v) % P != delta0:
        failed.append("delta_bar_mod_p")
    unit = report.unit.sign * pow(u * v, report.unit.shift, P)
    if unit * eval_mod(report.dbar_normalized, u, v) % P != eval_mod(report.dbar, u, v):
        failed.append("normalize_unit")
    ow = odd_writhe(line)
    if report.odd_writhe != ow:
        failed.append("odd_writhe")
    if not report.conjecture_holds or 2 * abs(at_minus_one(report.dbar_normalized)) != abs(ow):
        failed.append("conjecture")
    return failed


def check_normalized(poly) -> bool:
    """The unit normalization contract: lowest u-power 0, lowest term positive."""
    terms = dict(poly.items())
    if not terms:
        return True
    if min(i for i, _ in terms) != 0:
        return False
    lowest = min(terms, key=lambda k: (k[0] + k[1], k[0]))
    return terms[lowest] > 0
