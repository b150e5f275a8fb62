"""Delta_0 on the line uv = 1 against the affine index polynomial.

For a knot diagram, with dbar = delta_bar(delta0_diagram(d)) not normalized,

    (1 - t)^2 * dbar(t, 1/t) = eps * t * sum_c sign(c) * (t^W(c) - 1),   eps = +-1.

W(c) is the index of crossing c: give each passage +sign when it is an
over-passage and -sign when it is an under-passage; W(c) is the sum over the
passages strictly between c's under-passage and its over-passage, walking
forward.  The right side is Kauffman's affine index polynomial ("An affine
index polynomial invariant of virtual knots", JKTR 22, 2013), up to eps.
Which eps a diagram takes, and a proof, are open; the check accepts either.

W is read from the Gauss code's text, not from valex's parser, so the right
side shares no code with the parser, the matrix builders or the elimination.
On twist diagrams the left side's dbar is ``evaluate_recursive``'s, so the
recursion is checked against the generated diagram's index polynomial
without a determinant.
"""

import random
import re

from tests.conftest import all_diagrams, make_random_diagram
from valex.alexander import delta0_diagram, delta_bar
from valex.diagram import format_gauss
from valex.twist import TwistSpec, evaluate_recursive, generate_twist
from valex.verify import acceptance_grid

TOKEN = re.compile(r"([OU])(\d+)([+-])")


def index_polynomial(code: str) -> dict:
    """t * sum_c sign(c) (t^W(c) - 1) of a knot's Gauss code, as {power of t: coefficient}.

    With P[k] the sum of the first k passage values, and P[2n] = 0 because
    each crossing adds +sign and -sign, W(c) is P[over] - P[under + 1]
    whether or not the walk wraps past the end of the code.
    """
    tokens = TOKEN.findall(code)
    prefix = [0]
    where = {}
    for k, (side, cid, sign) in enumerate(tokens):
        s = 1 if sign == "+" else -1
        prefix.append(prefix[-1] + (s if side == "O" else -s))
        where.setdefault(cid, {"sign": s})[side] = k
    assert prefix[-1] == 0
    out = {}
    for c in where.values():
        w = prefix[c["O"]] - prefix[c["U"] + 1]
        out[w + 1] = out.get(w + 1, 0) + c["sign"]
        out[1] = out.get(1, 0) - c["sign"]
    return {e: c for e, c in out.items() if c}


def on_line(dbar) -> dict:
    """(1 - t)^2 * dbar(t, 1/t), as {power of t: coefficient}."""
    out = {}
    for (i, j), c in dbar.items():
        for shift, f in ((0, 1), (1, -2), (2, 1)):
            e = i - j + shift
            out[e] = out.get(e, 0) + f * c
    return {e: c for e, c in out.items() if c}


def check(code: str, dbar):
    """Assert the identity for one knot, with eps = +1 or -1."""
    left, right = on_line(dbar), index_polynomial(code)
    assert left in (right, {e: -c for e, c in right.items()}), (code, left, right)


def test_index_polynomial_of_the_virtual_trefoil():
    # crossing 1 runs under at passage 2 and over at 0, and the walk between
    # passes O2+ alone, so W = +1; crossing 2 runs under at 1 and over at 3,
    # past U1+ alone, so W = -1
    assert index_polynomial("O1+U2+U1+O2+") == {2: 1, 1: -2, 0: 1}


def test_every_small_knot():
    for n in (1, 2, 3):
        for d in all_diagrams(n):
            check(format_gauss(d), delta_bar(delta0_diagram(d)))


def test_random_knots_up_to_32_crossings():
    rng = random.Random(1729)
    for n in [rng.randint(2, 32) for _ in range(200)]:
        d = make_random_diagram(rng, n)
        check(format_gauss(d), delta_bar(delta0_diagram(d)))


def test_acceptance_grid_through_the_recursion():
    for base in acceptance_grid():
        for clasp in ("a", "^a", "b", "^b"):
            spec = TwistSpec(base.blocks, clasp)
            check(format_gauss(generate_twist(spec)), evaluate_recursive(spec))
