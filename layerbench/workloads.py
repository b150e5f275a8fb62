"""The benchmark's workloads: seeded inputs, one timed operation, its checks.

Each workload holds one or more input streams and the share of the run's
busy time each stream gets.  The program receives only what a user would
pass it: Gauss-code strings, twist-spec strings, or the grid's own specs.
"""

from __future__ import annotations

import random

from oracle import at_minus_one, check_gauss, check_normalized

GAUSS_SIZES = (16, 24, 32)
# Busy-time share per size.  Costs per code grow about 6x per size step and
# vary widely between codes of one size, so most of the time goes to n=16,
# whose ~200 lines per run give steady percentiles across seeds.
GAUSS_SHARES = (0.7, 0.2, 0.1)
GAUSS_CODES = (1200, 240, 60)       # per size; a run cycles if it needs more
GAUSS_TRACED = (4, 2, 1)            # codes per size in the traced run

TWIST_CLASPS = ("a", "^a", "b", "^b", "ab", "ba")
TWIST_BLOCKS = (-40, 40)
TWIST_SPECS = 4000


def random_gauss_code(rng: random.Random, n: int) -> str:
    """A random one-component signed Gauss code with n crossings.

    Same model as the test suite's ``make_random_diagram``: the 2n passages
    are shuffled uniformly and each crossing gets a random sign.
    """
    toks = [(c, True) for c in range(1, n + 1)] + [(c, False) for c in range(1, n + 1)]
    rng.shuffle(toks)
    signs = {c: rng.choice("+-") for c in range(1, n + 1)}
    return "".join(f"{'O' if over else 'U'}{c}{signs[c]}" for c, over in toks)


def random_twist_spec(rng: random.Random) -> str:
    blocks = ",".join(str(rng.randint(*TWIST_BLOCKS)) for _ in range(rng.randint(2, 8)))
    return f"VT[{rng.choice(TWIST_CLASPS)}]({blocks})"


class Grid:
    """The 900-spec acceptance grid, one ``run_grid`` call per spec."""

    name = "grid"
    tail_pct = 98

    def __init__(self, valex, seed: int):
        from valex import verify

        self._verify = verify
        specs = verify.acceptance_grid()
        random.Random(seed).shuffle(specs)
        self.streams = [specs]
        self.shares = (1.0,)

    def op(self, spec):
        return self._verify.run_grid([spec], workers=1)

    def check(self, spec, results) -> list:
        if len(results) != 4:
            return ["check_count"]
        return [r.check for r in results if not r.passed]

    def key(self, results):
        return [(r.check, r.passed, r.lhs, r.rhs) for r in results]

    def traced_items(self) -> list:
        return list(self.streams[0])


class Gauss:
    """Random knot codes at n = 16, 24, 32 through ``invariant_report``.

    Percentiles are taken over the n=16 lines (the first stream); the larger
    sizes enter the throughput and their medians go to the run record.
    """

    name = "gauss"
    tail_pct = 90

    def __init__(self, valex, seed: int):
        self._valex = valex
        self.streams = []
        for n, count in zip(GAUSS_SIZES, GAUSS_CODES):
            rng = random.Random(f"gauss-{seed}-{n}")
            self.streams.append([random_gauss_code(rng, n) for _ in range(count)])
        self.shares = GAUSS_SHARES
        self._points = random.Random(f"points-{seed}")

    def op(self, line):
        return self._valex.invariant_report(self._valex.parse_gauss(line))

    def check(self, line, report) -> list:
        return check_gauss(self._valex, line, report, self._points)

    def key(self, report):
        return report.delta0

    def traced_items(self) -> list:
        return [line for stream, k in zip(self.streams, GAUSS_TRACED) for line in stream[:k]]


class Twist:
    """Large random twist specs over all clasps through the recursion."""

    name = "twist"
    tail_pct = 99

    def __init__(self, valex, seed: int):
        self._valex = valex
        rng = random.Random(f"twist-{seed}")
        self.streams = [[random_twist_spec(rng) for _ in range(TWIST_SPECS)]]
        self.shares = (1.0,)

    def op(self, line):
        v = self._valex
        spec = v.parse_spec(line)
        norm = v.normalize(v.evaluate_recursive(spec))
        ow = v.ow_closed_form(spec) if spec.clasp == "a" else None
        return norm.poly, ow

    def check(self, line, out) -> list:
        poly, ow = out
        failed = [] if check_normalized(poly) else ["normalize"]
        if ow is not None and 2 * abs(at_minus_one(poly)) != abs(ow):
            failed.append("conjecture")
        return failed

    def key(self, out):
        return out

    def traced_items(self) -> list:
        return list(self.streams[0])


WORKLOADS = {w.name: w for w in (Grid, Gauss, Twist)}
