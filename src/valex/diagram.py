"""Virtual knot and link diagrams as signed Gauss codes.

A diagram is an ordered list of components, each a cyclic sequence of
passages through classical crossings, plus a sign per crossing.  Virtual
crossings are not stored: they impose no relations and any two codes related
by the virtual moves have the same classical data.

Arcs run from classical crossing to classical crossing.  By default arc ids
follow the traversal: arc t is the gap after the t-th passage (components in
order, each from its basepoint), so the incoming arc of a component's first
passage is the id of its last gap.  A diagram may carry an explicit
``arc_labels`` permutation instead; the twist generator uses this for the
odd/even strand labeling that makes matrix fixtures sign-exact, and
``smooth_crossing`` uses it to keep the skein relation exact (see below).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import (
    EmptyComponent,
    InvalidArgument,
    NotAKnot,
    PairingError,
    ParseError,
    SignMismatch,
    UnknownArc,
    UnknownCrossing,
)

__all__ = [
    "Passage",
    "Diagram",
    "ArcTable",
    "CrossingIncidence",
    "parse_gauss",
    "format_gauss",
    "derive_incidence",
    "switch_crossing",
    "smooth_crossing",
    "add_kink",
    "add_r2",
    "mirror_all",
    "reverse_orientation",
    "odd_writhe",
    "KINK_KINDS",
]

KINK_KINDS = ("Ia", "Ib", "Ic", "Id")

# kind -> (crossing sign, over strand on first passage?); fixed so that the
# determinant factors are uv for Ia/Ib and -1 for Ic/Id
_KINK_TABLE = {
    "Ia": (1, True),
    "Ib": (-1, False),
    "Ic": (-1, True),
    "Id": (1, False),
}


class Passage(NamedTuple):
    """One visit of a strand through a classical crossing."""

    crossing: int
    over: bool

    def token(self, sign: int) -> str:
        return f"{'O' if self.over else 'U'}{self.crossing}{'+' if sign > 0 else '-'}"


class Diagram:
    """Immutable virtual link diagram (components of passages + signs)."""

    __slots__ = ("components", "signs", "arc_labels")

    def __init__(self, components, signs, arc_labels=None):
        comps = tuple(tuple(c) for c in components)
        if not comps:
            raise EmptyComponent("diagram has no components")
        seen: dict[int, list[bool]] = {}
        for comp in comps:
            if not comp:
                raise EmptyComponent("crossing-free components are not allowed")
            for cid, over in comp:
                if type(cid) is not int or cid < 1:
                    raise InvalidArgument(f"crossing id {cid!r} is not an int >= 1")
                seen.setdefault(cid, []).append(over)
        for cid, flags in seen.items():
            if len(flags) != 2 or flags[0] == flags[1]:
                raise PairingError(
                    f"crossing {cid} must be visited exactly once over and once under"
                )
        signs = dict(signs)
        for cid in seen:
            s = signs.get(cid)
            if type(s) is not int or s not in (1, -1):
                raise SignMismatch(f"crossing {cid} needs the int sign 1 or -1, not {s!r}")
        extra = set(signs) - set(seen)
        if extra:
            raise PairingError(f"signs given for absent crossings: {sorted(extra)}")
        n2 = 2 * len(seen)
        if arc_labels is not None:
            arc_labels = tuple(arc_labels)
            if (sorted(arc_labels) != list(range(1, n2 + 1))
                    or set(map(type, arc_labels)) != {int}):
                raise InvalidArgument("arc_labels must be a permutation of the ints 1..2n")
            if arc_labels == tuple(range(1, n2 + 1)):
                arc_labels = None
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "arc_labels", arc_labels)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Diagram is immutable")

    # -- bookkeeping ---------------------------------------------------------

    @property
    def crossings(self) -> list[int]:
        return sorted(self.signs)

    @property
    def n_crossings(self) -> int:
        return len(self.signs)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def is_knot(self) -> bool:
        return len(self.components) == 1

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return (
            self.components == other.components
            and self.signs == other.signs
            and self.arc_labels == other.arc_labels
        )

    def __hash__(self):
        return hash((self.components, tuple(sorted(self.signs.items())), self.arc_labels))

    def __repr__(self):
        return f"Diagram({format_gauss(self)!r})"


# -- text form ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*([OU])\s*(\d+)\s*([+-])")


def parse_gauss(text: str) -> Diagram:
    """Parse a signed Gauss code: tokens ``O<k>+`` / ``U<k>-``, components ';'-separated."""
    components = []
    signs: dict[int, int] = {}
    offset = 0
    chunks = text.split(";")
    for chunk in chunks:
        passages = []
        pos = 0
        while pos < len(chunk):
            if chunk[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(chunk, pos)
            if not m:
                raise ParseError(f"bad token in Gauss code {chunk[pos:pos+8]!r}", offset + pos)
            over = m.group(1) == "O"
            try:
                cid = int(m.group(2))
            except ValueError:  # past the int-string digit limit
                raise ParseError(f"crossing id of {len(m.group(2))} digits is too long",
                                 offset + pos) from None
            if cid < 1:
                raise ParseError("crossing ids start at 1", offset + pos)
            sign = 1 if m.group(3) == "+" else -1
            prev = signs.get(cid)
            if prev is None:
                signs[cid] = sign
            elif prev != sign:
                raise SignMismatch(
                    f"crossing {cid} appears with both signs in {text!r}"
                )
            passages.append(Passage(cid, over))
            pos = m.end()
        if passages:
            components.append(passages)
        elif len(chunks) > 1 or chunk.strip():
            raise EmptyComponent("component without classical crossings")
        offset += len(chunk) + 1
    if not components:
        raise ParseError("empty Gauss code", 0)
    return Diagram(components, signs)


def format_gauss(d: Diagram) -> str:
    return ";".join(
        "".join(p.token(d.signs[p.crossing]) for p in comp) for comp in d.components
    )


# -- arcs and incidences --------------------------------------------------------

class ArcTable(NamedTuple):
    """Arc ids per passage: out_arcs[ci][pi] is the gap id leaving that passage."""

    count: int
    out_arcs: tuple


class CrossingIncidence(NamedTuple):
    """The four arc roles at one classical crossing (ids may coincide)."""

    crossing: int
    sign: int
    in_over: int
    out_over: int
    in_under: int
    out_under: int


def _out_labels(d: Diagram) -> tuple:
    """The arc leaving each passage, in traversal order: passage t leaves on
    ``arc_labels[t]``, or on arc t + 1 when the diagram carries no labeling.
    """
    return d.arc_labels or tuple(range(1, 2 * len(d.signs) + 1))


def _component_arcs(d: Diagram):
    """Per component: its passages, the arcs entering them and the arcs leaving them.

    A passage enters on the arc that leaves the passage before it in its
    component, cyclically.
    """
    labels = _out_labels(d)
    base = 0
    for comp in d.components:
        outs = labels[base: base + len(comp)]
        yield comp, outs[-1:] + outs[:-1], outs
        base += len(comp)


def derive_incidence(d: Diagram):
    """Number the arcs and read off each crossing's four roles.

    Deterministic given the code: arcs follow traversal order unless the
    diagram carries an explicit labeling.
    """
    out_arcs = []
    roles: dict[int, dict[str, int]] = {}
    for comp, ins, outs in _component_arcs(d):
        for p, a_in, a_out in zip(comp, ins, outs):
            slot = roles.setdefault(p.crossing, {})
            if p.over:
                slot["in_over"] = a_in
                slot["out_over"] = a_out
            else:
                slot["in_under"] = a_in
                slot["out_under"] = a_out
        out_arcs.append(outs)
    table = ArcTable(2 * len(d.signs), tuple(out_arcs))
    incidences = [
        CrossingIncidence(cid, d.signs[cid], **roles[cid]) for cid in sorted(roles)
    ]
    return table, incidences


def _perm_sign(perm) -> int:
    """The sign (+1 or -1) of a permutation of range(len(perm))."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            if k != start:
                sign = -sign
    return sign


def _extract_sign(count, front) -> int:
    """Sign of the permutation from 1..count to (front, rest ascending)."""
    skip = set(front)
    return _perm_sign([x - 1 for x in front] + [r for r in range(count) if r + 1 not in skip])


# -- transforms ------------------------------------------------------------------

def switch_crossing(d: Diagram, cid: int) -> Diagram:
    """Swap over/under on both passages of ``cid`` and negate its sign."""
    if cid not in d.signs:
        raise UnknownCrossing(f"no crossing {cid}")
    comps = [
        [Passage(p.crossing, not p.over) if p.crossing == cid else p for p in comp]
        for comp in d.components
    ]
    signs = dict(d.signs)
    signs[cid] = -signs[cid]
    return Diagram(comps, signs, d.arc_labels)


def mirror_all(d: Diagram) -> Diagram:
    """Switch every classical crossing (the diagram D# of the symmetry laws)."""
    comps = [[Passage(p.crossing, not p.over) for p in comp] for comp in d.components]
    signs = {cid: -s for cid, s in d.signs.items()}
    return Diagram(comps, signs, d.arc_labels)


def reverse_orientation(d: Diagram) -> Diagram:
    """Reverse every component; over/under flags and signs are kept.

    Any explicit arc labeling is dropped (it referred to the old traversal).
    """
    comps = [tuple(reversed(comp)) for comp in d.components]
    return Diagram(comps, dict(d.signs), None)


def odd_writhe(d: Diagram) -> int:
    """Sum of signs of the odd crossings (knots only).

    A crossing is odd when an odd number of passages sits strictly between
    its two visits along the cyclic code.
    """
    if not d.is_knot:
        raise NotAKnot("odd writhe is defined for knots")
    comp = d.components[0]
    pos: dict[int, list[int]] = {}
    for t, p in enumerate(comp):
        pos.setdefault(p.crossing, []).append(t)
    total = 0
    for cid, (p, q) in pos.items():
        if (q - p - 1) % 2 == 1:
            total += d.signs[cid]
    return total


def _insert_after(d: Diagram, inserts: dict, new_signs: dict) -> Diagram:
    """Place ``inserts[t]``, a list of passages, right after traversal position t.

    Each insertion splits the arc leaving t.  That arc keeps its label, shifted
    up by the slots opened below it; the inserted passages leave on the next
    labels in order, and every old label above a split arc moves up to make
    room.  Both Reidemeister insertions use this rule.
    """
    outs = _out_labels(d)
    cuts = [(outs[t], len(ps)) for t, ps in inserts.items()]
    comps, labels, t = [], [], 0
    for comp in d.components:
        new = []
        for p in comp:
            label = outs[t] + sum(k for cut, k in cuts if cut < outs[t])
            extra = inserts.get(t, [])
            new += [p, *extra]
            labels += range(label, label + len(extra) + 1)
            t += 1
        comps.append(new)
    return Diagram(comps, {**d.signs, **new_signs}, labels)


def _passage_leaving(outs: tuple, arc) -> int:
    """Traversal position of the passage that leaves on ``arc``."""
    try:
        return outs.index(arc)
    except ValueError:
        raise UnknownArc(f"no arc {arc}") from None


def add_kink(d: Diagram, arc: int, kind: str) -> Diagram:
    """Insert a Reidemeister-I kink on the given arc.

    The new crossing is visited twice in a row; ``kind`` selects the sign and
    which passage is over (Ia: +/over-first, Ib: -/over-second,
    Ic: -/over-first, Id: +/over-second), so the determinant factors are
    uv, uv, -1, -1 respectively.  The split arc keeps its label; the loop and
    the outgoing half take the next two label slots, which keeps the factor
    exact under the canonical column order.
    """
    if kind not in _KINK_TABLE:
        raise InvalidArgument(f"unknown kink kind {kind!r} (expected one of {KINK_KINDS})")
    sign, over_first = _KINK_TABLE[kind]
    t = _passage_leaving(_out_labels(d), arc)
    new_id = max(d.signs) + 1
    kink = [Passage(new_id, over_first), Passage(new_id, not over_first)]
    return _insert_after(d, {t: kink}, {new_id: sign})


def smooth_crossing(d: Diagram, cid: int) -> Diagram:
    """Oriented smoothing: delete both passages of ``cid`` and reconnect.

    The strand entering on the over passage continues into the strand that
    exited on the under side (and vice versa), so the component count changes
    by one and the arcs merge pairwise: (in_under, out_over) and
    (in_over, out_under), in positive-crossing terms.

    Labels: merged arcs inherit ranks by smallest old label, then compressed
    to 1..2n-2 -- except that the two merged labels are transposed whenever
    the column-permutation parity would break the exact skein identity
    det(L+) - det(L-) = (uv-1) det(L0).  This makes the identity hold on the
    nose for every legal smoothing, independent of where the crossing sits.
    """
    if cid not in d.signs:
        raise UnknownCrossing(f"no crossing {cid}")
    # passages are unique keys: one over and one under per crossing id
    old_pos = {p: (ci, pi)
               for ci, comp in enumerate(d.components) for pi, p in enumerate(comp)}
    oci, opi = old_pos[Passage(cid, True)]
    uci, upi = old_pos[Passage(cid, False)]
    _, incidences = derive_incidence(d)
    inc = next(i for i in incidences if i.crossing == cid)
    if d.signs[cid] > 0:
        quad = (inc.in_under, inc.out_over, inc.out_under, inc.in_over)
    else:
        # roles of the switched-to-positive form of the crossing
        quad = (inc.in_over, inc.out_under, inc.out_over, inc.in_under)
    a1, a2, a3, a4 = quad

    # the pairwise merge: {a1, a2} and {a3, a4}, one class when they share a
    # label; a class is named by its least label, every other label by itself
    pairs = [{a1, a2}, {a3, a4}]
    if pairs[0] & pairs[1]:
        pairs = [pairs[0] | pairs[1]]
    n2 = 2 * d.n_crossings
    root = {x: x for x in range(1, n2 + 1)}
    root.update((x, min(pair)) for pair in pairs for x in pair)

    # new passage structure
    comps = [list(comp) for comp in d.components]
    if oci == uci:
        comp = comps[oci]
        k = len(comp)
        a, b = opi, upi
        outer = [comp[(b + 1 + t) % k] for t in range((a - b - 1) % k)]
        inner = [comp[(a + 1 + t) % k] for t in range((b - a - 1) % k)]
        if not outer or not inner:
            raise EmptyComponent(f"smoothing crossing {cid} creates a crossing-free loop")
        new_comps = comps[:oci] + [outer, inner] + comps[oci + 1:]
    else:
        over_comp, under_comp = comps[oci], comps[uci]
        if len(over_comp) == 1 and len(under_comp) == 1:
            raise EmptyComponent(f"smoothing crossing {cid} creates a crossing-free loop")
        ka, kb = len(over_comp), len(under_comp)
        a, b = opi, upi
        merged = [over_comp[(a + 1 + t) % ka] for t in range(ka - 1)] + [
            under_comp[(b + 1 + t) % kb] for t in range(kb - 1)
        ]
        lo, hi = min(oci, uci), max(oci, uci)
        new_comps = comps[:lo] + [merged] + comps[lo + 1: hi] + comps[hi + 1:]

    signs = {c: s for c, s in d.signs.items() if c != cid}

    # labels: classes ranked by smallest member, then the skein parity fix.
    # The only possible role coincidences are a1 == a3 (under passage alone in
    # its component) and a2 == a4 (over passage alone); adjacency coincidences
    # were rejected above.  The canonical-order skein relation picks up an
    # extra -1 in the first chain case (first-occurrence column collapse).
    classes = sorted(set(root.values()))
    class_label = {c: rank + 1 for rank, c in enumerate(classes)}
    r1, r4 = root[a1], root[a4]
    if len({a1, a2, a3, a4}) == 4:
        front_old, rel, front_roots = [a1, a2, a3, a4], 1, [r1, r4]
    elif a1 == a3:
        front_old, rel, front_roots = [a1, a2, a4], -1, [r1]
    else:  # a2 == a4
        front_old, rel, front_roots = [a1, a2, a3], 1, [r1]
    sigma_old = _extract_sign(n2, front_old)
    sigma_new = _extract_sign(len(classes), [class_label[r] for r in front_roots])
    if sigma_old * rel * sigma_new < 0:
        if len(front_roots) == 2:
            class_label[r1], class_label[r4] = class_label[r4], class_label[r1]
        else:
            other = next(c for c in classes if c != front_roots[0])
            class_label[front_roots[0]], class_label[other] = (
                class_label[other],
                class_label[front_roots[0]],
            )

    out_of = dict(zip((p for comp in d.components for p in comp), _out_labels(d)))
    new_labels = [class_label[root[out_of[p]]] for comp in new_comps for p in comp]
    return Diagram(new_comps, signs, new_labels)


def add_r2(d: Diagram, over_arc: int, under_arc: int) -> Diagram:
    """Insert an antiparallel Reidemeister-II pair: one strand pokes over another.

    The strand through ``over_arc`` goes over both new crossings (signs -,+
    along it); the strand through ``under_arc`` runs the other way through
    them.  Labels are assigned so that det(result) = (-uv) det(d) exactly.
    """
    if over_arc == under_arc:
        raise UnknownArc("R2 insertion needs two distinct arcs")
    outs = _out_labels(d)
    t_over = _passage_leaving(outs, over_arc)
    t_under = _passage_leaving(outs, under_arc)
    id1 = max(d.signs) + 1  # first along the over strand, negative
    id2 = id1 + 1
    # along each strand the over arc splits into labels (x1, x2, x3) and the
    # under arc into (y1, y2, y3); fronting (x1, y3, x2, y2, x3, y1) has the
    # sign of fronting (over_arc, under_arc): 6 or 9 inversions
    return _insert_after(
        d,
        {t_over: [Passage(id1, True), Passage(id2, True)],
         t_under: [Passage(id2, False), Passage(id1, False)]},
        {id1: -1, id2: 1},
    )
