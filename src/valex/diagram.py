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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Passage:
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
            for p in comp:
                seen.setdefault(p.crossing, []).append(p.over)
        for cid, flags in seen.items():
            if len(flags) != 2 or flags[0] == flags[1]:
                raise PairingError(
                    f"crossing {cid} must be visited exactly once over and once under"
                )
        signs = dict(signs)
        for cid in seen:
            if signs.get(cid) not in (1, -1):
                raise SignMismatch(f"crossing {cid} lacks a sign")
        extra = set(signs) - set(seen)
        if extra:
            raise PairingError(f"signs given for absent crossings: {sorted(extra)}")
        n2 = 2 * len(seen)
        if arc_labels is not None:
            arc_labels = tuple(arc_labels)
            if sorted(arc_labels) != list(range(1, n2 + 1)):
                raise InvalidArgument("arc_labels must be a permutation of 1..2n")
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

    def sign(self, cid: int) -> int:
        try:
            return self.signs[cid]
        except KeyError:
            raise UnknownCrossing(f"no crossing {cid}") from None

    def passage_positions(self, cid: int):
        """((ci, pi) of the over passage, (ci, pi) of the under passage)."""
        over = under = None
        for ci, comp in enumerate(self.components):
            for pi, p in enumerate(comp):
                if p.crossing == cid:
                    if p.over:
                        over = (ci, pi)
                    else:
                        under = (ci, pi)
        if over is None or under is None:
            raise UnknownCrossing(f"no crossing {cid}")
        return over, under

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
            cid = int(m.group(2))
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

@dataclass(frozen=True)
class ArcTable:
    """Arc ids per passage: out_arcs[ci][pi] is the gap id leaving that passage."""

    count: int
    out_arcs: tuple


@dataclass(frozen=True)
class CrossingIncidence:
    """The four arc roles at one classical crossing (ids may coincide)."""

    crossing: int
    sign: int
    in_over: int
    out_over: int
    in_under: int
    out_under: int


def derive_incidence(d: Diagram):
    """Number the arcs and read off each crossing's four roles.

    Deterministic given the code: arcs follow traversal order unless the
    diagram carries an explicit labeling.
    """
    labels = d.arc_labels
    base = 0
    out_arcs = []
    roles: dict[int, dict[str, int]] = {}
    for comp in d.components:
        k = len(comp)
        outs = []
        ins = []
        for pi in range(k):
            t_out = base + pi + 1
            t_in = base + pi if pi > 0 else base + k
            outs.append(labels[t_out - 1] if labels else t_out)
            ins.append(labels[t_in - 1] if labels else t_in)
        for pi, p in enumerate(comp):
            slot = roles.setdefault(p.crossing, {})
            if p.over:
                slot["in_over"] = ins[pi]
                slot["out_over"] = outs[pi]
            else:
                slot["in_under"] = ins[pi]
                slot["out_under"] = outs[pi]
        out_arcs.append(tuple(outs))
        base += k
    table = ArcTable(base, tuple(out_arcs))
    incidences = [
        CrossingIncidence(cid, d.signs[cid], **roles[cid]) for cid in sorted(roles)
    ]
    return table, incidences


def _out_label_map(d: Diagram) -> dict:
    """(ci, pi) -> arc id that leaves that passage."""
    table, _ = derive_incidence(d)
    return {
        (ci, pi): table.out_arcs[ci][pi]
        for ci, comp in enumerate(d.components)
        for pi in range(len(comp))
    }


def _perm_sign(seq_from, seq_to) -> int:
    """Sign of the permutation carrying seq_from (distinct) onto seq_to."""
    index = {x: i for i, x in enumerate(seq_from)}
    perm = [index[x] for x in seq_to]
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _extract_sign(all_labels, front) -> int:
    """Sign of the permutation from ascending order to (front, rest ascending)."""
    rest = [x for x in sorted(all_labels) if x not in set(front)]
    return _perm_sign(sorted(all_labels), list(front) + rest)


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


def _relabel_for_insert(d: Diagram, arc: int, count: int):
    """Old label -> new label map that opens ``count`` fresh slots after ``arc``."""
    n2 = 2 * d.n_crossings
    return {old: old if old <= arc else old + count for old in range(1, n2 + 1)}


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
    outs = _out_label_map(d)
    target = None
    for key, label in outs.items():
        if label == arc:
            target = key
            break
    if target is None:
        raise UnknownArc(f"no arc {arc}")
    ci, pi = target
    new_id = max(d.signs) + 1 if d.signs else 1
    k1 = Passage(new_id, over_first)
    k2 = Passage(new_id, not over_first)
    comps = [list(comp) for comp in d.components]
    comps[ci] = comps[ci][: pi + 1] + [k1, k2] + comps[ci][pi + 1:]
    signs = dict(d.signs)
    signs[new_id] = sign

    remap = _relabel_for_insert(d, arc, 2)
    # labels of the enlarged diagram in its traversal order
    new_labels = []
    for oci, comp in enumerate(d.components):
        for opi in range(len(comp)):
            new_labels.append(remap[outs[(oci, opi)]])
            if (oci, opi) == (ci, pi):
                new_labels.extend([arc + 1, arc + 2])
    return Diagram(comps, signs, new_labels)


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
    (oci, opi), (uci, upi) = d.passage_positions(cid)
    table, incidences = derive_incidence(d)
    inc = next(i for i in incidences if i.crossing == cid)
    if d.signs[cid] > 0:
        quad = (inc.in_under, inc.out_over, inc.out_under, inc.in_over)
    else:
        # roles of the switched-to-positive form of the crossing
        quad = (inc.in_over, inc.out_under, inc.out_over, inc.in_under)
    a1, a2, a3, a4 = quad

    # union-find over labels for the pairwise merge (chains collapse too)
    parent: dict[int, int] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx

    union(a1, a2)
    union(a4, a3)

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
    old_labels = sorted({a for comp in table.out_arcs for a in comp})
    classes = sorted({find(x) for x in old_labels})
    class_label = {root: rank + 1 for rank, root in enumerate(classes)}
    r1, r4 = find(a1), find(a4)
    if len({a1, a2, a3, a4}) == 4:
        front_old, rel, front_roots = [a1, a2, a3, a4], 1, [r1, r4]
    elif a1 == a3:
        front_old, rel, front_roots = [a1, a2, a4], -1, [r1]
    else:  # a2 == a4
        front_old, rel, front_roots = [a1, a2, a3], 1, [r1]
    sigma_old = _extract_sign(old_labels, front_old)
    new_all = [class_label[c] for c in classes]
    sigma_new = _extract_sign(new_all, [class_label[r] for r in front_roots])
    if sigma_old * rel * sigma_new < 0:
        if len(front_roots) == 2:
            class_label[r1], class_label[r4] = class_label[r4], class_label[r1]
        else:
            other = next(c for c in classes if c != front_roots[0])
            class_label[front_roots[0]], class_label[other] = (
                class_label[other],
                class_label[front_roots[0]],
            )

    outs = _out_label_map(d)
    old_pos = {}
    for ci, comp in enumerate(d.components):
        for pi, p in enumerate(comp):
            old_pos[p] = (ci, pi)  # passages are unique (one over + one under per id)
    new_labels = []
    for comp in new_comps:
        for p in comp:
            new_labels.append(class_label[find(outs[old_pos[p]])])
    return Diagram(new_comps, signs, new_labels)


def add_r2(d: Diagram, over_arc: int, under_arc: int) -> Diagram:
    """Insert an antiparallel Reidemeister-II pair: one strand pokes over another.

    The strand through ``over_arc`` goes over both new crossings (signs -,+
    along it); the strand through ``under_arc`` runs the other way through
    them.  Labels are assigned so that det(result) = (-uv) det(d) exactly.
    """
    if over_arc == under_arc:
        raise UnknownArc("R2 insertion needs two distinct arcs")
    outs = _out_label_map(d)
    t_over = t_under = None
    for key, label in outs.items():
        if label == over_arc:
            t_over = key
        elif label == under_arc:
            t_under = key
    if t_over is None:
        raise UnknownArc(f"no arc {over_arc}")
    if t_under is None:
        raise UnknownArc(f"no arc {under_arc}")

    base = max(d.signs) if d.signs else 0
    id1, id2 = base + 1, base + 2  # id1 first along the over strand, negative
    comps = [list(comp) for comp in d.components]
    oci, opi = t_over
    uci, upi = t_under
    over_insert = [Passage(id1, True), Passage(id2, True)]
    under_insert = [Passage(id2, False), Passage(id1, False)]
    if oci == uci:
        ci = oci
        first, second = sorted([(opi, over_insert), (upi, under_insert)])
        comp = comps[ci]
        comps[ci] = (
            comp[: first[0] + 1]
            + first[1]
            + comp[first[0] + 1: second[0] + 1]
            + second[1]
            + comp[second[0] + 1:]
        )
    else:
        comps[oci] = comps[oci][: opi + 1] + over_insert + comps[oci][opi + 1:]
        comps[uci] = comps[uci][: upi + 1] + under_insert + comps[uci][upi + 1:]
    signs = dict(d.signs)
    signs[id1] = -1
    signs[id2] = 1

    # label slots: over arc splits to (x1=over_arc, x2, x3), under to (y1, y2, y3);
    # slots open after each split arc, lower label first
    lo, hi = sorted([over_arc, under_arc])
    remap = {}
    n2 = 2 * d.n_crossings
    for old in range(1, n2 + 1):
        new = old
        if old > lo:
            new += 2
        if old > hi:
            new += 2
        remap[old] = new
    x1 = remap[over_arc]
    y1 = remap[under_arc]
    x2, x3 = x1 + 1, x1 + 2
    y2, y3 = y1 + 1, y1 + 2

    old_all = sorted(outs.values())
    sigma_small = _extract_sign(old_all, [over_arc, under_arc])
    new_all = sorted(remap[a] for a in old_all) + [x2, x3, y2, y3]
    new_all.sort()
    sigma_big = _extract_sign(new_all, [x1, y3, x2, y2, x3, y1])
    if sigma_small * sigma_big < 0:
        y2, y3 = y3, y2

    new_labels = []
    for nci, comp in enumerate(comps):
        opos = 0  # position within the old component (insertion keeps old order)
        for p in comp:
            if p.crossing == id1:
                new_labels.append(x2 if p.over else y3)
            elif p.crossing == id2:
                new_labels.append(x3 if p.over else y2)
            else:
                new_labels.append(remap[outs[(nci, opos)]])
                opos += 1
    return Diagram(comps, signs, new_labels)
