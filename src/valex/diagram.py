"""Virtual knot and link diagrams as signed Gauss codes.

A diagram is an ordered list of components, each a cyclic sequence of
passages through classical crossings, plus a sign per crossing.  Virtual
crossings are not stored: they impose no relations and any two codes related
by the virtual moves have the same classical data.

Arcs run from classical crossing to classical crossing.  Every diagram
stores its arc numbering: ``arc_labels[t]`` is the arc leaving the t-th
passage in traversal order (components in order, each from its basepoint),
and a passage enters on the arc that leaves the passage before it in its
component, cyclically.  A diagram built without labels numbers its arcs in
traversal order, 1..2n; the twist generator gives its own, odd/even strand
labeling, which makes matrix fixtures sign-exact.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import InvalidArgument, ParseError

__all__ = [
    "Passage",
    "Diagram",
    "CrossingIncidence",
    "parse_gauss",
    "format_gauss",
    "derive_incidence",
    "mirror_all",
    "odd_writhe",
    "MAX_GAUSS_CROSSINGS",
]

# parse_gauss's cap.  Delta_0's cost grows steeply with the crossings; at the
# cap a random knot code takes about a second (README, "Gauss codes").
MAX_GAUSS_CROSSINGS = 72


class Passage(NamedTuple):
    """One visit of a strand through a classical crossing."""

    crossing: int
    over: bool


def _check_visits(seen: dict) -> None:
    """Raise InvalidArgument unless every crossing has one over and one under visit.

    ``seen`` maps each crossing id to the over flags of its visits; the
    first bad crossing in its order is named.
    """
    for cid, flags in seen.items():
        if len(flags) != 2 or flags[0] == flags[1]:
            raise InvalidArgument(
                f"crossing {cid} must be visited exactly once over and once under")


class Diagram:
    """Immutable virtual link diagram (components of passages + signs)."""

    __slots__ = ("components", "signs", "arc_labels")

    def __init__(self, components, signs, arc_labels=None):
        comps = tuple(tuple(c) for c in components)
        if not comps:
            raise InvalidArgument("diagram has no components")
        seen: dict[int, list[bool]] = {}
        for comp in comps:
            if not comp:
                raise InvalidArgument("crossing-free components are not allowed")
            for p in comp:
                if type(p) is not Passage:
                    raise InvalidArgument(f"passage {p!r} is not a Passage")
                cid, over = p
                if type(cid) is not int or cid < 1:
                    raise InvalidArgument(f"crossing id {cid!r} is not an int >= 1")
                if type(over) is not bool:
                    raise InvalidArgument(f"crossing {cid}'s over flag {over!r} is not a bool")
                seen.setdefault(cid, []).append(over)
        _check_visits(seen)
        signs = dict(signs)
        if not set(map(type, signs)) <= {int}:
            raise InvalidArgument(f"crossing ids in signs must be ints: {list(signs)!r}")
        for cid in seen:
            s = signs.get(cid)
            if type(s) is not int or s not in (1, -1):
                raise InvalidArgument(f"crossing {cid} needs the int sign 1 or -1, not {s!r}")
        extra = set(signs) - set(seen)
        if extra:
            raise InvalidArgument(f"signs given for absent crossings: {sorted(extra)}")
        n2 = 2 * len(seen)
        if arc_labels is None:
            arc_labels = tuple(range(1, n2 + 1))
        else:
            arc_labels = tuple(arc_labels)
            if (sorted(arc_labels) != list(range(1, n2 + 1))
                    or set(map(type, arc_labels)) != {int}):
                raise InvalidArgument("arc_labels must be a permutation of the ints 1..2n")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "arc_labels", arc_labels)

    @classmethod
    def _raw(cls, components: tuple, signs: dict, arc_labels) -> "Diagram":
        """A diagram from fields already in the form ``__init__`` stores, unchecked.

        ``components`` is a tuple of passage tuples, ``signs`` a dict of the
        int signs 1 and -1 by crossing id, and ``arc_labels`` a tuple
        permutation of 1..2n.  For values derived from checked input.
        """
        d = object.__new__(cls)
        object.__setattr__(d, "components", components)
        object.__setattr__(d, "signs", signs)
        object.__setattr__(d, "arc_labels", arc_labels)
        return d

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Diagram is immutable")

    # -- bookkeeping ---------------------------------------------------------

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

# A token, a ';' or any other non-space character (a bad token); [0-9], not
# \d, which also matches non-ASCII digits that int() reads
_GAUSS_ITEM = re.compile(r"([OU])\s*([0-9]+)\s*([+-])|(;)|\S")


def parse_gauss(text: str) -> Diagram:
    """Parse a signed Gauss code: tokens ``O<k>+`` / ``U<k>-``, components ';'-separated.

    A code with more than ``MAX_GAUSS_CROSSINGS`` crossings raises ParseError.
    The scan records each crossing's visits and checks their pairing, after
    the cap, as ``Diagram``'s constructor would; everything else that it
    checks holds by the token syntax, so the diagram is built unchecked.
    """
    new = tuple.__new__  # Passage(cid, over) without a Python-level call
    components = []
    signs: dict[int, int] = {}
    visits: dict[int, list[bool]] = {}
    passages = []
    start = 0  # where the current component's text starts
    for m in _GAUSS_ITEM.finditer(text):
        over, digits, sign_char, semicolon = m.groups()
        if semicolon:
            if not passages:
                raise ParseError("component without classical crossings", start)
            components.append(tuple(passages))
            passages = []
            start = m.end()
            continue
        pos = m.start()
        if over is None:
            raise ParseError(
                f"bad token in Gauss code {text[pos:pos + 8].partition(';')[0]!r}", pos)
        try:
            cid = int(digits)
        except ValueError:  # past the int-string digit limit
            raise ParseError(f"crossing id of {len(digits)} digits is too long", pos) from None
        if cid < 1:
            raise ParseError("crossing ids start at 1", pos)
        sign = 1 if sign_char == "+" else -1
        over = over == "O"
        prev = signs.get(cid)
        if prev is None:
            signs[cid] = sign
            visits[cid] = [over]
        elif prev != sign:
            raise ParseError(f"crossing {cid} appears with both signs in {text!r}", pos)
        else:
            visits[cid].append(over)
        passages.append(new(Passage, (cid, over)))
    if not passages:
        if components:
            raise ParseError("component without classical crossings", start)
        raise ParseError("empty Gauss code", 0)
    components.append(tuple(passages))
    if len(signs) > MAX_GAUSS_CROSSINGS:
        raise ParseError(f"{len(signs)} crossings exceed the cap of {MAX_GAUSS_CROSSINGS}", 0)
    _check_visits(visits)
    return Diagram._raw(tuple(components), signs, tuple(range(1, 2 * len(signs) + 1)))


def format_gauss(d: Diagram) -> str:
    signs = d.signs
    return ";".join(
        "".join([f"{'O' if over else 'U'}{c}{'+' if signs[c] > 0 else '-'}" for c, over in comp])
        for comp in d.components
    )


# -- arcs and incidences --------------------------------------------------------

class CrossingIncidence(NamedTuple):
    """The four arc roles at one classical crossing (ids may coincide)."""

    crossing: int
    sign: int
    in_over: int
    out_over: int
    in_under: int
    out_under: int


def _component_arcs(d: Diagram):
    """Per component: its passages, the arcs entering them and the arcs leaving them.

    A passage enters on the arc that leaves the passage before it in its
    component, cyclically.
    """
    base = 0
    for comp in d.components:
        outs = d.arc_labels[base: base + len(comp)]
        yield comp, outs[-1:] + outs[:-1], outs
        base += len(comp)


def derive_incidence(d: Diagram):
    """The diagram's arc numbering and each crossing's four roles.

    Returns ``(d.arc_labels, incidences)``: the arc leaving each passage in
    traversal order, and one ``CrossingIncidence`` per crossing, by id.
    """
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
    incidences = [
        CrossingIncidence(cid, d.signs[cid], **roles[cid]) for cid in sorted(roles)
    ]
    return d.arc_labels, incidences


# -- transforms ------------------------------------------------------------------

def mirror_all(d: Diagram) -> Diagram:
    """Switch every classical crossing (the diagram D# of the symmetry laws)."""
    comps = [[Passage(p.crossing, not p.over) for p in comp] for comp in d.components]
    signs = {cid: -s for cid, s in d.signs.items()}
    return Diagram(comps, signs, d.arc_labels)


def odd_writhe(d: Diagram) -> int:
    """Sum of signs of the odd crossings (knots only).

    A crossing is odd when an odd number of passages sits strictly between
    its two visits along the cyclic code.
    """
    if not d.is_knot:
        raise InvalidArgument("odd writhe is defined for knots")
    signs = d.signs
    first: dict[int, int] = {}  # crossing -> the position of its first visit
    total = 0
    for t, (cid, _) in enumerate(d.components[0]):
        p = first.setdefault(cid, t)
        if p < t and not (t - p) & 1:  # t - p - 1 passages between, an odd count
            total += signs[cid]
    return total
