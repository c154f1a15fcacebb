"""One-edge free splittings and the desk-scale splitting graphs.

A splitting is either separating (the group splits as the subgroup on a
proper subset of the basis against the subgroup on the rest) or of loop
type (one distinguished stable letter over the subgroup on the remaining
letters), optionally twisted by an automorphism.  Its Bass-Serre tree is
only ever touched through the integer translation length function:

* separating, untwisted: the number of maximal basis-vs-complement
  syllable blocks of the cyclic word, when both kinds occur (always
  even), else 0;
* loop, untwisted: the number of stable-letter occurrences in the cyclic
  word;
* twisted: the same after applying the inverse twist.

Vertices of the splitting graphs are identified by their length functions
sampled on a fixed finite test set (:class:`GraphVertexKey`).  Keys are
memoised per (splitting, depth) in a bounded process-wide cache, and
counted on the raw letters of the test words.  Distinct splittings may in
principle share a key at a given depth; merges of structurally different
data are re-checked at a deeper depth and raise
:class:`KeyCollisionError` on disagreement instead of silently merging.

The adjacency predicates are deliberately partial where no algorithm is
available: refinement adjacency decides only coordinate-compatible pairs,
and common-elliptic adjacency is a bounded search whose negative verdict
("none found within the bound") is not a proof of non-adjacency.
Distances come from breadth-first search over an explicitly generated
vertex universe, so they are exact within the explored ball and upper
bounds in general.  The search dispatches on vertex kind from one table
(key at a depth, image under an automorphism, per vertex type) and on
flavor from another (admitted vertex kinds and neighbour rule: coordinate
families for F, S and Fstar, trees against minted witnesses for Z and I0).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Literal, NamedTuple, Optional, Sequence, Union

from .currents import RationalCurrent, counting_current, one_letter_mass, scale
from .currents import act as act_on_current
from .marked_graph import MarkedMetricGraph, translation_length
from .marked_graph import act as act_on_chart
from .words import (
    Automorphism,
    CyclicWord,
    OuterintError,
    Word,
    _check_int,
    _concat,
    compose,
    cyclic_reduce,
    enumerate_cyclic_words,
    flip_normalize,
)

Flavor = Literal["F", "S", "Fstar", "Z", "I0"]


class StateCapExceeded(OuterintError):
    def __init__(self, explored: int):
        super().__init__(f"state cap exceeded after exploring {explored} vertices")
        self.explored = explored


class KeyCollisionError(OuterintError):
    """Two splittings agree on the key test set but differ deeper: the
    key depth is too coarse for this instance."""


@dataclass(frozen=True)
class FreeSplitting:
    """A one-edge trivial-edge-group splitting, possibly twisted."""

    rank: int
    kind: Literal["sep", "loop"]
    subset: Optional[frozenset[int]]
    stable: Optional[int]
    twist: Automorphism

    def __post_init__(self) -> None:
        if self.rank < 2:
            raise ValueError("rank must be >= 2")
        if self.twist.rank != self.rank:
            raise ValueError("twist rank mismatch")
        if self.kind == "sep":
            if self.stable is not None or self.subset is None:
                raise ValueError("separating splittings need a subset and no stable letter")
            if not self.subset or not self.subset < set(range(1, self.rank + 1)):
                raise ValueError("subset must be nonempty and proper in {1..N}")
        elif self.kind == "loop":
            if self.subset is not None or self.stable is None:
                raise ValueError("loop splittings need a stable letter and no subset")
            if not 1 <= self.stable <= self.rank:
                raise ValueError("stable letter out of range")
        else:
            raise ValueError(f"unknown splitting kind {self.kind!r}")

    def to_json_obj(self) -> dict:
        obj: dict = {"kind": self.kind, "rank": self.rank}
        if self.kind == "sep":
            obj["subset"] = sorted(self.subset)
        else:
            obj["stable"] = self.stable
        obj["twist"] = None if self.twist.is_identity else self.twist.to_json_obj()
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FreeSplitting":
        twist = obj.get("twist")
        if twist is not None:
            phi = Automorphism.from_json_obj(twist)
            rank = phi.rank
        else:
            if "rank" not in obj:
                raise ValueError("untwisted splitting JSON needs an explicit rank")
            rank = _check_int(obj["rank"], "rank")
            phi = Automorphism.identity(rank)
        if obj["kind"] == "sep":
            subset = [_check_int(i, "subset member") for i in obj["subset"]]
            return separating_splitting(rank, subset, phi)
        return loop_splitting(rank, _check_int(obj["stable"], "stable letter"), phi)


def separating_splitting(
    rank: int, subset: Iterable[int], twist: Automorphism | None = None
) -> FreeSplitting:
    return FreeSplitting(
        rank, "sep", frozenset(subset), None, twist or Automorphism.identity(rank)
    )


def loop_splitting(rank: int, stable: int, twist: Automorphism | None = None) -> FreeSplitting:
    return FreeSplitting(rank, "loop", None, stable, twist or Automorphism.identity(rank))


def act(phi: Automorphism, s: FreeSplitting) -> FreeSplitting:
    if phi.rank != s.rank:
        raise ValueError("rank mismatch")
    return FreeSplitting(s.rank, s.kind, s.subset, s.stable, compose(phi, s.twist))


def splitting_length(s: FreeSplitting, g: Word) -> int:
    """Translation length of ``g`` on the Bass-Serre tree of ``s``."""
    if g.rank != s.rank:
        raise ValueError("rank mismatch")
    return _length(s, _untwist_table(s), g.letters)


def _untwist_table(s: FreeSplitting) -> Optional[tuple[tuple[int, ...], ...]]:
    """The twist's letter table of inverse images, or None untwisted."""
    return None if s.twist.is_identity else s.twist._inverses


def _length(
    s: FreeSplitting, untwist: Optional[tuple[tuple[int, ...], ...]], letters: Sequence[int]
) -> int:
    """:func:`splitting_length` on the letters of a reduced word of rank
    ``s.rank``, trusted unchecked; ``untwist`` is ``_untwist_table(s)``.
    The count is the same on every rotation, so no canonical form is
    taken."""
    if untwist is not None:
        letters = _concat(untwist, letters)
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    core = letters[lo:hi]
    if s.kind == "loop":
        return core.count(s.stable) + core.count(-s.stable)
    # syllable boundaries, read cyclically; none when one side is absent
    subset = s.subset
    inside = [abs(l) in subset for l in core]
    return sum(1 for i in range(len(inside)) if inside[i] != inside[i - 1])


def is_elliptic(s: FreeSplitting, g: Word) -> bool:
    if g.is_identity:
        raise ValueError("the identity is not classified as elliptic or hyperbolic")
    return splitting_length(s, g) == 0


@dataclass(frozen=True)
class GraphVertexKey:
    """Length-function fingerprint on the deterministic test set of all
    cyclic words up to the given depth (inverse pairs listed once)."""

    rank: int
    depth: int
    lengths: tuple[int, ...]


# vertex keys are memoised per (splitting, depth) in one bounded
# process-wide cache; equal splittings compare equal and share an entry
_KEY_CACHE_SIZE = 4096


def vertex_key(s: FreeSplitting, depth: int = 4) -> GraphVertexKey:
    if depth < 1:
        raise ValueError("key depth must be >= 1")
    # one positional call, so that every way of passing depth hits one entry
    return _vertex_key(s, depth)


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _vertex_key(s: FreeSplitting, depth: int) -> GraphVertexKey:
    untwist = _untwist_table(s)
    test_set = enumerate_cyclic_words(s.rank, depth, up_to_inversion=True)
    return GraphVertexKey(
        s.rank, depth, tuple(_length(s, untwist, cw.letters) for cw in test_set)
    )


def fstar_adjacent(
    s1: FreeSplitting, s2: FreeSplitting, search_length: int = 6
) -> Optional[CyclicWord]:
    """Search for a common elliptic element among all cyclic words up to
    ``search_length``.

    Returns a witness, or None when none exists within the bound; the
    None verdict is sound but not a proof of non-adjacency.  Equal
    vertices are rejected (the graph is simple).
    """
    if s1.rank != s2.rank:
        raise ValueError("rank mismatch")
    if vertex_key(s1) == vertex_key(s2):
        raise ValueError("identical vertices are not adjacency candidates")
    return _common_elliptic(s1, s2, search_length)


def _common_elliptic(
    s1: FreeSplitting, s2: FreeSplitting, search_length: int
) -> Optional[CyclicWord]:
    t1, t2 = _untwist_table(s1), _untwist_table(s2)
    for cw in enumerate_cyclic_words(s1.rank, search_length, up_to_inversion=True):
        if _length(s1, t1, cw.letters) == 0 and _length(s2, t2, cw.letters) == 0:
            return cw
    return None


def refinement_adjacent(s1: FreeSplitting, s2: FreeSplitting) -> str:
    """Decidable refinement adjacency for separating splittings.

    Certifies "yes" for pairs in a compatible coordinate system: equal
    twist and strictly nested subsets (the three-factor refinement is then
    read off the basis).  Returns "no" for equal vertices and "unknown"
    otherwise; no general refinement detection is attempted.
    """
    if s1.kind != "sep" or s2.kind != "sep":
        raise ValueError("refinement adjacency is defined here for separating splittings")
    return cut_refinement_adjacent(s1, s2)


def cut_refinement_adjacent(s1: FreeSplitting, s2: FreeSplitting) -> str:
    """Coordinate-compatible refinement adjacency allowing loop types.

    Beyond nested separating pairs: a separating splitting and a loop
    splitting refine to a common two-edge graph exactly when the stable
    letter avoids the subset, and two loop splittings with distinct
    stable letters always do (same twist required throughout).
    """
    if s1.rank != s2.rank:
        raise ValueError("rank mismatch")
    if vertex_key(s1) == vertex_key(s2):
        return "no"
    if s1.twist.images != s2.twist.images:
        return "unknown"
    if s1.kind == "sep" and s2.kind == "sep":
        return "yes" if (s1.subset < s2.subset or s2.subset < s1.subset) else "unknown"
    if s1.kind == "loop" and s2.kind == "loop":
        return "yes" if s1.stable != s2.stable else "unknown"
    sep, loop = (s1, s2) if s1.kind == "sep" else (s2, s1)
    return "yes" if loop.stable not in sep.subset else "unknown"


TreeVertex = Union[FreeSplitting, MarkedMetricGraph]
GraphVertex = Union[FreeSplitting, MarkedMetricGraph, RationalCurrent, CyclicWord]


def intersection_graph_adjacent(T: TreeVertex, mu: RationalCurrent) -> bool:
    """Whether [T] and [mu] span an edge of the intersection graph, i.e.
    the pairing vanishes exactly.  Charts act freely, so they are never
    adjacent to a nonzero current."""
    if mu.is_zero:
        raise ValueError("the zero current has no projective class")
    if T.rank != mu.rank:
        raise ValueError("rank mismatch")
    if isinstance(T, MarkedMetricGraph):
        return False
    total = 0
    for cw, weight in mu.terms:
        total += weight * splitting_length(T, cw.as_word())
    return total == 0


def map_j(s: FreeSplitting) -> FreeSplitting:
    """Vertex map from the refinement graph to the common-elliptic graph;
    the vertex data is unchanged, only the ambient adjacency changes."""
    return s


def map_q(s: FreeSplitting) -> FreeSplitting:
    """Vertex map into the intersection graph: the splitting stands for
    the projective class of its Bass-Serre tree."""
    return s


# -- breadth-first exploration -------------------------------------------------


def _chart_key(M: MarkedMetricGraph, depth: int) -> tuple:
    test_set = enumerate_cyclic_words(M.rank, depth, up_to_inversion=True)
    values = [translation_length(M, cw.as_word()) for cw in test_set]
    first = next(v for v in values if v > 0)
    return ("cvtree", tuple(v / first for v in values))


def _current_key(mu: RationalCurrent, depth: int) -> tuple:
    unit = scale(Fraction(1) / one_letter_mass(mu), mu)
    return ("curr", tuple((cw.letters, w) for cw, w in unit.terms))


# vertex kind -> (key at a key depth, image under an automorphism); keys
# are tagged by kind, so equal keys always belong to one kind
_VERTEX_KINDS = {
    FreeSplitting: (lambda s, depth: ("tree", vertex_key(s, depth).lengths), act),
    MarkedMetricGraph: (_chart_key, act_on_chart),
    RationalCurrent: (_current_key, act_on_current),
    CyclicWord: (
        lambda cw, depth: ("class", flip_normalize(cw).letters),
        lambda phi, cw: cyclic_reduce(phi.apply(cw.as_word()))[0],
    ),
}


def _splitting_data(s: FreeSplitting) -> tuple:
    return (s.kind, None if s.subset is None else tuple(sorted(s.subset)), s.stable,
            tuple(w.letters for w in s.twist.images))


class _Universe:
    """Deterministic key-canonicalised vertex store with collision checks.

    A vertex may be reached through several presentations (for example a
    twisted loop splitting can equal an untwisted one over a different
    stable letter); every structurally distinct presentation is kept,
    because the partial adjacency certificates depend on the coordinates
    a presentation exposes.
    """

    def __init__(self, depth: int, cap: int):
        self.depth = depth
        self.cap = cap
        self.vertices: dict[tuple, list[GraphVertex]] = {}

    def key(self, v: GraphVertex) -> tuple:
        return _VERTEX_KINDS[type(v)][0](v, self.depth)

    def add(self, v: GraphVertex) -> tuple:
        k = self.key(v)
        known = self.vertices.get(k)
        if known is None:
            if len(self.vertices) >= self.cap:
                raise StateCapExceeded(len(self.vertices))
            self.vertices[k] = [v]
        elif type(v) is FreeSplitting:
            if all(_splitting_data(v) != _splitting_data(u) for u in known):
                deep = self.depth + 2
                if vertex_key(v, deep) != vertex_key(known[0], deep):
                    raise KeyCollisionError(
                        f"splittings {_splitting_data(v)} and {_splitting_data(known[0])} "
                        f"collide at key depth {self.depth} but differ at depth {deep}"
                    )
                known.append(v)
        return k

    def each(self, *kinds: type) -> list[GraphVertex]:
        """Every stored presentation of the given kinds, in insertion order."""
        return [p for ps in self.vertices.values() for p in ps if type(p) in kinds]


def _move_closure(universe: _Universe, seeds: Sequence[GraphVertex],
                  moves: Sequence[Automorphism], depth: int) -> None:
    """Add the images of the (already stored) seeds under up to ``depth``
    applications of the moves and their inverses."""
    both_ways = [psi for phi in moves for psi in (phi, phi.inverse())]
    frontier = seeds
    for _ in range(depth):
        nxt = []
        for v in frontier:
            image = _VERTEX_KINDS[type(v)][1]
            for psi in both_ways:
                u = image(psi, v)
                known = len(universe.vertices)
                universe.add(u)
                if len(universe.vertices) > known:
                    nxt.append(u)
        frontier = nxt


def _family(s: FreeSplitting, include_loops: bool) -> list[FreeSplitting]:
    """Every one-edge splitting sharing the twist of ``s``."""
    out: list[FreeSplitting] = []
    gens = range(1, s.rank + 1)
    for size in range(1, s.rank):
        for sub in combinations(gens, size):
            out.append(FreeSplitting(s.rank, "sep", frozenset(sub), None, s.twist))
    if include_loops:
        for t in gens:
            out.append(FreeSplitting(s.rank, "loop", None, t, s.twist))
    return out


def _elliptic_classes(s: FreeSplitting, search_length: int) -> list[CyclicWord]:
    untwist = _untwist_table(s)
    return [
        cw
        for cw in enumerate_cyclic_words(s.rank, search_length, up_to_inversion=True)
        if _length(s, untwist, cw.letters) == 0
    ]


NeighbourRule = Callable[[_Universe, tuple, int], list]


def _coordinate_rule(include_loops: bool, adjacent) -> NeighbourRule:
    """F, S and Fstar: the candidates are the coordinate families of the
    vertex's presentations and every stored splitting; ``adjacent`` is
    called with the presentations, a candidate and the search length."""

    def neighbours(universe: _Universe, key: tuple, search_length: int) -> list[tuple]:
        presentations = universe.vertices[key]
        # a separating splitting equals its complement presentation;
        # fold any same-vertex family members into the view list first,
        # since the coordinate certificates depend on the presentation
        for p in list(presentations):
            for u in _family(p, include_loops):
                if universe.key(u) == key:
                    universe.add(u)
        views = list(presentations)
        candidates = [u for p in views for u in _family(p, include_loops)]
        found: set[tuple] = set()
        for u in candidates + universe.each(FreeSplitting):
            uk = universe.key(u)
            if uk == key:
                continue
            if uk in found:
                universe.add(u)  # extra presentation of a known neighbour
                continue
            if adjacent(views, u, search_length):
                universe.add(u)
                found.add(uk)
        return sorted(found)

    return neighbours


def _bipartite_rule(witness: type, mint, adjacent) -> NeighbourRule:
    """Z and I0: trees on one side, ``witness`` vertices on the other.  A
    splitting mints ``mint(cw)`` for each of its elliptic classes, and
    ``adjacent(tree, witness)`` decides every stored pair, minted or not."""

    def neighbours(universe: _Universe, key: tuple, search_length: int) -> list[tuple]:
        v = universe.vertices[key][0]
        if type(v) is witness:
            trees = universe.each(FreeSplitting, MarkedMetricGraph)
            return sorted({universe.key(t) for t in trees if adjacent(t, v)})
        if type(v) is FreeSplitting:  # a chart acts freely: nothing is elliptic
            for cw in _elliptic_classes(v, search_length):
                universe.add(mint(cw))
        return sorted({universe.key(w) for w in universe.each(witness) if adjacent(v, w)})

    return neighbours


class _Flavor(NamedTuple):
    """One splitting graph of :data:`FLAVORS`."""

    kinds: tuple[type, ...]  # the vertex kinds admitted
    noun: str  # how the rejection message names them
    separating_only: bool
    neighbours: NeighbourRule


_FLAVORS: dict[Flavor, _Flavor] = {
    "F": _Flavor((FreeSplitting,), "separating splittings", True, _coordinate_rule(
        False, lambda views, u, n: any(refinement_adjacent(p, u) == "yes" for p in views)
    )),
    "S": _Flavor((FreeSplitting,), "splittings", False, _coordinate_rule(
        True, lambda views, u, n: any(cut_refinement_adjacent(p, u) == "yes" for p in views)
    )),
    "Fstar": _Flavor((FreeSplitting,), "separating splittings", True, _coordinate_rule(
        False, lambda views, u, n: _common_elliptic(views[0], u, n) is not None
    )),
    "Z": _Flavor((FreeSplitting, CyclicWord), "splittings or conjugacy classes", False,
                 _bipartite_rule(CyclicWord, lambda cw: cw,
                                 lambda s, cw: splitting_length(s, cw.as_word()) == 0)),
    "I0": _Flavor((FreeSplitting, MarkedMetricGraph, RationalCurrent), "trees or currents", False,
                  _bipartite_rule(RationalCurrent, lambda cw: counting_current(cw.as_word()),
                                  intersection_graph_adjacent)),
}
FLAVORS: tuple[Flavor, ...] = tuple(_FLAVORS)


def bfs_distance(
    flavor: Flavor,
    v1: GraphVertex,
    v2: GraphVertex,
    radius: int,
    move_generators: Sequence[Automorphism] = (),
    *,
    search_length: int = 6,
    key_depth: int = 4,
    state_cap: int = 5000,
) -> Optional[int]:
    """Distance between two vertices within an explicitly explored ball.

    The vertex universe is generated from the endpoints by the move
    generators (both directions, up to ``radius`` applications) and by
    the flavor's own adjacency moves (coordinate families, bounded
    common-elliptic searches, minted witness currents or classes).  The
    returned value is the exact distance in the explored subgraph, hence
    an upper bound for the full graph; None means the target was not
    reached within ``radius``.
    """
    if flavor not in _FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if key_depth < 1 or search_length < 1:
        raise ValueError("key depth and search length must be >= 1")
    rank = v1.rank
    if rank < 3:
        raise ValueError("the splitting graphs are defined for rank >= 3")
    if v2.rank != rank:
        raise ValueError("rank mismatch")
    graph = _FLAVORS[flavor]
    for v in (v1, v2):
        if type(v) not in graph.kinds or (graph.separating_only and v.kind != "sep"):
            raise ValueError(f"flavor {flavor} vertices are {graph.noun}")

    universe = _Universe(key_depth, state_cap)
    k1, k2 = universe.add(v1), universe.add(v2)
    _move_closure(universe, [v1, v2], list(move_generators), radius)
    if k1 == k2:
        return 0

    dist = {k1: 0}
    queue = deque([k1])
    while queue:
        key = queue.popleft()
        if dist[key] >= radius:
            continue
        for nk in graph.neighbours(universe, key, search_length):
            if nk not in dist:
                dist[nk] = dist[key] + 1
                if nk == k2:
                    return dist[nk]
                queue.append(nk)
    return dist.get(k2)
