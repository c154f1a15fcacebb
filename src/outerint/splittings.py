"""One-edge free splittings and the desk-scale splitting graphs.

A splitting is either separating (the group splits as the subgroup on a
proper subset of the basis against the subgroup on the rest, an unordered
partition stored as its side holding the first generator) or of loop
type (one distinguished stable letter over the subgroup on the remaining
letters), optionally twisted by an automorphism.  Its Bass-Serre tree is
only ever touched through the integer translation length function:

* separating, untwisted: the number of maximal basis-vs-complement
  syllable blocks of the cyclic word, when both kinds occur (always
  even), else 0;
* loop, untwisted: the number of stable-letter occurrences in the cyclic
  word;
* twisted: the same after applying the inverse twist.

A vertex of the splitting graphs is keyed exactly, by the conjugacy
classes of its vertex groups, which determine a one-edge free splitting:
{[A], [B]} for A * B, and [A] for A * <t>.  Trees with the same elliptic
subgroups lie in one deformation space (Forester, Geom. Topol. 2002).
The outer space of F relative to {[A], [B]} has free rank 0 and
dimension 3*0 + 2*2 - 4 = 0, so it is one tree; relative to {[A]} it has
free rank 1 and is a contractible 1-complex whose edges (A joined to a
vertex with a loop) each have one vertex, the loop splitting, so it too
holds one tree (Guirardel-Levitt, Proc. LMS 2007).  Finitely generated
subgroups are conjugate exactly when the cores of their Stallings graphs
are isomorphic as labelled graphs (Kapovich-Myasnikov, J. Algebra 2002),
so the key is the kind and the sorted canonical codes of those cores
(:func:`_tree_key`): two presentations share a key exactly when they are
one splitting.  This argument is the one claim here that no test can
prove.  Cores and keys are memoised per splitting in bounded
process-wide caches.  A class is elliptic exactly when it is conjugate
into a vertex group, so ellipticity is read off the same cores, in one
place (:func:`_elliptic`), for the Z and I0 witnesses and the short step
of the common-elliptic search; :func:`splitting_length`, the independent
route, tests adjacency to a stored witness, and :func:`vertex_key`, the
lengths on a test set, is the view the tests check keys against.
Composed twists are memoised per (move, twist) in one more bounded
process-wide cache, and a twist computes its hash once, for all these
lookups.

Refinement adjacency is deliberately partial: it decides only
coordinate-compatible pairs, for want of an algorithm.  Common-elliptic
(Fstar) adjacency is a bounded search for the first class of the test set
elliptic in both splittings.  Classes of length at most 2 are walked on
the vertex group cores of both; longer ones are read from the cores of
the pullbacks of those cores (Stallings, Invent. Math. 1983;
Kapovich-Myasnikov, J. Algebra 2002), so that the long classes are never
listed.  Its negative verdict still means "none within the bound": a
common class longer than the search length is not reported, so it is
not a proof of non-adjacency.
Distances come from breadth-first search over an explicitly generated
vertex universe, so they are exact within the explored ball and upper
bounds in general; for Z and I0 they are those of the full ball, but
these searches store no vertex that cannot reach the target within the
radius, so the state cap may bind later than on the full ball.  The
search dispatches on vertex kind from one table (JSON key and reader,
key, image under an automorphism; an I0 chart is decided without a
search) and on flavor from another (admitted vertex kinds and neighbour
rule: coordinate families for F, S and Fstar, trees against minted
witnesses for Z and I0).
Class vertices are stored flip-normalised (an endpoint on entry, an image
under a move), so a class is keyed by its letters.  Z and I0 mint their
witnesses from the test set, whose classes are flip-normalised already,
without rotating them again; every minted witness is still tested for
adjacency through :func:`splitting_length`.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations
from operator import ne
from typing import Callable, Iterable, Literal, NamedTuple, Optional, Sequence, Union

from . import FLAVORS, Flavor
from .currents import RationalCurrent, _class_current, one_letter_mass
from .currents import act as act_on_current
from .marked_graph import MarkedMetricGraph, marked_graph_from_json_obj, translation_length
from .words import (
    Automorphism,
    CyclicWord,
    OuterintError,
    Word,
    _check_class_count,
    _check_int,
    _clip,
    _concat,
    _cyclic_cut,
    _frozen,
    act_on_class,
    compose,
    conjugacy_class,
    enumerate_cyclic_words,
    flip_normalize,
    letter_sort_key,
)


class StateCapExceeded(OuterintError):
    """The search has stored as many vertices as its cap allows,
    ``stored``: endpoints, move-closure images and minted witnesses, not
    only the vertices it expanded."""

    def __init__(self, stored: int):
        super().__init__(f"state cap exceeded after storing {stored} vertices")
        self.stored = stored


@_frozen
class FreeSplitting:
    """A one-edge trivial-edge-group splitting, possibly twisted.

    A separating splitting is the partition {A, Aᶜ} of the basis, stored
    as the side that holds generator 1, so a subset and its complement
    build one value:

    >>> separating_splitting(3, [2, 3]) == separating_splitting(3, [1])
    True
    """

    rank: int
    kind: Literal["sep", "loop"]
    subset: Optional[frozenset[int]]
    stable: Optional[int]
    twist: Automorphism

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.subset == other.subset and self.stable == other.stable and self.kind == other.kind
                and self.rank == other.rank and self.twist == other.twist)

    def __hash__(self):
        return hash((self.rank, self.kind, self.subset, self.stable, self.twist))

    def __post_init__(self) -> None:
        if self.rank < 2:
            raise ValueError("rank must be >= 2")
        if self.twist.rank != self.rank:
            raise ValueError("twist rank mismatch")
        if self.kind == "sep":
            if self.stable is not None or self.subset is None:
                raise ValueError("separating splittings need a subset and no stable letter")
            full = frozenset(range(1, self.rank + 1))
            if not self.subset or not self.subset < full:
                raise ValueError("subset must be nonempty and proper in {1..N}")
            if 1 not in self.subset:
                object.__setattr__(self, "subset", full - self.subset)
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
            if "rank" in obj and _check_int(obj["rank"], "rank") != rank:
                raise ValueError(f"rank {obj['rank']} contradicts the twist's rank {rank}")
        else:
            if "rank" not in obj:
                raise ValueError("untwisted splitting JSON needs an explicit rank")
            rank = _check_int(obj["rank"], "rank")
            phi = Automorphism.identity(rank)
        kind = obj["kind"]  # both keys as the file holds them, so that the constructor checks them
        subset = None
        if "subset" in obj or kind == "sep":
            if type(subset := obj["subset"]) is not list:
                raise ValueError(f"subset must be a list, got {_clip(subset)}")
            subset = frozenset(_check_int(i, "subset member") for i in subset)
        stable = _check_int(obj["stable"], "stable letter") if "stable" in obj or kind == "loop" else None
        return FreeSplitting(rank, kind, subset, stable, phi)


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
    return FreeSplitting(s.rank, s.kind, s.subset, s.stable, _compose(phi, s.twist))


def splitting_length(s: FreeSplitting, g: Word) -> int:
    """Translation length of ``g`` on the Bass-Serre tree of ``s``.

    The direct per-word route: it shares no core with the keys, the
    elliptic classes and the common-elliptic search, which the tests
    check against it."""
    if g.rank != s.rank:
        raise ValueError("rank mismatch")
    letters = _concat(s.twist._inverses, g.letters)
    cut = _cyclic_cut(letters)
    core = list(map(abs, letters[cut : len(letters) - cut]))
    # on the untwisted tree: stable-letter occurrences, or syllable
    # boundaries read cyclically (none when one side is absent)
    if s.kind == "loop":
        return core.count(s.stable)
    inside = list(map(s.subset.__contains__, core))
    return sum(map(ne, inside, inside[1:] + inside[:1]))


# cores and keys are memoised per splitting; equal splittings compare
# equal and share an entry
_KEY_CACHE_SIZE = 4096
# a move closure composes the same (move, twist) pairs again in every round
_COMPOSE_SIZE = 32
_compose = lru_cache(maxsize=_COMPOSE_SIZE)(compose)


def _elliptic_classes(s: FreeSplitting, search_length: int) -> list[CyclicWord]:
    test_set = enumerate_cyclic_words(s.rank, search_length, up_to_inversion=True)
    return [cw for cw in test_set if _elliptic(s, cw.letters)]


def vertex_key(s: FreeSplitting, depth: int = 4) -> tuple[int, ...]:
    """The lengths of ``s`` on the test set of all cyclic words up to
    ``depth`` (inverse pairs listed once), in test-set order."""
    if depth < 1:
        raise ValueError("key depth must be >= 1")
    test_set = enumerate_cyclic_words(s.rank, depth, up_to_inversion=True)
    return tuple(splitting_length(s, cw.as_word()) for cw in test_set)


def fstar_adjacent(s1: FreeSplitting, s2: FreeSplitting, search_length: int = 6) -> Optional[CyclicWord]:
    """The first class of the test set of all cyclic words up to
    ``search_length`` that is elliptic in both splittings.

    Short classes are walked on the vertex group cores of both, longer
    ones read off Stallings pullbacks (see :func:`_first_common`); the
    witness is the same either way.  None means that no common elliptic
    class exists within the bound, which is not a proof of non-adjacency.
    Equal vertices are rejected (the graph is simple).
    """
    if s1.rank != s2.rank:
        raise ValueError("rank mismatch")
    if search_length < 1:
        raise ValueError("search length must be >= 1")
    if _tree_key(s1) == _tree_key(s2):
        raise ValueError("identical vertices are not adjacency candidates")
    return _first_common(s1, s2, search_length)


# nearly every common elliptic class a search finds is this short: in
# three rounds of the splitting-bfs benchmark (seed 1), 58 of 60 Fstar
# candidates shared one of length at most 2 and the other 2 shared none.
# The pullback answers these lengths too, but slower: the Fstar searches
# of splitting-bfs (rounds 0-7 at seeds 1-3, timed in process) took 9.5 ms
# of CPU with this step and 15.6 ms with the pullback alone, on one Xeon core
_SHORT_LENGTH = 2


def _first_common(s1: FreeSplitting, s2: FreeSplitting, search_length: int) -> Optional[CyclicWord]:
    """The first class of the test set up to ``search_length`` elliptic in
    both, or None.  The test set lists classes by length, so its short
    classes are a prefix of it: they are tried first, each walked on the
    vertex group cores of both (:func:`_elliptic`).  Beyond them a class
    is elliptic in both exactly when a cyclically reduced closed path of a
    pullback core (:func:`_pullback_cores`) reads it, so the long classes
    are never listed; with every core empty no class of any length is,
    and no path is walked.  Otherwise the lengths are tried in turn.  The
    words the paths of one length read are closed under rotation and
    inversion, so the least of them is the flip-normalised canonical
    rotation of the first class of that length in the test set."""
    _check_class_count(s1.rank, search_length)
    short = min(_SHORT_LENGTH, search_length)
    for cw in enumerate_cyclic_words(s1.rank, short, up_to_inversion=True):
        if _elliptic(s1, cw.letters) and _elliptic(s2, cw.letters):
            return cw
    if short == search_length:
        return None
    cores = _pullback_cores(s1, s2)
    for n in range(short + 1, search_length + 1):
        words = [w for core in cores for w in _closed_words(core, n)]
        if words:
            return CyclicWord._make(s1.rank, min(words, key=lambda w: [*map(letter_sort_key, w)]))
    return None


# -- Stallings graphs ----------------------------------------------------------
#
# A graph maps each vertex to its edges, as {letter: the vertex it reaches};
# an edge is stored at both ends, at the far one under the inverse letter.
# Its labels read words in the rose, so a folded graph reads each word along
# at most one path from a vertex (Stallings, Invent. Math. 1983).


def _fold(words: Iterable[Sequence[int]]) -> dict[int, dict[int, int]]:
    """The Stallings graph of the subgroup generated by the reduced
    ``words``: a loop at vertex 0 reading each word, folded until no
    vertex has two edges of one letter."""
    todo: list[tuple[int, int, int]] = []  # edge ends still to store
    size = 1
    for w in words:
        path = [0, *range(size, size + len(w) - 1), 0]
        size += len(w) - 1
        for v, l, u in zip(path, w, path[1:]):
            todo += ((v, l, u), (u, -l, v))
    graph: dict[int, dict[int, int]] = {v: {} for v in range(size)}
    into: dict[int, int] = {}  # a vertex folded away -> the one it was folded into

    def find(v: int) -> int:
        while v in into:
            v = into[v]
        return v

    while todo:
        v, l, u = todo.pop()
        v, u = find(v), find(u)
        t = graph[v].setdefault(l, u)
        if find(t) != u:  # two edges of one letter leave v: fold their far ends
            into[u] = t = find(t)
            todo += [(t, k, x) for k, x in graph.pop(u).items()]
    return {v: {l: find(u) for l, u in edges.items()} for v, edges in graph.items()}


def _core(graph: dict) -> dict:
    """``graph`` pruned in place to its core: vertices of valence at most 1
    are dropped, with the far ends of their edges, until none is left.
    Every cyclically reduced closed path lies in the core."""
    leaves = [v for v, edges in graph.items() if len(edges) <= 1]
    while leaves:
        for l, u in graph.pop(leaves.pop()).items():
            edges = graph[u]
            del edges[-l]
            if len(edges) == 1:
                leaves.append(u)
    return graph


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _vertex_group_cores(s: FreeSplitting) -> tuple[dict[int, dict[int, int]], ...]:
    """The cores of the Stallings graphs of the images under the twist of
    the vertex groups of ``s``: the two sides of a partition, or the
    letters off the stable one.  A class is elliptic in ``s`` exactly when
    it is conjugate into one of these images.  The cores are shared by
    every reader: read them, do not change them."""
    gens = range(1, s.rank + 1)
    if s.kind == "loop":
        sides = [[i for i in gens if i != s.stable]]
    else:
        sides = [[i for i in gens if i in s.subset], [i for i in gens if i not in s.subset]]
    return tuple(_core(_fold([s.twist._images[i] for i in side])) for side in sides)


def _elliptic(s: FreeSplitting, letters: Sequence[int]) -> bool:
    """Whether the class of the cyclically reduced ``letters`` is elliptic
    in ``s``: some vertex group core reads it along a closed path.  The
    cores are folded, so from each vertex there is at most one walk."""
    for core in _vertex_group_cores(s):
        for start in core:
            v = start
            for l in letters:
                if (v := core[v].get(l)) is None:
                    break
            if v == start:  # None after a broken walk
                return True
    return False


def _canonical_code(core: dict[int, dict[int, int]]) -> tuple[int, ...]:
    """The least breadth-first code of ``core`` over all roots.  From a
    root the vertices are numbered as the search meets them, taking each
    vertex's edges in :func:`letter_sort_key` order; the code lists per
    vertex its valence, then each edge's letter and far end's number.  A
    core is connected and folded, so the code from a root is the rooted
    labelled graph up to isomorphism, and the least code the graph."""
    edges = {v: sorted(out.items(), key=lambda e: letter_sort_key(e[0])) for v, out in core.items()}
    codes = []
    for root in core:
        number, order, code = {root: 0}, [root], []
        for v in order:  # grows as the search meets vertices
            code.append(len(edges[v]))
            for l, u in edges[v]:
                if u not in number:
                    number[u] = len(order)
                    order.append(u)
                code += (l, number[u])
        codes.append(tuple(code))
    return min(codes)


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def _tree_key(s: FreeSplitting) -> tuple:
    """The exact key of the tree of ``s``: its kind and the sorted
    canonical codes of its vertex group cores, all ints past the tags, so
    that keys sort against each other."""
    return ("tree", s.kind, *sorted(map(_canonical_code, _vertex_group_cores(s))))


def _pullback_cores(s1: FreeSplitting, s2: FreeSplitting) -> list[dict]:
    """The nonempty cores of the pullbacks over the rose of a vertex group
    core of each splitting: pairs of vertices, joined by the letters that
    join both.  Conjugates of the two groups meet exactly in the classes
    their pullback's core reads (Kapovich-Myasnikov, J. Algebra 2002)."""
    firsts, seconds = _vertex_group_cores(s1), _vertex_group_cores(s2)
    products = ({(a, b): {l: (ea[l], eb[l]) for l in ea.keys() & eb.keys()}
                 for a, ea in g.items() for b, eb in h.items()} for g in firsts for h in seconds)
    return [core for core in map(_core, products) if core]


def _closed_words(core: dict, n: int) -> list[tuple[int, ...]]:
    """The words read by the cyclically reduced closed paths of length
    ``n`` of ``core``, from every vertex."""
    out = []
    for start, edges in core.items():
        paths = [((l,), u) for l, u in edges.items()]
        for _ in range(n - 1):
            paths = [(w + (l,), x) for w, u in paths for l, x in core[u].items() if l != -w[-1]]
        out += [w for w, u in paths if u == start and w[-1] != -w[0]]
    return out


def refinement_adjacent(s1: FreeSplitting, s2: FreeSplitting) -> str:
    """Decidable refinement adjacency for coordinate-compatible pairs.

    Under one twist, certifies "yes" for nested separating pairs (the
    three-factor refinement is read off the basis; both stored sides hold
    generator 1, so they are nested when one contains the other or the
    complements are disjoint), for a separating and a loop splitting (the
    stable letter avoids one side, giving a common two-edge graph), and
    for two distinct loop splittings.  Returns "no" for equal vertices and
    "unknown" otherwise; no general refinement detection is attempted.
    """
    if s1.rank != s2.rank:
        raise ValueError("rank mismatch")
    if _tree_key(s1) == _tree_key(s2):
        return "no"
    if s1.twist.images != s2.twist.images:
        return "unknown"
    if s1.kind == "sep" and s2.kind == "sep":
        a, b = s1.subset, s2.subset
        return "yes" if a <= b or b <= a or len(a | b) == s1.rank else "unknown"
    return "yes"  # under one twist, distinct loops differ in their stable letter


def _refines(views: Sequence[FreeSplitting], u: FreeSplitting, search_length: int) -> bool:
    """The F and S test of a candidate: it refines some presentation."""
    return any(refinement_adjacent(p, u) == "yes" for p in views)


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
    # the weights are positive, so the pairing vanishes when every term does
    return not isinstance(T, MarkedMetricGraph) and all(splitting_length(T, cw.as_word()) == 0 for cw, _ in mu.terms)


# -- breadth-first exploration -------------------------------------------------


def _one_point(M1: MarkedMetricGraph, M2: MarkedMetricGraph) -> bool:
    """Whether two charts are one point of projectivised Outer space: the
    ratio l_2 / l_1 of their lengths takes one value on the cyclically
    reduced loops of both graphs that pass each vertex at most twice.  A
    free action is its length function (Culler-Morgan, Proc. LMS 1987),
    and the largest ratio is taken on an embedded circle, figure-eight or
    barbell of the first graph (White; Francaviglia-Martino, Illinois J.
    Math. 2011, Prop. 3.15), each passing each vertex at most twice: one
    ratio c gives l_2 <= c l_1, and the second graph's loops l_1 <= l_2 / c."""
    ratios = set()
    for M in (M1, M2):
        g = M.graph
        leaving = {v: [(e, g.terminal(e)) for e in g.oriented_edges() if g.initial(e) == v] for v in g.vertices}
        paths = [((e,), (u,)) for out in leaving.values() for e, u in out]  # (edges, the vertex each reaches)
        while paths:  # each loop from a crossing of its least edge
            path, ends = paths.pop()
            if ends[-1] == g.initial(path[0]) and path[0] != -path[-1]:
                w = M.path_to_word(path)
                ratios.add(translation_length(M2, w) / translation_length(M1, w))
            paths += [(path + (e,), ends + (u,)) for e, u in leaving[ends[-1]]
                      if abs(e) >= abs(path[0]) and e != -path[-1] and ends.count(u) < 2]
    return len(ratios) == 1


def _current_key(mu: RationalCurrent) -> tuple:
    mass = one_letter_mass(mu)
    return ("curr", tuple((cw.letters, w / mass) for cw, w in mu.terms))


def _class_from_json_obj(obj: dict) -> CyclicWord:
    cw = conjugacy_class(obj["class"], _check_int(obj["rank"], "rank"))
    if cw is None:
        raise ValueError("cyclic word must be nonempty (identity has no cyclic word)")
    return cw


# vertex kind -> (the JSON key naming it, its JSON reader, its key, tagged by kind, and its image
# under an automorphism); a search stores no chart, so a chart has a reader only
_VERTEX_KINDS = {
    FreeSplitting: ("kind", FreeSplitting.from_json_obj, _tree_key, act),
    RationalCurrent: ("terms", RationalCurrent.from_json_obj, _current_key, act_on_current),
    CyclicWord: ("class", _class_from_json_obj, lambda cw: ("class", cw.letters), act_on_class),
    MarkedMetricGraph: ("edges", marked_graph_from_json_obj),
}


def vertex_from_json_obj(obj: dict) -> GraphVertex:
    """The graph vertex a JSON object names, read by the first kind whose key it holds."""
    for name, read, *_ in _VERTEX_KINDS.values():
        if name in obj:
            return read(obj)
    raise ValueError("cannot tell its kind: no 'kind', 'terms', 'class' or 'edges' key")


class _Universe:
    """Deterministic key-canonicalised vertex store.

    A vertex may be reached through several presentations (for example a
    twisted loop splitting can equal an untwisted one over a different
    stable letter); a splitting's key is exact, so a presentation that
    meets a stored key is one more presentation of that vertex.  Every
    structurally distinct presentation is kept, because the partial
    adjacency certificates depend on the coordinates a presentation
    exposes.  No chart is stored: :func:`bfs_distance` decides charts.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.vertices: dict[tuple, list[GraphVertex]] = {}
        # vertex kind -> its stored (key, presentation) pairs in storing order, which rules only read
        self.stored: dict[type, list[tuple[tuple, GraphVertex]]] = {kind: [] for kind in _VERTEX_KINDS}

    def key(self, v: GraphVertex) -> tuple:
        return _VERTEX_KINDS[type(v)][2](v)

    def add(self, v: GraphVertex) -> tuple:
        k = self.key(v)
        known = self.vertices.get(k)
        if known is None:
            if len(self.vertices) >= self.cap:
                raise StateCapExceeded(len(self.vertices))
            self.vertices[k] = [v]
            self.stored[type(v)].append((k, v))
        elif type(v) is FreeSplitting and v not in known:
            known.append(v)
            self.stored[FreeSplitting].append((k, v))
        return k


def _move_closure(universe: _Universe, seeds: Sequence[GraphVertex],
                  moves: Sequence[Automorphism], depth: int) -> None:
    """Add the images of the (already stored) seeds under up to ``depth``
    applications of the moves and their inverses."""
    both_ways = [psi for phi in moves for psi in (phi, phi.inverse())]
    frontier = seeds
    for _ in range(depth):
        nxt = []
        for v in frontier:
            image = _VERTEX_KINDS[type(v)][3]
            for psi in both_ways:
                u = image(psi, v)
                known = len(universe.vertices)
                universe.add(u)
                if len(universe.vertices) > known:
                    nxt.append(u)
        frontier = nxt


def _family(s: FreeSplitting, include_loops: bool) -> list[FreeSplitting]:
    """Every one-edge splitting sharing the twist of ``s``, each partition
    listed once by its side holding generator 1."""
    gens = range(1, s.rank + 1)
    out = [FreeSplitting(s.rank, "sep", frozenset((1, *rest)), None, s.twist)
           for size in range(s.rank - 1) for rest in combinations(gens[1:], size)]
    if include_loops:
        out += [FreeSplitting(s.rank, "loop", None, t, s.twist) for t in gens]
    return out


# (store, vertex key, search length, steps left within the radius, target key)
NeighbourRule = Callable[[_Universe, tuple, int, int, tuple], list]


def _coordinate_rule(include_loops: bool, adjacent) -> NeighbourRule:
    """F, S and Fstar: the candidates are the coordinate families of the
    vertex's presentations and every stored splitting; ``adjacent(views,
    u, search_length)`` tests a candidate ``u`` against the vertex's
    presentations."""

    def neighbours(universe: _Universe, key: tuple, search_length: int, *_) -> list[tuple]:
        views = list(universe.vertices[key])
        candidates = [u for p in views for u in _family(p, include_loops)]
        found: set[tuple] = set()
        for uk, u in [(universe.key(u), u) for u in candidates] + universe.stored[FreeSplitting]:
            if uk == key or uk in found:
                # another presentation of this vertex or of a known
                # neighbour; storing it keeps its coordinates
                universe.add(u)
                continue
            if adjacent(views, u, search_length):
                universe.add(u)
                found.add(uk)
        return sorted(found)

    return neighbours


def _bipartite_rule(witness: type, mint, adjacent) -> NeighbourRule:
    """Z and I0: trees on one side, ``witness`` vertices on the other.  A
    splitting mints ``mint(cw)`` for each of its elliptic classes; these
    are test-set classes, flip-normalised already, as a stored class must
    be.  ``adjacent(tree, witness)`` tests every stored pair, minted or
    not, through :func:`splitting_length`.  A vertex other than the
    target is 1 step or more from a target on the other side, 2 or more
    from one on its own side; with fewer ``steps`` left it gets no
    neighbours, and a splitting mints only if its classes could still be
    expanded, after it looked for the target among the stored witnesses.
    No distance changes, as neighbours do not depend on what the search
    stored: every tree is stored before it starts, and a class another
    splitting minted is adjacent to this one only if this one mints it."""

    def neighbours(universe: _Universe, key: tuple, search_length: int, steps: int, target: tuple) -> list[tuple]:
        v = universe.vertices[key][0]
        to_witness = type(universe.vertices[target][0]) is witness
        if steps < 1 + ((type(v) is witness) == to_witness):
            return []
        if type(v) is witness:
            return sorted({k for k, t in universe.stored[FreeSplitting] if adjacent(t, v)})
        stored = universe.stored[witness]  # minting extends it
        seen = len(stored)
        found = {k for k, w in stored if adjacent(v, w)}
        if target not in found and steps >= 2 + to_witness:
            for cw in _elliptic_classes(v, search_length):
                universe.add(mint(cw))
            found.update(k for k, w in stored[seen:] if adjacent(v, w))
        return sorted(found)

    return neighbours


class _Flavor(NamedTuple):
    """One splitting graph of :data:`FLAVORS`."""

    kinds: tuple[type, ...]  # the vertex kinds admitted
    noun: str  # how the rejection message names them
    separating_only: bool
    neighbours: NeighbourRule


# one row per name in FLAVORS, in its order
_FLAVORS: dict[Flavor, _Flavor] = dict(zip(FLAVORS, (
    _Flavor((FreeSplitting,), "separating splittings", True, _coordinate_rule(False, _refines)),  # F
    _Flavor((FreeSplitting,), "splittings", False, _coordinate_rule(True, _refines)),  # S
    _Flavor((FreeSplitting,), "separating splittings", True, _coordinate_rule(  # Fstar
        False, lambda views, u, search_length: _first_common(views[0], u, search_length) is not None
    )),
    _Flavor((FreeSplitting, CyclicWord), "splittings or conjugacy classes", False,  # Z
            _bipartite_rule(CyclicWord, lambda cw: cw,
                            lambda s, cw: splitting_length(s, cw.as_word()) == 0)),
    _Flavor((FreeSplitting, MarkedMetricGraph, RationalCurrent), "trees or currents", False,  # I0
            _bipartite_rule(RationalCurrent, _class_current, intersection_graph_adjacent)),
), strict=True))


def bfs_distance(
    flavor: Flavor,
    v1: GraphVertex,
    v2: GraphVertex,
    radius: int,
    move_generators: Sequence[Automorphism] = (),
    *,
    search_length: int = 6,
    state_cap: int = 5000,
) -> Optional[int]:
    """Distance between two vertices within an explicitly explored ball.

    The vertex universe is generated from the endpoints by the move
    generators (both directions, up to ``radius`` applications) and by
    the flavor's own adjacency moves (coordinate families, bounded
    common-elliptic searches, minted witness currents or classes).  The
    returned value is the exact distance in the explored subgraph, hence
    an upper bound for the full graph; None means the target was not
    reached within ``radius``.  Z and I0 return the distance of the full
    ball but store no vertex that cannot reach the target within
    ``radius``, so ``state_cap`` counts fewer vertices than that ball.
    A chart is an isolated vertex of I0, so a chart endpoint gives 0 for
    two charts of one projective point and None otherwise, storing nothing.
    """
    if flavor not in _FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if search_length < 1:
        raise ValueError("search length must be >= 1")
    if v1.rank < 3:
        raise ValueError("the splitting graphs are defined for rank >= 3")
    if v2.rank != v1.rank:
        raise ValueError("rank mismatch")
    graph = _FLAVORS[flavor]
    for v in (v1, v2):
        if type(v) not in graph.kinds or (graph.separating_only and v.kind != "sep"):
            raise ValueError(f"flavor {flavor} vertices are {graph.noun}")
        if type(v) is RationalCurrent and v.is_zero:
            raise ValueError("the zero current has no projective class")
    if MarkedMetricGraph in (type(v1), type(v2)):  # a chart is an isolated vertex of I0
        return 0 if type(v1) is type(v2) and _one_point(v1, v2) else None

    v1, v2 = (flip_normalize(v) if type(v) is CyclicWord else v for v in (v1, v2))
    universe = _Universe(state_cap)
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
        for nk in graph.neighbours(universe, key, search_length, radius - dist[key], k2):
            if nk not in dist:
                dist[nk] = dist[key] + 1
                if nk == k2:
                    return dist[nk]
                queue.append(nk)
    return dist.get(k2)
