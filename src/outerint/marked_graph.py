"""Marked metric graphs: simplicial charts with exact rational edge lengths.

A chart identifies the free group of rank N with the fundamental group of
a finite connected graph without valence-one vertices.  Together with a
positive rational length on each edge it yields an exact translation
length function, which is the basic length-function provider of the whole
library.

Graphs follow the oriented-edge convention: the positive edges are
numbered ``1..m`` and carry names; the oriented edge ``+k`` runs from
``origins[k-1]`` to ``termini[k-1]`` and ``-k`` is its reverse.  An edge
path is a tuple of signed edge numbers with matching endpoints.

The marking is a two-sided dictionary: a closed edge path for each
generator, and a word for each edge.  Construction of a
:class:`MarkedMetricGraph` proves the two directions are mutually inverse
(on generators and on the tree-loop basis), which certifies that the
chart really is an isomorphism; inconsistent dictionaries are rejected.
Construction also builds, once, the reduced loop of each letter (so
word-to-path cancels only at junctions; a standard rose, with loops
``(1,), (2,), ...``, reads a word as its own path), the lengths of the
edges and of the letters' loops as integers over one denominator (so a
path length is one ``Fraction``), whether the chart is junction-free,
that is, whether loops cancel only where their letters do, and the edge
lengths over their lcm once more, from ``lengths``, for the pairing's
second route.
Paths are reduced, cut and inverted by the code of words (:mod:`.words`),
and one breadth-first search checks connectivity and finds the tree paths.

All values are immutable, all operations pure.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .words import Automorphism, CyclicWord, Word, _concat, _cyclic_cut, _free_reduce
from .words import _clip, _frozen, _inverse, _letter_table, reduce

EdgePath = tuple[int, ...]


def _check_fraction(x) -> Fraction:
    if isinstance(x, (Fraction, int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"expected exact rational, got {_clip(x)}")


@_frozen
class SerreGraph:
    """Finite connected graph with oriented edges and no valence-one vertex."""

    vertices: tuple[str, ...]
    edge_names: tuple[str, ...]
    inverse_names: tuple[str, ...]
    origins: tuple[str, ...]
    termini: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        m = len(self.edge_names)
        if not (len(self.inverse_names) == len(self.origins) == len(self.termini) == m):
            raise ValueError("edge field lengths disagree")
        names = self.edge_names + self.inverse_names
        if len(set(names)) != len(names):
            raise ValueError("duplicate edge names")
        vset = set(self.vertices)
        for v in self.origins + self.termini:
            if v not in vset:
                raise ValueError(f"unknown endpoint {v!r}")
        if m == 0:
            raise ValueError("graph must have at least one edge")
        valence = {v: 0 for v in self.vertices}
        for k in range(1, m + 1):
            valence[self.initial(k)] += 1
            valence[self.initial(-k)] += 1
        for v, d in valence.items():
            if d == 1:
                raise ValueError(f"valence-one vertex {v!r} not allowed")
        if len(self._search(self.vertices[0], self.oriented_edges())) != len(vset):
            raise ValueError("graph is not connected")

    def _search(self, start: str, edges: Sequence[int]) -> dict[str, EdgePath]:
        """Breadth-first search from ``start`` along the oriented ``edges``:
        a shortest path to each vertex reached."""
        paths: dict[str, EdgePath] = {start: ()}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for e in edges:
                w = self.terminal(e)
                if self.initial(e) == v and w not in paths:
                    paths[w] = paths[v] + (e,)
                    queue.append(w)
        return paths

    @property
    def num_edges(self) -> int:
        return len(self.edge_names)

    @property
    def positive_edges(self) -> range:
        return range(1, self.num_edges + 1)

    @property
    def betti_number(self) -> int:
        return self.num_edges - len(self.vertices) + 1

    def initial(self, e: int) -> str:
        return self.origins[e - 1] if e > 0 else self.termini[-e - 1]

    def terminal(self, e: int) -> str:
        return self.termini[e - 1] if e > 0 else self.origins[-e - 1]

    def oriented_edges(self) -> tuple[int, ...]:
        return tuple(s * k for k in self.positive_edges for s in (1, -1))

    def name(self, e: int) -> str:
        return self.edge_names[e - 1] if e > 0 else self.inverse_names[-e - 1]


def reduce_path(path: Sequence[int]) -> EdgePath:
    """Cancel adjacent ``e, -e`` pairs; a reduced path comes back as it is.

    >>> reduce_path((1, 2, -1))
    (1, 2, -1)
    """
    return tuple(_free_reduce(path))


def cyclic_reduce_path(path: Sequence[int]) -> EdgePath:
    """Reduce, then strip every cancelling first/last pair."""
    p = reduce_path(path)
    cut = _cyclic_cut(p)
    return p[cut : len(p) - cut]


inverse_path = _inverse


def is_edge_path(graph: SerreGraph, path: Sequence[int]) -> bool:
    """Consecutive endpoints match (back-tracking allowed)."""
    for e in path:
        if e == 0 or abs(e) > graph.num_edges:
            return False
    for e, f in zip(path, path[1:]):
        if graph.terminal(e) != graph.initial(f):
            return False
    return True


def is_reduced_path(graph: SerreGraph, path: Sequence[int]) -> bool:
    if not is_edge_path(graph, path):
        return False
    return all(f != -e for e, f in zip(path, path[1:]))


@_frozen
class Marking:
    """Two-sided dictionary between the abstract free group and the graph.

    ``generator_loops[i]`` is a closed edge path at ``base`` representing
    the (i+1)-st generator; ``edge_words[k]`` is the group word read when
    crossing positive edge ``k+1`` (its inverse is read on ``-k-1``).
    Consistency is verified when the marking is attached to a graph in
    :class:`MarkedMetricGraph`.
    """

    base: str
    generator_loops: tuple[EdgePath, ...]
    edge_words: tuple[Word, ...]
    spanning_tree: frozenset[int]

    @property
    def rank(self) -> int:
        return len(self.generator_loops)


@_frozen
class MarkedMetricGraph:
    """A point of unprojectivized Outer space: chart plus exact lengths."""

    graph: SerreGraph
    marking: Marking
    lengths: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "lengths", tuple(_check_fraction(x) for x in self.lengths)
        )
        g, mk = self.graph, self.marking
        if len(self.lengths) != g.num_edges:
            raise ValueError("need one length per positive edge")
        if any(x <= 0 for x in self.lengths):
            raise ValueError("edge lengths must be positive")
        if mk.base not in g.vertices:
            raise ValueError("base vertex not in graph")
        if len(mk.edge_words) != g.num_edges:
            raise ValueError("need one edge word per positive edge")
        rank = mk.rank
        if rank < 2:
            raise ValueError("rank must be >= 2")
        if g.betti_number != rank:
            raise ValueError(
                f"graph has rank {g.betti_number} but marking claims {rank}"
            )
        for w in mk.edge_words:
            if w.rank != rank:
                raise ValueError("edge word rank mismatch")
        tree = mk.spanning_tree
        if not tree <= set(g.positive_edges):
            raise ValueError("spanning tree contains unknown edges")
        if len(tree) != len(g.vertices) - 1:
            raise ValueError("spanning tree has wrong edge count")
        tree_paths = self._tree_paths()  # raises if the tree does not span
        for i, loop in enumerate(mk.generator_loops):
            if not loop:
                raise ValueError(f"generator loop {i} is empty")
            if not is_edge_path(g, loop):
                raise ValueError(f"generator loop {i} is not a valid edge path")
            if g.initial(loop[0]) != mk.base or g.terminal(loop[-1]) != mk.base:
                raise ValueError(f"generator loop {i} is not closed at the base")
        # tables indexed by signed letter or edge (see the module docstring)
        den = lcm(*(x.denominator for x in self.lengths))
        nums = [x.numerator * (den // x.denominator) for x in self.lengths]
        loops = [reduce_path(loop) for loop in mk.generator_loops]
        standard = all(loop == (i,) for i, loop in enumerate(loops, 1))
        table = _letter_table(loops)
        object.__setattr__(self, "_loops", None if standard else table)
        object.__setattr__(self, "_edge_words", _letter_table([w.letters for w in mk.edge_words]))
        # a list: ``map`` over a list's bound ``__getitem__`` costs about
        # half what a tuple's slot wrapper does on a long path
        nums = [0, *nums, *reversed(nums)]
        object.__setattr__(self, "_length_nums", nums)
        object.__setattr__(self, "_length_den", den)
        object.__setattr__(self, "_letter_nums", [sum(map(nums.__getitem__, loop)) for loop in table])
        # the pairing's route B reads the lengths over their lcm from its own
        # table, built again from ``lengths`` so that it shares none with route A
        E = lcm(*(x.denominator for x in self.lengths))
        object.__setattr__(self, "_crossing_lengths", (E, [x.numerator * (E // x.denominator) for x in self.lengths]))
        # Junction-free: the loops of the 2N signed letters start on 2N
        # distinct edges.  Loop x ends on the inverse of the first edge of
        # x⁻¹, so it cancels against loop y only when y = x⁻¹, and a
        # cyclically reduced word's loops, end to end, are its axis period.
        firsts = {loop[0] for loop in table[1:]}
        object.__setattr__(self, "_junction_free", len(firsts) == 2 * rank)
        # Two-sided verification.  Direction 1: reading each generator loop
        # through the edge words must give back that generator.
        for i, loop in enumerate(mk.generator_loops):
            if self.path_to_word(loop).letters != (i + 1,):
                raise ValueError(
                    f"marking inconsistent: loop {i} does not read as generator a_{i + 1}"
                )
        # Direction 2: the path of each edge word must be homotopic to the
        # tree-loop of that edge (reduced closed paths are compared, which
        # is exact in a graph).
        for k in g.positive_edges:
            tree_loop = tree_paths[g.initial(k)] + (k,) + inverse_path(tree_paths[g.terminal(k)])
            if reduce_path(self.word_to_path(mk.edge_words[k - 1])) != reduce_path(tree_loop):
                raise ValueError(
                    f"marking inconsistent: word of edge {g.name(k)} does not match its tree loop"
                )

    # -- tree machinery ------------------------------------------------

    def _tree_paths(self) -> dict[str, EdgePath]:
        """Reduced path in the spanning tree from the base to each vertex."""
        g, mk = self.graph, self.marking
        paths = g._search(mk.base, [s * k for k in mk.spanning_tree for s in (1, -1)])
        if len(paths) != len(g.vertices):
            raise ValueError("spanning tree does not span the graph")
        return paths

    # -- dictionary directions ------------------------------------------

    @property
    def rank(self) -> int:
        return self.marking.rank

    def word_to_path(self, w: Word) -> EdgePath:
        """Reduced closed edge path at the base representing ``w``."""
        if w.rank != self.rank:
            raise ValueError("rank mismatch")
        if self._loops is None:  # a standard rose: the reduced word is the path
            return w.letters
        return tuple(_concat(self._loops, w.letters))

    def path_to_word(self, path: Sequence[int]) -> Word:
        self._check_edges(path)
        return reduce([l for e in path for l in self._edge_words[e]], self.rank)

    def _check_edges(self, path: Sequence[int]) -> None:
        """Reject edge numbers outside ±1..m, which the signed-edge tables
        would otherwise read as other edges."""
        m = self.graph.num_edges
        for e in path:
            if not 1 <= abs(e) <= m:
                raise ValueError(f"edge number {e} is not in ±1..{m}")

    # -- lengths ----------------------------------------------------------

    def edge_length(self, e: int) -> Fraction:
        self._check_edges((e,))
        return self.lengths[abs(e) - 1]

    def path_length(self, path: Sequence[int]) -> Fraction:
        """Sum of the edge lengths along ``path``."""
        self._check_edges(path)
        return self._path_length(path)

    def _path_length(self, path: Sequence[int]) -> Fraction:
        """:meth:`path_length` of a path the package built, unchecked: an
        integer sum of the cached numerators, made one ``Fraction``."""
        return Fraction(sum(map(self._length_nums.__getitem__, path)), self._length_den)

    def point_displacement(self, w: Word) -> Fraction:
        """Distance in the universal cover between the base lift and its
        translate by ``w`` (length of the reduced, not cyclically reduced,
        edge path).
        """
        return self._path_length(self.word_to_path(w))

    def axis_period(self, cw: CyclicWord) -> EdgePath:
        """One period of the bi-infinite edge path along the axis of ``cw``."""
        return cyclic_reduce_path(self.word_to_path(cw.as_word()))

    def volume(self) -> Fraction:
        return sum(self.lengths, Fraction(0))


def translation_length(M: MarkedMetricGraph, w: Word) -> Fraction:
    """Exact translation length of ``w`` on the metric tree of ``M``.

    Zero exactly on the identity (the action is free), conjugacy
    invariant, and homogeneous under powers.
    """
    return M._path_length(cyclic_reduce_path(M.word_to_path(w)))


def edge_crossings(M: MarkedMetricGraph, cw: CyclicWord) -> dict[int, int]:
    """How often each positive edge is crossed (in either direction) by
    one period of the axis of ``cw``."""
    counts = dict.fromkeys(M.graph.positive_edges, 0)
    counts.update(Counter(map(abs, M.axis_period(cw))))
    return counts


def bbt_upper_bound(M: MarkedMetricGraph) -> Fraction:
    """Sum of the displacements of the base point by the generators.

    This bounds from above how far images of geodesics from the rank-N
    Cayley tree into the tree of ``M`` can back-track.
    """
    total = Fraction(0)
    for i in range(1, M.rank + 1):
        total += M.point_displacement(Word(M.rank, (i,)))
    return total


def unit_rose(rank: int) -> MarkedMetricGraph:
    """The rose with one petal of length 1 per generator (the Cayley-tree
    chart: translation lengths equal cyclically reduced word lengths)."""
    return rose(rank, [Fraction(1)] * rank)


def rose(rank: int, lengths: Sequence) -> MarkedMetricGraph:
    if rank < 2:
        raise ValueError("rank must be >= 2")
    if len(lengths) != rank:
        raise ValueError("need one length per petal")
    names = [_default_edge_name(i) for i in range(1, rank + 1)]
    graph = SerreGraph(
        vertices=("v",),
        edge_names=tuple(names),
        inverse_names=tuple(n.upper() if n.islower() else n + "'" for n in names),
        origins=("v",) * rank,
        termini=("v",) * rank,
    )
    marking = Marking(
        base="v",
        generator_loops=tuple((i,) for i in range(1, rank + 1)),
        edge_words=tuple(Word(rank, (i,)) for i in range(1, rank + 1)),
        spanning_tree=frozenset(),
    )
    return MarkedMetricGraph(graph, marking, tuple(lengths))


def _default_edge_name(i: int) -> str:
    return chr(ord("a") + i - 1) if i <= 26 else f"e{i}"


def scale_lengths(M: MarkedMetricGraph, c) -> MarkedMetricGraph:
    c = _check_fraction(c)
    if c <= 0:
        raise ValueError("scale factor must be positive")
    return with_lengths(M, [c * x for x in M.lengths])


def with_lengths(M: MarkedMetricGraph, lengths: Sequence) -> MarkedMetricGraph:
    return MarkedMetricGraph(M.graph, M.marking, tuple(lengths))


def act(phi: Automorphism, M: MarkedMetricGraph) -> MarkedMetricGraph:
    """The chart for ``phi . M``: same graph and lengths, marking
    precomposed so that lengths pull back through the inverse, i.e.
    ``translation_length(act(phi, M), g) ==
    translation_length(M, phi.apply_inverse(g))``.
    """
    if phi.rank != M.rank:
        raise ValueError("rank mismatch")
    new_loops = tuple(
        M.word_to_path(phi.apply_inverse(Word(M.rank, (i,))))
        for i in range(1, M.rank + 1)
    )
    new_words = tuple(phi.apply(w) for w in M.marking.edge_words)
    marking = Marking(M.marking.base, new_loops, new_words, M.marking.spanning_tree)
    return MarkedMetricGraph(M.graph, marking, M.lengths)


def subdivide_edge(M: MarkedMetricGraph, e: int, ratio=Fraction(1, 2)) -> MarkedMetricGraph:
    """Split positive edge ``e`` at the given ratio, introducing a
    valence-two vertex.  The resulting chart defines the same tree."""
    ratio = _check_fraction(ratio)
    if not 0 < ratio < 1:
        raise ValueError("ratio must be strictly between 0 and 1")
    g, mk = M.graph, M.marking
    if e not in g.positive_edges:
        raise ValueError("expected a positive edge number")
    mid = f"w{len(g.vertices)}"
    while mid in g.vertices:
        mid += "'"
    taken = set(g.edge_names + g.inverse_names)
    name, inverse = g.edge_names[e - 1] + "2", g.inverse_names[e - 1] + "2"
    while name in taken or inverse in taken or name == inverse:
        name += "'"
        inverse += "'"
    m = g.num_edges
    # +e becomes the pair (+e, m+1); all other edges keep their numbers.
    graph = SerreGraph(
        vertices=g.vertices + (mid,),
        edge_names=g.edge_names + (name,),
        inverse_names=g.inverse_names + (inverse,),
        origins=g.origins[: e - 1] + (g.origins[e - 1],) + g.origins[e:] + (mid,),
        termini=g.termini[: e - 1] + (mid,) + g.termini[e:] + (g.termini[e - 1],),
    )

    def rewrite(path: EdgePath) -> EdgePath:
        out: list[int] = []
        for x in path:
            if x == e:
                out.extend((e, m + 1))
            elif x == -e:
                out.extend((-(m + 1), -e))
            else:
                out.append(x)
        return tuple(out)

    marking = Marking(
        base=mk.base,
        generator_loops=tuple(rewrite(p) for p in mk.generator_loops),
        edge_words=mk.edge_words[: e - 1]
        + (Word(M.rank),)
        + mk.edge_words[e:]
        + (mk.edge_words[e - 1],),
        # +e reaches the new vertex; a tree edge needs both of its halves
        spanning_tree=mk.spanning_tree | ({e, m + 1} if e in mk.spanning_tree else {e}),
    )
    L = M.lengths
    lengths = L[: e - 1] + (ratio * L[e - 1],) + L[e:] + ((1 - ratio) * L[e - 1],)
    return MarkedMetricGraph(graph, marking, lengths)


# -- back-tracking inequality checks ----------------------------------------


@_frozen
class BacktrackCheck:
    name: str
    deviation: Fraction
    bound: Fraction

    @property
    def slack(self) -> Fraction:
        return self.bound - self.deviation

    @property
    def holds(self) -> bool:
        return self.slack >= 0


@_frozen
class BacktrackReport:
    constant: Fraction
    pieces: int
    checks: tuple[BacktrackCheck, ...]

    @property
    def min_slack(self) -> Fraction:
        return min(c.slack for c in self.checks)

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def lemma_ll_check(
    M: MarkedMetricGraph, parts: Sequence[Word], C: Fraction | None = None
) -> BacktrackReport:
    """Check the back-tracking inequalities for a decomposition
    ``u = u_1 ... u_m`` that is freely reduced as written.

    With ``C`` at least the generator-displacement bound, the deviations
    below never exceed their budgets; each check reports its slack.

    * point displacement of u vs the sum over the pieces: budget 2mC;
    * if u is cyclically reduced: translation length of u vs its point
      displacement (budget 2C) and vs the displacement sum (budget 4mC);
    * if additionally every piece is cyclically reduced: translation
      length of u vs the sum of the pieces' translation lengths
      (budget 6mC).
    """
    if not parts:
        raise ValueError("need at least one piece")
    rank = M.rank
    for u in parts:
        if u.rank != rank:
            raise ValueError("rank mismatch")
        if u.is_identity:
            raise ValueError("pieces must be nontrivial")
    total = Word(rank)
    for u in parts:
        total = total * u
    if len(total) != sum(len(u) for u in parts):
        raise ValueError("decomposition is not freely reduced as written")
    bbt = bbt_upper_bound(M)
    C = bbt if C is None else _check_fraction(C)
    if C < bbt:
        raise ValueError(f"C={C} is below the generator-displacement bound {bbt}")

    m = len(parts)
    disp_sum = sum((M.point_displacement(u) for u in parts), Fraction(0))
    disp_total = M.point_displacement(total)
    checks = [
        BacktrackCheck("point_vs_piece_sum", abs(disp_total - disp_sum), 2 * m * C)
    ]

    def _cyc_reduced(w: Word) -> bool:
        return bool(w.letters) and w.letters[0] != -w.letters[-1]

    if _cyc_reduced(total):
        tl = translation_length(M, total)
        checks.append(BacktrackCheck("length_vs_point", abs(tl - disp_total), 2 * C))
        checks.append(
            BacktrackCheck("length_vs_piece_sum", abs(tl - disp_sum), 4 * m * C)
        )
        if all(_cyc_reduced(u) for u in parts):
            tl_sum = sum((translation_length(M, u) for u in parts), Fraction(0))
            checks.append(
                BacktrackCheck("length_vs_piece_lengths", abs(tl - tl_sum), 6 * m * C)
            )
    return BacktrackReport(C, m, tuple(checks))


# -- JSON --------------------------------------------------------------------
#
# {"vertices": [...],
#  "edges": [{"id", "inverse", "from", "to", "length"}, ...],   # both orientations
#  "marking": {"base", "generator_loops": [[edge ids], ...],
#              "edge_words": {id: [signed ints], ...}, "spanning_tree": [ids]}}


def marked_graph_to_json_obj(M: MarkedMetricGraph) -> dict:
    g, mk = M.graph, M.marking
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": g.name(e), "inverse": g.name(-e), "from": g.initial(e), "to": g.terminal(e),
             "length": str(M.edge_length(e))}
            for k in g.positive_edges
            for e in (k, -k)
        ],
        "marking": {
            "base": mk.base,
            "generator_loops": [[g.name(e) for e in loop] for loop in mk.generator_loops],
            "edge_words": {
                g.edge_names[k - 1]: list(mk.edge_words[k - 1].letters)
                for k in g.positive_edges
            },
            "spanning_tree": sorted(g.edge_names[k - 1] for k in mk.spanning_tree),
        },
    }


def _edge_numbers(signed: Mapping[str, int], names, where: str) -> EdgePath:
    """The signed edge numbers of the edge ``names`` read at ``where``."""
    try:
        return tuple(signed[name] for name in names)
    except KeyError as exc:
        raise ValueError(f"{where} {exc.args[0]!r} names no edge") from None


def marked_graph_from_json_obj(obj: Mapping) -> MarkedMetricGraph:
    records = list(obj["edges"])
    by_id = {}
    for rec in records:
        if rec["id"] in by_id:
            raise ValueError(f"duplicate edge id {rec['id']!r}")
        by_id[rec["id"]] = rec
    signed: dict[str, int] = {}
    names, inv_names, origins, termini, lengths = [], [], [], [], []
    for rec in records:
        if rec["id"] in signed:
            continue
        inv = by_id.get(rec["inverse"])
        if inv is None:
            raise ValueError(f"edge {rec['id']!r} has no inverse record")
        if inv["inverse"] != rec["id"] or inv["from"] != rec["to"] or inv["to"] != rec["from"]:
            raise ValueError(f"edges {rec['id']!r}/{inv['id']!r} are not a consistent pair")
        if _check_fraction(rec["length"]) != _check_fraction(inv["length"]):
            raise ValueError(f"lengths of {rec['id']!r} and {inv['id']!r} differ")
        k = len(names) + 1
        signed[rec["id"]] = k
        signed[inv["id"]] = -k
        names.append(rec["id"])
        inv_names.append(inv["id"])
        origins.append(rec["from"])
        termini.append(rec["to"])
        lengths.append(_check_fraction(rec["length"]))
    graph = SerreGraph(
        vertices=tuple(obj["vertices"]),
        edge_names=tuple(names),
        inverse_names=tuple(inv_names),
        origins=tuple(origins),
        termini=tuple(termini),
    )
    mk = obj["marking"]
    loops = tuple(_edge_numbers(signed, loop, "generator loop entry") for loop in mk["generator_loops"])
    rank = len(loops)
    words: dict[int, Word] = {}
    for edge_id, letters in mk["edge_words"].items():
        (e,) = _edge_numbers(signed, [edge_id], "edge_words key")
        w = reduce(letters, rank)
        w = w if e > 0 else w.inverse()
        if abs(e) in words and words[abs(e)] != w:
            raise ValueError(f"edge_words for {edge_id!r} contradict its inverse")
        words[abs(e)] = w
    if set(words) != set(graph.positive_edges):
        raise ValueError("edge_words must cover every edge pair")
    tree = _edge_numbers(signed, mk.get("spanning_tree", []), "spanning_tree entry")
    marking = Marking(
        base=mk["base"],
        generator_loops=loops,
        edge_words=tuple(words[k] for k in graph.positive_edges),
        spanning_tree=frozenset(map(abs, tree)),
    )
    return MarkedMetricGraph(graph, marking, tuple(lengths))
