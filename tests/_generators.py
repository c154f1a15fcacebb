"""Seeded random instances shared by the randomized test suites."""

from __future__ import annotations

import random
from fractions import Fraction

from outerint.currents import RationalCurrent, add, counting_current, scale
from outerint.marked_graph import (
    MarkedMetricGraph,
    Marking,
    SerreGraph,
    act,
    inverse_path,
    marked_graph_from_json_obj,
    marked_graph_to_json_obj,
    rose,
    scale_lengths,
    subdivide_edge,
    with_lengths,
)
from outerint.words import Automorphism, CyclicWord, Word, compose


def random_reduced_word(rng: random.Random, rank: int, length: int) -> Word:
    letters: list[int] = []
    alphabet = [l for i in range(1, rank + 1) for l in (i, -i)]
    while len(letters) < length:
        l = rng.choice(alphabet)
        if letters and letters[-1] == -l:
            continue
        letters.append(l)
    return Word(rank, tuple(letters))


def random_cyclically_reduced_word(rng: random.Random, rank: int, length: int) -> Word:
    while True:
        w = random_reduced_word(rng, rank, length)
        if not w.letters or w.letters[0] != -w.letters[-1]:
            return w


def elementary_automorphisms(rank: int) -> list[Automorphism]:
    gens = [Word(rank, (i,)) for i in range(1, rank + 1)]
    autos: list[Automorphism] = []
    for i in range(rank):
        for j in range(rank):
            if i == j:
                continue
            images = list(gens)
            inverse = list(gens)
            images[i] = gens[i] * gens[j]
            inverse[i] = gens[i] * gens[j].inverse()
            autos.append(Automorphism(rank, tuple(images), tuple(inverse)))
    for i in range(rank):
        images = list(gens)
        images[i] = gens[i].inverse()
        autos.append(Automorphism(rank, tuple(images), tuple(images)))
    for i in range(rank):
        for j in range(i + 1, rank):
            images = list(gens)
            images[i], images[j] = gens[j], gens[i]
            autos.append(Automorphism(rank, tuple(images), tuple(images)))
    return autos


def random_automorphism(
    rng: random.Random, rank: int, max_factors: int = 3, max_image_len: int = 6
) -> Automorphism:
    """Composition of a few elementary moves, kept below the image-length
    budget (the last factor that would blow the budget is dropped)."""
    pool = elementary_automorphisms(rank)
    phi = Automorphism.identity(rank)
    for _ in range(rng.randint(0, max_factors)):
        candidate = compose(rng.choice(pool), phi)
        if max(len(w) for w in candidate.images + candidate.inverse_images) > max_image_len:
            break
        phi = candidate
    return phi


def random_fraction(rng: random.Random, max_num: int = 8, max_den: int = 8) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_marked_graph(rng: random.Random, rank: int) -> MarkedMetricGraph:
    """Rose with random rational lengths, optionally subdivided and
    twisted; covers roses, valence-two vertices and nontrivial markings."""
    M = rose(rank, [random_fraction(rng) for _ in range(rank)])
    for e in range(1, rank + 1):
        if rng.random() < 0.3:
            M = subdivide_edge(M, e, Fraction(rng.randint(1, 3), 4))
    if rng.random() < 0.5:
        M = act(random_automorphism(rng, rank), M)
    return M


def random_chart_of_each_kind(
    rng: random.Random, rank: int
) -> tuple[MarkedMetricGraph, MarkedMetricGraph, MarkedMetricGraph]:
    """A rose with random rational lengths, the same rose with one edge
    subdivided, and the subdivided rose re-marked by a nontrivial
    automorphism."""
    M = rose(rank, [random_fraction(rng) for _ in range(rank)])
    sub = subdivide_edge(M, rng.randint(1, rank), Fraction(rng.randint(1, 3), 4))
    phi = Automorphism.identity(rank)
    while phi == Automorphism.identity(rank):
        phi = random_automorphism(rng, rank)
    return M, sub, act(phi, sub)


def random_blown_up_chart(rng: random.Random, rank: int) -> MarkedMetricGraph:
    """A chart on the rose blown up at random vertices of valence >= 4,
    from once up to trivalent (2N - 3 times).  Every graph of Outer space
    arises this way (Culler-Vogtmann 1986), the theta and the barbell at
    rank 2 among them.  The blow-up edges span a tree, and petal ``i``
    reads ``a_i``.  Edges are numbered in random order, lengths are
    random, and half the charts are re-marked by ``act``."""
    ends = [[0, 0] for _ in range(rank)]  # [origin, terminus] of each edge, petals first
    for new in range(1, rng.randint(1, 2 * rank - 3) + 1):
        halves: dict[int, list] = {}
        for e, pair in enumerate(ends):
            for side, v in enumerate(pair):
                halves.setdefault(v, []).append((e, side))
        old = rng.choice([v for v, hs in halves.items() if len(hs) >= 4])
        moved = rng.sample(halves[old], rng.randint(2, len(halves[old]) - 2))
        for e, side in moved:
            ends[e][side] = new
        ends.append([old, new])
    order = rng.sample(range(len(ends)), len(ends))  # order[k - 1] is the blow-up index of edge k
    graph = SerreGraph(
        vertices=tuple(f"v{i}" for i in range(len(ends) - rank + 1)),
        edge_names=tuple(chr(ord("a") + k) for k in range(len(ends))),
        inverse_names=tuple(chr(ord("A") + k) for k in range(len(ends))),
        origins=tuple(f"v{ends[e][0]}" for e in order),
        termini=tuple(f"v{ends[e][1]}" for e in order),
    )
    tree = frozenset(k for k, e in enumerate(order, 1) if e >= rank)
    base = rng.choice(graph.vertices)
    paths = graph._search(base, [s * k for k in tree for s in (1, -1)])
    petals = sorted((e, k) for k, e in enumerate(order, 1) if e < rank)
    marking = Marking(
        base=base,
        generator_loops=tuple(
            paths[graph.initial(k)] + (k,) + inverse_path(paths[graph.terminal(k)]) for _, k in petals
        ),
        edge_words=tuple(Word(rank, (e + 1,) if e < rank else ()) for e in order),
        spanning_tree=tree,
    )
    M = MarkedMetricGraph(graph, marking, tuple(random_fraction(rng) for _ in order))
    return act(random_automorphism(rng, rank), M) if rng.random() < 0.5 else M


def random_current(
    rng: random.Random, rank: int, max_terms: int = 3, max_word_len: int = 6
) -> RationalCurrent:
    mu = RationalCurrent(rank)
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(1, max_word_len)
        w = random_reduced_word(rng, rank, length)
        if w.is_identity:
            continue
        mu = add(mu, scale(random_fraction(rng, 6, 6), counting_current(w)))
    if mu.is_zero:
        return counting_current(Word(rank, (1,)))
    return mu


def awkward_fractions(rng: random.Random, count: int) -> list[Fraction]:
    """Positive rationals over pairwise coprime denominators, one of which
    is 2^100 (about 10^30)."""
    dens = rng.sample([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41], count)
    dens[rng.randrange(count)] = 2 ** 100
    return [Fraction(rng.randint(1, 3 * d), d) for d in dens]


def charts_with_awkward_lengths(rng: random.Random, rank: int) -> list[MarkedMetricGraph]:
    """One chart given awkward lengths by ``with_lengths``, and the charts
    that ``scale_lengths``, ``subdivide_edge``, ``act`` and a JSON round
    trip derive from it."""
    M = random_marked_graph(rng, rank)
    N = with_lengths(M, awkward_fractions(rng, M.graph.num_edges))
    sub = subdivide_edge(N, rng.randint(1, N.graph.num_edges), Fraction(rng.randint(1, 6), 7))
    moved = act(random_automorphism(rng, rank), sub)
    return [
        N,
        scale_lengths(N, Fraction(rng.randint(1, 10 ** 6), 2 ** 61 - 1)),
        sub,
        moved,
        marked_graph_from_json_obj(marked_graph_to_json_obj(moved)),
    ]


def awkward_current(rng: random.Random, rank: int, terms: int = 3) -> RationalCurrent:
    """Cyclic words of 1-12 letters with weights from :func:`awkward_fractions`."""
    words = [random_cyclically_reduced_word(rng, rank, rng.randint(1, 12)) for _ in range(terms)]
    weights = awkward_fractions(rng, terms)
    return RationalCurrent(
        rank, tuple((CyclicWord(rank, w.letters), x) for w, x in zip(words, weights))
    )
