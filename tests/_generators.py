"""Seeded random instances shared by the randomized test suites."""

from __future__ import annotations

import random
from fractions import Fraction

from outerint.currents import RationalCurrent, add, counting_current, scale, zero_current
from outerint.marked_graph import MarkedMetricGraph, act, rose, subdivide_edge
from outerint.words import Automorphism, Word, compose


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


def random_current(
    rng: random.Random, rank: int, max_terms: int = 3, max_word_len: int = 6
) -> RationalCurrent:
    mu = zero_current(rank)
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(1, max_word_len)
        w = random_reduced_word(rng, rank, length)
        if w.is_identity:
            continue
        mu = add(mu, scale(random_fraction(rng, 6, 6), counting_current(w)))
    if mu.is_zero:
        return counting_current(Word(rank, (1,)))
    return mu
