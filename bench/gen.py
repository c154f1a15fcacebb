"""Seeded input generators owned by the benchmark.

Everything is plain letter tuples and rationals; the workloads turn them
into program objects through the library's public constructors.  Each
generator draws from a ``random.Random`` seeded with a string naming the
workload, the run seed and the round, so the same seed always gives the
same inputs and no two rounds share a stream.
"""

from __future__ import annotations

import random
from fractions import Fraction

from refs import cyclic_core, free_reduce, inverse, substitute


def rng_for(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def alphabet(rank: int) -> list[int]:
    return [s * i for i in range(1, rank + 1) for s in (1, -1)]


def reduced_word(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    out: list[int] = []
    letters = alphabet(rank)
    while len(out) < length:
        l = rng.choice(letters)
        if not out or out[-1] != -l:
            out.append(l)
    return tuple(out)


def cyclic_word(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    """A cyclically reduced word of the given length (>= 1)."""
    while True:
        w = reduced_word(rng, rank, length)
        if len(w) < 2 or w[0] != -w[-1]:
            return w


def positive_word(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, rank) for _ in range(length))


def fraction(rng: random.Random, top: int = 9) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, top))


def elementary(rng: random.Random, rank: int, kinds=range(4)) -> tuple[list, list]:
    """A random Nielsen move as (images, inverse images); kinds 0 and 1 are
    the transvections, 2 an inversion, 3 a swap."""
    gens = [(i,) for i in range(1, rank + 1)]
    images, inv = list(gens), list(gens)
    i, j = rng.sample(range(rank), 2)
    kind = rng.choice(kinds)
    s = rng.choice((1, -1))
    b = (s * (j + 1),)
    if kind == 0:  # a_i -> a_i b
        images[i], inv[i] = gens[i] + b, gens[i] + inverse(b)
    elif kind == 1:  # a_i -> b a_i
        images[i], inv[i] = b + gens[i], inverse(b) + gens[i]
    elif kind == 2:  # a_i -> a_i^-1
        images[i] = inv[i] = inverse(gens[i])
    else:  # swap a_i and a_j
        images[i], images[j] = gens[j], gens[i]
        inv = list(images)
    return images, inv


def automorphism_data(rng: random.Random, rank: int, moves: int, kinds=range(4)) -> tuple[tuple, tuple]:
    """Composition of ``moves`` Nielsen moves as (images, inverse images)."""
    images = [(i,) for i in range(1, rank + 1)]
    inv = list(images)
    for _ in range(moves):
        e_img, e_inv = elementary(rng, rank, kinds)
        # new = e after old: images e(old(a_i)); inverse old^-1(e^-1(a_i))
        images = [substitute(e_img, w) for w in images]
        inv = [substitute(inv, w) for w in e_inv]
    return tuple(images), tuple(inv)


def iterate(images, word, n: int, cap: int) -> list[tuple[int, ...]]:
    """``[w, phi(w), ...]`` up to ``n`` images, stopping before the first
    image longer than ``cap``."""
    out = [free_reduce(word)]
    for _ in range(n):
        nxt = substitute(images, out[-1])
        if len(nxt) > cap:
            break
        out.append(nxt)
    return out


def cyclic_class(letters) -> tuple[int, ...]:
    """The least rotation of the cyclic core: one key per conjugacy class."""
    core = cyclic_core(letters)
    return min((core[i:] + core[:i] for i in range(len(core))), default=core)
