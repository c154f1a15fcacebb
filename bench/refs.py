"""Reference computations the benchmark checks the program's outputs against.

Every function here works on plain letter and edge tuples and takes none
of the program's routes: free reduction is a stack over concatenated
generator loops, translation lengths come from the Culler-Morgan identity
||g|| = d(x, g^2 x) - d(x, g x) (no cyclic reduction of edge paths),
frequencies come from one pass of cyclic window counting, iterate lengths
of positive substitutions from integer matrix powers, and the dominant
root from exact bisection of the characteristic polynomial.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Sequence


class CheckFailure(Exception):
    """An output of the program disagrees with its reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# -- words ---------------------------------------------------------------------


def free_reduce(seq: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(seq: Sequence[int]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(seq))


def substitute(images: Sequence[Sequence[int]], word: Sequence[int]) -> tuple[int, ...]:
    """Image of ``word`` under the endomorphism a_i -> images[i-1], reduced."""
    out: list[int] = []
    for l in word:
        out.extend(images[l - 1] if l > 0 else inverse(images[-l - 1]))
    return free_reduce(out)


def cyclic_core(letters: Sequence[int]) -> tuple[int, ...]:
    w = free_reduce(letters)
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return w[lo:hi]


# -- charts --------------------------------------------------------------------


def chart_path(loops: Sequence[Sequence[int]], word: Sequence[int]) -> tuple[int, ...]:
    """Reduced edge path of ``word`` read through the generator loops."""
    out: list[int] = []
    for l in word:
        out.extend(loops[l - 1] if l > 0 else inverse(loops[-l - 1]))
    return free_reduce(out)


def path_weight(path: Sequence[int], lengths: Sequence[Fraction]) -> Fraction:
    counts = Counter(abs(e) for e in path)
    return sum((lengths[e - 1] * c for e, c in counts.items()), Fraction(0))


def chart_length(
    loops: Sequence[Sequence[int]], lengths: Sequence[Fraction], word: Sequence[int]
) -> Fraction:
    """Translation length by Culler-Morgan: d(x, g^2 x) - d(x, g x)."""
    once = path_weight(chart_path(loops, word), lengths)
    twice = path_weight(chart_path(loops, tuple(word) + tuple(word)), lengths)
    return twice - once


def pairing(
    loops: Sequence[Sequence[int]],
    lengths: Sequence[Fraction],
    terms: Sequence[tuple[Sequence[int], Fraction]],
) -> Fraction:
    return sum((w * chart_length(loops, lengths, root) for root, w in terms), Fraction(0))


# -- windows on the unit rose ----------------------------------------------------


def pair_key(window: tuple[int, ...]) -> tuple[int, ...]:
    inv = inverse(window)
    return min(window, inv)


def window_frequencies(letters: Sequence[int], k: int) -> tuple[dict, int]:
    """Cyclic length-``k`` windows of the cyclic core of ``letters``, with a
    window and its inverse counted together; returns (counts, length)."""
    core = cyclic_core(letters)
    n = len(core)
    expect(n > 0, "window counting needs a nontrivial class")
    reps = -(-(n + k) // n)
    doubled = core * reps
    counts = Counter(pair_key(doubled[i : i + k]) for i in range(n))
    return counts, n


def frequency_entry(counts: dict, n: int, path: Sequence[int]) -> Fraction:
    return Fraction(counts.get(pair_key(tuple(path)), 0), n)


def current_frequencies(terms: Sequence[tuple[Sequence[int], Fraction]], k: int) -> dict:
    """Frequency of each window class for a weighted sum of classes."""
    total: Counter = Counter()
    mass = Fraction(0)
    for letters, weight in terms:
        counts, n = window_frequencies(letters, k)
        for p, c in counts.items():
            total[p] += weight * c
        mass += weight * n
    return {p: Fraction(c) / mass for p, c in total.items()}


def reduced_path_count(rank: int, k: int) -> int:
    """Reduced words of length k on a rank-N rose, up to inversion."""
    return (2 * rank) * (2 * rank - 1) ** (k - 1) // 2


def sup_distance(a: tuple[dict, int], b: tuple[dict, int]) -> Fraction:
    (ca, na), (cb, nb) = a, b
    return max(abs(Fraction(ca.get(p, 0), na) - Fraction(cb.get(p, 0), nb)) for p in set(ca) | set(cb))


# -- positive substitutions and the dominant root ---------------------------------


def transition_matrix(images: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(images)
    a = [[0] * n for _ in range(n)]
    for j, img in enumerate(images):
        for l in img:
            a[abs(l) - 1][j] += 1
    return a


def letter_counts(rank: int, word: Sequence[int]) -> list[int]:
    v = [0] * rank
    for l in word:
        v[abs(l) - 1] += 1
    return v


def power_lengths(a: Sequence[Sequence[int]], v: Sequence[int], n: int) -> list[int]:
    """Total letter counts of A^j v for j = 0..n."""
    out = [sum(v)]
    for _ in range(n):
        v = [sum(row[j] * v[j] for j in range(len(v))) for row in a]
        out.append(sum(v))
    return out


def char_poly(a: Sequence[Sequence[int]]) -> list[Fraction]:
    """Coefficients c_0..c_n (c_n = 1) of det(xI - A), by Faddeev-LeVerrier."""
    n = len(a)
    A = [[Fraction(x) for x in row] for row in a]
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(A[i][t] * m[t][j] for t in range(n)) + coeffs[n - k + 1] * ident[i][j]
              for j in range(n)] for i in range(n)]
        am = [[sum(A[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        coeffs[n - k] = -sum(am[i][i] for i in range(n)) / k
    return coeffs


def dominant_root(a: Sequence[Sequence[int]], steps: int = 90) -> tuple[Fraction, Fraction]:
    """Exact bracket of the largest real root of det(xI - A)."""
    c = char_poly(a)

    def p(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for coeff in reversed(c):
            acc = acc * x + coeff
        return acc

    hi = 1 + max(abs(x) for x in c[:-1])  # Cauchy bound: p > 0 beyond it
    lo = hi
    while p(lo) > 0:
        lo -= Fraction(1, 64)
    lo_hi = lo + Fraction(1, 64)
    for _ in range(steps):
        mid = (lo + lo_hi) / 2
        if p(mid) > 0:
            lo_hi = mid
        else:
            lo = mid
    return lo, lo_hi


# -- splittings ---------------------------------------------------------------------


def splitting_length(spec: tuple, word: Sequence[int]) -> int:
    """Translation length on the Bass-Serre tree of ``spec`` =
    (kind, subset, stable, twist inverse images or None), by counting
    syllables of the untwisted cyclic core."""
    kind, subset, stable, untwist = spec
    if untwist is not None:
        word = substitute(untwist, word)
    core = cyclic_core(word)
    if kind == "loop":
        return sum(1 for l in core if abs(l) == stable)
    inside = [abs(l) in subset for l in core]
    if all(inside) or not any(inside):
        return 0
    return sum(1 for i in range(len(inside)) if inside[i] != inside[i - 1])
