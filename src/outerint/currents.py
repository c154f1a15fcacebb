"""Rational geodesic currents as weighted sets of conjugacy classes.

A rational current is a finite nonnegative-rational combination of
counting currents.  Each stored term is keyed by a primitive cyclic word
(not a proper power), in canonical rotation, and normalised under
inversion: of a class and its inverse class only the smaller one in the
canonical order is kept.  This bakes the flip symmetry into the
representation, so ``counting_current(w) == counting_current(w^-1)``
holds by construction.

The pairing with a marked graph is through cylinder counts: the count of
an edge path ``v`` against a term counts occurrences of ``v`` and of
``v^-1`` per period of the bi-infinite axis line of the term's class,
positions taken cyclically (a pattern may wrap around the period
boundary, and does so repeatedly when the period is shorter than the
pattern).  This is the convention under which length-weighted one-edge
counts reproduce translation lengths exactly; the equality is enforced as
a cross-module invariant rather than assumed.

:func:`frequency_vector` computes the axis period of each term once and
counts every depth-``k`` path on it, rather than recomputing the periods
for each path as repeated :func:`cylinder_count` calls would.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .marked_graph import (
    EdgePath,
    MarkedMetricGraph,
    _check_fraction,
    inverse_path,
    is_reduced_path,
)
from .words import (
    Automorphism,
    CyclicWord,
    Word,
    _check_int,
    cyclic_reduce,
    flip_normalize,
    letter_sort_key,
    primitive_root,
)


def _normalize_terms(
    rank: int, raw: Iterable[tuple[CyclicWord, Fraction]]
) -> tuple[tuple[CyclicWord, Fraction], ...]:
    acc: dict[tuple[int, ...], tuple[CyclicWord, Fraction]] = {}
    for cw, weight in raw:
        if cw.rank != rank:
            raise ValueError("rank mismatch in current term")
        weight = Fraction(weight)
        if weight < 0:
            raise ValueError("current weights must be nonnegative")
        if weight == 0:
            continue
        root, mult = primitive_root(cw)
        root = flip_normalize(root)
        key = root.letters
        if key in acc:
            acc[key] = (root, acc[key][1] + mult * weight)
        else:
            acc[key] = (root, mult * weight)
    return tuple(sorted(acc.values(), key=lambda t: t[0].sort_key()))


@dataclass(frozen=True)
class RationalCurrent:
    """Finite sum of weighted counting currents; the empty sum is zero."""

    rank: int
    terms: tuple[tuple[CyclicWord, Fraction], ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 2:
            raise ValueError("rank must be >= 2")
        normalized = _normalize_terms(self.rank, self.terms)
        if normalized != tuple(self.terms):
            object.__setattr__(self, "terms", normalized)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def to_json_obj(self) -> dict:
        return {
            "rank": self.rank,
            "terms": [
                {"root": list(cw.letters), "weight": str(weight)}
                for cw, weight in self.terms
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RationalCurrent":
        rank = _check_int(obj["rank"], "rank")
        terms = []
        for t in obj["terms"]:
            root, _ = cyclic_reduce(Word(rank, tuple(t["root"])))
            if root is None:
                raise ValueError("current term root is the identity")
            terms.append((root, _check_fraction(t["weight"])))
        return cls(rank, tuple(terms))


def zero_current(rank: int) -> RationalCurrent:
    return RationalCurrent(rank)


def counting_current(w: Word) -> RationalCurrent:
    """The counting current of ``w``: weight m on the primitive root f
    when ``w`` is conjugate to ``f^m``."""
    root, _ = cyclic_reduce(w)
    if root is None:
        raise ValueError("the identity has no counting current")
    return RationalCurrent(w.rank, ((root, Fraction(1)),))


def add(mu: RationalCurrent, nu: RationalCurrent) -> RationalCurrent:
    if mu.rank != nu.rank:
        raise ValueError("rank mismatch")
    return RationalCurrent(mu.rank, mu.terms + nu.terms)


def scale(lam, mu: RationalCurrent) -> RationalCurrent:
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("scale factor must be nonnegative")
    return RationalCurrent(mu.rank, tuple((cw, lam * w) for cw, w in mu.terms))


def one_letter_mass(mu: RationalCurrent) -> Fraction:
    """Total weighted cyclic word length; equals the pairing with the
    unit rose and is the normalisation used for frequency vectors."""
    return sum((w * len(cw) for cw, w in mu.terms), Fraction(0))


def act(phi: Automorphism, mu: RationalCurrent) -> RationalCurrent:
    """Push a current forward: each class goes to the class of its image."""
    if phi.rank != mu.rank:
        raise ValueError("rank mismatch")
    # an automorphism sends nontrivial classes to nontrivial ones, so
    # every image has a root; the terms are normalised once, together
    return RationalCurrent(
        mu.rank,
        tuple((cyclic_reduce(phi.apply(cw.as_word()))[0], weight) for cw, weight in mu.terms),
    )


def occurrences_in_cycle(period: Sequence[int], pattern: Sequence[int]) -> int:
    """Occurrences of ``pattern`` in the bi-infinite repetition of
    ``period``, one per starting position within a single period."""
    p, k = len(period), len(pattern)
    if p == 0 or k == 0:
        raise ValueError("period and pattern must be nonempty")
    pattern = tuple(pattern)
    first = pattern[0]
    # every window starting in the first period fits, wrap-around included
    ext = tuple(period) * (1 + (k + p - 2) // p)
    count = 0
    i = -1
    try:
        while True:
            i = ext.index(first, i + 1, p)
            if ext[i : i + k] == pattern:
                count += 1
    except ValueError:  # no further start within the period
        return count


def cylinder_count(mu: RationalCurrent, M: MarkedMetricGraph, v: EdgePath) -> Fraction:
    """Measure of the two-sided cylinder of the reduced edge path ``v``."""
    if mu.rank != M.rank:
        raise ValueError("rank mismatch")
    v = tuple(v)
    if not v:
        raise ValueError("cylinder path must be nontrivial")
    if not is_reduced_path(M.graph, v):
        raise ValueError("cylinder path must be reduced")
    return _weighted_count([(M.axis_period(cw), weight) for cw, weight in mu.terms], v)


def _weighted_count(periods: Sequence[tuple[EdgePath, Fraction]], v: EdgePath) -> Fraction:
    """Cylinder count of ``v`` against (axis period, weight) pairs."""
    v_inv = inverse_path(v)
    return sum(
        (
            weight * (occurrences_in_cycle(period, v) + occurrences_in_cycle(period, v_inv))
            for period, weight in periods
        ),
        Fraction(0),
    )


def _path_sort_key(path: EdgePath) -> tuple[int, ...]:
    return tuple(map(letter_sort_key, path))


def enumerate_reduced_paths(
    graph, k: int, up_to_inversion: bool = True
) -> tuple[EdgePath, ...]:
    """All reduced edge paths of length ``k``, deterministically ordered.

    Since cylinder counts are inversion-invariant, each {path, inverse}
    pair is listed once by default.
    """
    if k < 1:
        raise ValueError("path length must be >= 1")
    paths: list[EdgePath] = []

    def extend(path: list[int]) -> None:
        if len(path) == k:
            paths.append(tuple(path))
            return
        for e in graph.oriented_edges():
            if e != -path[-1] and graph.initial(e) == graph.terminal(path[-1]):
                path.append(e)
                extend(path)
                path.pop()

    for e in graph.oriented_edges():
        extend([e])
    if up_to_inversion:
        paths = [p for p in paths if _path_sort_key(p) <= _path_sort_key(inverse_path(p))]
    return tuple(sorted(paths, key=_path_sort_key))


@dataclass(frozen=True)
class FrequencyVector:
    """Normalised cylinder counts over all depth-``k`` paths of a chart.

    Entries are exact rationals; the normalisation is the one-letter mass
    of the current, so the vector only depends on the projective class.
    """

    depth: int
    entries: tuple[tuple[EdgePath, Fraction], ...]
    mass: Fraction

    def as_dict(self) -> dict[EdgePath, Fraction]:
        return dict(self.entries)

    def sup_distance(self, other: "FrequencyVector") -> Fraction:
        if self.depth != other.depth:
            raise ValueError("depth mismatch")
        a, b = self.as_dict(), other.as_dict()
        if set(a) != set(b):
            raise ValueError("frequency vectors live on different path sets")
        return max(abs(a[p] - b[p]) for p in a)


def frequency_vector(mu: RationalCurrent, M: MarkedMetricGraph, k: int) -> FrequencyVector:
    """Cylinder count of every depth-``k`` path, divided by the one-letter
    mass.  Undefined (an error) for the zero current."""
    if mu.is_zero:
        raise ValueError("cannot normalise the zero current")
    if mu.rank != M.rank:
        raise ValueError("rank mismatch")
    mass = one_letter_mass(mu)
    periods = [(M.axis_period(cw), weight) for cw, weight in mu.terms]
    # the enumerated paths are reduced by construction, so unlike
    # cylinder_count nothing is re-checked per path
    entries = tuple(
        (path, _weighted_count(periods, path) / mass)
        for path in enumerate_reduced_paths(M.graph, k)
    )
    return FrequencyVector(k, entries, mass)
