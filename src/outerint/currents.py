"""Rational geodesic currents as weighted sets of conjugacy classes.

A rational current is a finite nonnegative-rational combination of
counting currents.  Each stored term is keyed by a primitive cyclic word
(not a proper power), in canonical rotation, and normalised under
inversion: of a class and its inverse class only the smaller one in the
canonical order is kept.  This bakes the flip symmetry into the
representation, so ``counting_current(w) == counting_current(w^-1)``
holds by construction.

The public constructor and :meth:`RationalCurrent.from_json_obj`
normalise and check every term; currents derived from normal ones
(:func:`counting_current`, :func:`add`, :func:`scale`, :func:`act` and
the splitting graphs' minted witnesses) are built by the trusted
``RationalCurrent._make``, which takes its terms as they are.

The pairing with a marked graph is through cylinder counts: the count of
an edge path ``v`` against a term counts occurrences of ``v`` and of
``v^-1`` per period of the bi-infinite axis line of the term's class,
positions taken cyclically (a pattern may wrap around the period
boundary, and does so repeatedly when the period is shorter than the
pattern).  This is the convention under which length-weighted one-edge
counts reproduce translation lengths exactly; the equality is enforced as
a cross-module invariant rather than assumed.

:func:`cylinder_count` and :func:`frequency_vector` share one window
counter, which counts every window of each term's axis period in one
pass, so each path is one lookup, and releases the last tally when the
count returns; a standard-marked rose reads a word as its own edge path,
and a reduced path is not re-reduced.  Counts are summed as integers
over the lcm of the weight denominators.  One integer formula,
:func:`_row_gap`, takes the sup distance of two rows of counts over their
masses: :meth:`FrequencyVector.sup_distance` on the vectors' numerators,
``dynamics.iwip_rows`` on its iterates' rows, which become no vector.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
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
    _frozen,
    conjugacy_class,
    cyclic_reduce,
    flip_normalize,
    letter_sort_key,
    primitive_root,
)


def _term_key(term: tuple[CyclicWord, Fraction]) -> tuple[int, tuple[int, ...]]:
    return term[0].sort_key()


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
    return tuple(sorted(acc.values(), key=_term_key))


@_frozen
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

    @classmethod
    def _make(cls, rank: int, terms: tuple[tuple[CyclicWord, Fraction], ...]) -> "RationalCurrent":
        """Trusted: positive weights on distinct primitive, flip-normalised
        roots in sort-key order, derived from validated values."""
        mu = object.__new__(cls)
        object.__setattr__(mu, "rank", rank)
        object.__setattr__(mu, "terms", terms)
        return mu

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
            root = conjugacy_class(t["root"], rank)
            if root is None:
                raise ValueError("current term root is the identity")
            terms.append((root, _check_fraction(t["weight"])))
        return cls(rank, tuple(terms))


def counting_current(w: Word) -> RationalCurrent:
    """The counting current of ``w``: weight m on the primitive root f
    when ``w`` is conjugate to ``f^m``."""
    cw, _ = cyclic_reduce(w)
    if cw is None:
        raise ValueError("the identity has no counting current")
    return _class_current(flip_normalize(cw))


def _class_current(cw: CyclicWord) -> RationalCurrent:
    """The counting current of a flip-normalised class, whose primitive
    root, a prefix of it, is canonical and flip-normalised too."""
    root, m = primitive_root(cw)
    return RationalCurrent._make(cw.rank, ((root, Fraction(m)),))


def add(mu: RationalCurrent, nu: RationalCurrent) -> RationalCurrent:
    """The sum, merging the two sorted term lists (on two sorted runs,
    ``sorted`` is one linear merge)."""
    if mu.rank != nu.rank:
        raise ValueError("rank mismatch")
    terms: list[tuple[CyclicWord, Fraction]] = []
    for cw, weight in sorted(mu.terms + nu.terms, key=_term_key):
        if terms and terms[-1][0].letters == cw.letters:
            weight += terms.pop()[1]
        terms.append((cw, weight))
    return RationalCurrent._make(mu.rank, tuple(terms))


def scale(lam, mu: RationalCurrent) -> RationalCurrent:
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("scale factor must be nonnegative")
    if lam == 0:
        return RationalCurrent._make(mu.rank, ())
    return RationalCurrent._make(mu.rank, tuple((cw, lam * w) for cw, w in mu.terms))


def one_letter_mass(mu: RationalCurrent) -> Fraction:
    """Total weighted cyclic word length; equals the pairing with the
    unit rose and is the normalisation used for frequency vectors."""
    return sum((w * len(cw) for cw, w in mu.terms), Fraction(0))


def act(phi: Automorphism, mu: RationalCurrent) -> RationalCurrent:
    """Push a current forward: each class goes to the class of its image."""
    if phi.rank != mu.rank:
        raise ValueError("rank mismatch")
    # an automorphism sends distinct primitive classes, up to inversion, to
    # distinct primitive classes: each image is only flip-normalised
    terms = [(flip_normalize(cyclic_reduce(phi.apply(cw.as_word()))[0]), weight)
             for cw, weight in mu.terms]
    return RationalCurrent._make(mu.rank, tuple(sorted(terms, key=_term_key)))


def occurrences_in_cycle(period: Sequence[int], pattern: Sequence[int]) -> int:
    """Occurrences of ``pattern`` in the bi-infinite repetition of
    ``period``, one per starting position within a single period.

    >>> occurrences_in_cycle((2, 1, 1, 2, 1), (1, 2, 1))  # overlapping, one wraps
    2
    """
    if not period or not pattern:
        raise ValueError("period and pattern must be nonempty")
    return _windows(tuple(period), len(pattern))[tuple(pattern)]


_last_windows: tuple = (None, 0, None)  # (period, k, tally) of the last lookup


def _windows(period: tuple[int, ...], k: int) -> Counter:
    """:func:`_cyclic_windows` of ``period``.  Read it only through ``[]``:
    a missing window counts 0 and is not inserted.  The last tally is
    kept, keyed on the identity of its period, which it holds so that the
    identity is not reused: a lookup hashes no long period (a list comes
    copied, so it never hits)."""
    global _last_windows
    last, last_k, tally = _last_windows
    if period is not last or k != last_k:
        tally = _cyclic_windows(period, k)
        _last_windows = (period, k, tally)
    return tally


def _cyclic_windows(period: tuple[int, ...], k: int) -> Counter:
    """Every length-``k`` window starting in ``period``, wrap-around
    included (repeatedly when the period is shorter), counted in one pass."""
    p = len(period)
    ext = period * (1 + (k + p - 2) // p)
    return Counter(zip(*(ext[i : i + p] for i in range(k))))


def cylinder_count(mu: RationalCurrent, M: MarkedMetricGraph, v: EdgePath) -> Fraction:
    """Measure of the two-sided cylinder of the reduced edge path ``v``."""
    if mu.rank != M.rank:
        raise ValueError("rank mismatch")
    v = tuple(v)
    if not v:
        raise ValueError("cylinder path must be nontrivial")
    if not is_reduced_path(M.graph, v):
        raise ValueError("cylinder path must be reduced")
    D, weights = _numerators([weight for _, weight in mu.terms])
    periods = (M.axis_period(cw) for cw, _ in mu.terms)
    return Fraction(_window_counts(zip(periods, weights), [(v, inverse_path(v))])[0], D)


def _window_counts(periods: Iterable[tuple[EdgePath, int]], pairs: Sequence[tuple]) -> list[int]:
    """Cylinder count of each path of the (path, inverse) ``pairs``
    against (axis period, integer weight) pairs.  Periods are outer, so
    the one-entry window memo walks each period once."""
    global _last_windows
    counts = [0] * len(pairs)
    for period, w in periods:
        counts = [
            c + w * (occurrences_in_cycle(period, v) + occurrences_in_cycle(period, v_inv))
            for c, (v, v_inv) in zip(counts, pairs)
        ]
    _last_windows = (None, 0, None)  # no later period is looked up: release the last one
    return counts


def _path_sort_key(path: EdgePath) -> tuple[int, ...]:
    return tuple(map(letter_sort_key, path))


@lru_cache(maxsize=None)
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

    # oriented_edges() is in sort-key order, so the walk lists paths sorted
    for e in graph.oriented_edges():
        extend([e])
    if up_to_inversion:
        paths = [p for p in paths if _path_sort_key(p) <= _path_sort_key(inverse_path(p))]
    return tuple(paths)


@lru_cache(maxsize=None)
def _path_pairs(graph, k: int) -> tuple[tuple[EdgePath, EdgePath], ...]:
    """Each path of :func:`enumerate_reduced_paths` with its inverse."""
    return tuple((v, inverse_path(v)) for v in enumerate_reduced_paths(graph, k))


@_frozen
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
        return _row_gap(_numerators(list(a.values())), _numerators([b[p] for p in a]))


def _row_gap(a: tuple[int, Sequence[int]], b: tuple[int, Sequence[int]]) -> Fraction:
    """Sup distance of the rows of integer counts ``na / da``, ``nb / db``."""
    (da, na), (db, nb) = a, b
    return Fraction(max(abs(x * db - y * da) for x, y in zip(na, nb)), da * db)


def _numerators(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm ``d`` of the denominators of ``values`` and their
    numerators over ``d``, so that sums and differences are integers."""
    d = math.lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


def frequency_vector(mu: RationalCurrent, M: MarkedMetricGraph, k: int) -> FrequencyVector:
    """Cylinder count of every depth-``k`` path, divided by the one-letter
    mass.  Undefined (an error) for the zero current."""
    if mu.is_zero:
        raise ValueError("cannot normalise the zero current")
    if mu.rank != M.rank:
        raise ValueError("rank mismatch")
    D, weights = _numerators([weight for _, weight in mu.terms])
    periods = (M.axis_period(cw) for cw, _ in mu.terms)
    return _frequencies(M, k, zip(periods, weights), one_letter_mass(mu), D)


def _frequencies(M: MarkedMetricGraph, k: int, periods: Iterable[tuple[EdgePath, int]],
                 mass: Fraction, D: int = 1) -> FrequencyVector:
    """Depth-``k`` frequency vector of (axis period, integer weight over
    ``D``) pairs of one-letter mass ``mass``.  No period needs a normal
    form: rotation and inversion change no count, and the windows of
    ``f^m`` are ``m`` times those of ``f``, as is its mass."""
    pairs = _path_pairs(M.graph, k)  # reduced, so none is re-checked
    num, den = mass.denominator, D * mass.numerator
    counts = _window_counts(periods, pairs)
    entries = tuple((v, Fraction(c * num, den)) for (v, _), c in zip(pairs, counts))
    return FrequencyVector(k, entries, mass)
