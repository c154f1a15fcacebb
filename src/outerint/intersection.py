"""The intersection pairing between marked metric graphs and rational
currents, computed by two independent routes that must agree exactly.

Both routes read one input per term of the current, and nothing else
in common: the letters on a junction-free chart, else one axis period.
On a junction-free chart no two loops cancel where they meet unless
their letters do, so a cyclically reduced word's loops, end to end, are
its axis period, and the pairing is linear in the letter counts (the
cylinder formula on the rose's one-letter cylinders).  Route A sums the
chart's cached integer lengths, of each letter's loop or of each edge,
and folds each weight in by cross-multiplication; route B tallies the
letters or the edge crossings, weights them as integers over the lcm of
the weight denominators, expands each letter into the crossings of its
loop, and sums edge length (from ``M.lengths``, over their own lcm, in a
table the chart builds once for this route alone) times crossings, that
is, times the one-edge cylinder counts.  Each route makes
one ``Fraction`` at the end.  Both are exact rational arithmetic, so any
difference between them is a defect, not a rounding artefact: a mismatch
raises :class:`RouteDisagreement` instead of being averaged away.

Length functions that are not backed by a chart (for example limits
produced by iterating an automorphism) enter through
:class:`LengthFunctionOracle`, which may be approximate but must then
carry an explicit per-query error estimate.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence

from .currents import RationalCurrent
from .marked_graph import MarkedMetricGraph, translation_length
from .words import Automorphism, OuterintError, Word, _frozen, cyclic_length
from . import currents as _currents
from . import marked_graph as _marked_graph


class RouteDisagreement(OuterintError):
    """The two exact evaluation routes differ: an implementation bug."""

    exit_code = 3


# a dataclass while the bench self-tests ``dataclasses.replace`` it (ROADMAP item 1(a))
@dataclass(frozen=True)
class IntersectionReport:
    value: Fraction
    via_lengths: Fraction
    via_crossings: Fraction


def _edge_tally(period) -> Counter:
    """Route B's crossings of each positive edge by one axis period, or of
    each letter by the letters of a junction-free chart."""
    return Counter(map(abs, period))


def intersect_report(M: MarkedMetricGraph, mu: RationalCurrent) -> IntersectionReport:
    if M.rank != mu.rank:
        raise ValueError("rank mismatch")
    free = M._junction_free
    # route A: num / den; route B: crossings over the lcm D, lengths over the lcm E
    num, den, nums = 0, 1, M._letter_nums if free else M._length_nums
    D = lcm(*(weight.denominator for _, weight in mu.terms))
    crossings = Counter()
    for cw, weight in mu.terms:
        period = cw.letters if free else M.axis_period(cw)  # the one input of both routes
        n, d = weight.numerator, weight.denominator
        num, den = num * d + n * den * sum(map(nums.__getitem__, period)), den * d
        p = n * (D // d)
        for k, c in _edge_tally(period).items():
            crossings[k] += p * c
    # route B: each letter crosses its loop's edges; a standard rose's letters are its edges
    if free and M._loops:
        letters, crossings = crossings, Counter()
        for i, c in letters.items():
            for e in M._loops[i]:
                crossings[abs(e)] += c
    via_lengths = Fraction(num, den * M._length_den)
    E, q = M._crossing_lengths
    via_crossings = Fraction(sum(q[k - 1] * c for k, c in crossings.items()), D * E)
    if via_lengths != via_crossings:
        raise RouteDisagreement(
            f"length route {via_lengths} != crossing route {via_crossings}"
        )
    return IntersectionReport(via_lengths, via_lengths, via_crossings)


def intersect(M: MarkedMetricGraph, mu: RationalCurrent) -> Fraction:
    """Exact pairing of a chart with a rational current.

    Zero exactly when the current is zero, homogeneous in the lengths,
    linear in the current, and invariant when both sides are moved by the
    same automorphism.
    """
    return intersect_report(M, mu).via_lengths


@_frozen
class LengthFunctionOracle:
    """A translation length function given only as an evaluator.

    ``evaluate`` must vanish on the identity, be conjugacy invariant and
    power homogeneous; since the oracle may be a black box these are spot
    checked on request rather than provable at construction.  Approximate
    oracles (exact=False) should supply ``error_bound``.
    """

    evaluate: Callable[[Word], Fraction | float]
    exact: bool
    error_bound: Optional[Callable[[Word], float]] = None

    @classmethod
    def from_marked_graph(cls, M: MarkedMetricGraph) -> "LengthFunctionOracle":
        return cls(evaluate=lambda w: translation_length(M, w), exact=True)

    def spot_check(self, sample: Sequence[Word], rel_tol: float = 1e-6) -> None:
        """Raise if the oracle visibly fails the length-function laws on
        the sample (identity value, conjugacy invariance, homogeneity)."""

        def close(x, y) -> bool:
            if self.exact:
                return x == y
            return abs(float(x) - float(y)) <= rel_tol * (1 + abs(float(x)))

        for w in sample:
            if w.is_identity:
                if self.evaluate(w) != 0:
                    raise ValueError("oracle does not vanish on the identity")
                continue
            base = self.evaluate(w)
            u = Word(w.rank, (1,)) if w.letters[0] != -1 else Word(w.rank, (2,))
            if not close(self.evaluate(w.conjugate_by(u)), base):
                raise ValueError(f"oracle is not conjugacy invariant at {w}")
            if not close(self.evaluate(w ** 2), 2 * base):
                raise ValueError(f"oracle is not power homogeneous at {w}")


def intersect_oracle(oracle: LengthFunctionOracle, mu: RationalCurrent):
    """Pairing of an oracle-backed length function with a rational
    current: the weighted sum of oracle values over the terms (a finite
    sum, so no limit is involved).  Exactness follows the oracle: a
    ``Fraction`` weight times a float value is the float product."""
    return sum((weight * oracle.evaluate(cw.as_word()) for cw, weight in mu.terms), Fraction(0))


@_frozen
class EquivarianceReport:
    moved: Fraction
    original: Fraction

    @property
    def equal(self) -> bool:
        return self.moved == self.original


def equivariance_check(
    phi: Automorphism, M: MarkedMetricGraph, mu: RationalCurrent
) -> EquivarianceReport:
    """Evaluate the pairing before and after moving both arguments by
    ``phi``; the two exact values are reported, equality is the caller's
    assertion."""
    moved = intersect(_marked_graph.act(phi, M), _currents.act(phi, mu))
    original = intersect(M, mu)
    return EquivarianceReport(moved, original)


@_frozen
class ScalingReport:
    delta: Fraction
    empirical_modulus: Fraction
    a_priori_modulus: Fraction
    worst_word: Optional[Word]
    skipped_identities: int

    @property
    def holds(self) -> bool:
        return self.empirical_modulus <= self.a_priori_modulus


def scaling_modulus_experiment(
    M: MarkedMetricGraph,
    delta,
    sample: Sequence[Word],
    seed: int = 0,
) -> ScalingReport:
    """Perturb the chart twice and measure how translation lengths move.

    Each edge length of each perturbed copy is shifted by an exact
    rational amount of magnitude at most delta/2, so corresponding edges
    of the two copies differ by at most delta.  For every sampled word
    the length difference is then at most delta times the number of edge
    crossings, giving the a-priori modulus
    ``delta * max(crossings(w) / cyclic_length_A(w))`` which the measured
    modulus may not exceed; a violation raises.
    """
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    rng = random.Random(seed)

    def perturbed() -> MarkedMetricGraph:
        out = []
        for L in M.lengths:
            shift = delta * Fraction(rng.randint(-(2 ** 20), 2 ** 20), 2 ** 21)
            if L + shift <= 0:
                raise ValueError(f"perturbation makes edge length {L} nonpositive")
            out.append(L + shift)
        return _marked_graph.with_lengths(M, out)

    T1, T2 = perturbed(), perturbed()
    empirical = Fraction(0)
    ratio = Fraction(0)
    worst = None
    skipped = 0
    for w in sample:
        den = cyclic_length(w)
        if den == 0:
            skipped += 1
            continue
        gap = abs(translation_length(T1, w) - translation_length(T2, w)) / den
        crossings = len(_marked_graph.cyclic_reduce_path(M.word_to_path(w)))
        ratio = max(ratio, Fraction(crossings, den))
        if gap > empirical:
            empirical, worst = gap, w
    report = ScalingReport(
        delta=delta,
        empirical_modulus=empirical,
        a_priori_modulus=delta * ratio,
        worst_word=worst,
        skipped_identities=skipped,
    )
    if not report.holds:
        raise RouteDisagreement(
            f"empirical modulus {empirical} exceeds a-priori bound {report.a_priori_modulus}"
        )
    return report
