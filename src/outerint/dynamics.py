"""Graph self-maps, transition matrices and the limit diagnostics for
exponentially growing automorphisms.

A :class:`GraphMap` is user-supplied data: a self-map of a marked graph
together with the automorphism it induces, checked for consistency at
construction (endpoints, reduced images, agreement on the fundamental
group).  Nothing here searches for a train track representative; the
count routes below only test whether the given rose map is one.

From the transition matrix the dominant eigenpair is found by exact
integer power iteration; the eigenvalue enclosure is the exact
Collatz-Wielandt bracket (min/max of the component ratios, exactly),
which contains the dominant eigenvalue of a primitive nonnegative matrix.

The limit objects themselves (stable trees and stable currents) never get
an exact representation: they are observed through normalised length
oracles, frequency vectors and the pairing sequence, each reporting
Cauchy-style diagnostics (successive differences, positive windows)
rather than claiming convergence.

One generator walks the orbit ``phi^n(g)`` (:func:`_orbit`), as
Bestvina-Handel read it through the edge images ``f^n(e)``: the images
``phi^j(x)`` of the letters ``g`` reaches are kept, each iterate joins a
few of these long reduced pieces, and the first iterate past the letter
budget raises :class:`WordLengthCapError`.

On a standard-marked rose, :func:`iwip_rows` reads every seed's table
off k-block counts that evolve linearly (:func:`_block_readings`,
:func:`_orbit_counts`), and builds no iterate.  Lengths and rows read
only cyclic cores, so the counts start at the seed's cyclic core; a
linear track from the seed itself counts the letters for the budget.
An iterate is cut at its illegal turns into legal pieces
(Bestvina-Handel): a piece is held as counts and its two end buffers,
and each step cancels at the cuts from the buffers alone.  Only where a
cancellation would reach past a buffer, or where the orbit cancels
under a map that is not a train track, does the table go back to row 0
on iterates, as tables on other charts do.  That route reads each
iterate's length and frequency row off one axis period as it is made,
and keeps none (:func:`_iterate_readings`).  Either row is integer
counts over the integer one-letter mass, compared by
``currents._row_gap``, the sup distance of frequency vectors.
:func:`pairing_estimate` reads the pairing column of such a table.  The
other diagnostics keep only the iterates they read: a vector reads one
of a few hundred letters, and the benchmark's wrap-around self-test
plants its bug in ``currents.occurrences_in_cycle``, which it must reach.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import mul
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from . import DEFAULT_WORD_CAP
from .currents import FrequencyVector, _cyclic_windows, _frequencies, _linear_windows, _path_pairs
from .currents import _row_gap, _window_counts
from .marked_graph import (
    EdgePath,
    MarkedMetricGraph,
    _edge_numbers,
    inverse_path,
    is_reduced_path,
    marked_graph_from_json_obj,
    marked_graph_to_json_obj,
    with_lengths,
)
from .words import Automorphism, OuterintError, Word, _concat, _cyclic_cut, _frozen, _letter_table
from .words import compose, cyclic_length

if TYPE_CHECKING:
    from .intersection import LengthFunctionOracle

MAX_PF_ITERATIONS = 100_000
_SPARE = 4  # letters each end of a piece holds past a window's K, for the cancellation at its joint


class NonPrimitiveMatrixError(OuterintError):
    """The transition matrix has no positive power: the map cannot carry
    an expanding irreducible structure."""


class ConvergenceError(OuterintError):
    pass


class WordLengthCapError(OuterintError):
    """An iterated image outgrew the configured letter budget; retry with
    a smaller iteration count or a larger cap."""


class _JunctionCancels(OuterintError):
    """A junction of an orbit cancels, so its block counts no longer read
    its iterates; :func:`iwip_rows` catches it."""


@_frozen
class GraphMap:
    """A self-map of a chart inducing a known automorphism.

    ``edge_images[k-1]`` is the reduced image path of positive edge ``k``;
    the image of ``-k`` is its reverse.  The base vertex must be fixed so
    that the induced map on the fundamental group can be compared with
    ``automorphism`` on the nose (all shipped fixtures are rose maps,
    which fix the unique vertex).
    """

    chart: MarkedMetricGraph
    vertex_map: tuple[tuple[str, str], ...]
    edge_images: tuple[EdgePath, ...]
    automorphism: Automorphism

    def __post_init__(self) -> None:
        g = self.chart.graph
        vmap = dict(self.vertex_map)
        if set(vmap) != set(g.vertices) or not set(vmap.values()) <= set(g.vertices):
            raise ValueError("vertex_map must map every vertex into the graph")
        if len(self.edge_images) != g.num_edges:
            raise ValueError("need one image path per positive edge")
        for k in g.positive_edges:
            img = self.edge_images[k - 1]
            if not img:
                raise ValueError(f"image of edge {g.name(k)} is trivial")
            if not is_reduced_path(g, img):
                raise ValueError(f"image of edge {g.name(k)} is not a reduced path")
            if g.initial(img[0]) != vmap[g.initial(k)] or g.terminal(img[-1]) != vmap[g.terminal(k)]:
                raise ValueError(f"image of edge {g.name(k)} has wrong endpoints")
        if self.automorphism.rank != self.chart.rank:
            raise ValueError("automorphism rank mismatch")
        base = self.chart.marking.base
        if vmap[base] != base:
            raise ValueError("the base vertex must be fixed by the map")
        object.__setattr__(self, "_images", _letter_table(self.edge_images))  # checked above
        for i in range(1, self.chart.rank + 1):
            loop = self.apply_to_path(self.chart.marking.generator_loops[i - 1])
            if self.chart.path_to_word(loop) != self.automorphism.images[i - 1]:
                raise ValueError(
                    f"map disagrees with the automorphism on generator a_{i}"
                )

    def apply_to_path(self, path: Sequence[int]) -> EdgePath:
        return tuple(_concat(self._images, path))

    @classmethod
    def on_rose(cls, M: MarkedMetricGraph, phi: Automorphism) -> "GraphMap":
        """The obvious map of a rose chart realising ``phi``: each petal
        is sent to the path spelling the image of its generator."""
        if len(M.graph.vertices) != 1:
            raise ValueError("on_rose needs a one-vertex chart")
        images = tuple(tuple(w.letters) for w in phi.images)
        return cls(
            chart=M,
            vertex_map=((M.graph.vertices[0], M.graph.vertices[0]),),
            edge_images=images,
            automorphism=phi,
        )


def compose_graph_maps(f: GraphMap, g: GraphMap) -> GraphMap:
    """The map ``f after g`` on a shared chart."""
    if f.chart is not g.chart and f.chart != g.chart:
        raise ValueError("graph maps live on different charts")
    fmap, gmap = dict(f.vertex_map), dict(g.vertex_map)
    return GraphMap(
        chart=f.chart,
        vertex_map=tuple((v, fmap[gmap[v]]) for v in f.chart.graph.vertices),
        edge_images=tuple(f.apply_to_path(p) for p in g.edge_images),
        automorphism=compose(f.automorphism, g.automorphism),
    )


@_frozen
class TransitionMatrix:
    """Nonnegative integer matrix of edge-crossing counts: entry (i, j)
    counts how often edge ``i+1`` or its reverse appears in the image of
    edge ``j+1``, so length vectors transform by left multiplication."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
            if any(x < 0 for x in row):
                raise ValueError("entries must be nonnegative")

    @property
    def size(self) -> int:
        return len(self.entries)

    def is_primitive(self) -> bool:
        """Some power is entrywise positive; by Wielandt's bound it is
        enough to look at exponents up to (n-1)^2 + 1."""
        n = self.size
        power = [[x > 0 for x in row] for row in self.entries]
        cols = list(zip(*power))
        for _ in range((n - 1) ** 2):
            if all(all(row) for row in power):
                return True
            power = [[any(p and c for p, c in zip(row, col)) for col in cols] for row in power]
        return all(all(row) for row in power)


def transition_matrix(f: GraphMap) -> TransitionMatrix:
    m = f.chart.graph.num_edges
    return TransitionMatrix(tuple(zip(*(_letter_counts(image, m) for image in f.edge_images))))


# a dataclass while the bench self-tests ``dataclasses.replace`` it (ROADMAP item 1(a))
@dataclass(frozen=True)
class PFResult:
    """Dominant eigenpair of a primitive transition matrix.

    ``eigenvector`` is the exact final iterate of the integer power
    iteration, normalised to sum 1.  Its Collatz-Wielandt ratios bracket
    the dominant eigenvalue exactly; ``eigenvalue`` is the float nearest
    the bracket's midpoint and ``eigenvalue_bound`` is rounded up, so that
    ``eigenvalue +- eigenvalue_bound`` (taken exactly) contains the
    bracket and hence the eigenvalue.  ``residual`` is the float sup-norm
    of ``T^t v - mid * v`` for that vector and the exact midpoint.
    """

    eigenvalue: float
    eigenvalue_bound: float
    eigenvector: tuple[Fraction, ...]
    residual: float
    iterations: int


def _float_at_least(x: Fraction) -> float:
    f = float(x)
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


def pf_eigenpair(T: TransitionMatrix, tol: float = 1e-12) -> PFResult:
    """Left dominant eigenpair by exact integer power iteration.

    From ``v = 1`` the iteration sets ``v <- T^t v`` with Python integers
    and stops once the Collatz-Wielandt bracket ``min_j (T^t v)_j / v_j <=
    lambda <= max_j (T^t v)_j / v_j`` has half-width at most ``tol``.  The
    ratios are compared by cross-multiplication (``v`` stays positive, as a
    primitive matrix has no zero column), and the bracket is made into
    ``Fraction``s once, after the last step.  The returned vector satisfies
    ``sum_i T[i][j] v[i] ~ lambda v[j]``, i.e. it is the length vector
    stretched uniformly by the map.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if not T.is_primitive():
        raise NonPrimitiveMatrixError(
            "transition matrix is not primitive (no power is entrywise positive)"
        )
    columns = tuple(zip(*T.entries))
    p, q = (2 * Fraction(tol)).as_integer_ratio()
    v = [1] * T.size
    for it in range(1, MAX_PF_ITERATIONS + 1):
        w = [sum(map(mul, col, v)) for col in columns]
        il = ih = 0
        for j in range(1, len(v)):
            if w[j] * v[il] < w[il] * v[j]:
                il = j
            elif w[j] * v[ih] > w[ih] * v[j]:
                ih = j
        if (w[ih] * v[il] - w[il] * v[ih]) * q <= p * v[ih] * v[il]:
            break
        v = w
    else:
        raise ConvergenceError(f"power iteration did not converge in {MAX_PF_ITERATIONS} steps")
    lo, hi, total = Fraction(w[il], v[il]), Fraction(w[ih], v[ih]), sum(v)
    a, b = ((lo + hi) / 2).as_integer_ratio()
    lam = a / b
    return PFResult(
        eigenvalue=lam,
        eigenvalue_bound=_float_at_least(max(hi - Fraction(lam), Fraction(lam) - lo)),
        eigenvector=tuple(Fraction(x, total) for x in v),
        residual=max(abs(b * y - a * x) for x, y in zip(v, w)) / (b * total),
        iterations=it,
    )


def metric_from_pf(f: GraphMap, tol: float = 1e-12) -> MarkedMetricGraph:
    """Chart of ``f`` remetrised by the exact dominant length vector of
    :func:`pf_eigenpair`, normalised to total volume 1: the map stretches
    edge ``k`` by exactly the ``k``-th Collatz-Wielandt ratio, which lies
    in the eigenvalue enclosure."""
    return with_lengths(f.chart, pf_eigenpair(transition_matrix(f), tol=tol).eigenvector)


def eigenmetric_defect(f: GraphMap, M: MarkedMetricGraph, lam: float) -> float:
    """Largest deviation |length(f(e)) - lam * length(e)| over the edges."""
    return max(
        abs(float(M.path_length(f.edge_images[k - 1])) - lam * float(M.lengths[k - 1]))
        for k in M.graph.positive_edges
    )


def _orbit(phi: Automorphism, w: Word, n: int, cap: int) -> Iterator[Word]:
    """``w, phi(w), ..., phi^n(w)``, one at a time, raising
    :class:`WordLengthCapError` at the first iterate with more than
    ``cap`` letters; a caller keeps only the iterates it reads.

    ``table[x]`` is ``phi^j(x)`` for the signed letters ``x`` the orbit of
    ``w`` reaches, and ``phi^(j+1)(w)`` joins its pieces along ``phi(w)``;
    the next table joins them along each ``phi(x)``, and is built only
    when another iterate needs it.  So a step is a few junctions over long
    reduced pieces.  The tables start over from the current iterate,
    substituted letter by letter once, when the next table would hold more
    than 2N letters per letter of it, ``x`` and ``x^-1`` counted as one
    piece: letter images may outgrow the iterates (a -> ab, b -> bab fixes
    abAB), or iterates lag behind them (a -> b, b -> Ba sends BA to A)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if w.rank != phi.rank:
        raise ValueError("rank mismatch")
    images, reach, todo = phi._images, set(), list(w.letters)
    while todo:  # the letters of w, and those of the image of each letter reached
        x = todo.pop()
        if x not in reach:
            reach.add(x)
            todo.extend(images[x])
    counted = [x for x in reach if x > 0 or -x not in reach]  # the table of x^-1 is that of x inverted
    table: dict = {}
    yield w
    for j in range(1, n + 1):
        # the next table holds at most the pieces it joins
        if table and sum(len(table[y]) for x in counted for y in images[x]) <= 2 * phi.rank * len(w):
            table = {x: tuple(_concat(table, images[x])) for x in reach}  # tuples hold no spare slots
        else:
            table, phi_w = {x: (x,) for x in reach}, _concat(images, w.letters)
        w = Word._make(phi.rank, tuple(_concat(table, phi_w)))
        if len(w) > cap:
            raise WordLengthCapError(f"iterate {j} has more than {cap} letters; use a smaller n")
        yield w


def _axis_period(M: MarkedMetricGraph, w: Word) -> EdgePath:
    """One period of the axis of ``w`` in the tree of ``M``: the path of
    ``w`` comes back reduced, so only its cyclic cut is taken."""
    path = M.word_to_path(w)
    cut = _cyclic_cut(path)
    return path[cut : len(path) - cut]


def _deflated(length: Fraction, p_j: int, q_j: int) -> float:
    """The j-th iterate's exact chart ``length`` over ``lam^j = p_j / q_j``,
    rounded once: an orbit that does not grow reads 0 past a float's range."""
    return length.numerator * q_j / (length.denominator * p_j)


def stable_length_oracle(
    phi: Automorphism,
    M: MarkedMetricGraph,
    lam: float,
    n: int,
    cap: int = DEFAULT_WORD_CAP,
) -> LengthFunctionOracle:
    """Approximate length function of the repelling limit tree of ``phi``:
    the chart length of the n-th iterated image, deflated by ``lam^n``.

    The per-query error estimate is the gap to the (n-1)-st stage; it is a
    diagnostic, not a proven rate.
    """
    from .intersection import LengthFunctionOracle  # its only use here

    if n < 1:
        raise ValueError("n must be >= 1")
    p, q = lam.as_integer_ratio()

    def evaluate(w: Word) -> float:
        (last,) = deque(_orbit(phi, w, n, cap), maxlen=1)
        return _deflated(M._path_length(_axis_period(M, last)), p ** n, q ** n)

    def error_bound(w: Word) -> float:
        before, last = deque(_orbit(phi, w, n, cap), maxlen=2)
        a = _deflated(M._path_length(_axis_period(M, last)), p ** n, q ** n)
        b = _deflated(M._path_length(_axis_period(M, before)), p ** (n - 1), q ** (n - 1))
        return abs(a - b)

    return LengthFunctionOracle(evaluate=evaluate, exact=False, error_bound=error_bound)


def eigencurrent_approx(
    phi: Automorphism,
    g: Word,
    n: int,
    M: MarkedMetricGraph,
    k: int,
    cap: int = DEFAULT_WORD_CAP,
) -> FrequencyVector:
    """Depth-``k`` frequency vector of the n-th iterated counting current
    of the seed ``g``; successive vectors converging together for
    different seeds is the observable shadow of the attracting current."""
    if g.is_identity:
        raise ValueError("seed must be nontrivial")
    (image,) = deque(_orbit(phi, g, n, cap), maxlen=1)
    period = _axis_period(M, image)
    return _frequencies(M, k, [(period, 1)], Fraction(cyclic_length(image)))


@_frozen
class PairingReport:
    """The deflated pairing sequence lam^{-2m} * length of the 2m-th
    iterate, m = 1..n, with its positive window."""

    values: tuple[float, ...]
    window: tuple[float, float]

    @property
    def differences(self) -> tuple[float, ...]:
        return tuple(
            abs(b - a) for a, b in zip(self.values, self.values[1:])
        )

    @property
    def stays_positive(self) -> bool:
        return self.window[0] > 0


def pairing_estimate(
    phi: Automorphism,
    M: MarkedMetricGraph,
    lam: float,
    g: Word,
    n: int,
    cap: int = DEFAULT_WORD_CAP,
) -> PairingReport:
    """Estimate the pairing of the repelling tree with the attracting
    current along the even iterates of ``g``.  The sequence staying inside
    a window bounded away from 0 and infinity is the computable witness
    that the pairing does not vanish."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = iwip_rows(phi, M, lam, g, n, 1, cap)
    values = tuple(row.pairing_estimate for row in rows[1:])
    if None in values:  # name the first iterate over the cap; past n, only even ones are read
        j = next((r.n for r in rows if r.length_estimate is None), 2 * values.index(None) + 2)
        raise WordLengthCapError(f"iterate {f'{j - 1} or {j}' if j > n + 1 else j} has more than {cap} letters; "
                                 "use a smaller n")
    return PairingReport(values, (min(values), max(values)))


# a dataclass while the bench self-tests ``dataclasses.replace`` it (ROADMAP item 1(a))
@dataclass(frozen=True)
class IwipRow:
    """One diagnostic row; estimates are None when the iterate they need
    outgrew the letter budget (the breach is per cell, since the pairing
    column looks twice as deep as the others)."""

    n: int
    length_estimate: Optional[float]
    pairing_estimate: Optional[float]
    freq_delta: Optional[Fraction]


def iwip_rows(
    phi: Automorphism,
    M: MarkedMetricGraph,
    lam: float,
    g: Word,
    n_max: int,
    depth: int,
    cap: int = DEFAULT_WORD_CAP,
) -> list[IwipRow]:
    """Diagnostic table for one seed: deflated lengths, deflated even
    pairing sequence and sup gaps of successive integer frequency rows.

    On a standard-marked rose, every seed is read off k-block counts
    (:func:`_block_readings`), and builds no iterate, whether or not
    junctions of its orbit cancel.  Where the counts cannot read the
    orbit, the table starts over on iterates, which it measures once
    each, as they are made, keeping none (:func:`_iterate_readings`); so
    does every table on another chart."""
    if M.rank != phi.rank or g.rank != phi.rank:  # before the image table is read
        raise ValueError("rank mismatch")
    if g.is_identity:
        raise ValueError("seed must be nontrivial")
    if n_max < 0:
        raise ValueError("n must be >= 0")
    readings = None  # the block route's, if no junction cancels: row 0 makes them nonempty
    if M._loops is None:
        with suppress(_JunctionCancels):  # then the table starts over on iterates
            readings = list(_block_readings(phi, M, g, n_max, depth, cap))
    deflated: dict[int, float] = {}
    deltas: dict[int, Fraction] = {}
    p, q = lam.as_integer_ratio()
    prev, p_j, q_j, at = None, 1, 1, 0  # lam^at = p_j / q_j, carried from row to row
    for j, length, row in readings or _iterate_readings(phi, M, g, n_max, depth, cap):
        p_j, q_j, at = p_j * p ** (j - at), q_j * q ** (j - at), j
        deflated[j] = _deflated(length, p_j, q_j)
        if row is not None and prev is not None:
            deltas[j] = _row_gap(row, prev)
        prev = row
    return [
        IwipRow(n, deflated.get(n), deflated.get(2 * n), deltas.get(n)) for n in range(n_max + 1)
    ]


def _iterate_readings(phi: Automorphism, M: MarkedMetricGraph, g: Word, n_max: int, depth: int,
                      cap: int) -> Iterator[tuple]:
    """``(j, exact length, (mass, counts))`` of each iterate within ``cap``
    that a table reads, the row only up to ``n_max``, off one axis period."""
    pairs = _path_pairs(M.graph, depth)
    with suppress(WordLengthCapError):
        for j, w in enumerate(_orbit(phi, g, 2 * n_max, cap)):
            if j > n_max and j % 2:
                continue
            period = _axis_period(M, w)
            row = (cyclic_length(w), _window_counts([(period, 1)], pairs)) if j <= n_max else None
            yield j, M._path_length(period), row
            del period  # before the next, longer iterate is built


def _block_readings(phi: Automorphism, M: MarkedMetricGraph, g: Word, n_max: int, depth: int,
                    cap: int) -> Iterator[tuple]:
    """:func:`_iterate_readings` on a standard-marked rose, from counts
    alone.  The rows and lengths come from the cyclic ``K``-windows of
    the iterates' cyclic cores, ``K = max(depth, 2)``, stepped from the
    seed's cyclic core (:func:`_orbit_counts`).  A window starts at each
    letter, so ``sum(c)`` is the cyclic core's letters, the windows'
    first letters its length, and their first ``depth`` letters its
    ``depth``-windows.  The cap reads the letters of the reduced
    iterates themselves, conjugators included.  While the seed is
    cyclically reduced and its core has no illegal turn, they are the
    cyclic cores, and the counts check each junction as they step.  Else
    a second, linear track counts them from the seed itself.
    :class:`_JunctionCancels` means the counts cannot read the orbit."""
    images, nums, pairs, K = phi._images, M._length_nums, _path_pairs(M.graph, depth), max(depth, 2)
    cut = _cyclic_cut(g.letters)
    core = _orbit_counts(images, g.letters[cut : len(g) - cut], K, True)
    c, rim = next(core)
    line = None if rim is None and not cut else _orbit_counts(images, g.letters, K, False)
    for j in range(2 * n_max + 1):
        if j:
            c, rim = next(core)
        letters = next(line) if line else sum(c.values())
        if j and letters > cap:
            return
        if j > n_max and j % 2:
            continue
        if rim:
            c = c.copy()
            c.update(rim)
        windows = c
        if depth == 1 and j <= n_max:  # the 2-windows by their first letter
            windows = Counter()
            for b, n in c.items():
                windows[b[:1]] += n
        row = (sum(c.values()), [windows.get(v, 0) + windows.get(u, 0) for v, u in pairs]) if j <= n_max else None
        yield j, Fraction(sum(n * nums[b[0]] for b, n in c.items()), M._length_den), row


def _orbit_counts(images: Sequence[tuple[int, ...]], letters: tuple[int, ...], K: int,
                  cyclic: bool) -> Iterator:
    """The orbit of a reduced word under the letter images ``images``, as
    counts: when ``cyclic``, ``(c, rim)`` for each iterate's cyclic core,
    whose cyclic ``K``-windows are ``c + rim`` (``rim`` is None while the
    core has no illegal turn); else the letters of each reduced iterate,
    whose two ends a wall, the letter 0, keeps apart.

    An iterate is cut at its illegal turns (:func:`_turns`) into legal
    stretches.  A cyclic core with no cut steps by the block matrix
    (:func:`_block_step`), which checks each junction.  Else the map
    must be a train track, and the iterate is held as letters until one
    stretch has ``2E`` letters, ``E = K + _SPARE``.  From then on each
    stretch of ``2E`` letters is a piece, held as its first and last
    ``E`` letters and its letter counts; the shorter stretches after it
    are held as letters, its joint; and ``c`` sums the windows inside
    all pieces.  On a train track the image of a piece cancels only at
    its ends (Bestvina-Handel, Ann. of Math. 1992), and by a bounded
    amount (Cooper, J. Algebra 1987).  So a step maps ``c`` by the block
    matrix, adds the windows inside the image of each piece's last ``K -
    1`` letters, maps each piece's ends and counts and each joint, and
    reduces each joint between the ends around it (:func:`_joint_step`).
    ``rim`` is the windows across the joints."""
    rank, E, (illegal, train_track, growth) = len(images) // 2, K + _SPARE, _turns(images)
    if not cyclic:
        images = ((0,), *images[1:])

    def cuts(w: Sequence[int], start: int, stop: int) -> list[int]:
        """Each ``i`` in ``range(start, stop)`` where the turn into ``w[i]`` is illegal."""
        return [i for i in range(start, stop) if (w[i - 1], w[i]) in illegal or not (w[i - 1] and w[i])]

    w = tuple(letters) if cyclic else (*letters, 0)
    while True:
        at = cuts(w, 0, len(w))
        if not at:  # a cyclic core with no illegal turn
            c, columns = _cyclic_windows(w, K), {}
            while True:
                yield c, None
                c = _block_step(images, c, columns)
        if not train_track:  # a piece could cancel inside
            raise _JunctionCancels
        w = w[at[0] :] + w[: at[0]]
        split = [w[i - at[0] : j - at[0]] for i, j in zip(at, [*at[1:], len(w) + at[0]])]
        if max(map(len, split)) >= 2 * E:
            break
        yield (_cyclic_windows(w, K), ()) if cyclic else len(w) - 1
        w = tuple(_concat(images, w))
        i = _cyclic_cut(w)
        w = w[i : len(w) - i]
    first = next(i for i, s in enumerate(split) if len(s) >= 2 * E)
    pieces: list[list] = []
    c, columns = Counter(), {}
    for s in split[first:] + split[:first]:
        if len(s) < 2 * E:
            pieces[-1][3] += s
        else:
            pieces.append([s[:E], s[-E:], _letter_counts(s, rank), ()])
            c.update(_linear_windows(s, K) if cyclic else ())
    while True:
        around = list(zip(pieces, pieces[1:] + pieces[:1]))  # each piece and the next
        if cyclic:
            yield c, Counter(chain.from_iterable(_linear_windows(p[1][1 - K :] + p[3] + q[0][: K - 1], K)
                                                 for p, q in around))
            c = _block_step(images, c, columns)
        else:
            yield sum(sum(p[2]) + len(p[3]) for p in pieces) - 1
        for p in pieces:
            head, tail, counts, joint = p
            p[:] = (tuple(chain.from_iterable(map(images.__getitem__, head))),
                    tuple(chain.from_iterable(map(images.__getitem__, tail))),
                    [sum(map(mul, row, counts)) for row in growth], tuple(_concat(images, joint)))
            if cyclic:  # the windows inside the image of the last K - 1 letters
                c.update(_linear_windows(p[1][-sum(len(images[x]) for x in tail[1 - K :]) :], K))
        pieces = [r for p, q in around for r in (p, *_joint_step(p, q, c if cyclic else None, K, E, cuts))]


def _joint_step(p: list, q: list, c: Optional[Counter], K: int, E: int, cuts) -> list[list]:
    """Reduce the image of the joint between pieces ``p`` and ``q`` with
    their mapped ends, and cut the result at its illegal turns: the
    legal stretches next to the pieces join them, and of those between,
    each of ``2E`` letters becomes a new piece, returned.  The letters
    and windows cancelled, or joined to a piece, leave or join the
    pieces' counts and ``c``.  A cancellation that would reach past the
    ``E`` letters held at an end, or leave a piece shorter than ``2E``,
    raises :class:`_JunctionCancels`."""
    tail, head = p[1], q[0]
    s, low = list(tail), len(tail)
    for x in p[3]:
        if s and s[-1] == -x:
            s.pop()
            low = min(low, len(s))
        else:
            s.append(x)
    m = 0
    while m < len(head) and s and s[-1] == -head[m]:
        s.pop()
        m += 1
    low = min(low, len(s))
    if min(low, len(head) - m) < E:
        raise _JunctionCancels
    s += head[m:]
    a, b = low, len(s) - len(head) + m  # the joint is s[a:b]
    at = cuts(s, a, b + 1)
    p0, p1 = (at[0], at[-1]) if at else (b, b)
    for counts, taken, given in ((p[2], tail[low:], s[a:p0]), (q[2], head[:m], s[p1:b])):
        for x in taken:
            counts[abs(x) - 1] -= 1
        for x in given:
            counts[abs(x) - 1] += 1
    if c is not None:
        c.subtract(_linear_windows(tail[low - K + 1 :], K) if low < len(tail) else ())
        c.subtract(_linear_windows(head[: m + K - 1], K) if m else ())
        c.update(_linear_windows(s[a - K + 1 : p0], K))
        c.update(_linear_windows(s[p1 : b + K - 1], K))
    p[1], q[0], p[3] = tuple(s[:p0][-E:]), tuple(s[p1:][:E]), ()
    new, last = [], p
    for i, j in zip(at, at[1:]):
        stretch = tuple(s[i:j])
        if len(stretch) < 2 * E:
            last[3] += stretch
            continue
        last = [stretch[:E], stretch[-E:], _letter_counts(stretch, len(p[2])), ()]
        new.append(last)
        if c is not None:
            c.update(_linear_windows(stretch, K))
    if min(sum(p[2]), sum(q[2])) < 2 * E:
        raise _JunctionCancels
    return new


def _block_step(images: Sequence[tuple[int, ...]], c: Counter, columns: dict) -> Counter:
    """``B c``: the blocks of the images of the counted blocks, by their
    columns (:func:`_block_column`), each built once into ``columns``."""
    step: Counter = Counter()
    for b, n in c.items():
        if b not in columns:
            columns[b] = _block_column(images, b)
        for a, m in columns[b].items():
            step[a] += m * n
    return step


@lru_cache(maxsize=64)  # one entry per map
def _turns(images: tuple[tuple[int, ...], ...]) -> tuple[frozenset, bool, tuple[tuple[int, ...], ...]]:
    """The illegal turns of the letter images ``images``: the turns ``(x,
    y)`` some image of which, ``(x, y) -> (last images[x], first
    images[y])``, cancels; whether no turn inside an image is illegal, so
    that they form a train track; and their transition matrix, ``[i][j]``
    the letters ``+-(i+1)`` in the image of ``j+1``."""
    rank = len(images) // 2
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    illegal = set()
    for turn in ((x, y) for x in letters for y in letters if x != -y):
        seen, (x, y) = set(), turn
        while (x, y) not in seen and x != -y:
            seen.add((x, y))
            x, y = images[x][-1], images[y][0]
        if x == -y:
            illegal.add(turn)
    return (frozenset(illegal), not any(turn in illegal for image in images for turn in zip(image, image[1:])),
            tuple(zip(*(_letter_counts(images[j], rank) for j in range(1, rank + 1)))))


def _letter_counts(letters: Sequence[int], rank: int) -> list[int]:
    """How often each generator or its inverse occurs in ``letters``."""
    return [sum(abs(x) == i for x in letters) for i in range(1, rank + 1)]


def _block_column(images: Sequence[tuple[int, ...]], b: tuple[int, ...]) -> Counter:
    """The ``len(b)``-blocks of ``phi(b)``, the images joined, starting
    inside ``phi(b_1)``; raises :class:`_JunctionCancels` when the
    junction of ``phi(b_1)`` and ``phi(b_2)`` cancels, so that the join
    is not ``phi(b)``.  Inside a piece no junction cancels on a train
    track; the check guards the orbits with no illegal turn, which are
    counted as a whole on any map."""
    if images[b[0]][-1] == -images[b[1]][0]:
        raise _JunctionCancels
    image = [x for y in b for x in images[y]]
    return Counter(_linear_windows(image[: len(images[b[0]]) + len(b) - 1], len(b)))


# -- JSON ---------------------------------------------------------------------


def graph_map_to_json_obj(f: GraphMap) -> dict:
    g = f.chart.graph
    return {
        "graph": marked_graph_to_json_obj(f.chart),
        "vertex_map": dict(f.vertex_map),
        "edge_map": {
            g.edge_names[k - 1]: [g.name(e) for e in f.edge_images[k - 1]]
            for k in g.positive_edges
        },
        "automorphism": f.automorphism.to_json_obj(),
    }


def graph_map_from_json_obj(obj: dict) -> GraphMap:
    chart = marked_graph_from_json_obj(obj["graph"])
    g = chart.graph
    signed = {g.name(e): e for e in g.oriented_edges()}
    images: dict[int, tuple[int, ...]] = {}
    for name, image in obj["edge_map"].items():
        (e,) = _edge_numbers(signed, [name], "edge_map key")
        path = _edge_numbers(signed, image, f"edge_map image of {name!r}: entry")
        path = path if e > 0 else inverse_path(path)
        if abs(e) in images and images[abs(e)] != path:
            raise ValueError(f"edge_map image of {name!r} contradicts its inverse")
        images[abs(e)] = path
    if set(images) != set(g.positive_edges):
        raise ValueError("edge_map must cover every edge pair")
    return GraphMap(
        chart=chart,
        vertex_map=tuple(sorted(obj["vertex_map"].items())),
        edge_images=tuple(images[k] for k in g.positive_edges),
        automorphism=Automorphism.from_json_obj(obj["automorphism"]),
    )
