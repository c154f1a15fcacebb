"""Graph self-maps, transition matrices and the limit diagnostics for
exponentially growing automorphisms.

A :class:`GraphMap` is user-supplied data: a self-map of a marked graph
together with the automorphism it induces, checked for consistency at
construction (endpoints, reduced images, agreement on the fundamental
group).  Nothing here attempts to construct train track structures.

From the transition matrix the dominant eigenpair is found by exact
integer power iteration; the eigenvalue enclosure is the exact
Collatz-Wielandt bracket (min/max of the component ratios as fractions),
which contains the dominant eigenvalue of a primitive nonnegative matrix.

The limit objects themselves (stable trees and stable currents) never get
an exact representation: they are observed through normalised length
oracles, frequency vectors and the pairing sequence, each reporting
Cauchy-style diagnostics (successive differences, positive windows)
rather than claiming convergence.

The orbit ``phi^n(g)`` they read is stepped on the letters, as
Bestvina-Handel read it through the edge images ``f^n(e)``: the images
``phi^j(x)`` of the letters ``g`` reaches are kept, and each iterate joins
a few of these long reduced pieces instead of substituting letter by
letter (:func:`_iterates`).

:func:`iwip_rows` chooses one of two routes, and both feed the same row
assembly.  A positive seed under a positive map on a standard-marked rose
never cancels, so its table is read off k-block counts that evolve
linearly (:func:`_block_readings`), and no iterate is built.  Any other
table reads each iterate's length and frequency row off one axis period
as it is made, and keeps none (:func:`_iterate_readings`).  Either row is
integer counts over the integer one-letter mass, compared by
``currents._row_gap``, the sup distance of frequency vectors.  The other
diagnostics stay on iterates and keep only those they read
(:func:`_orbit`): a vector reads one iterate of a few hundred letters, and
the benchmark's wrap-around self-test plants its bug in
``currents.occurrences_in_cycle``, which the vector must reach.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from . import DEFAULT_WORD_CAP
from .currents import FrequencyVector, _cyclic_windows, _frequencies, _path_pairs
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
from .words import Automorphism, OuterintError, Word, _concat, _cyclic_cut, _letter_table
from .words import compose, cyclic_length

if TYPE_CHECKING:
    from .intersection import LengthFunctionOracle

MAX_PF_ITERATIONS = 100_000


class NonPrimitiveMatrixError(OuterintError):
    """The transition matrix has no positive power: the map cannot carry
    an expanding irreducible structure."""


class ConvergenceError(OuterintError):
    pass


class WordLengthCapError(OuterintError):
    """An iterated image outgrew the configured letter budget; retry with
    a smaller iteration count or a larger cap."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    cols = []
    for k in range(1, m + 1):
        col = [0] * m
        for e in f.edge_images[k - 1]:
            col[abs(e) - 1] += 1
        cols.append(col)
    return TransitionMatrix(tuple(tuple(cols[j][i] for j in range(m)) for i in range(m)))


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
    returned vector satisfies ``sum_i T[i][j] v[i] ~ lambda v[j]``, i.e. it
    is the length vector stretched uniformly by the map.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if not T.is_primitive():
        raise NonPrimitiveMatrixError(
            "transition matrix is not primitive (no power is entrywise positive)"
        )
    columns = tuple(zip(*T.entries))
    tol2 = 2 * Fraction(tol)
    v = [1] * T.size
    for it in range(1, MAX_PF_ITERATIONS + 1):
        w = [sum(a * x for a, x in zip(col, v)) for col in columns]
        ratios = [Fraction(y, x) for x, y in zip(v, w)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= tol2:
            break
        v = w
    else:
        raise ConvergenceError(f"power iteration did not converge in {MAX_PF_ITERATIONS} steps")
    mid, total = (lo + hi) / 2, sum(v)
    lam = float(mid)
    return PFResult(
        eigenvalue=lam,
        eigenvalue_bound=_float_at_least(max(hi - Fraction(lam), Fraction(lam) - lo)),
        eigenvector=tuple(Fraction(x, total) for x in v),
        residual=float(max(abs(y - mid * x) for x, y in zip(v, w)) / total),
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


def _iterates(phi: Automorphism, w: Word, n: int, cap: int) -> Iterator[Word]:
    """``w, phi(w), ..., phi^n(w)``, stopping before the first iterate
    with more than ``cap`` letters.

    ``table[x]`` is ``phi^j(x)`` for the signed letters ``x`` the orbit of
    ``w`` reaches, and ``phi^(j+1)(w)`` joins its pieces along ``phi(w)``;
    the next table joins them along each ``phi(x)``, and is built only
    when another iterate needs it.  So a step is a few junctions over long
    reduced pieces.  The tables start over from the current iterate,
    substituted letter by letter once, when the next table would hold more
    than 2N letters per letter of it, ``x`` and ``x^-1`` counted as one
    piece: letter images may outgrow the iterates (a -> ab, b -> bab fixes
    abAB), or iterates lag behind them (a -> b, b -> Ba sends BA to A)."""
    if w.rank != phi.rank:
        raise ValueError("rank mismatch")
    images = phi._images
    reach, todo = set(), list(w.letters)
    while todo:
        x = todo.pop()
        if x not in reach:
            reach.add(x)
            todo.extend(images[x])
    counted = [x for x in reach if x > 0 or -x not in reach]  # the table of x^-1 is that of x inverted
    table: dict = {}
    yield w
    for _ in range(n):
        # the next table holds at most the pieces it joins
        if table and sum(len(table[y]) for x in counted for y in images[x]) <= 2 * phi.rank * len(w):
            table = {x: tuple(_concat(table, images[x])) for x in reach}  # tuples hold no spare slots
        else:
            table, phi_w = {x: (x,) for x in reach}, _concat(images, w.letters)
        w = Word._make(phi.rank, tuple(_concat(table, phi_w)))
        if len(w) > cap:
            return
        yield w


def _orbit(phi: Automorphism, w: Word, n: int, cap: int) -> Iterator[Word]:
    """``w, phi(w), ..., phi^n(w)``, one at a time, raising
    :class:`WordLengthCapError` where :func:`_iterates` stops short; a
    caller keeps only the iterates it reads."""
    if n < 0:
        raise ValueError("n must be >= 0")
    j = -1
    for j, image in enumerate(_iterates(phi, w, n, cap)):
        yield image
    if j < n:
        raise WordLengthCapError(f"iterate {j + 1} has more than {cap} letters; use a smaller n")


def _axis_period(M: MarkedMetricGraph, w: Word) -> EdgePath:
    """One period of the axis of ``w`` in the tree of ``M``: the path of
    ``w`` comes back reduced, so only its cyclic cut is taken."""
    path = M.word_to_path(w)
    cut = _cyclic_cut(path)
    return path[cut : len(path) - cut]


def _deflated(length: Fraction, lam: float, j: int) -> float:
    """The j-th iterate's exact chart ``length`` over ``lam^j``, rounded
    once: an orbit that does not grow reads 0 where ``lam^j`` overflows."""
    return float(length / Fraction(lam) ** j)


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

    def evaluate(w: Word) -> float:
        (last,) = deque(_orbit(phi, w, n, cap), maxlen=1)
        return _deflated(M._path_length(_axis_period(M, last)), lam, n)

    def error_bound(w: Word) -> float:
        before, last = deque(_orbit(phi, w, n, cap), maxlen=2)
        a = _deflated(M._path_length(_axis_period(M, last)), lam, n)
        b = _deflated(M._path_length(_axis_period(M, before)), lam, n - 1)
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
    if n < 0:
        raise ValueError("n must be >= 0")
    (image,) = deque(_orbit(phi, g, n, cap), maxlen=1)
    period = _axis_period(M, image)
    return _frequencies(M, k, [(period, 1)], Fraction(cyclic_length(image)))


@dataclass(frozen=True)
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
    if g.is_identity:
        raise ValueError("seed must be nontrivial")
    values = tuple(
        _deflated(M._path_length(_axis_period(M, w)), lam, j)
        for j, w in enumerate(_orbit(phi, g, 2 * n, cap)) if j and j % 2 == 0
    )
    return PairingReport(values, (min(values), max(values)))


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

    A positive seed under a positive map on a standard-marked rose is read
    off its k-block counts (:func:`_block_readings`), and builds no
    iterate; any other table measures each iterate it reads once, as it
    is made, and keeps none (:func:`_iterate_readings`)."""
    if g.is_identity:
        raise ValueError("seed must be nontrivial")
    positive = M._loops is None and min(g.letters) > 0 and all(
        x > 0 for w in phi.images for x in w.letters)
    readings = (_block_readings if positive else _iterate_readings)(phi, M, g, n_max, depth, cap)
    deflated: dict[int, float] = {}
    deltas: dict[int, Fraction] = {}
    prev = None
    for j, length, row in readings:
        deflated[j] = _deflated(length, lam, j)
        if row is not None and prev is not None:
            deltas[j] = _row_gap(row, prev)
        prev = row
    return [
        IwipRow(n, deflated.get(n), deflated.get(2 * n), deltas.get(n)) for n in range(n_max + 1)
    ]


def _iterate_readings(phi: Automorphism, M: MarkedMetricGraph, g: Word, n_max: int, depth: int,
                      cap: int) -> Iterator[tuple]:
    """``(j, exact length, (mass, counts))`` of each iterate a table reads,
    the row only up to ``n_max``, off one axis period of the iterate."""
    pairs = _path_pairs(M.graph, depth)
    for j, w in enumerate(_iterates(phi, g, 2 * n_max, cap)):
        if j > n_max and j % 2:
            continue
        period = _axis_period(M, w)
        row = (cyclic_length(w), _window_counts([(period, 1)], pairs)) if j <= n_max else None
        yield j, M._path_length(period), row
        del period  # before the next, longer iterate is built


def _block_readings(phi: Automorphism, M: MarkedMetricGraph, g: Word, n_max: int, depth: int,
                    cap: int) -> Iterator[tuple]:
    """:func:`_iterate_readings` of a positive seed under a positive map
    on a standard-marked rose, from counts alone.  No iterate cancels, so
    its cyclic ``depth``-windows evolve linearly, ``c_(j+1) = B c_j``,
    where column ``b`` of ``B`` counts the blocks of ``phi(b)`` that start
    inside ``phi(b_1)``: the k-block presentation of a substitution
    (Queffelec, LNM 1294).  A window starts at each letter, so ``sum(c)``
    is the iterate's letters, and the windows' first letters its length."""
    if g.rank != phi.rank or M.rank != phi.rank:
        raise ValueError("rank mismatch")
    images, nums, pairs = phi._images, M._length_nums, _path_pairs(M.graph, depth)
    c, columns = _cyclic_windows(g.letters, depth), {}  # the columns of the blocks reached
    for j in range(2 * n_max + 1):
        if j:
            step: Counter = Counter()
            for b, n in c.items():
                if b not in columns:
                    columns[b] = _block_column(images, b)
                for a, m in columns[b].items():
                    step[a] += m * n
            c = step
        letters = sum(c.values())
        if j and letters > cap:
            return
        if j > n_max and j % 2:
            continue
        row = (letters, [c.get(v, 0) + c.get(u, 0) for v, u in pairs]) if j <= n_max else None
        yield j, Fraction(sum(n * nums[b[0]] for b, n in c.items()), M._length_den), row


def _block_column(images: Sequence[tuple[int, ...]], b: tuple[int, ...]) -> Counter:
    """The ``len(b)``-blocks of ``phi(b)`` starting inside ``phi(b_1)``
    (``phi`` positive, so ``phi(b)`` is the images joined)."""
    image = [x for y in b for x in images[y]]
    return Counter(zip(*(image[i : i + len(images[b[0]])] for i in range(len(b)))))


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
