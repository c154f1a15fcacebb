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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .currents import FrequencyVector, counting_current, frequency_vector
from .intersection import LengthFunctionOracle
from .marked_graph import (
    EdgePath,
    MarkedMetricGraph,
    inverse_path,
    is_reduced_path,
    translation_length,
)
from .words import Automorphism, OuterintError, Word, _concat, _letter_table

DEFAULT_WORD_CAP = 10 ** 6


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
    from .words import compose

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


def pf_eigenpair(
    T: TransitionMatrix, tol: float = 1e-12, max_iterations: int = 100_000
) -> PFResult:
    """Left dominant eigenpair by exact integer power iteration.

    From ``v = 1`` the iteration sets ``v <- T^t v`` with Python integers
    and stops once the Collatz-Wielandt bracket ``min_j (T^t v)_j / v_j <=
    lambda <= max_j (T^t v)_j / v_j`` has half-width at most ``tol``.  The
    returned vector satisfies ``sum_i T[i][j] v[i] ~ lambda v[j]``, i.e. it
    is the length vector stretched uniformly by the map.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not T.is_primitive():
        raise NonPrimitiveMatrixError(
            "transition matrix is not primitive (no power is entrywise positive)"
        )
    columns = tuple(zip(*T.entries))
    tol2 = 2 * Fraction(tol)
    v = [1] * T.size
    for it in range(1, max_iterations + 1):
        w = [sum(a * x for a, x in zip(col, v)) for col in columns]
        ratios = [Fraction(y, x) for x, y in zip(v, w)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= tol2:
            break
        v = w
    else:
        raise ConvergenceError(f"power iteration did not converge in {max_iterations} steps")
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
    from .marked_graph import with_lengths

    return with_lengths(f.chart, pf_eigenpair(transition_matrix(f), tol=tol).eigenvector)


def eigenmetric_defect(f: GraphMap, M: MarkedMetricGraph, lam: float) -> float:
    """Largest deviation |length(f(e)) - lam * length(e)| over the edges."""
    return max(
        abs(float(M.path_length(f.edge_images[k - 1])) - lam * float(M.lengths[k - 1]))
        for k in M.graph.positive_edges
    )


def _iterates(phi: Automorphism, w: Word, n: int, cap: int) -> list[Word]:
    """``[w, phi(w), ..., phi^n(w)]``, cut before the first iterate with
    more than ``cap`` letters."""
    out = [w]
    for _ in range(n):
        nxt = phi.apply(out[-1])
        if len(nxt) > cap:
            break
        out.append(nxt)
    return out


def iterate_images(
    phi: Automorphism, w: Word, n: int, cap: int = DEFAULT_WORD_CAP
) -> list[Word]:
    """``[w, phi(w), ..., phi^n(w)]`` with a letter budget: iterated
    images grow geometrically, so exceeding ``cap`` raises instead of
    silently grinding."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = _iterates(phi, w, n, cap)
    if len(out) <= n:
        raise WordLengthCapError(f"iterate {len(out)} has more than {cap} letters; use a smaller n")
    return out


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
    if n < 1:
        raise ValueError("n must be >= 1")

    def stage(w: Word, k: int) -> float:
        img = iterate_images(phi, w, k, cap)[-1]
        return float(translation_length(M, img)) / lam ** k

    return LengthFunctionOracle(
        evaluate=lambda w: stage(w, n),
        exact=False,
        error_bound=lambda w: abs(stage(w, n) - stage(w, n - 1)),
        description=f"stable length, {n} iterations, stretch {lam}",
    )


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
    image = iterate_images(phi, g, n, cap)[-1]
    return frequency_vector(counting_current(image), M, k)


@dataclass(frozen=True)
class PairingReport:
    """The deflated pairing sequence lam^{-2m} * length of the 2m-th
    iterate, m = 1..n, with its positive window."""

    values: tuple[float, ...]
    window: tuple[float, float]
    bound_constant: float

    @property
    def final(self) -> float:
        return self.values[-1]

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
    iterates = iterate_images(phi, g, 2 * n, cap)
    values = tuple(
        float(translation_length(M, iterates[2 * m])) / lam ** (2 * m)
        for m in range(1, n + 1)
    )
    lo, hi = min(values), max(values)
    return PairingReport(values, (lo, hi), max(hi, 1.0 / lo if lo > 0 else float("inf")))


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
    pairing sequence and successive frequency-vector gaps."""
    if g.is_identity:
        raise ValueError("seed must be nontrivial")
    iterates = _iterates(phi, g, 2 * n_max, cap)
    available = len(iterates) - 1
    rows = []
    prev_vec: Optional[FrequencyVector] = None
    for n in range(n_max + 1):
        length = delta = None
        if n <= available:
            vec = frequency_vector(counting_current(iterates[n]), M, depth)
            length = float(translation_length(M, iterates[n])) / lam ** n
            delta = None if prev_vec is None else vec.sup_distance(prev_vec)
            prev_vec = vec
        pairing = (
            float(translation_length(M, iterates[2 * n])) / lam ** (2 * n)
            if 2 * n <= available
            else None
        )
        rows.append(IwipRow(n, length, pairing, delta))
    return rows


# -- JSON ---------------------------------------------------------------------


def graph_map_to_json_obj(f: GraphMap) -> dict:
    from .marked_graph import marked_graph_to_json_obj

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
    from .marked_graph import marked_graph_from_json_obj

    chart = marked_graph_from_json_obj(obj["graph"])
    g = chart.graph
    signed = {}
    for k in g.positive_edges:
        signed[g.edge_names[k - 1]] = k
        signed[g.inverse_names[k - 1]] = -k
    edge_map = obj["edge_map"]
    images = []
    for k in g.positive_edges:
        name = g.edge_names[k - 1]
        if name in edge_map:
            images.append(tuple(signed[i] for i in edge_map[name]))
        else:
            inv = edge_map[g.inverse_names[k - 1]]
            images.append(inverse_path(tuple(signed[i] for i in inv)))
    return GraphMap(
        chart=chart,
        vertex_map=tuple(sorted(obj["vertex_map"].items())),
        edge_images=tuple(images),
        automorphism=Automorphism.from_json_obj(obj["automorphism"]),
    )
