"""Independent reference implementations used only to check the library.

These deliberately take different computational routes from the package:
repeated-scan reduction instead of a stack, divisor scans instead of
prefix functions, modular indices instead of one-pass window tallies,
characteristic-polynomial bisection instead of power iteration,
``Fraction`` ratios at every step instead of cross-multiplication,
substitution letter by letter instead of block counts checked at each
junction, powers of the direction map instead of images of turns,
orbit-displacement growth instead of cyclic syllable counts, point
displacements instead of cyclic reduction, a whole-ball search instead
of one pruned towards its target, a scan of the test set instead of
Stallings pullbacks, and closed paths that cross each edge at most twice
instead of loops that pass each vertex at most twice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence


def scan_reduce(letters: Sequence[int]) -> list[int]:
    """Free reduction by repeated full passes until nothing cancels."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(out) - 1:
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
            else:
                i += 1
    return out


def divisor_primitive_root(letters: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Smallest-period root of a cyclic letter sequence by trying every
    divisor of the length directly."""
    letters = tuple(letters)
    n = len(letters)
    for d in range(1, n + 1):
        if n % d:
            continue
        if all(letters[i] == letters[i % d] for i in range(n)):
            return letters[:d], n // d
    raise AssertionError("unreachable")


def modular_window_count(period: Sequence[int], pattern: Sequence[int]) -> int:
    """Starts i within one period where the pattern reads off the period
    with every index taken modulo its length, so windows wrap around as
    often as they need to; no extended copy of the period is made."""
    p, k = len(period), len(pattern)
    return sum(
        1 for i in range(p) if all(period[(i + j) % p] == pattern[j] for j in range(k))
    )


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def bisect_root(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Sign-change bisection; needs f(lo) < 0 < f(hi)."""
    flo, fhi = f(lo), f(hi)
    assert flo < 0 < fhi, (flo, fhi)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def char_poly(matrix: Sequence[Sequence[int]]) -> list[Fraction]:
    """Coefficients of det(xI - M), highest degree first, by the
    Faddeev-LeVerrier recursion in exact arithmetic."""
    n = len(matrix)
    M = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]

    def matmul(A, B):
        return [
            [sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    coeffs = [Fraction(1)]
    Ak = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        Ak[i][i] = Fraction(1)
    for k in range(1, n + 1):
        Ak = matmul(M, Ak)
        c = -sum(Ak[i][i] for i in range(n)) / k
        coeffs.append(c)
        for i in range(n):
            Ak[i][i] += c
    return coeffs


def char_poly_at(matrix: Sequence[Sequence[int]], x: Fraction) -> Fraction:
    """det(xI - M) evaluated exactly by Horner's rule."""
    acc = Fraction(0)
    for c in char_poly(matrix):
        acc = acc * x + c
    return acc


def dominant_root_by_bisection(matrix: Sequence[Sequence[int]], tol: float) -> float:
    """Largest real root of the characteristic polynomial: scan down from
    the Gershgorin bound to the first sign change, then bisect."""
    coeffs = char_poly(matrix)

    def p(x: float) -> float:
        acc = 0.0
        for c in coeffs:
            acc = acc * x + float(c)
        return acc

    hi = 1.0 + max(sum(abs(x) for x in row) for row in matrix)
    assert p(hi) > 0
    step = 1e-3
    x = hi
    while p(x) >= 0:
        x -= step
        assert x > -hi, "no sign change found"
    return bisect_root(p, x, x + step, tol)


def fraction_pf_eigenpair(T, tol: float):
    """:func:`outerint.dynamics.pf_eigenpair` with its Collatz-Wielandt
    ratios built as ``Fraction``s at every step and compared and
    subtracted in ``Fraction`` arithmetic."""
    from outerint import dynamics

    if not T.is_primitive():
        raise dynamics.NonPrimitiveMatrixError(
            "transition matrix is not primitive (no power is entrywise positive)"
        )
    columns = tuple(zip(*T.entries))
    tol2 = 2 * Fraction(tol)
    v = [1] * T.size
    for it in range(1, dynamics.MAX_PF_ITERATIONS + 1):
        w = [sum(a * x for a, x in zip(col, v)) for col in columns]
        ratios = [Fraction(y, x) for x, y in zip(v, w)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= tol2:
            break
        v = w
    else:
        raise dynamics.ConvergenceError(
            f"power iteration did not converge in {dynamics.MAX_PF_ITERATIONS} steps"
        )
    mid, total = (lo + hi) / 2, sum(v)
    lam = float(mid)
    return dynamics.PFResult(
        eigenvalue=lam,
        eigenvalue_bound=dynamics._float_at_least(max(hi - Fraction(lam), Fraction(lam) - lo)),
        eigenvector=tuple(Fraction(x, total) for x in v),
        residual=float(max(abs(y - mid * x) for x, y in zip(v, w)) / total),
        iterations=it,
    )


def orbit_cancels(images: Sequence[Sequence[int]], letters: Sequence[int], steps: int,
                  cap: float = math.inf) -> bool:
    """Whether the cyclic word ``letters``, or one of its first ``steps``
    images under the substitution sending generator ``i`` to ``images[i-1]``,
    cancels, looking no further than the first image past ``cap``
    letters, which is the last one an ``iwip`` table builds.  Each step
    substitutes letter by letter, inverting an image where the letter is
    inverted, and reduces nothing; so the first cancellation shows as a
    letter next to its inverse, at a junction or across the wrap-around."""
    w, step = list(letters), 0
    while not any(w[i - 1] == -w[i] for i in range(len(w))):
        if step == steps or (step and len(w) > cap):
            return False
        w = [z for y in w for z in (images[y - 1] if y > 0 else [-x for x in reversed(images[-y - 1])])]
        step += 1
    return True


def illegal_turns(images: Sequence[Sequence[int]], letters: Sequence[int], cyclic: bool = True) -> int:
    """How many turns of the word ``letters`` are illegal for the
    substitution sending generator ``i`` to ``images[i-1]``, the turn
    across the wrap-around included when ``cyclic``.  The turn from ``x``
    into ``y`` leaves in the directions ``x^-1`` and ``y``; it is illegal
    when some power of the direction map, a direction to the first letter
    of its image, sends both to one direction (Bestvina-Handel, Ann. of
    Math. 1992).  Two directions that ever meet do so before both reach
    a cycle of the map, so within as many steps as there are directions,
    and then stay together: that power decides."""
    rank = len(images)

    def first(d: int) -> int:
        return images[d - 1][0] if d > 0 else -images[-d - 1][-1]

    def far(d: int) -> int:
        for _ in range(2 * rank):
            d = first(d)
        return d

    letters = list(letters)
    turns = zip(letters[-1:] + letters[:-1], letters) if cyclic else zip(letters, letters[1:])
    return sum(far(-x) == far(y) for x, y in turns)


def cyclic_core_orbit(images: Sequence[Sequence[int]], letters: Sequence[int], steps: int,
                      longest: float = math.inf) -> list[list[int]]:
    """The cyclic cores of ``letters`` and of its first ``steps`` images,
    stopping after the first core past ``longest`` letters: each step
    substitutes letter by letter, reduces by :func:`scan_reduce` and
    strips cancelling first/last pairs."""
    w = scan_reduce(letters)
    out = []
    for step in range(steps + 1):
        while len(w) > 1 and w[0] == -w[-1]:
            w = w[1:-1]
        out.append(w)
        if step == steps or len(w) > longest:
            break
        w = scan_reduce([z for y in w for z in (images[y - 1] if y > 0 else [-x for x in reversed(images[-y - 1])])])
    return out


def displacement_length(M, w) -> Fraction:
    """Translation length of ``w`` on the tree of the chart ``M`` by the
    displacement identity of Culler-Morgan (Proc. London Math. Soc. 1987),
    l(g) = d(x, g^2 x) - d(x, g x) for the base lift x: the lengths of two
    reduced paths read off ``M.word_to_path``, with no cyclic reduction."""
    return M.path_length(M.word_to_path(w * w)) - M.path_length(M.word_to_path(w))


# -- Bass-Serre displacement oracle ------------------------------------------
#
# The splitting trees are probed through the orbit of a base vertex: the
# displacement of the base under g comes from the coset normal form, and
# translation length is recovered from the linear growth of displacements
# of powers.  For words of length <= 6 the base point sits within distance
# 11/2 of any axis, so rounding d(g^30)/30 gives the exact integer.


def sep_displacement(subset: frozenset[int], letters: Sequence[int]) -> int:
    """Tree distance between the base vertex (the subset-side factor) and
    its translate: twice the number of complement-syllables once the
    trailing subset-run is stripped."""
    word = list(letters)
    while word and abs(word[-1]) in subset:
        word.pop()
    blocks = 0
    previous_inside = True
    for l in word:
        inside = abs(l) in subset
        if not inside and previous_inside:
            blocks += 1
        previous_inside = inside
    return 2 * blocks


def loop_displacement(stable: int, letters: Sequence[int]) -> int:
    return sum(1 for l in letters if abs(l) == stable)


def bass_serre_translation_length(
    kind: str, data, letters: Sequence[int], power: int = 30
) -> int:
    """Translation length via displacement growth: round(d(g^m)/m)."""
    piece = list(letters)
    word: list[int] = []
    for _ in range(power):
        word = scan_reduce(word + piece)
    if kind == "sep":
        d = sep_displacement(data, word)
    elif kind == "loop":
        d = loop_displacement(data, word)
    else:
        raise ValueError(kind)
    return round(d / power)


# -- the first common elliptic class by a scan of the test set ------------------
#
# Fstar joins two splittings when some class is elliptic in both.  The
# reference reads every class of the test set in order, each through
# splitting_length, so it shares neither the vertex group cores nor the
# pullback cores with the package.


def first_common_elliptic(s1, s2, search_length: int):
    """The first class of the test set up to ``search_length`` of length 0
    in both splittings, or None."""
    from outerint.splittings import splitting_length
    from outerint.words import enumerate_cyclic_words

    for cw in enumerate_cyclic_words(s1.rank, search_length, up_to_inversion=True):
        w = cw.as_word()
        if splitting_length(s1, w) == 0 and splitting_length(s2, w) == 0:
            return cw
    return None


# -- one point of projectivised Outer space -----------------------------------
#
# Two charts are one projective point exactly when their length functions
# are proportional (Culler-Morgan 1987).  The reference takes the ratios,
# as Fractions, of lengths by the displacement identity on the classes of
# every cyclically reduced closed path of either graph that crosses each
# edge at most twice: a superset of the package's loops, which pass each
# vertex at most twice, listed from every start and in both directions.


def edge_twice_loops(graph) -> list[tuple[int, ...]]:
    """Every cyclically reduced closed edge path of ``graph`` that crosses
    each edge at most twice, from each of its starts, in each direction."""
    out, paths = [], [(e,) for e in graph.oriented_edges()]
    while paths:
        path = paths.pop()
        if graph.terminal(path[-1]) == graph.initial(path[0]) and path[-1] != -path[0]:
            out.append(path)
        crossed = [abs(f) for f in path]
        paths += [path + (e,) for e in graph.oriented_edges()
                  if graph.initial(e) == graph.terminal(path[-1]) and e != -path[-1] and crossed.count(abs(e)) < 2]
    return out


def same_projective_point(M1, M2) -> bool:
    """Whether the length functions of the charts are proportional on the
    classes of :func:`edge_twice_loops` of both graphs."""
    words = [M.path_to_word(loop) for M in (M1, M2) for loop in edge_twice_loops(M.graph)]
    return len({displacement_length(M2, w) / displacement_length(M1, w) for w in words}) == 1


# -- the Z and I0 searches over the whole ball ---------------------------------
#
# Z and I0 join a splitting to a witness (a conjugacy class, or a current)
# when its length on the witness is zero.  The reference search explores
# the whole ball, layer by layer: it expands every vertex below the
# radius, every splitting it expands mints each test-set class of zero
# length in it (read off splitting_length, not off the vertex group cores),
# and no state cap applies.  Vertices are stored as the package stores
# them, so that two presentations of one vertex are one vertex.  A chart
# pairs positively with every nonzero current, so it is an isolated vertex
# of I0: a chart endpoint is at distance 0 from one point of projectivised
# Outer space (:func:`same_projective_point`) and out of reach of any other.


def whole_ball_bipartite_distance(flavor: str, v1, v2, radius: int, moves=(), *, search_length: int = 6):
    """The Z or I0 distance within ``radius``, or None beyond it."""
    from outerint import splittings
    from outerint.currents import RationalCurrent, _class_current
    from outerint.marked_graph import MarkedMetricGraph
    from outerint.words import CyclicWord, enumerate_cyclic_words, flip_normalize

    if MarkedMetricGraph in (type(v1), type(v2)):
        return 0 if type(v1) is type(v2) and same_projective_point(v1, v2) else None
    witness, mint = {"Z": (CyclicWord, lambda cw: cw), "I0": (RationalCurrent, _class_current)}[flavor]
    tree = splittings.FreeSplitting

    def elliptic(s, cw) -> bool:
        return splittings.splitting_length(s, cw.as_word()) == 0

    def adjacent(t, w) -> bool:
        classes = [w] if witness is CyclicWord else [cw for cw, _ in w.terms]
        return all(elliptic(t, cw) for cw in classes)

    store = splittings._Universe(float("inf"))
    v1, v2 = (flip_normalize(v) if type(v) is CyclicWord else v for v in (v1, v2))
    source, target = store.add(v1), store.add(v2)
    splittings._move_closure(store, [v1, v2], list(moves), radius)
    test_set = enumerate_cyclic_words(v1.rank, search_length, up_to_inversion=True)
    dist, layer = {source: 0}, [source]
    for d in range(1, radius + 1):
        reached = []
        for key in layer:
            v = store.vertices[key][0]
            if type(v) is witness:
                hits = [k for k, t in store.stored[tree] if adjacent(t, v)]
            else:
                for cw in test_set:
                    if elliptic(v, cw):
                        store.add(mint(cw))
                hits = [k for k, w in store.stored[witness] if adjacent(v, w)]
            for k in hits:
                if k not in dist:
                    dist[k] = d
                    reached.append(k)
        layer = reached
    return dist.get(target)
