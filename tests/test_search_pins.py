"""Pinned results of seeded splitting-graph searches.

Each case runs ``bfs_distance`` on a seeded random pair of vertices,
over all five flavors, with and without the supergolden move (rank 3
only), at radii 1-3, search lengths 3-5 and a state cap of 300, and
compares the result (the distance, ``None``, or the error class name)
with ``tests/golden/bfs_search.json``.  The file lists 300 rank-3 cases,
then two splittings whose lengths agree up to depth 2 inside the family
of one of them, which the exact key keeps apart, then 25 rank-4 cases,
whose coordinate families hold seven partitions per twist.

Regenerate the file after an intended change of search results with
``PYTHONPATH=src python tests/test_search_pins.py``, which prints every
changed entry as (index, pinned, now) before it writes the file, and
list those entries in CHANGES.md.

The Z and I0 searches prune the ball they explore, so the same generator
also feeds a comparison with the whole-ball reference search of
``tests/oracles.py``, which the pruning must not change.
"""

import json
import pathlib
import random
import sys

from outerint import splittings
from outerint.catalog import supergolden_automorphism
from outerint.currents import RationalCurrent, add, counting_current
from outerint.marked_graph import act as act_on_chart
from outerint.marked_graph import MarkedMetricGraph, scale_lengths, unit_rose
from outerint.splittings import FLAVORS, act, bfs_distance, loop_splitting, separating_splitting
from outerint.words import Automorphism, CyclicWord, OuterintError

from _generators import random_automorphism, random_cyclically_reduced_word
from oracles import whole_ball_bipartite_distance

PINS = pathlib.Path(__file__).resolve().parent / "golden" / "bfs_search.json"
# (rank, number of cases, seed) of each random series
SERIES = ((3, 300, 20071), (4, 25, 20072))
STATE_CAP = 300


def _random_cases(rank, count, seed):
    """Yield (flavor, v1, v2, radius, moves, search length)."""
    rng = random.Random(seed)
    g = supergolden_automorphism() if rank == 3 else None
    for i in range(count):
        flavor = FLAVORS[i % len(FLAVORS)]
        moves = [g] if g is not None and (i // len(FLAVORS)) % 2 else []
        shared = random_automorphism(rng, rank, max_factors=2)

        def twist():
            r = rng.random()
            if r < 0.5:
                return shared
            if r < 0.75:
                return Automorphism.identity(rank)
            return random_automorphism(rng, rank, max_factors=2)

        def splitting(loops):
            t = twist()
            if loops and rng.random() < 0.4:
                s = loop_splitting(rank, rng.randint(1, rank), t)
            else:
                s = separating_splitting(rank, rng.sample(range(1, rank + 1), rng.randint(1, rank - 1)), t)
            return act(g, s) if moves and rng.random() < 0.3 else s

        def word():
            return random_cyclically_reduced_word(rng, rank, rng.randint(1, 4))

        if flavor in ("F", "Fstar", "S"):
            pair = [splitting(flavor == "S"), splitting(flavor == "S")]
        elif flavor == "Z":
            pair = [splitting(True), CyclicWord(rank, word().letters)]
        else:
            if rng.random() < 0.7:
                tree = splitting(True)
            else:
                tree = act_on_chart(twist(), scale_lengths(unit_rose(rank), rng.randint(1, 2)))
            mu = counting_current(word())
            if rng.random() < 0.3:
                mu = add(mu, counting_current(word()))
            pair = [tree, mu]
        rng.shuffle(pair)
        # the third draw is unused; it keeps every seeded case as pinned
        radius, search_length, _ = rng.randint(1, 3), rng.randint(3, 5), rng.randint(2, 4)
        yield flavor, *pair, radius, moves, search_length


def _cases():
    yield from _random_cases(*SERIES[0])
    # sep{1} and sep{1, 2}, both twisted by phi, share their lengths up to
    # depth 2 and differ at depth 4; the second lies in the family of the
    # first, and expanding the first must not merge them
    phi = Automorphism.from_images(3, [[1, 3], [2], [3, 1, 3]], [[1, 1, -3], [2], [3, -1]])
    yield "Fstar", separating_splitting(3, [1], phi), separating_splitting(3, [1, 3]), 1, [], 3
    yield from _random_cases(*SERIES[1])


def _results():
    out = []
    for flavor, v1, v2, radius, moves, search_length in _cases():
        try:
            d = bfs_distance(flavor, v1, v2, radius, moves, search_length=search_length, state_cap=STATE_CAP)
        except OuterintError as e:
            d = type(e).__name__
        out.append(d)
    return out


COLLISION = SERIES[0][1]


def _changed(pinned, now):
    """(index, pinned, now) of every result that differs from its pin."""
    return [(i, p, n) for i, (p, n) in enumerate(zip(pinned, now)) if p != n]


def test_class_endpoint_normalised_on_entry():
    """A Z search to a class and to its inverse class is one search: the
    endpoint is stored flip-normalised, as every minted class is, so the
    two are one vertex."""
    seen = []
    for flavor, v1, v2, radius, moves, search_length in _random_cases(*SERIES[0]):
        if flavor != "Z":
            continue
        s, cw = (v1, v2) if type(v2) is CyclicWord else (v2, v1)
        got = [bfs_distance("Z", s, c, radius, moves, search_length=search_length, state_cap=STATE_CAP)
               for c in (cw, cw.inverse())]
        assert got[0] == got[1], (s.to_json_obj(), cw.letters)
        assert bfs_distance("Z", cw.inverse(), cw, 0, moves) == 0
        seen.append((bool(moves), got[0]))
    assert {moves for moves, d in seen if d is not None} == {False, True}


def test_search_results_pinned():
    want = json.loads(PINS.read_text())
    got = _results()
    assert len(got) == len(want) == 1 + sum(count for _, count, _ in SERIES)
    assert got[COLLISION] == 1
    # a chart is an isolated vertex of I0, and no case pairs two charts
    charts = [d for d, (_, v1, v2, *_) in zip(got, _cases()) if MarkedMetricGraph in (type(v1), type(v2))]
    assert charts == [None] * 21
    diff = _changed(want, got)
    assert not diff, f"{len(diff)} changed results (index, pinned, now): {diff[:10]}"


def _bipartite_searches():
    """Z and I0 searches at radii 0-3: the Z and I0 pairs that
    ``_random_cases`` draws at rank 3 for seeds 1-4 (75 cases each), a
    splitting or a chart against a witness, and, from each pair and the
    next one of its flavor, the two trees and the two witnesses."""
    def side(v):
        return type(v) in (CyclicWord, RationalCurrent)

    for seed in (1, 2, 3, 4):
        cases = [c for c in _random_cases(3, 75, seed) if c[0] in ("Z", "I0")]
        for (flavor, v1, v2, _, moves, search_length), other in zip(cases, cases[2:]):
            (t, w), (t2, w2) = (sorted(pair, key=side) for pair in ((v1, v2), other[1:3]))
            for pair in ((v1, v2), (t, t2), (w, w2)):
                for radius in range(4):
                    yield flavor, *pair, radius, moves, search_length


def _whole_ball_mismatches():
    """(index, flavor, radius, whole ball, bfs_distance) of every search
    whose result differs from that of the whole ball, and the whole-ball
    result of every search."""
    def result(search, *args, **kwargs):
        try:
            return search(*args, **kwargs)
        except OuterintError as e:
            return type(e).__name__

    out, seen = [], []
    for i, (flavor, v1, v2, radius, moves, search_length) in enumerate(_bipartite_searches()):
        want = result(whole_ball_bipartite_distance, flavor, v1, v2, radius, moves, search_length=search_length)
        got = result(bfs_distance, flavor, v1, v2, radius, moves, search_length=search_length, state_cap=10**6)
        seen.append(want)
        if got != want:
            out.append((i, flavor, radius, want, got))
    return out, seen


def test_z_and_i0_distances_are_those_of_the_whole_ball():
    mismatches, seen = _whole_ball_mismatches()
    assert not mismatches, f"{len(mismatches)} (index, flavor, radius, whole ball, now): {mismatches[:10]}"
    assert {0, 1, 2, 3, None} <= set(seen)
    # one pair of charts, of one projective point, at radii 0-3
    charts = [d for (_, v1, v2, *_), d in zip(_bipartite_searches(), seen) if type(v1) is type(v2) is MarkedMetricGraph]
    assert charts == [0] * 4


def test_whole_ball_oracle_catches_a_mint_bound_one_step_too_strict(monkeypatch):
    """A splitting that mints only at depth d with d + 4 <= radius, one
    step late for a witness target, loses the distance-3 searches."""
    for flavor, witness in (("Z", CyclicWord), ("I0", RationalCurrent)):
        row = splittings._FLAVORS[flavor]

        def late(universe, key, search_length, steps, target, rule=row.neighbours, witness=witness):
            # one step fewer with exactly three left: the splitting is still
            # expanded, but too close to the radius to mint
            tree_to_witness = (type(universe.vertices[key][0]) is not witness
                               and type(universe.vertices[target][0]) is witness)
            return rule(universe, key, search_length, steps - (steps == 3 and tree_to_witness), target)

        monkeypatch.setitem(splittings._FLAVORS, flavor, row._replace(neighbours=late))
    mismatches, _ = _whole_ball_mismatches()
    assert mismatches
    assert {(want, got) for *_, want, got in mismatches} == {(3, None)}


if __name__ == "__main__":
    results = _results()
    if results[COLLISION] != 1:
        sys.exit(f"the collision case gave {results[COLLISION]!r}")
    for change in _changed(json.loads(PINS.read_text()), results):
        print(change)
    PINS.write_text(json.dumps(results) + "\n")
