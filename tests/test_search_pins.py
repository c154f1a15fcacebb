"""Pinned results of seeded splitting-graph searches.

Each case runs ``bfs_distance`` on a seeded random pair of vertices of
rank 3, over all five flavors, with and without the supergolden move,
at radii 1-3, key depths 2-4, search lengths 3-5 and a state cap of 300,
compares the result (the distance, ``None``, or the error class name)
with ``tests/golden/bfs_search.json``.  The last case is a key collision
that a search must report rather than merge.

Regenerate the file after an intended change of search results with
``PYTHONPATH=src python tests/test_search_pins.py`` and list every
changed entry in CHANGES.md.
"""

import json
import pathlib
import random
import sys

from outerint.catalog import supergolden_automorphism
from outerint.currents import add, counting_current
from outerint.marked_graph import act as act_on_chart
from outerint.marked_graph import scale_lengths, unit_rose
from outerint.splittings import FLAVORS, act, bfs_distance, loop_splitting, separating_splitting
from outerint.words import Automorphism, CyclicWord, OuterintError

from _generators import random_automorphism, random_cyclically_reduced_word

PINS = pathlib.Path(__file__).resolve().parent / "golden" / "bfs_search.json"
RANK = 3
CASES = 300
STATE_CAP = 300


def _cases():
    """Yield (flavor, v1, v2, radius, moves, search length, key depth)."""
    rng = random.Random(20071)
    g = supergolden_automorphism()
    for i in range(CASES):
        flavor = FLAVORS[i % len(FLAVORS)]
        moves = [g] if (i // len(FLAVORS)) % 2 else []
        shared = random_automorphism(rng, RANK, max_factors=2)

        def twist():
            r = rng.random()
            if r < 0.5:
                return shared
            if r < 0.75:
                return Automorphism.identity(RANK)
            return random_automorphism(rng, RANK, max_factors=2)

        def splitting(loops):
            t = twist()
            if loops and rng.random() < 0.4:
                s = loop_splitting(RANK, rng.randint(1, RANK), t)
            else:
                s = separating_splitting(RANK, rng.sample(range(1, RANK + 1), rng.randint(1, 2)), t)
            return act(g, s) if moves and rng.random() < 0.3 else s

        def word():
            return random_cyclically_reduced_word(rng, RANK, rng.randint(1, 4))

        if flavor in ("F", "Fstar", "S"):
            pair = [splitting(flavor == "S"), splitting(flavor == "S")]
        elif flavor == "Z":
            pair = [splitting(True), CyclicWord(RANK, word().letters)]
        else:
            if rng.random() < 0.7:
                tree = splitting(True)
            else:
                tree = act_on_chart(twist(), scale_lengths(unit_rose(RANK), rng.randint(1, 2)))
            mu = counting_current(word())
            if rng.random() < 0.3:
                mu = add(mu, counting_current(word()))
            pair = [tree, mu]
        rng.shuffle(pair)
        yield (flavor, *pair, rng.randint(1, 3), moves, rng.randint(3, 5), rng.randint(2, 4))
    # sep{1} and sep{1, 2}, both twisted by phi, share their key at depth 2
    # and differ at depth 4; the second lies in the family of the first,
    # so expanding the first must report the collision
    phi = Automorphism.from_images(RANK, [[1, 3], [2], [3, 1, 3]], [[1, 1, -3], [2], [3, -1]])
    yield ("Fstar", separating_splitting(RANK, [1], phi), separating_splitting(RANK, [1, 3]),
           1, [], 3, 2)


def _results():
    out = []
    for flavor, v1, v2, radius, moves, search_length, key_depth in _cases():
        try:
            d = bfs_distance(flavor, v1, v2, radius, moves, search_length=search_length,
                             key_depth=key_depth, state_cap=STATE_CAP)
        except OuterintError as e:
            d = type(e).__name__
        out.append(d)
    return out


def test_search_results_pinned():
    want = json.loads(PINS.read_text())
    got = _results()
    assert len(got) == len(want) == CASES + 1
    assert got[-1] == "KeyCollisionError"
    diff = [(i, w, g) for i, (w, g) in enumerate(zip(want, got)) if w != g]
    assert not diff, f"{len(diff)} changed results (index, pinned, now): {diff[:10]}"


if __name__ == "__main__":
    results = _results()
    if results[-1] != "KeyCollisionError":
        sys.exit(f"the collision case gave {results[-1]!r}")
    PINS.write_text(json.dumps(results) + "\n")
