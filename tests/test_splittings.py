import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from outerint.catalog import supergolden_automorphism
from outerint.currents import RationalCurrent, _class_current, add, counting_current, scale
from outerint.marked_graph import act as act_on_chart
from outerint.marked_graph import (
    marked_graph_from_json_obj,
    marked_graph_to_json_obj,
    scale_lengths,
    subdivide_edge,
    translation_length,
    unit_rose,
)
from outerint.splittings import (
    FreeSplitting,
    StateCapExceeded,
    act,
    bfs_distance,
    fstar_adjacent,
    intersection_graph_adjacent,
    loop_splitting,
    refinement_adjacent,
    separating_splitting,
    splitting_length,
    vertex_key,
)
from outerint import splittings
from outerint.splittings import (
    _Universe,
    _canonical_code,
    _compose,
    _elliptic,
    _elliptic_classes,
    _family,
    _first_common,
    _pullback_cores,
    _tree_key,
    _vertex_group_cores,
)
from outerint.words import (
    Automorphism,
    CyclicWord,
    OuterintError,
    Word,
    _check_class_count,
    compose,
    cyclic_reduce,
    enumerate_cyclic_words,
    flip_normalize,
    letter_sort_key,
    parse_word,
    reduce,
)

from _generators import (
    elementary_automorphisms,
    random_automorphism,
    random_blown_up_chart,
    random_cyclically_reduced_word,
    random_fraction,
    random_marked_graph,
    random_reduced_word,
)
from oracles import bass_serre_translation_length, first_common_elliptic, whole_ball_bipartite_distance


def nontrivial_automorphism(rng, rank):
    while True:
        phi = random_automorphism(rng, rank, max_factors=4)
        if not phi.is_identity:
            return phi


class TestSplittingLength:
    def test_separating_mixed_word(self):
        s = separating_splitting(3, [1])
        assert splitting_length(s, parse_word("ab", 3)) == 2

    def test_separating_elliptic(self):
        s = separating_splitting(3, [1])
        assert splitting_length(s, parse_word("bc", 3)) == 0

    def test_loop_counts_stable_letters(self):
        s = loop_splitting(2, 1)
        assert splitting_length(s, parse_word("abab", 2)) == 2

    def test_conjugacy_invariance_and_power_law(self):
        rng = random.Random(1)
        s = separating_splitting(3, [1, 3])
        for _ in range(40):
            w = random_reduced_word(rng, 3, rng.randint(1, 8))
            u = random_reduced_word(rng, 3, rng.randint(0, 5))
            assert splitting_length(s, w.conjugate_by(u)) == splitting_length(s, w)
            m = rng.randint(0, 3)
            assert splitting_length(s, w ** m) == m * splitting_length(s, w)

    def test_separating_values_even(self):
        rng = random.Random(2)
        s = separating_splitting(3, [2])
        for _ in range(40):
            w = random_reduced_word(rng, 3, rng.randint(1, 8))
            assert splitting_length(s, w) % 2 == 0

    def test_twist_pullback(self):
        rng = random.Random(3)
        phi = random_automorphism(rng, 3)
        base = separating_splitting(3, [1])
        twisted = act(phi, base)
        for _ in range(30):
            w = random_reduced_word(rng, 3, rng.randint(1, 7))
            assert splitting_length(twisted, w) == splitting_length(
                base, phi.apply_inverse(w)
            )

    def test_matches_bass_serre_oracle_spot(self):
        for letters, kind, data, expected in [
            ((1, 2), "sep", frozenset({1}), 2),
            ((2, 3), "sep", frozenset({1}), 0),
            ((1, 2, 1, 2), "loop", 1, 2),
        ]:
            assert bass_serre_translation_length(kind, data, letters) == expected

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            splitting_length(separating_splitting(3, [1]), Word(2, (1,)))

    def test_oracle_catches_linear_syllable_count(self):
        # planted bug: syllable boundaries counted on the linear word, so
        # the boundary between the last and the first letter is missed
        def linear_length(subset, letters):
            inside = [abs(l) in subset for l in letters]
            return sum(1 for i in range(1, len(inside)) if inside[i] != inside[i - 1])

        classes = enumerate_cyclic_words(3, 4, up_to_inversion=True)
        subsets = [frozenset(c) for k in (1, 2) for c in combinations((1, 2, 3), k)]
        assert linear_length({1}, (1, 2)) == 1
        assert bass_serre_translation_length("sep", frozenset({1}), (1, 2)) == 2
        missed = [
            (sub, cw.letters)
            for sub in subsets
            for cw in classes
            if linear_length(sub, cw.letters)
            != bass_serre_translation_length("sep", sub, cw.letters)
        ]
        assert missed
        for sub in subsets:
            s = separating_splitting(3, sub)
            for cw in classes:
                assert splitting_length(s, cw.as_word()) == bass_serre_translation_length(
                    "sep", sub, cw.letters
                ), (sorted(sub), cw.letters)


class TestEllipticity:
    def test_basis_letters_elliptic_in_separating(self):
        s = separating_splitting(3, [1, 2])
        for i in (1, 2, 3):
            assert splitting_length(s, Word(3, (i,))) == 0

    def test_stable_letter_not_elliptic(self):
        s = loop_splitting(3, 2)
        assert splitting_length(s, Word(3, (2,))) != 0

    def test_elliptic_set_closed_under_conjugation_and_inversion(self):
        rng = random.Random(4)
        s = loop_splitting(3, 1)
        for _ in range(40):
            w = random_reduced_word(rng, 3, rng.randint(1, 6))
            u = random_reduced_word(rng, 3, rng.randint(0, 4))
            if w.is_identity:
                continue
            assert len({splitting_length(s, x) == 0 for x in (w, w.conjugate_by(u), w.inverse())}) == 1

    def test_identity_has_length_zero(self):
        assert splitting_length(separating_splitting(3, [1]), Word(3)) == 0


class TestVertexKey:
    def test_subset_and_complement_share_a_key(self):
        assert vertex_key(separating_splitting(3, [1])) == vertex_key(
            separating_splitting(3, [2, 3])
        )

    def test_distinct_splittings_distinct_keys(self):
        keys = {
            vertex_key(separating_splitting(3, [i])) for i in (1, 2, 3)
        }
        assert len(keys) == 3

    def test_loop_and_separating_never_collide(self):
        assert vertex_key(loop_splitting(3, 1)) != vertex_key(
            separating_splitting(3, [1])
        )

    @pytest.mark.parametrize("rank, depth", [(3, 2), (3, 4), (3, 6), (4, 3), (4, 5)])
    @pytest.mark.parametrize("kind", ["sep", "loop"])
    @pytest.mark.parametrize("twisted", [False, True])
    def test_key_is_the_length_function_on_the_test_set(self, rank, depth, kind, twisted):
        rng = random.Random(100 * rank + 10 * depth + twisted)
        twist = nontrivial_automorphism(rng, rank) if twisted else None
        if kind == "sep":
            subset = rng.sample(range(1, rank + 1), rng.randint(1, rank - 1))
            s = separating_splitting(rank, subset, twist)
        else:
            s = loop_splitting(rank, rng.randint(1, rank), twist)
        words = [cw.as_word() for cw in enumerate_cyclic_words(rank, depth, True)]
        want = tuple(splitting_length(s, w) for w in words)
        assert vertex_key(s, depth) == want
        assert vertex_key(s, depth) == want  # served from the cache
        phi = nontrivial_automorphism(rng, rank)
        t = act(phi, s)
        moved = vertex_key(t, depth)
        assert moved == tuple(splitting_length(t, w) for w in words)
        assert moved == tuple(splitting_length(s, phi.apply_inverse(w)) for w in words)

    def test_every_call_form_shares_one_cache_entry(self):
        # vertex_key keeps no memo (no search reads it); every way of
        # passing the depth still gives one key
        s = loop_splitting(3, 2, nontrivial_automorphism(random.Random(41), 3))
        keys = {vertex_key(s), vertex_key(s, 4), vertex_key(s, depth=4)}
        assert len(keys) == 1


class TestFstarAdjacency:
    def test_untwisted_pairs_have_basis_witness(self):
        s1 = separating_splitting(3, [1])
        s2 = separating_splitting(3, [2])
        witness = fstar_adjacent(s1, s2)
        assert witness is not None
        w = witness.as_word()
        assert splitting_length(s1, w) == 0 and splitting_length(s2, w) == 0

    def test_all_untwisted_separating_pairs_adjacent(self):
        subsets = [[1], [2], [3], [1, 2], [1, 3], [2, 3]]
        splittings = [separating_splitting(3, s) for s in subsets]
        for s1, s2 in combinations(splittings, 2):
            if vertex_key(s1) == vertex_key(s2):
                continue
            assert fstar_adjacent(s1, s2) is not None

    def test_twisted_pair_found_and_double_checked(self):
        rng = random.Random(5)
        phi = random_automorphism(rng, 3)
        s = separating_splitting(3, [1], phi)
        t = act(phi, separating_splitting(3, [2]))
        if vertex_key(s) == vertex_key(t):
            pytest.skip("degenerate twist")
        witness = fstar_adjacent(s, t, search_length=6)
        assert witness is not None
        assert splitting_length(s, witness.as_word()) == 0
        assert splitting_length(t, witness.as_word()) == 0

    def test_equal_vertices_rejected(self):
        s = separating_splitting(3, [1])
        with pytest.raises(ValueError):
            fstar_adjacent(s, separating_splitting(3, [2, 3]))

    @pytest.mark.parametrize("search_length", [0, -1, -6])
    def test_a_search_length_below_one_is_refused(self, search_length):
        # not None, which would read "no common class within the bound"
        with pytest.raises(ValueError, match="^search length must be >= 1$"):
            fstar_adjacent(separating_splitting(3, [1]), separating_splitting(3, [2]), search_length)

    def test_symmetry(self):
        s1 = separating_splitting(3, [1, 2])
        s2 = loop_splitting(3, 3)
        assert (fstar_adjacent(s1, s2) is None) == (fstar_adjacent(s2, s1) is None)

    def test_one_scan_answers_every_candidate(self):
        # the Fstar rule walks the cores of the expanded vertex and of
        # each candidate; each verdict must be the plain
        # search's, in whatever order the candidates ask, also for a
        # candidate whose first common class comes late
        rng = random.Random(19)
        s = separating_splitting(3, [1], nontrivial_automorphism(rng, 3))
        family = _family(s, include_loops=True)
        candidates = family + [act(nontrivial_automorphism(rng, 3), u) for u in family]
        classes = [cw for cw in enumerate_cyclic_words(3, 4, up_to_inversion=True)
                   if splitting_length(s, cw.as_word()) == 0]
        first = [next((i for i, cw in enumerate(classes) if splitting_length(u, cw.as_word()) == 0), None)
                 for u in candidates]
        assert None in first and max(i for i in first if i is not None) > len(classes) // 2
        shares = lambda u: _first_common(s, u, 4) is not None
        for i in [*reversed(range(len(candidates))), *range(len(candidates))]:
            assert shares(candidates[i]) == (first[i] is not None)


@pytest.fixture()
def cold_tables():
    """Empty composed twists, vertex group cores and keys before and after
    the test, so that nothing it computes is served to another test."""
    caches = (_compose, _vertex_group_cores, _tree_key)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def table_disagreements(rank, twisted, depth, search_length, seed):
    """Every answer of the walks on the vertex group cores that differs
    from the direct per-word route (``splitting_length``), for the
    separating and loop splittings of one coordinate family: elliptic
    classes, and Fstar verdicts and witnesses against the family and some
    other twists; and every candidate that shares its exact key with one
    of them but not its lengths up to ``depth``."""
    rng = random.Random(seed)
    twist = nontrivial_automorphism(rng, rank) if twisted else None
    family = _family(loop_splitting(rank, 1, twist), include_loops=True)
    candidates = family + [act(nontrivial_automorphism(rng, rank), u) for u in family[::3]]
    test_set = enumerate_cyclic_words(rank, search_length, up_to_inversion=True)
    elliptic = {u: [cw for cw in test_set if splitting_length(u, cw.as_word()) == 0] for u in candidates}
    out = []
    for s in family:
        if _elliptic_classes(s, search_length) != elliptic[s]:
            out.append(("classes", s))
        shares = lambda u: _first_common(s, u, search_length) is not None
        for u in candidates:
            if _tree_key(u) == _tree_key(s):
                if vertex_key(u, depth) != vertex_key(s, depth):
                    out.append(("key", s, u))
                continue
            witness = next((cw for cw in elliptic[s] if cw in elliptic[u]), None)
            if fstar_adjacent(s, u, search_length) != witness or shares(u) != (witness is not None):
                out.append(("fstar", s, u))
    return out


def walk_reading(core, start, letters):
    """The vertex a walk from ``start`` reading ``letters`` ends at, or
    None where ``core`` has no edge to take."""
    v = start
    for l in letters:
        if (v := core[v].get(l)) is None:
            return None
    return v


def long_words(rng, s, side, count):
    """``count`` cyclically reduced words of 7-20 letters, drawn in turn at
    random (nearly all hyperbolic in ``s``), off the vertex group of
    ``side`` (the twist's image of a word in its letters, conjugated, then
    cyclically reduced: all elliptic), and along a walk on a vertex group
    core of ``s`` that need not close."""
    words = []
    while len(words) < count:
        if len(words) % 3 == 0:
            w = random_cyclically_reduced_word(rng, s.rank, rng.randint(7, 20))
        elif len(words) % 3 == 1:
            inner = reduce([rng.choice(side) * rng.choice((1, -1)) for _ in range(12)], s.rank)
            cw = cyclic_reduce(s.twist.apply(inner).conjugate_by(random_reduced_word(rng, s.rank, 3)))[0]
            w = cw.as_word() if cw else Word(s.rank)
        else:
            core = rng.choice(_vertex_group_cores(s))
            v, letters = rng.choice(list(core)), [0]
            for _ in range(rng.randint(7, 20)):  # a core vertex has two edges or more
                l, v = rng.choice([(l, u) for l, u in core[v].items() if l != -letters[-1]])
                letters.append(l)
            w = Word(s.rank, tuple(letters[1:])) if letters[1] != -letters[-1] else Word(s.rank)
        if 7 <= len(w) <= 20:
            words.append(w)
    return words


class TestTwistTables:
    """Elliptic classes and the short Fstar step are walked on the
    memoised vertex group cores of each splitting (``_elliptic``); each
    answer must equal the direct per-word route, for twisted splittings
    as for untwisted ones."""

    @pytest.mark.parametrize("rank, depth, search_length", [(3, 3, 6), (3, 4, 5), (4, 3, 5), (4, 4, 5), (5, 3, 4)])
    @pytest.mark.parametrize("twisted", [False, True])
    def test_tables_agree_with_the_direct_route(self, rank, depth, search_length, twisted):
        found = table_disagreements(rank, twisted, depth, search_length, seed=rank + 10 * depth)
        assert not found

    @pytest.mark.parametrize("rank", [3, 4, 5])
    def test_a_walk_is_elliptic_exactly_at_length_zero(self, rank):
        # long classes, which no test set up to the search length holds
        rng = random.Random(70 + rank)
        gens = range(1, rank + 1)
        seen = set()
        for kind, twisted in product(("sep", "loop"), (False, True)):
            for _ in range(12):
                twist = nontrivial_automorphism(rng, rank) if twisted else Automorphism.identity(rank)
                if kind == "sep":
                    s = separating_splitting(rank, rng.sample(gens, rng.randint(1, rank - 1)), twist)
                    inside = rng.random() < 0.5
                    side = [i for i in gens if (i in s.subset) == inside]
                else:
                    s = loop_splitting(rank, rng.randint(1, rank), twist)
                    side = [i for i in gens if i != s.stable]
                for w in long_words(rng, s, side, 9):
                    elliptic = _elliptic(s, w.letters)
                    assert elliptic == (splitting_length(s, w) == 0), (s, w.letters)
                    seen.add((kind, twisted, elliptic))
        assert seen == set(product(("sep", "loop"), (False, True), (False, True)))

    def test_a_walk_that_need_not_close_disagrees(self, monkeypatch, cold_tables):
        # the planted walk accepts any path that reads the letters, so a
        # class that a core reads only along an open path, such as a proper
        # subword of the generator of a cyclic vertex group, counts as elliptic
        def open_walk(s, letters):
            return any(walk_reading(core, v, letters) is not None
                       for core in _vertex_group_cores(s) for v in core)

        monkeypatch.setattr(splittings, "_elliptic", open_walk)
        found = table_disagreements(3, True, 4, 6, seed=3 + 40)
        assert {kind for kind, *_ in found} == {"classes", "fstar"}

    def test_a_walk_from_each_first_vertex_only_disagrees(self, monkeypatch, cold_tables):
        # the planted walk starts at the first vertex of each core only, so
        # a class that closes up at another vertex, a rotation of one read
        # from the first, is missed
        def first_vertex_walk(s, letters):
            return any(walk_reading(core, v, letters) == v
                       for core in _vertex_group_cores(s) for v in list(core)[:1])

        monkeypatch.setattr(splittings, "_elliptic", first_vertex_walk)
        found = table_disagreements(3, True, 4, 6, seed=3 + 40)
        assert {kind for kind, *_ in found} == {"classes", "fstar"}

    def test_act_reads_composed_twists_within_their_bound(self, cold_tables):
        rng = random.Random(32)
        moves = set()
        while len(moves) < splittings._COMPOSE_SIZE + 4:
            moves.add(nontrivial_automorphism(rng, 3))
        family = _family(loop_splitting(3, 1, nontrivial_automorphism(rng, 3)), include_loops=True)
        for _ in range(2):  # cold, then read back from the memo or composed again
            for psi in moves:
                for s in family:
                    composed = FreeSplitting(s.rank, s.kind, s.subset, s.stable, compose(psi, s.twist))
                    assert act(psi, s) == composed
        info = _compose.cache_info()
        assert info.maxsize == splittings._COMPOSE_SIZE
        assert info.hits > 0 and info.misses > info.maxsize >= info.currsize

    def test_one_search_cold_warm_and_cleared(self, cold_tables):
        rng = random.Random(12)
        twist = nontrivial_automorphism(rng, 3)
        g = supergolden_automorphism()
        searches = [
            ("Fstar", separating_splitting(3, [1], twist), act(g, separating_splitting(3, [2], twist))),
            ("Z", loop_splitting(3, 2, twist), enumerate_cyclic_words(3, 3, True)[7]),
        ]

        def run():
            return [bfs_distance(f, v1, v2, 2, [g], search_length=5) for f, v1, v2 in searches]

        cold, warm = run(), run()
        for table in (_vertex_group_cores, _tree_key):
            table.cache_clear()
        assert cold == warm == run()


def fstar_pairs(seed, count):
    """Seeded (s1, s2, search length, moved) at ranks 3-5: separating and
    loop splittings, each untwisted or twisted by up to 10 elementary
    factors, at rank 3 also moved by the supergolden automorphism (then
    ``moved`` is true), at search lengths 1-6 (1-5 at rank 5, whose longest
    test set holds 51,264 classes)."""
    rng = random.Random(seed)
    g = supergolden_automorphism()
    out = []
    for i in range(count):
        rank = (3, 3, 4, 5)[i % 4]

        def splitting():
            twist = None if rng.random() < 0.2 else random_automorphism(rng, rank, max_factors=10, max_image_len=12)
            if rng.random() < 0.5:
                return separating_splitting(rank, rng.sample(range(1, rank + 1), rng.randint(1, rank - 1)), twist)
            return loop_splitting(rank, rng.randint(1, rank), twist)

        s1, s2 = splitting(), splitting()
        moved = rank == 3 and rng.random() < 0.4
        out.append((s1, act(g, s2) if moved else s2, 1 + i % (6 if rank < 5 else 5), moved))
    return out


@pytest.fixture(scope="module")
def pairs():
    """The seeded pairs, and those whose search reaches the pullback: no
    common class of length at most 2, and a longer search length."""
    every = fstar_pairs(33, 800)
    return every, [pair for pair in every if pair[2] > 2 and first_common_elliptic(*pair[:2], 2) is None]


def pullback_disagreements(pairs):
    """(s1, s2, search length, answer, scan's answer) wherever the Fstar
    search differs from the scan of the test set; a KeyError raised by the
    search counts as its answer."""
    out = []
    for s1, s2, n, _ in pairs:
        try:
            got = _first_common(s1, s2, n)
        except KeyError as error:
            got = error
        want = first_common_elliptic(s1, s2, n)
        if got != want:
            out.append((s1, s2, n, got, want))
    return out


class TestPullback:
    """Past the short classes, the Fstar search reads the cores of Stallings
    pullbacks; its witness must be the first common class of the test set."""

    def test_pullback_agrees_with_the_scan(self, pairs):
        every, _ = pairs
        assert not pullback_disagreements(every)

    def test_the_pairs_cover_every_case(self, pairs):
        every, late = pairs
        assert {s.rank for s1, s2, *_ in every for s in (s1, s2)} == {3, 4, 5}
        assert {n for _, _, n, _ in every} == {1, 2, 3, 4, 5, 6}
        sides = {(s.kind, s.twist.is_identity) for s1, s2, *_ in late for s in (s1, s2)}
        assert sides == {(kind, untwisted) for kind in ("sep", "loop") for untwisted in (False, True)}
        assert {moved for *_, moved in late} == {False, True}
        answers = [(_first_common(s1, s2, n), bool(_pullback_cores(s1, s2))) for s1, s2, n, _ in late]
        # a class of length 3 or more; none with an empty core; none within
        # the bound although the core holds a class
        assert {(found is None, core) for found, core in answers} == {(False, True), (True, False), (True, True)}

    def test_a_cold_search_lists_only_the_short_classes(self, monkeypatch):
        # a search length with more than MAX_LISTED classes is refused by
        # count, so the first search of a process lists no long class: at
        # rank 5 and length 6 the whole test set is 51,264 classes
        asked, listed = [], splittings.enumerate_cyclic_words
        monkeypatch.setattr(splittings, "enumerate_cyclic_words",
                            lambda rank, length, *a, **k: asked.append(length) or listed(rank, length, *a, **k))
        twist = Automorphism.from_images(5, [[1, 2], [2], [3], [4], [5]], [[1, -2], [2], [3], [4], [5]])
        s1, s2 = separating_splitting(5, [1, 2], twist), loop_splitting(5, 1)
        assert _first_common(s1, s2, 6) == first_common_elliptic(s1, s2, 6)
        assert asked and max(asked) <= 2

    def test_the_class_count_is_taken_once_and_refuses_every_time(self):
        # the Burnside count depends only on the rank and the search length
        s1, s2 = separating_splitting(5, [1, 2]), loop_splitting(5, 1)
        _first_common(s1, s2, 6)
        misses = _check_class_count.cache_info().misses
        for _ in range(2):
            _first_common(s1, s2, 6)
        assert _check_class_count.cache_info().misses == misses
        for _ in range(2):
            with pytest.raises(ValueError, match="depth 40 has more than 1000000 conjugacy classes"):
                _first_common(s1, s2, 40)

    def test_a_fold_that_skips_one_merge_is_caught(self, monkeypatch, pairs, cold_tables):
        # the planted fold leaves the first two edges of one letter at a
        # vertex unfolded: it drops the later one, so its subgroup loses
        # elements and the pullback loses classes.  The cores are memoised
        # per splitting, so cold_tables empties the memo before and after:
        # warm, it would serve the cores that earlier tests folded right
        def fold_skipping_one_merge(words):
            todo, size = [], 1
            for w in words:
                path = [0, *range(size, size + len(w) - 1), 0]
                size += len(w) - 1
                for v, l, u in zip(path, w, path[1:]):
                    todo += ((v, l, u), (u, -l, v))
            graph = {v: {} for v in range(size)}
            into, skipped = {}, False

            def find(v):
                while v in into:
                    v = into[v]
                return v

            while todo:
                v, l, u = todo.pop()
                v, u = find(v), find(u)
                t = graph[v].setdefault(l, u)
                if find(t) != u:
                    if not skipped:  # drop the edge, at both ends
                        skipped = True
                        if find(graph[u].get(-l, u)) == v:
                            del graph[u][-l]
                        continue
                    into[u] = t = find(t)
                    todo += [(t, k, x) for k, x in graph.pop(u).items()]
            return {v: {l: find(u) for l, u in edges.items()} for v, edges in graph.items()}

        monkeypatch.setattr(splittings, "_fold", fold_skipping_one_merge)
        _, late = pairs
        found = pullback_disagreements(late)
        assert any(not isinstance(got, KeyError) for *_, got, _ in found)

    def test_a_prune_that_keeps_the_inverse_edge_is_caught(self, monkeypatch, pairs, cold_tables):
        # the planted prune drops a leaf but not its edge's far end.  Every
        # cyclically reduced closed path of a graph lies in its core, so
        # pruning less moves no verdict; the walk follows a kept far end
        # into a dropped vertex, and the search fails
        def core_keeping_far_ends(graph):
            leaves = [v for v, edges in graph.items() if len(edges) <= 1]
            while leaves:
                for l, u in graph.pop(leaves.pop()).items():
                    if len(graph[u]) == 1:
                        leaves.append(u)
            return graph

        monkeypatch.setattr(splittings, "_core", core_keeping_far_ends)
        _, late = pairs
        found = pullback_disagreements(late)
        assert found and all(isinstance(got, KeyError) for *_, got, _ in found)

    def test_a_pullback_of_one_vertex_group_is_caught(self, monkeypatch, pairs, cold_tables):
        # the planted pullback reads only the side of a partition that holds
        # generator 1, so a class conjugate into the other side is missed
        cores = splittings._vertex_group_cores
        monkeypatch.setattr(splittings, "_vertex_group_cores", lambda s: cores(s)[:1])
        _, late = pairs
        found = pullback_disagreements(late)
        assert found and all(got is None for *_, got, _ in found)


class TestRefinementAdjacency:
    def test_nested_yes(self):
        assert refinement_adjacent(
            separating_splitting(3, [1]), separating_splitting(3, [1, 2])
        ) == "yes"

    def test_disjoint_unknown(self):
        # {1} and {2} are disjoint, but the partitions {1 | 2, 3} and
        # {2 | 1, 3} are nested: {1} lies inside {1, 3}
        assert refinement_adjacent(
            separating_splitting(3, [1]), separating_splitting(3, [2])
        ) == "yes"

    def test_twist_mismatch_unknown(self):
        rng = random.Random(6)
        phi = random_automorphism(rng, 3)
        while phi.is_identity:
            phi = random_automorphism(rng, 3)
        assert refinement_adjacent(
            separating_splitting(3, [1]), separating_splitting(3, [1, 2], phi)
        ) == "unknown"

    def test_same_vertex_no(self):
        assert refinement_adjacent(
            separating_splitting(3, [1]), separating_splitting(3, [2, 3])
        ) == "no"

    def test_cut_graph_variants(self):
        assert refinement_adjacent(
            separating_splitting(3, [1]), loop_splitting(3, 2)
        ) == "yes"
        # the stable letter a lies in {1, 2} but avoids the other side {3}
        assert refinement_adjacent(
            separating_splitting(3, [1, 2]), loop_splitting(3, 1)
        ) == "yes"
        assert refinement_adjacent(loop_splitting(3, 1), loop_splitting(3, 2)) == "yes"
        assert refinement_adjacent(
            separating_splitting(4, [1, 2]), separating_splitting(4, [1, 3])
        ) == "unknown"

    @pytest.mark.parametrize("rank", [3, 4, 5])
    def test_partition_rule_is_the_subset_rule_over_both_sides(self, rank):
        # the coordinate rule on ordered subsets (strictly nested subsets;
        # a stable letter outside the subset; distinct stable letters),
        # taken over both sides of each partition, on every pair of
        # presentations over one twist
        full = frozenset(range(1, rank + 1))

        def sides(p):
            return [p] if p[0] == "loop" else [p, ("sep", full - p[1])]

        def subset_rule(p, q):
            if p[0] == q[0] == "sep":
                return p[1] < q[1] or q[1] < p[1]
            if p[0] == q[0] == "loop":
                return p[1] != q[1]
            (_, sub), (_, stable) = (p, q) if p[0] == "sep" else (q, p)
            return stable not in sub

        twist = nontrivial_automorphism(random.Random(rank), rank)
        presentations = [("sep", frozenset(c)) for k in range(1, rank)
                         for c in combinations(full, k)]
        presentations += [("loop", t) for t in full]

        def build(p):
            if p[0] == "sep":
                return separating_splitting(rank, p[1], twist)
            return loop_splitting(rank, p[1], twist)

        for p, q in combinations(presentations, 2):
            s1, s2 = build(p), build(q)
            if q in sides(p):
                want = "no"
            elif any(subset_rule(x, y) for x in sides(p) for y in sides(q)):
                want = "yes"
            else:
                want = "unknown"
            assert refinement_adjacent(s1, s2) == want, (p, q)
            assert refinement_adjacent(s2, s1) == want, (q, p)


class TestIntersectionGraph:
    def test_elliptic_witness_edge(self):
        s = separating_splitting(3, [1])
        assert intersection_graph_adjacent(s, counting_current(parse_word("b", 3)))

    def test_chart_never_adjacent(self):
        assert not intersection_graph_adjacent(
            unit_rose(3), counting_current(parse_word("b", 3))
        )

    def test_linearity_of_adjacency(self):
        s = separating_splitting(3, [1])
        mu1 = counting_current(parse_word("b", 3))
        mu2 = scale(3, counting_current(parse_word("bccb", 3)))
        assert intersection_graph_adjacent(s, mu1)
        assert intersection_graph_adjacent(s, mu2)
        assert intersection_graph_adjacent(s, add(mu1, mu2))

    def test_minted_witnesses_are_normal(self):
        """Z and I0 mint their witnesses from the test set without
        normalising: each class must be flip-normalised already, and its
        minted current, proper powers included, what the public
        constructor builds."""
        for cw in enumerate_cyclic_words(3, 6, up_to_inversion=True):
            assert flip_normalize(cw) == cw
            assert _class_current(cw) == RationalCurrent(3, ((cw, 1),))

    def test_zero_current_rejected(self):
        with pytest.raises(ValueError):
            intersection_graph_adjacent(separating_splitting(3, [1]), RationalCurrent(3))

    @pytest.mark.parametrize(
        "tree", [unit_rose(2), separating_splitting(2, [1])], ids=["chart", "splitting"]
    )
    def test_rank_mismatch(self, tree):
        with pytest.raises(ValueError, match="rank mismatch"):
            intersection_graph_adjacent(tree, counting_current(parse_word("c", 3)))


class TestMaps:
    # the comparison maps j and q carry vertex data unchanged, so each
    # splitting stands for its own image
    def test_j_preserves_certified_edges(self):
        rng = random.Random(7)
        for _ in range(20):
            phi = random_automorphism(rng, 3)
            s1 = separating_splitting(3, [1], phi)
            s2 = separating_splitting(3, [1, 3], phi)
            assert refinement_adjacent(s1, s2) == "yes"
            assert fstar_adjacent(s1, s2, search_length=6) is not None

    def test_q_gives_length_two_paths(self):
        s1 = separating_splitting(3, [1])
        s2 = loop_splitting(3, 1)
        witness = fstar_adjacent(s1, s2)
        assert witness is not None
        eta = counting_current(witness.as_word())
        assert intersection_graph_adjacent(s1, eta)
        assert intersection_graph_adjacent(s2, eta)
        assert bfs_distance("I0", s1, s2, 2) == 2


VERTICES = {
    "sep": separating_splitting(3, [1]),
    "loop": loop_splitting(3, 1),
    "class": cyclic_reduce(parse_word("b", 3))[0],
    "current": counting_current(parse_word("b", 3)),
    "chart": unit_rose(3),
}


class TestBFS:
    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_and_search_length_below_one_rejected(self, depth):
        # an empty test set would give every splitting one key
        s1, s2 = separating_splitting(3, [1]), separating_splitting(3, [1, 2])
        with pytest.raises(ValueError, match="key depth"):
            vertex_key(s1, depth)
        with pytest.raises(ValueError, match="search length"):
            bfs_distance("F", s1, s2, 2, search_length=depth)

    def test_same_vertex_distance_zero(self):
        s = separating_splitting(3, [1])
        assert bfs_distance("F", s, separating_splitting(3, [2, 3]), 3) == 0

    def test_nested_distance_one(self):
        assert bfs_distance(
            "F", separating_splitting(3, [1]), separating_splitting(3, [1, 2]), 3
        ) == 1

    def test_intersection_graph_edge(self):
        assert bfs_distance(
            "I0",
            separating_splitting(3, [1]),
            counting_current(parse_word("b", 3)),
            2,
        ) == 1

    def test_fstar_neighbours_at_distance_one(self):
        assert bfs_distance(
            "Fstar", separating_splitting(3, [1]), separating_splitting(3, [2]), 2
        ) == 1

    def test_cut_graph_loop_edge(self):
        assert bfs_distance(
            "S", separating_splitting(3, [1]), loop_splitting(3, 2), 2
        ) == 1

    def test_ellipticity_graph(self):
        from outerint.words import cyclic_reduce

        cls = cyclic_reduce(parse_word("b", 3))[0]
        assert bfs_distance("Z", separating_splitting(3, [1]), cls, 2) == 1

    def test_unreached_within_radius_is_none(self):
        rng = random.Random(9)
        phi = random_automorphism(rng, 3)
        while phi.is_identity:
            phi = random_automorphism(rng, 3)
        s = separating_splitting(3, [1])
        t = act(phi, s)
        if vertex_key(s) == vertex_key(t):
            pytest.skip("twist fixes the vertex")
        assert bfs_distance("F", s, t, 0) is None

    def test_radius_zero_identical(self):
        s = separating_splitting(3, [1])
        assert bfs_distance("F", s, s, 0) == 0

    def test_state_cap(self):
        with pytest.raises(StateCapExceeded):
            bfs_distance(
                "Fstar",
                separating_splitting(3, [1]),
                separating_splitting(3, [2]),
                2,
                state_cap=1,
            )

    @pytest.mark.parametrize("flavor", ["Z", "I0"])
    def test_state_cap_binds_on_minted_witnesses(self, flavor):
        # at radius 3 a splitting must mint at depth 0 for a hyperbolic
        # target, and sep{1} has 123 elliptic classes up to length 6
        s = separating_splitting(3, [1])
        target = cyclic_reduce(parse_word("ab", 3))[0]
        if flavor == "I0":
            target = counting_current(target.as_word())
        assert len(_elliptic_classes(s, 6)) > 100
        with pytest.raises(StateCapExceeded):
            bfs_distance(flavor, s, target, 3, state_cap=100)

    def test_state_cap_counts_stored_vertices(self):
        # sep{1} is the only splitting expanded: its minted classes fill the cap
        with pytest.raises(StateCapExceeded, match="^state cap exceeded after storing 100 vertices$") as info:
            bfs_distance("Z", separating_splitting(3, [1]), CyclicWord(3, (1, 2)), 3, state_cap=100)
        assert info.value.stored == 100

    @pytest.mark.parametrize("flavor, word, radius, distance", [
        ("Z", "ab", 2, None),  # a hyperbolic class
        ("I0", "ab", 2, None),
        ("Z", "b", 3, 1),  # an elliptic class, found before minting
        ("I0", "bc", 3, 1),
    ])
    def test_no_elliptic_table_for_a_target_within_reach(self, monkeypatch, flavor, word, radius, distance):
        # a class minted at depth 0 could reach a witness target only at
        # distance 3, through a second tree, so no search below radius 3
        # mints, and one that finds the target adjacent mints nothing
        calls = []
        monkeypatch.setattr(splittings, "_elliptic_classes", lambda *a: calls.append(a) or _elliptic_classes(*a))
        target = cyclic_reduce(parse_word(word, 3))[0]
        if flavor == "I0":
            target = counting_current(target.as_word())
        assert bfs_distance(flavor, separating_splitting(3, [1]), target, radius) == distance
        assert calls == []

    def test_rank_two_rejected(self):
        with pytest.raises(ValueError, match="rank >= 3"):
            bfs_distance(
                "F", separating_splitting(2, [1]), separating_splitting(2, [2]), 1
            )

    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    @pytest.mark.parametrize(
        "flavor, kind, message",
        [
            pytest.param(flavor, kind, message, id=f"{flavor}-{kind}")
            for flavor, kinds, message in [
                ("F", "loop class current chart", "flavor F vertices are separating splittings"),
                ("Fstar", "loop class current chart",
                 "flavor Fstar vertices are separating splittings"),
                ("S", "class current chart", "flavor S vertices are splittings"),
                ("Z", "chart current", "flavor Z vertices are splittings or conjugacy classes"),
                ("I0", "class", "flavor I0 vertices are trees or currents"),
            ]
            for kind in kinds.split()
        ],
    )
    def test_flavor_vertex_type_checked(self, flavor, kind, message, first):
        bad = VERTICES[kind]
        pair = (bad, VERTICES["sep"]) if first else (VERTICES["sep"], bad)
        with pytest.raises(ValueError) as info:
            bfs_distance(flavor, *pair, 1)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "flavor, v1, v2, radius, moves, expected",
        [
            ("Z", "class b", "sep 1", 2, False, 1),
            ("Z", "class ab", "sep 1", 3, False, None),
            ("Z", "class c", "loop 1", 2, False, 1),
            ("I0", "current b", "sep 1", 2, False, 1),
            ("I0", "current b", "loop 2", 3, False, None),
            ("I0", "chart", "chart x2", 2, False, 0),
            ("I0", "chart", "current b", 3, False, None),
            ("I0", "current b", "chart", 3, False, None),
            ("S", "loop 1", "sep 2", 2, False, 1),
            ("S", "sep 2", "loop 1", 2, False, 1),
            ("S", "loop 1", "sep 12", 3, False, 1),
            ("S", "sep 12", "loop 1", 3, False, 1),
            ("S", "loop 2", "loop 3 swapped", 2, False, 1),
            ("Z", "sep 1", "loop 1", 2, True, 2),
            ("Z", "sep 1", "class ac", 2, True, None),
            ("Z", "class b", "sep 2 moved", 2, True, 1),
            ("I0", "sep 1", "loop 3", 2, True, 2),
            ("I0", "sep 1", "current ac", 2, True, None),
            ("I0", "current b", "loop 1 moved", 2, True, None),
        ],
    )
    def test_pinned_distances(self, flavor, v1, v2, radius, moves, expected):
        # values computed before the flavor and vertex-kind tables existed
        g = supergolden_automorphism()
        swap = Automorphism.from_images(3, [[2], [1], [3]], [[2], [1], [3]])
        named = {
            "sep 1": separating_splitting(3, [1]),
            "sep 2": separating_splitting(3, [2]),
            "sep 12": separating_splitting(3, [1, 2]),
            "loop 1": loop_splitting(3, 1),
            "loop 2": loop_splitting(3, 2),
            "loop 3": loop_splitting(3, 3),
            "sep 2 moved": act(g, separating_splitting(3, [2])),
            "loop 1 moved": act(g, loop_splitting(3, 1)),
            # equal to the untwisted loop over c, reached through the
            # loop family of the other endpoint
            "loop 3 swapped": loop_splitting(3, 3, swap),
            "chart": unit_rose(3),
            "chart x2": scale_lengths(unit_rose(3), 2),
        }
        for w in ("b", "c", "ab", "ac"):
            named[f"class {w}"] = cyclic_reduce(parse_word(w, 3))[0]
            named[f"current {w}"] = counting_current(parse_word(w, 3))
        d = bfs_distance(flavor, named[v1], named[v2], radius, [g] if moves else [])
        assert d == expected

    def test_moves_inject_orbit(self):
        rng = random.Random(0)
        phi = random_automorphism(rng, 3)
        s = separating_splitting(3, [1])
        t = act(phi, s)
        assert vertex_key(s) != vertex_key(t)
        d = bfs_distance("Fstar", s, t, 4, move_generators=[phi])
        assert d == 1  # a common elliptic exists within the default bound

    def test_moved_classes_stored_flip_normalised(self):
        """A class is keyed by its letters, so the move images of classes
        must be stored flip-normalised, as the endpoints are."""
        rng = random.Random(12)
        moves = [supergolden_automorphism(), nontrivial_automorphism(rng, 3)]
        seeds = [flip_normalize(cyclic_reduce(random_reduced_word(rng, 3, 3))[0]) for _ in range(5)]
        universe = _Universe(5000)
        for cw in seeds:
            universe.add(cw)
        splittings._move_closure(universe, seeds, moves, 2)
        stored = [v for _, v in universe.stored[CyclicWord]]
        assert len(stored) > len(seeds)
        assert all(flip_normalize(v) == v for v in stored)

    def test_collision_inside_the_family_of_a_vertex(self):
        # sep{1} and sep{1, 2}, both twisted by phi, share their lengths up
        # to depth 2 and differ at depth 4; the second lies in the family
        # of the first.  Their exact keys differ, so the search keeps them
        # apart.  The target is the tree of sep{1, 3} twisted by phi, which
        # lies in that family too, and shares a class elliptic in sep{1}
        phi = Automorphism.from_images(3, [[1, 3], [2], [3, 1, 3]], [[1, 1, -3], [2], [3, -1]])
        s, t = separating_splitting(3, [1], phi), separating_splitting(3, [1, 3])
        u = separating_splitting(3, [1, 2], phi)
        assert vertex_key(s, 2) == vertex_key(u, 2) and vertex_key(s, 4) != vertex_key(u, 4)
        assert _tree_key(s) != _tree_key(u)
        assert _tree_key(t) == _tree_key(separating_splitting(3, [1, 3], phi))
        witness = fstar_adjacent(s, t, 3)
        assert splitting_length(s, witness.as_word()) == splitting_length(t, witness.as_word()) == 0
        assert bfs_distance("Fstar", s, t, 1, search_length=3) == 1


def equivariance_cases(seed, count):
    """Seeded move-free F and S searches at ranks 3 and 4, as (flavor, s1,
    s2, radius, psi): endpoints under a shared twist or one of their own,
    each a product of up to two elementary moves, and a random
    automorphism psi to apply to both."""
    rng = random.Random(seed)
    for i in range(count):
        rank, flavor = (3, 4)[i % 2], ("F", "S")[i // 2 % 2]
        shared = random_automorphism(rng, rank, max_factors=2)

        def splitting():
            twist = shared if rng.random() < 0.6 else random_automorphism(rng, rank, max_factors=2)
            if flavor == "S" and rng.random() < 0.4:
                return loop_splitting(rank, rng.randint(1, rank), twist)
            return separating_splitting(rank, rng.sample(range(1, rank + 1), rng.randint(1, rank - 1)), twist)

        yield flavor, splitting(), splitting(), rng.randint(1, 2), nontrivial_automorphism(rng, rank)


def search_result(*args, **kwargs):
    """The distance, or the name of the error the search raised."""
    try:
        return bfs_distance(*args, **kwargs)
    except OuterintError as e:
        return type(e).__name__


class TestEquivariance:
    """An automorphism psi is an isometry of every splitting graph, so a
    move-free search between psi(s1) and psi(s2) gives the distance
    between s1 and s2, whatever the presentations."""

    def test_searches_are_equivariant(self):
        results, changed = [], []
        for i, (flavor, s1, s2, radius, psi) in enumerate(equivariance_cases(1, 420)):
            d = search_result(flavor, s1, s2, radius)
            moved = search_result(flavor, act(psi, s1), act(psi, s2), radius)
            results.append(d)
            if moved != d:
                changed.append((i, flavor, s1.rank, d, moved))
        assert not changed, f"{len(changed)} of 420 changed (index, flavor, rank, result, moved): {changed[:10]}"
        assert {0, 1, 2, None} <= set(results)

    def test_the_oracle_catches_keys_read_off_the_test_set(self, monkeypatch, cold_tables):
        # the planted key is a splitting's lengths up to depth 2, with no
        # check when two splittings share them: the test set is fixed, not
        # moved by psi, so which splittings merge depends on the
        # presentation
        monkeypatch.setattr(splittings, "_tree_key", lambda s: ("tree", vertex_key(s, 2)))
        changed = [i for i, (flavor, s1, s2, radius, psi) in enumerate(equivariance_cases(1, 420))
                   if search_result(flavor, s1, s2, radius) != search_result(flavor, act(psi, s1), act(psi, s2), radius)]
        assert changed


def inner(u: Word) -> Automorphism:
    """Conjugation by ``u``: each generator x goes to u x u^-1."""
    gens = [Word(u.rank, (i,)) for i in range(1, u.rank + 1)]
    return Automorphism(u.rank, tuple(u * x * u.inverse() for x in gens),
                        tuple(u.inverse() * x * u for x in gens))


def one_point_variants(rng, M):
    """Charts of the projective point of ``M``: scaled, subdivided,
    re-marked by an inner automorphism, and read back from JSON."""
    return [
        scale_lengths(M, random_fraction(rng)),
        subdivide_edge(M, rng.randint(1, M.graph.num_edges), Fraction(rng.randint(1, 3), 4)),
        act_on_chart(inner(random_reduced_word(rng, M.rank, rng.randint(1, 4))), M),
        marked_graph_from_json_obj(marked_graph_to_json_obj(M)),
    ]


def charts_apart_up_to_depth_2():
    """Two charts ``act(psi, unit_rose(3))`` whose lengths are proportional
    on every class up to length 2, and that are different points."""
    psi1 = Automorphism.from_images(3, [[1], [-2], [3, -2]], [[1], [-2], [3, -2]])
    psi2 = Automorphism.from_images(3, [[1], [2], [-3, 2]], [[1], [2], [2, -3]])
    return act_on_chart(psi1, unit_rose(3)), act_on_chart(psi2, unit_rose(3))


def normalised_lengths(M, depth):
    lengths = [translation_length(M, cw.as_word()) for cw in enumerate_cyclic_words(M.rank, depth, up_to_inversion=True)]
    return [x / lengths[0] for x in lengths]


def chart_disagreements(pairs, radius=1):
    """The pairs of charts whose I0 distance, in either order, is not the
    one the whole-ball oracle gives."""
    return [(M, N) for M, N in pairs
            if {bfs_distance("I0", M, N, radius), bfs_distance("I0", N, M, radius)}
            != {whole_ball_bipartite_distance("I0", M, N, radius)}]


class TestChartEndpoints:
    """A chart pairs positively with every nonzero current, so it is an
    isolated vertex of I0: an I0 search with a chart endpoint gives 0 for
    two charts of one projective point and None otherwise."""

    @pytest.mark.parametrize("rank", [3, 4])
    def test_charts_of_one_point_are_at_distance_0(self, rank):
        rng = random.Random(rank)
        pairs = []
        for _ in range(3):
            for M in (random_blown_up_chart(rng, rank), random_marked_graph(rng, rank)):
                pairs += [(M, N) for N in one_point_variants(rng, M)]
        for M, N in pairs:
            assert [bfs_distance("I0", M, N, r) for r in (0, 2)] == [0, 0]
            assert bfs_distance("I0", N, M, 1) == 0
        if rank == 3:  # the oracle lists too many paths at rank 4
            assert not chart_disagreements(pairs[:4])

    def test_a_unit_rose_is_its_signed_petal_permutations(self):
        rng = random.Random(5)
        signed = elementary_automorphisms(3)[6:]  # the inversions and the swaps
        for _ in range(10):
            sigma = Automorphism.identity(3)
            for _ in range(4):
                sigma = compose(rng.choice(signed), sigma)
            assert bfs_distance("I0", unit_rose(3), act_on_chart(sigma, unit_rose(3)), 1) == 0

    def test_charts_that_agree_up_to_depth_2_are_apart(self):
        M, N = charts_apart_up_to_depth_2()
        assert normalised_lengths(M, 2) == normalised_lengths(N, 2)
        assert normalised_lengths(M, 5) != normalised_lengths(N, 5)
        assert [bfs_distance("I0", *pair, r) for pair in ((M, N), (N, M)) for r in range(3)] == [None] * 6
        assert not chart_disagreements([(M, N), (M, scale_lengths(N, 2))])

    def test_a_helper_that_compares_depth_2_lengths_is_caught(self, monkeypatch):
        monkeypatch.setattr(splittings, "_one_point",
                            lambda M1, M2: normalised_lengths(M1, 2) == normalised_lengths(M2, 2))
        assert chart_disagreements([charts_apart_up_to_depth_2()])

    def test_results_are_unchanged_when_psi_moves_both_charts(self):
        rng = random.Random(8)
        M, N = charts_apart_up_to_depth_2()
        pairs = [(M, N)] + [(M, V) for V in one_point_variants(rng, M)]
        for rank in (3, 4):
            R = random_blown_up_chart(rng, rank)
            pairs += [(R, V) for V in one_point_variants(rng, R)] + [(R, random_blown_up_chart(rng, rank))]
        results = []
        for M, N in pairs:
            psi = nontrivial_automorphism(rng, M.rank)
            results.append(bfs_distance("I0", M, N, 1))
            assert bfs_distance("I0", act_on_chart(psi, M), act_on_chart(psi, N), 1) == results[-1]
        assert set(results) == {0, None}

    def test_a_chart_search_stores_nothing(self, monkeypatch):
        added = []
        monkeypatch.setattr(_Universe, "add", lambda universe, v: added.append(v))
        M, g = unit_rose(3), supergolden_automorphism()
        mu = counting_current(parse_word("b", 3))
        for pair, distance in (((M, scale_lengths(M, 2)), 0), ((M, mu), None), ((mu, M), None)):
            assert bfs_distance("I0", *pair, 2, [g], state_cap=1) == distance
        assert added == []

    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_a_zero_current_endpoint_is_refused(self, radius):
        s, zero = separating_splitting(3, [1]), RationalCurrent(3)
        for pair in ((s, zero), (zero, s), (zero, zero), (unit_rose(3), zero), (zero, unit_rose(3))):
            with pytest.raises(ValueError, match="^the zero current has no projective class$"):
                bfs_distance("I0", *pair, radius)


class TestPartition:
    def test_subset_and_complement_are_one_value(self):
        s, t = separating_splitting(3, [2, 3]), separating_splitting(3, [1])
        assert s == t and hash(s) == hash(t)
        assert s.subset == {1}
        assert FreeSplitting(4, "sep", frozenset({2, 4}), None, Automorphism.identity(4)).subset == {1, 3}

    def test_one_cache_entry_for_both_sides(self):
        phi = nontrivial_automorphism(random.Random(42), 4)
        _tree_key(separating_splitting(4, [2], phi))
        before = _tree_key.cache_info()
        _tree_key(separating_splitting(4, [1, 3, 4], phi))
        assert _tree_key.cache_info().hits == before.hits + 1

    def test_json_reads_a_partition_and_writes_the_side_of_generator_one(self):
        s = FreeSplitting.from_json_obj({"kind": "sep", "rank": 3, "subset": [3, 2], "twist": None})
        assert s == separating_splitting(3, [1])
        assert s.to_json_obj()["subset"] == [1]

    @pytest.mark.parametrize("rank", [3, 4, 5])
    def test_family_lists_each_partition_once(self, rank):
        family = _family(separating_splitting(rank, [1]), include_loops=False)
        assert len(family) == len(set(family)) == 2 ** (rank - 1) - 1
        assert len({vertex_key(s) for s in family}) == len(family)


class TestSameTree:
    """Two presentations whose change of twist carries the vertex groups
    of one onto those of the other are one splitting: they share the
    exact key, and the vertex store keeps the second as one more
    presentation of the first, with no deeper check."""

    def test_factor_preserving_twist(self):
        # c -> cb keeps <a> and <b, c>; a -> baB conjugates <a> by b, an
        # element of the other side
        for images, inverses in (([[1], [2], [3, 2]], [[1], [2], [3, -2]]),
                                 ([[2, 1, -2], [2], [3]], [[-2, 1, 2], [2], [3]])):
            rho = Automorphism.from_images(3, images, inverses)
            s, t = separating_splitting(3, [1]), separating_splitting(3, [1], rho)
            assert s != t and _tree_key(s) == _tree_key(t)
            assert vertex_key(s, 6) == vertex_key(t, 6)

    def test_stable_letter_crossing_once(self):
        # a -> ab: the stable letter a still crosses once, b and c stay
        rho = Automorphism.from_images(3, [[1, 2], [2], [3]], [[1, -2], [2], [3]])
        s, t = loop_splitting(3, 1), loop_splitting(3, 1, rho)
        assert _tree_key(s) == _tree_key(t)
        assert vertex_key(s, 6) == vertex_key(t, 6)

    def test_other_data_unproven(self):
        assert _tree_key(separating_splitting(3, [1])) != _tree_key(separating_splitting(3, [2]))
        assert _tree_key(loop_splitting(3, 1)) != _tree_key(loop_splitting(3, 2))
        assert _tree_key(separating_splitting(3, [1])) != _tree_key(loop_splitting(3, 1))

    @pytest.mark.parametrize("rank,deep", [(3, 5), (4, 4)])
    def test_proven_pairs_agree_deeper(self, rank, deep):
        # twists built from a few elementary moves, so that one splitting
        # often comes in several presentations; among the pairs that share
        # a depth-2 key, every pair with one exact key must agree at a
        # deeper depth, and both kinds of pair occur
        verdicts = set()
        for group in _by_lengths(_presentations(rank, 16 if rank == 3 else 6), 2):
            for s, t in combinations(group, 2):
                if s != t:
                    proven = _tree_key(s) == _tree_key(t)
                    verdicts.add(proven)
                    assert not proven or vertex_key(s, deep) == vertex_key(t, deep)
        assert verdicts == {True, False}

    def test_proven_presentation_skips_the_deeper_keys(self, monkeypatch):
        rho = Automorphism.from_images(3, [[1], [2], [3, 2]], [[1], [2], [3, -2]])
        s, t = separating_splitting(3, [1]), separating_splitting(3, [1], rho)
        depths = []
        keyed = splittings.vertex_key
        monkeypatch.setattr(splittings, "vertex_key", lambda v, depth=4: depths.append(depth) or keyed(v, depth))
        universe = _Universe(10)
        assert universe.add(s) == universe.add(t)
        assert universe.vertices[universe.key(s)] == [s, t]
        assert depths == []


def _presentations(rank, count):
    """The splittings of the coordinate families of ``count`` twists, each
    the identity or an elementary move composed with an earlier twist, so
    that one splitting often comes in several presentations."""
    pool = elementary_automorphisms(rank)
    rng = random.Random(rank)
    twists = [Automorphism.identity(rank)]
    while len(twists) < count:
        twists.append(compose(rng.choice(pool), rng.choice(twists)))
    return [u for twist in twists for u in _family(loop_splitting(rank, 1, twist), include_loops=True)]


def _by_lengths(presentations, depth):
    """The presentations grouped by their lengths up to ``depth``."""
    groups: dict = {}
    for u in presentations:
        groups.setdefault(vertex_key(u, depth), []).append(u)
    return list(groups.values())


def key_disagreements(presentations, rng, deepest):
    """Where the exact key and the length functions disagree, with the
    keys found: ("merged", s, t) for two presentations with one key that a
    sampled class tells apart, by the displacement oracle on the
    cyclically reduced untwisted class rather than ``splitting_length``;
    ("split", s, t) for two keys that no class up to ``deepest`` tells
    apart.  A key stands for its first presentation."""
    rank = presentations[0].rank
    words = [random_cyclically_reduced_word(rng, rank, rng.randint(1, 8)) for _ in range(30)]

    def lengths(s):
        data = s.subset if s.kind == "sep" else s.stable
        return [bass_serre_translation_length(s.kind, data, cyclic_reduce(s.twist.apply_inverse(w))[0].letters)
                for w in words]

    out, first = [], {}
    for s in presentations:
        t = first.setdefault(splittings._tree_key(s), s)
        if t != s and lengths(s) != lengths(t):
            out.append(("merged", s, t))
    for s, t in combinations(first.values(), 2):
        if all(vertex_key(s, d) == vertex_key(t, d) for d in range(1, deepest + 1)):
            out.append(("split", s, t))
    return out, first


def code_from(core, root):
    """The breadth-first code of ``core`` from ``root`` alone, where
    ``_canonical_code`` takes the least over all roots."""
    number, order, code = {root: 0}, [root], []
    for v in order:
        edges = sorted(core[v].items(), key=lambda e: letter_sort_key(e[0]))
        code.append(len(edges))
        for l, u in edges:
            if u not in number:
                number[u] = len(order)
                order.append(u)
            code += (l, number[u])
    return tuple(code)


class TestExactKey:
    """A splitting is keyed by the canonical codes of its vertex group
    cores.  Presentations with one key have one length function; two keys
    are two length functions, which a class of the test set tells apart."""

    @pytest.mark.parametrize("rank, twists, deepest", [(3, 16, 6), (4, 6, 5)])
    def test_keys_are_the_length_functions(self, rank, twists, deepest):
        presentations = list(dict.fromkeys(_presentations(rank, twists)))
        found, first = key_disagreements(presentations, random.Random(rank), deepest)
        assert not found
        assert len(first) < len(presentations)  # some key holds several presentations

    def test_a_code_that_drops_letter_signs_is_caught(self, monkeypatch, cold_tables):
        def unsigned(core):
            return _canonical_code({v: {abs(l): u for l, u in out.items()} for v, out in core.items()})

        monkeypatch.setattr(splittings, "_canonical_code", unsigned)
        found, _ = key_disagreements(_presentations(3, 16), random.Random(3), 6)
        assert found and {kind for kind, *_ in found} == {"merged"}

    def test_a_separating_key_from_one_side_is_caught(self, monkeypatch, cold_tables):
        def one_side(s):
            return ("tree", s.kind, _canonical_code(_vertex_group_cores(s)[0]))

        # it merges partitions that share one side, and splits the
        # presentations of one partition whose twists swap its sides
        monkeypatch.setattr(splittings, "_tree_key", one_side)
        found, _ = key_disagreements(_presentations(3, 16), random.Random(3), 6)
        merged = [s for kind, s, _ in found if kind == "merged"]
        assert merged and {s.kind for s in merged} == {"sep"}

    def test_a_code_from_one_root_is_caught(self, monkeypatch, cold_tables):
        # which vertex of a core the fold numbers first depends on the
        # presentation
        monkeypatch.setattr(splittings, "_canonical_code", lambda core: code_from(core, next(iter(core))))
        found, _ = key_disagreements(_presentations(4, 6), random.Random(4), 5)
        assert found and {kind for kind, *_ in found} == {"split"}


class TestJson:
    def test_round_trip_untwisted(self):
        s = separating_splitting(3, [1, 3])
        back = FreeSplitting.from_json_obj(s.to_json_obj())
        assert back == s

    def test_round_trip_twisted(self):
        rng = random.Random(11)
        phi = random_automorphism(rng, 3)
        s = loop_splitting(3, 2, phi)
        back = FreeSplitting.from_json_obj(s.to_json_obj())
        assert vertex_key(back) == vertex_key(s)

    def test_untwisted_needs_rank(self):
        with pytest.raises(ValueError, match="rank"):
            FreeSplitting.from_json_obj({"kind": "sep", "subset": [1], "twist": None})
