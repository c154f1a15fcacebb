import random
import tracemalloc
from itertools import combinations

import pytest

from outerint.catalog import supergolden_automorphism
from outerint.currents import RationalCurrent, _class_current, add, counting_current, scale
from outerint.marked_graph import scale_lengths, unit_rose
from outerint.splittings import (
    FreeSplitting,
    KeyCollisionError,
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
    _class_masks,
    _compose,
    _elliptic_classes,
    _family,
    _first_common,
    _key_cores,
    _pullback_cores,
    _same_tree,
    _vertex_key,
)
from outerint.words import (
    Automorphism,
    CyclicWord,
    Word,
    _check_class_count,
    _concat,
    compose,
    cyclic_reduce,
    enumerate_cyclic_words,
    flip_normalize,
    parse_word,
)

from _generators import elementary_automorphisms, random_automorphism, random_reduced_word
from oracles import bass_serre_translation_length, first_common_elliptic


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
        s = loop_splitting(3, 2, nontrivial_automorphism(random.Random(41), 3))
        before = _vertex_key.cache_info()
        keys = {vertex_key(s), vertex_key(s, 4), vertex_key(s, depth=4)}
        after = _vertex_key.cache_info()
        assert len(keys) == 1
        assert after.hits + after.misses - before.hits - before.misses == 3
        assert after.misses - before.misses <= 1

    def test_collision_recheck_runs_with_a_warm_cache(self):
        # both keys are (0, 0, 0) at depth 1 and differ at depth 3; cached
        # keys must not let the merge skip the deeper comparison
        s1, s2 = separating_splitting(3, {1}), separating_splitting(3, {2})
        for depth in (1, 3):
            vertex_key(s1, depth), vertex_key(s2, depth)
        assert vertex_key(s1, 1) == vertex_key(s2, 1)
        assert vertex_key(s1, 1) == (0, 0, 0)
        assert vertex_key(s1, 3) != vertex_key(s2, 3)
        universe = _Universe(1, 100)
        universe.add(s1)
        with pytest.raises(KeyCollisionError):
            universe.add(s2)


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

    def test_symmetry(self):
        s1 = separating_splitting(3, [1, 2])
        s2 = loop_splitting(3, 3)
        assert (fstar_adjacent(s1, s2) is None) == (fstar_adjacent(s2, s1) is None)

    def test_one_scan_answers_every_candidate(self):
        # the Fstar rule reads the tables of the expanded vertex's twist
        # and of each candidate's; each verdict must be the plain
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
    """Empty per-twist tables, composed twists and keys before and after
    the test, so that nothing it computes is served to another test."""
    caches = (_key_cores, _class_masks, _compose, _vertex_key)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def table_disagreements(rank, twisted, depth, search_length, seed):
    """Every answer of the per-twist tables that differs from the direct
    per-word route (``splitting_length``), for the separating and loop
    splittings of one coordinate family: keys at ``depth``, elliptic
    classes, and Fstar verdicts and witnesses against the family and
    some other twists."""
    rng = random.Random(seed)
    twist = nontrivial_automorphism(rng, rank) if twisted else None
    family = _family(loop_splitting(rank, 1, twist), include_loops=True)
    candidates = family + [act(nontrivial_automorphism(rng, rank), u) for u in family[::3]]
    test_set = enumerate_cyclic_words(rank, search_length, up_to_inversion=True)
    elliptic = {u: [cw for cw in test_set if splitting_length(u, cw.as_word()) == 0] for u in candidates}
    words = [cw.as_word() for cw in enumerate_cyclic_words(rank, depth, up_to_inversion=True)]
    out = []
    for s in family:
        if vertex_key(s, depth) != tuple(splitting_length(s, w) for w in words):
            out.append(("key", s))
        if _elliptic_classes(s, search_length) != elliptic[s]:
            out.append(("classes", s))
        shares = lambda u: _first_common(s, u, search_length) is not None
        for u in candidates:
            if vertex_key(u) == vertex_key(s):
                continue
            witness = next((cw for cw in elliptic[s] if cw in elliptic[u]), None)
            if fstar_adjacent(s, u, search_length) != witness or shares(u) != (witness is not None):
                out.append(("fstar", s, u))
    return out


class TestTwistTables:
    """Keys, elliptic classes and Fstar verdicts come from one bounded
    table per (twist, length); each must equal the direct per-word route."""

    @pytest.mark.parametrize("rank, depth, search_length", [(3, 3, 6), (3, 4, 5), (4, 3, 5), (4, 4, 5), (5, 3, 4)])
    @pytest.mark.parametrize("twisted", [False, True])
    def test_tables_agree_with_the_direct_route(self, rank, depth, search_length, twisted):
        found = table_disagreements(rank, twisted, depth, search_length, seed=rank + 10 * depth)
        assert not found

    def test_a_table_without_the_cyclic_cut_disagrees(self, monkeypatch, cold_tables):
        # the planted builder keeps the conjugator of each preimage, so a
        # twisted class elliptic on one side looks hyperbolic in the tables
        def uncut(twist, classes):
            for cw in classes:
                yield list(map(abs, _concat(twist._inverses, cw.letters)))

        monkeypatch.setattr(splittings, "_untwisted_cores", uncut)
        found = table_disagreements(3, True, 4, 6, seed=3 + 40)
        assert {kind for kind, *_ in found} == {"key", "classes", "fstar"}

    def test_keys_without_the_closing_letter_disagree(self, monkeypatch, cold_tables):
        # the planted cores lose the pair that wraps round from the last
        # letter to the first: a loop key misses a stable letter that
        # opens a core, and a partition key misses a boundary there
        closed = _key_cores

        def unclosed(twist, depth):
            return tuple(core[:-1] for core in closed(twist, depth))

        monkeypatch.setattr(splittings, "_key_cores", unclosed)
        found = table_disagreements(4, True, 4, 5, seed=4 + 40)
        assert {kind for kind, *_ in found} == {"key"}
        assert {s.kind for _, s in found} == {"sep", "loop"}

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

    def test_tables_stay_within_their_bound(self, cold_tables):
        rng = random.Random(7)
        for _ in range(splittings._TABLE_SIZE + 4):
            s = separating_splitting(3, [1], nontrivial_automorphism(rng, 3))
            vertex_key(s, 2)
            _elliptic_classes(s, 3)
        for table in (_key_cores, _class_masks):
            info = table.cache_info()
            assert info.maxsize == splittings._TABLE_SIZE
            assert info.misses > info.maxsize >= info.currsize

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
        for table in (_key_cores, _class_masks):
            table.cache_clear()
        assert cold == warm == run()

    def test_sixteen_twists_hold_under_a_mebibyte(self, cold_tables):
        # keys keep cores at the key depth; the search length keeps one
        # generator bit set per class (cores there would take about 2 MiB)
        rng = random.Random(16)
        twists = set()
        while len(twists) < splittings._TABLE_SIZE:
            twists.add(nontrivial_automorphism(rng, 3))
        enumerate_cyclic_words(3, 4, True), enumerate_cyclic_words(3, 6, True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for twist in twists:
                _key_cores(twist, 4), _class_masks(twist, 6)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert _class_masks.cache_info().currsize == len(twists)
        assert held < 2**20


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
        _class_masks.cache_clear()
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

    def test_a_fold_that_skips_one_merge_is_caught(self, monkeypatch, pairs):
        # the planted fold leaves the first two edges of one letter at a
        # vertex unfolded: it drops the later one, so its subgroup loses
        # elements and the pullback loses classes
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

    def test_a_prune_that_keeps_the_inverse_edge_is_caught(self, monkeypatch, pairs):
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

    def test_a_pullback_of_one_vertex_group_is_caught(self, monkeypatch, pairs):
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
        # an empty key test set would merge distinct splittings (distance 0)
        s1, s2 = separating_splitting(3, [1]), separating_splitting(3, [1, 2])
        with pytest.raises(ValueError, match="key depth"):
            vertex_key(s1, depth)
        with pytest.raises(ValueError, match="key depth"):
            bfs_distance("F", s1, s2, 2, key_depth=depth)
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
        universe = _Universe(4, 5000)
        for cw in seeds:
            universe.add(cw)
        splittings._move_closure(universe, seeds, moves, 2)
        stored = [v for _, v in universe.each(CyclicWord)]
        assert len(stored) > len(seeds)
        assert all(flip_normalize(v) == v for v in stored)

    def test_collision_inside_the_family_of_a_vertex(self):
        # sep{1} and sep{1, 2}, both twisted by phi, share their key at
        # depth 2 and differ at depth 4; the second lies in the family of
        # the first, so expanding the first must report the collision
        phi = Automorphism.from_images(3, [[1, 3], [2], [3, 1, 3]], [[1, 1, -3], [2], [3, -1]])
        with pytest.raises(KeyCollisionError, match="collide at key depth 2"):
            bfs_distance("Fstar", separating_splitting(3, [1], phi),
                         separating_splitting(3, [1, 3]), 1, search_length=3, key_depth=2)

    def test_key_collision_diagnostic(self):
        # at depth 1 every basis letter is elliptic for every untwisted
        # separating splitting, so the fingerprints collide; the deeper
        # recheck must catch the merge instead of silently accepting it
        with pytest.raises(KeyCollisionError):
            bfs_distance(
                "F",
                separating_splitting(3, [1]),
                separating_splitting(3, [2]),
                1,
                key_depth=1,
            )


class TestPartition:
    def test_subset_and_complement_are_one_value(self):
        s, t = separating_splitting(3, [2, 3]), separating_splitting(3, [1])
        assert s == t and hash(s) == hash(t)
        assert s.subset == {1}
        assert FreeSplitting(4, "sep", frozenset({2, 4}), None, Automorphism.identity(4)).subset == {1, 3}

    def test_one_cache_entry_for_both_sides(self):
        phi = nontrivial_automorphism(random.Random(42), 4)
        vertex_key(separating_splitting(4, [2], phi), 3)
        before = _vertex_key.cache_info()
        vertex_key(separating_splitting(4, [1, 3, 4], phi), 3)
        assert _vertex_key.cache_info().hits == before.hits + 1

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
    of one into those of the other are one splitting; the vertex store
    keeps the second without the deeper key recheck."""

    def test_factor_preserving_twist(self):
        # c -> cb keeps <a> and <b, c>; a -> baB conjugates <a> by b, an
        # element of the other side
        for images, inverses in (([[1], [2], [3, 2]], [[1], [2], [3, -2]]),
                                 ([[2, 1, -2], [2], [3]], [[-2, 1, 2], [2], [3]])):
            rho = Automorphism.from_images(3, images, inverses)
            s, t = separating_splitting(3, [1]), separating_splitting(3, [1], rho)
            assert s != t and _same_tree(s, t) and _same_tree(t, s)
            assert vertex_key(s, 6) == vertex_key(t, 6)

    def test_stable_letter_crossing_once(self):
        # a -> ab: the stable letter a still crosses once, b and c stay
        rho = Automorphism.from_images(3, [[1, 2], [2], [3]], [[1, -2], [2], [3]])
        s, t = loop_splitting(3, 1), loop_splitting(3, 1, rho)
        assert _same_tree(s, t) and _same_tree(t, s)
        assert vertex_key(s, 6) == vertex_key(t, 6)

    def test_other_data_unproven(self):
        assert not _same_tree(separating_splitting(3, [1]), separating_splitting(3, [2]))
        assert not _same_tree(loop_splitting(3, 1), loop_splitting(3, 2))
        assert not _same_tree(separating_splitting(3, [1]), loop_splitting(3, 1))

    @pytest.mark.parametrize("rank,deep", [(3, 5), (4, 4)])
    def test_proven_pairs_agree_deeper(self, rank, deep):
        # twists built from a few elementary moves, so that one splitting
        # often comes in several presentations; among the pairs that share
        # a depth-2 key, every proven pair must agree at a deeper depth
        pool = elementary_automorphisms(rank)
        rng = random.Random(rank)
        twists = [Automorphism.identity(rank)]
        while len(twists) < (16 if rank == 3 else 6):
            twists.append(compose(rng.choice(pool), rng.choice(twists)))
        by_key: dict = {}
        for twist in twists:
            for u in _family(loop_splitting(rank, 1, twist), include_loops=True):
                by_key.setdefault(vertex_key(u, 2), []).append(u)
        verdicts = set()
        for group in by_key.values():
            for s, t in combinations(group, 2):
                if s != t:
                    proven = _same_tree(s, t)
                    verdicts.add(proven)
                    assert not proven or vertex_key(s, deep) == vertex_key(t, deep)
        assert verdicts == {True, False}

    def test_proven_presentation_skips_the_deeper_keys(self, monkeypatch):
        rho = Automorphism.from_images(3, [[1], [2], [3, 2]], [[1], [2], [3, -2]])
        s, t = separating_splitting(3, [1]), separating_splitting(3, [1], rho)
        depths = []
        keyed = splittings.vertex_key
        monkeypatch.setattr(splittings, "vertex_key", lambda v, depth=4: depths.append(depth) or keyed(v, depth))
        universe = _Universe(4, 10)
        assert universe.add(s) == universe.add(t)
        assert universe.vertices[universe.key(s)] == [s, t]
        assert set(depths) == {4}


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
