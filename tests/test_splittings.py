import random

import pytest

from outerint.currents import add, counting_current, scale, zero_current
from outerint.marked_graph import unit_rose
from outerint.splittings import (
    FreeSplitting,
    KeyCollisionError,
    StateCapExceeded,
    act,
    bfs_distance,
    cut_refinement_adjacent,
    fstar_adjacent,
    intersection_graph_adjacent,
    is_elliptic,
    loop_splitting,
    map_j,
    map_q,
    refinement_adjacent,
    separating_splitting,
    splitting_length,
    vertex_key,
)
from outerint.splittings import _Universe, _vertex_key
from outerint.words import Word, enumerate_cyclic_words, parse_word

from _generators import random_automorphism, random_reduced_word
from oracles import bass_serre_translation_length


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


class TestEllipticity:
    def test_basis_letters_elliptic_in_separating(self):
        s = separating_splitting(3, [1, 2])
        for i in (1, 2, 3):
            assert is_elliptic(s, Word(3, (i,)))

    def test_stable_letter_not_elliptic(self):
        s = loop_splitting(3, 2)
        assert not is_elliptic(s, Word(3, (2,)))

    def test_elliptic_set_closed_under_conjugation_and_inversion(self):
        rng = random.Random(4)
        s = loop_splitting(3, 1)
        for _ in range(40):
            w = random_reduced_word(rng, 3, rng.randint(1, 6))
            u = random_reduced_word(rng, 3, rng.randint(0, 4))
            if w.is_identity:
                continue
            assert is_elliptic(s, w) == is_elliptic(s, w.conjugate_by(u))
            assert is_elliptic(s, w) == is_elliptic(s, w.inverse())

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            is_elliptic(separating_splitting(3, [1]), Word(3))


class TestVertexKey:
    def test_subset_and_complement_share_a_key(self):
        assert vertex_key(separating_splitting(3, [1])) == vertex_key(
            separating_splitting(3, [2, 3])
        )

    def test_distinct_splittings_distinct_keys(self):
        keys = {
            vertex_key(separating_splitting(3, [i])).lengths for i in (1, 2, 3)
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
        assert vertex_key(s, depth).lengths == want
        assert vertex_key(s, depth).lengths == want  # served from the cache
        phi = nontrivial_automorphism(rng, rank)
        t = act(phi, s)
        moved = vertex_key(t, depth).lengths
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
        assert vertex_key(s1, 1).lengths == (0, 0, 0)
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
        assert is_elliptic(s1, w) and is_elliptic(s2, w)

    def test_all_untwisted_separating_pairs_adjacent(self):
        from itertools import combinations

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
        assert is_elliptic(s, witness.as_word())
        assert is_elliptic(t, witness.as_word())

    def test_equal_vertices_rejected(self):
        s = separating_splitting(3, [1])
        with pytest.raises(ValueError):
            fstar_adjacent(s, separating_splitting(3, [2, 3]))

    def test_symmetry(self):
        s1 = separating_splitting(3, [1, 2])
        s2 = loop_splitting(3, 3)
        assert (fstar_adjacent(s1, s2) is None) == (fstar_adjacent(s2, s1) is None)


class TestRefinementAdjacency:
    def test_nested_yes(self):
        assert refinement_adjacent(
            separating_splitting(3, [1]), separating_splitting(3, [1, 2])
        ) == "yes"

    def test_disjoint_unknown(self):
        assert refinement_adjacent(
            separating_splitting(3, [1]), separating_splitting(3, [2])
        ) == "unknown"

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

    def test_loop_kind_rejected(self):
        with pytest.raises(ValueError):
            refinement_adjacent(loop_splitting(3, 1), separating_splitting(3, [1]))

    def test_cut_graph_variants(self):
        assert cut_refinement_adjacent(
            separating_splitting(3, [1]), loop_splitting(3, 2)
        ) == "yes"
        assert cut_refinement_adjacent(
            separating_splitting(3, [1, 2]), loop_splitting(3, 1)
        ) == "unknown"
        assert cut_refinement_adjacent(loop_splitting(3, 1), loop_splitting(3, 2)) == "yes"


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

    def test_zero_current_rejected(self):
        with pytest.raises(ValueError):
            intersection_graph_adjacent(separating_splitting(3, [1]), zero_current(3))


class TestMaps:
    def test_j_preserves_certified_edges(self):
        rng = random.Random(7)
        for _ in range(20):
            phi = random_automorphism(rng, 3)
            s1 = separating_splitting(3, [1], phi)
            s2 = separating_splitting(3, [1, 3], phi)
            assert refinement_adjacent(s1, s2) == "yes"
            assert fstar_adjacent(map_j(s1), map_j(s2), search_length=6) is not None

    def test_q_gives_length_two_paths(self):
        s1 = separating_splitting(3, [1])
        s2 = loop_splitting(3, 1)
        witness = fstar_adjacent(s1, s2)
        assert witness is not None
        eta = counting_current(witness.as_word())
        assert intersection_graph_adjacent(map_q(s1), eta)
        assert intersection_graph_adjacent(map_q(s2), eta)
        assert bfs_distance("I0", map_q(s1), map_q(s2), 2) == 2

    def test_maps_commute_with_action(self):
        rng = random.Random(8)
        phi = random_automorphism(rng, 3)
        s = separating_splitting(3, [2])
        assert vertex_key(map_j(act(phi, s))) == vertex_key(act(phi, map_j(s)))
        assert vertex_key(map_q(act(phi, s))) == vertex_key(act(phi, map_q(s)))


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

    def test_rank_two_rejected(self):
        with pytest.raises(ValueError, match="rank >= 3"):
            bfs_distance(
                "F", separating_splitting(2, [1]), separating_splitting(2, [2]), 1
            )

    def test_flavor_vertex_type_checked(self):
        with pytest.raises(ValueError):
            bfs_distance(
                "F", loop_splitting(3, 1), separating_splitting(3, [1]), 1
            )

    def test_moves_inject_orbit(self):
        rng = random.Random(0)
        phi = random_automorphism(rng, 3)
        s = separating_splitting(3, [1])
        t = act(phi, s)
        assert vertex_key(s) != vertex_key(t)
        d = bfs_distance("Fstar", s, t, 4, move_generators=[phi])
        assert d == 1  # a common elliptic exists within the default bound

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
