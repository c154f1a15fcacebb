import json
import pathlib
import random
from fractions import Fraction

import pytest

from outerint.marked_graph import (
    MarkedMetricGraph,
    Marking,
    SerreGraph,
    act,
    bbt_upper_bound,
    cyclic_reduce_path,
    edge_crossings,
    inverse_path,
    lemma_ll_check,
    marked_graph_from_json_obj,
    marked_graph_to_json_obj,
    reduce_path,
    rose,
    scale_lengths,
    subdivide_edge,
    translation_length,
    unit_rose,
)
from outerint.words import Word, cyclic_length, cyclic_reduce, parse_word

from _generators import (
    charts_with_awkward_lengths,
    random_automorphism,
    random_blown_up_chart,
    random_chart_of_each_kind,
    random_cyclically_reduced_word,
    random_marked_graph,
    random_reduced_word,
)
from oracles import displacement_length, scan_reduce

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def theta_graph(lengths=(1, 1, 1)) -> MarkedMetricGraph:
    """Two vertices joined by three edges; rank 2 with a nontrivial tree."""
    graph = SerreGraph(
        vertices=("x", "y"),
        edge_names=("p", "q", "r"),
        inverse_names=("P", "Q", "R"),
        origins=("x", "x", "x"),
        termini=("y", "y", "y"),
    )
    marking = Marking(
        base="x",
        generator_loops=((2, -1), (3, -1)),
        edge_words=(Word(2), Word(2, (1,)), Word(2, (2,))),
        spanning_tree=frozenset({1}),
    )
    return MarkedMetricGraph(graph, marking, tuple(Fraction(x) for x in lengths))


class TestConstruction:
    def test_unit_rose_basics(self):
        M = unit_rose(2)
        assert translation_length(M, parse_word("ab", 2)) == 2
        assert bbt_upper_bound(M) == 2

    def test_unit_rose_rank3_conjugate(self):
        M = unit_rose(3)
        assert translation_length(M, parse_word("abA", 3)) == 1

    def test_rose_requires_rank_2(self):
        with pytest.raises(ValueError):
            unit_rose(1)

    def test_theta_marking_verifies(self):
        M = theta_graph()
        assert M.rank == 2
        assert translation_length(M, parse_word("a", 2)) == 2

    def test_inconsistent_marking_rejected(self):
        graph = SerreGraph(("x", "y"), ("p", "q", "r"), ("P", "Q", "R"),
                           ("x", "x", "x"), ("y", "y", "y"))
        bad = Marking(
            base="x",
            generator_loops=((2, -1), (3, -1)),
            edge_words=(Word(2), Word(2, (2,)), Word(2, (1,))),  # swapped
            spanning_tree=frozenset({1}),
        )
        with pytest.raises(ValueError, match="marking inconsistent"):
            MarkedMetricGraph(graph, bad, (Fraction(1),) * 3)

    def test_disconnected_graph_rejected(self):
        with pytest.raises(ValueError, match="graph is not connected"):
            SerreGraph(("x", "y"), ("a", "b"), ("A", "B"), ("x", "y"), ("x", "y"))

    def test_tree_missing_a_vertex_rejected(self):
        # a loop at x is one edge, the right size for two vertices, but never reaches y
        graph = SerreGraph(("x", "y"), ("p", "q", "l"), ("P", "Q", "L"),
                           ("x", "x", "x"), ("y", "y", "x"))
        marking = Marking(
            base="x",
            generator_loops=((3,), (1, -2)),
            edge_words=(Word(2), Word(2, (2,)), Word(2, (1,))),
            spanning_tree=frozenset({3}),
        )
        with pytest.raises(ValueError, match="spanning tree does not span the graph"):
            MarkedMetricGraph(graph, marking, (Fraction(1),) * 3)

    def test_valence_one_rejected(self):
        with pytest.raises(ValueError, match="valence-one"):
            SerreGraph(("x", "y"), ("p", "a"), ("P", "A"), ("x", "x"), ("y", "x"))

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            rose(2, [1, 0])

    def test_wrong_rank_rejected(self):
        graph = SerreGraph(("v",), ("a", "b"), ("A", "B"), ("v", "v"), ("v", "v"))
        marking = Marking(
            base="v",
            generator_loops=((1,), (2,), (1, 2)),
            edge_words=(Word(3, (1,)), Word(3, (2,))),
            spanning_tree=frozenset(),
        )
        with pytest.raises(ValueError, match="rank"):
            MarkedMetricGraph(graph, marking, (Fraction(1), Fraction(1)))


class TestPaths:
    def test_identity_word_empty_path(self):
        assert unit_rose(2).word_to_path(Word(2)) == ()

    def test_rose_path(self):
        assert unit_rose(2).word_to_path(parse_word("ab", 2)) == (1, 2)

    def test_round_trip_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(60):
            rank = rng.choice([2, 3])
            M = random_marked_graph(rng, rank)
            w = random_reduced_word(rng, rank, rng.randint(0, 12))
            assert M.path_to_word(M.word_to_path(w)) == w

    def test_round_trip_on_theta(self):
        rng = random.Random(6)
        M = theta_graph((2, 1, Fraction(1, 3)))
        for _ in range(40):
            w = random_reduced_word(rng, 2, rng.randint(0, 12))
            assert M.path_to_word(M.word_to_path(w)) == w


class TestReducePath:
    @pytest.mark.parametrize(
        "path, reduced",
        [
            ((), ()),
            ((-2,), (-2,)),
            ((1, 2, -1, -2), (1, 2, -1, -2)),  # reduced already
            ((1, 2, -2, -1, 2), (2,)),
            ((1, -1, 2, -2), ()),
        ],
        ids=["empty", "one-edge", "reduced", "unreduced", "cancels-to-empty"],
    )
    def test_examples(self, path, reduced):
        assert reduce_path(path) == reduced
        assert reduce_path(list(path)) == reduced


class TestCyclicReducePath:
    def test_small_cases(self):
        assert cyclic_reduce_path(()) == ()
        assert cyclic_reduce_path((1,)) == (1,)
        assert cyclic_reduce_path((-2,)) == (-2,)
        assert cyclic_reduce_path((1, -1)) == ()
        assert cyclic_reduce_path((1, 2, -1)) == (2,)
        assert cyclic_reduce_path((1, 2, 3, -2, -1)) == (3,)
        assert cyclic_reduce_path((1, 2, 2, -1)) == (2, 2)
        assert cyclic_reduce_path((1, 2, -2, -1)) == ()  # cancels freely
        assert cyclic_reduce_path((1, 2, -3, -2)) == (1, 2, -3, -2)  # reduced already

    def test_long_conjugators_are_stripped(self):
        rng = random.Random(18)
        letters = (1, -1, 2, -2, 3, -3)
        for n in (1, 2, 7, 50, 2000):
            while True:
                c = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
                if all(x != -y for x, y in zip(c, c[1:] + c[:1])):  # cyclically reduced
                    break
            u = [rng.choice([l for l in letters if l != -c[0] and l != c[-1]])]
            while len(u) < n:  # built right to left, so u c u^-1 is reduced as written
                u.insert(0, rng.choice([l for l in letters if l != -u[0]]))
            conjugate = tuple(u) + c + inverse_path(u)
            assert cyclic_reduce_path(conjugate) == c
            assert cyclic_reduce_path(tuple(u) + inverse_path(u)) == ()


class TestTranslationLength:
    def test_weighted_rose(self):
        M = rose(2, [2, 3])
        assert translation_length(M, parse_word("ab", 2)) == 5

    def test_conjugacy_invariance_exact(self):
        M = unit_rose(2)
        assert translation_length(M, parse_word("Aba", 2)) == 1

    def test_power_law_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(40):
            rank = rng.choice([2, 3])
            M = random_marked_graph(rng, rank)
            w = random_reduced_word(rng, rank, rng.randint(1, 8))
            m = rng.randint(0, 4)
            assert translation_length(M, w ** m) == m * translation_length(M, w)

    def test_positive_iff_nontrivial(self):
        rng = random.Random(8)
        for _ in range(30):
            M = random_marked_graph(rng, 2)
            assert translation_length(M, Word(2)) == 0
            w = random_reduced_word(rng, 2, rng.randint(1, 8))
            if not w.is_identity:
                assert translation_length(M, w) > 0

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            translation_length(unit_rose(2), Word(3, (3,)))


def displacement_mismatches(seed: int = 9) -> list:
    """Pairs (chart, word) on which ``translation_length`` differs from the
    displacement identity: on 40 roses with random lengths and 40 charts
    of :func:`random_blown_up_chart`, ranks 2-4, each with five words, of
    which four are conjugated by a random word of 1-4 letters."""
    rng = random.Random(seed)
    out = []
    for i in range(80):
        rank = 2 + i % 3
        M = random_blown_up_chart(rng, rank) if i % 2 else rose(rank, [rng.randint(1, 5) for _ in range(rank)])
        for j in range(5):
            w = random_reduced_word(rng, rank, rng.randint(1, 6))
            if j:
                u = random_reduced_word(rng, rank, rng.randint(1, 4))
                w = u * w * u.inverse()
            if translation_length(M, w) != displacement_length(M, w):
                out.append((M, w))
    return out


def one_layer_cyclic_reduction(path):
    p = reduce_path(path)
    return p[1:-1] if len(p) > 1 and p[0] == -p[-1] else p


class TestDisplacementLength:
    """The Culler-Morgan displacement identity reads translation length
    off two reduced paths, with no cyclic reduction."""

    def test_matches_translation_length(self):
        assert displacement_mismatches() == []

    def test_catches_one_layer_cyclic_reduction(self, monkeypatch):
        monkeypatch.setattr("outerint.marked_graph.cyclic_reduce_path", one_layer_cyclic_reduction)
        assert displacement_mismatches()

    def test_identity_and_rose(self):
        assert displacement_length(unit_rose(2), Word(2)) == 0
        assert displacement_length(rose(2, [2, 3]), parse_word("AAbaa", 2)) == 3


class TestEdgeCrossings:
    def test_single_letter(self):
        M = unit_rose(2)
        root, _ = cyclic_reduce(parse_word("a", 2))
        assert edge_crossings(M, root) == {1: 1, 2: 0}

    def test_two_letters(self):
        M = unit_rose(2)
        root, _ = cyclic_reduce(parse_word("ab", 2))
        assert edge_crossings(M, root) == {1: 1, 2: 1}

    def test_weighted_sum_equals_translation_length(self):
        rng = random.Random(9)
        for _ in range(60):
            rank = rng.choice([2, 3])
            M = random_marked_graph(rng, rank)
            w = random_reduced_word(rng, rank, rng.randint(1, 9))
            root, _ = cyclic_reduce(w)
            if root is None:
                continue
            counts = edge_crossings(M, root)
            total = sum(M.lengths[k - 1] * counts[k] for k in M.graph.positive_edges)
            assert total == translation_length(M, w)


class TestPathLength:
    def test_matches_edge_by_edge_sum(self):
        rng, blown = random.Random(19), random.Random(20)
        for _ in range(10):
            rank = rng.choice([2, 3])
            for M in (*random_chart_of_each_kind(rng, rank), random_blown_up_chart(blown, rank)):
                edges = M.graph.oriented_edges()
                paths = [
                    M.word_to_path(random_reduced_word(rng, rank, rng.randint(0, 30))),
                    tuple(rng.choice(edges) for _ in range(rng.randint(0, 30))),
                ]
                for path in paths:
                    assert M.path_length(path) == sum(
                        (M.edge_length(e) for e in path), Fraction(0)
                    )

    @pytest.mark.parametrize("path", [(0, 3), (3,), (-4,), (5,), (1, 0), (2, -3)])
    def test_edge_numbers_outside_the_chart_rejected(self, path):
        # the signed-edge tables of a rose with two petals hold indices
        # -4..4, so each of these would read as some other edge
        M = unit_rose(2)
        for read in (M.path_to_word, M.path_length):
            with pytest.raises(ValueError, match=r"edge number -?\d+ is not in ±1\.\.2"):
                read(path)

    @pytest.mark.parametrize("e", [0, 3, -3, 5])
    def test_edge_length_outside_the_chart_rejected(self, e):
        M = rose(2, [1, 5])
        with pytest.raises(ValueError, match="is not in ±1..2"):
            M.edge_length(e)
        assert (M.edge_length(-2), M.edge_length(1)) == (5, 1)


class TestBBT:
    def test_unit_rose(self):
        assert bbt_upper_bound(unit_rose(3)) == 3

    def test_weighted_rose(self):
        assert bbt_upper_bound(rose(2, [2, 3])) == 5


class TestAct:
    def test_identity_fixes_lengths(self):
        rng = random.Random(10)
        from outerint.words import Automorphism

        M = random_marked_graph(rng, 2)
        Mi = act(Automorphism.identity(2), M)
        for _ in range(20):
            w = random_reduced_word(rng, 2, rng.randint(0, 8))
            assert translation_length(Mi, w) == translation_length(M, w)

    def test_group_action_inverse(self):
        rng = random.Random(11)
        phi = random_automorphism(rng, 2)
        M = random_marked_graph(rng, 2)
        round_trip = act(phi, act(phi.inverse(), M))
        for _ in range(20):
            w = random_reduced_word(rng, 2, rng.randint(0, 8))
            assert translation_length(round_trip, w) == translation_length(M, w)

    def test_pullback_formula_two_routes(self):
        rng = random.Random(12)
        for _ in range(25):
            phi = random_automorphism(rng, 2)
            Mp = act(phi, unit_rose(2))
            w = random_reduced_word(rng, 2, rng.randint(0, 10))
            assert translation_length(Mp, w) == cyclic_length(phi.apply_inverse(w))

    def test_left_action_composition(self):
        rng = random.Random(13)
        from outerint.words import compose

        phi, psi = random_automorphism(rng, 3), random_automorphism(rng, 3)
        M = random_marked_graph(rng, 3)
        lhs = act(compose(phi, psi), M)
        rhs = act(phi, act(psi, M))
        for _ in range(15):
            w = random_reduced_word(rng, 3, rng.randint(0, 8))
            assert translation_length(lhs, w) == translation_length(rhs, w)


class TestSubdivision:
    def test_preserves_length_function(self):
        rng = random.Random(14)
        M = rose(3, [1, 2, 3])
        Ms = subdivide_edge(M, 2, Fraction(1, 4))
        assert Ms.volume() == M.volume()
        for _ in range(25):
            w = random_reduced_word(rng, 3, rng.randint(0, 8))
            assert translation_length(Ms, w) == translation_length(M, w)

    def test_same_edge_twice(self):
        # the second cut meets the names and the tree edge the first one made
        M = rose(2, [1, 1])
        Ms = subdivide_edge(subdivide_edge(M, 1), 1)
        Ms = subdivide_edge(Ms, Ms.graph.num_edges, Fraction(1, 3))
        assert Ms.graph.num_edges == 5
        assert Ms.volume() == M.volume()
        for text in ("a", "b", "ab", "aBAb", "aab", "bbA"):
            w = parse_word(text, 2)
            assert translation_length(Ms, w) == translation_length(M, w)

    def test_scale(self):
        M = scale_lengths(unit_rose(2), Fraction(3, 2))
        assert translation_length(M, parse_word("ab", 2)) == 3


class TestLemmaChecks:
    def test_single_generator_exact(self):
        M = unit_rose(2)
        report = lemma_ll_check(M, [parse_word("a", 2)])
        assert report.all_hold
        by_name = {c.name: c for c in report.checks}
        # on the rose the displacement equals the length: deviation 0
        assert by_name["length_vs_point"].deviation == 0
        assert by_name["length_vs_point"].bound == 2 * bbt_upper_bound(M)

    def test_cyclically_reduced_single_piece(self):
        rng = random.Random(15)
        for _ in range(20):
            M = random_marked_graph(rng, 2)
            w = random_cyclically_reduced_word(rng, 2, rng.randint(1, 10))
            report = lemma_ll_check(M, [w])
            assert report.all_hold and report.min_slack >= 0

    def test_randomized_decompositions(self):
        rng = random.Random(16)
        for _ in range(60):
            rank = rng.choice([2, 3])
            M = random_marked_graph(rng, rank)
            m = rng.randint(1, 6)
            w = random_reduced_word(rng, rank, rng.randint(m, m + 12))
            cuts = sorted(rng.sample(range(1, len(w)), m - 1)) if m > 1 else []
            bounds = [0, *cuts, len(w)]
            parts = [
                Word(rank, w.letters[a:b]) for a, b in zip(bounds, bounds[1:])
            ]
            report = lemma_ll_check(M, parts)
            assert report.all_hold, report

    def test_rejects_cancelling_decomposition(self):
        with pytest.raises(ValueError, match="not freely reduced"):
            lemma_ll_check(unit_rose(2), [parse_word("ab", 2), parse_word("Ba", 2)])

    def test_rejects_small_constant(self):
        with pytest.raises(ValueError, match="below"):
            lemma_ll_check(unit_rose(2), [parse_word("a", 2)], C=Fraction(1))


class TestJson:
    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(10):
            M = random_marked_graph(rng, rng.choice([2, 3]))
            obj = marked_graph_to_json_obj(M)
            back = marked_graph_from_json_obj(obj)
            assert back.lengths == M.lengths
            for _ in range(10):
                w = random_reduced_word(rng, M.rank, rng.randint(0, 8))
                assert translation_length(back, w) == translation_length(M, w)

    @pytest.mark.parametrize("name", ["rose2", "rose2_lengths_2_3", "rose3"])
    def test_fixture_round_trip(self, name):
        obj = json.loads((FIXTURES / f"{name}.json").read_text())
        assert marked_graph_to_json_obj(marked_graph_from_json_obj(obj)) == obj

    def test_round_trip_theta(self):
        M = theta_graph((2, 1, Fraction(5, 3)))
        back = marked_graph_from_json_obj(marked_graph_to_json_obj(M))
        assert back.lengths == M.lengths
        assert translation_length(back, parse_word("ab", 2)) == translation_length(
            M, parse_word("ab", 2)
        )


def naive_path(M: MarkedMetricGraph, w: Word) -> tuple[int, ...]:
    """Free reduction of the generator loops concatenated letter by letter."""
    loops = M.marking.generator_loops
    edges = [e for l in w.letters for e in (loops[l - 1] if l > 0 else inverse_path(loops[-l - 1]))]
    return tuple(scan_reduce(edges))


def edge_sum(M: MarkedMetricGraph, path) -> Fraction:
    return sum((M.lengths[abs(e) - 1] for e in path), Fraction(0))


def backtracking_charts() -> list[MarkedMetricGraph]:
    """A rose and a theta graph whose generator loops back-track."""
    rose_graph = SerreGraph(("v",), ("a", "b"), ("A", "B"), ("v", "v"), ("v", "v"))
    rose_marking = Marking(
        base="v",
        generator_loops=((1, 2, -2), (-1, 1, 2, 1, -1)),
        edge_words=(Word(2, (1,)), Word(2, (2,))),
        spanning_tree=frozenset(),
    )
    theta = theta_graph((2, 1, Fraction(1, 3)))
    theta_marking = Marking(
        base="x",
        generator_loops=((2, -1, 1, -1), (3, -2, 2, -1)),
        edge_words=theta.marking.edge_words,
        spanning_tree=theta.marking.spanning_tree,
    )
    return [
        MarkedMetricGraph(rose_graph, rose_marking, (Fraction(2, 3), Fraction(5, 7))),
        MarkedMetricGraph(theta.graph, theta_marking, theta.lengths),
    ]


class TestTrustedTables:
    """The per-letter loop table and the integer length cache built at
    construction give the letter-by-letter and edge-by-edge results."""

    def test_word_to_path_matches_scan_of_loops(self):
        rng, blown = random.Random(71), random.Random(70)
        for _ in range(40):
            rank = rng.choice([2, 3, 4])
            charts = (*random_chart_of_each_kind(rng, rank), random_marked_graph(rng, rank),
                      random_blown_up_chart(blown, rank))
            for M in charts:
                w = random_reduced_word(rng, rank, rng.randint(0, 30))
                assert M.word_to_path(w) == naive_path(M, w)

    def test_backtracking_generator_loops(self):
        rng = random.Random(72)
        for M in backtracking_charts():
            for _ in range(40):
                w = random_reduced_word(rng, 2, rng.randint(0, 16))
                path = M.word_to_path(w)
                assert path == naive_path(M, w)
                assert M.path_to_word(path) == w
                assert M.path_length(path) == edge_sum(M, path)
                assert translation_length(M, w) == edge_sum(M, cyclic_reduce_path(path))

    @pytest.mark.parametrize(
        "loops, words, petals, ab_path",
        [
            (((2,), (1,)), ((2,), (1,)), (2, 1), (2, 1)),
            (((-1,), (2,)), ((-1,), (2,)), (1, 2), (-1, 2)),
        ],
        ids=["permuted", "reversed"],
    )
    def test_rose_with_other_petal_order_maps_through_its_loops(self, loops, words, petals, ab_path):
        # petals[i] is the edge that generator i + 1 runs along
        graph = SerreGraph(("v",), ("a", "b"), ("A", "B"), ("v", "v"), ("v", "v"))
        marking = Marking("v", loops, tuple(Word(2, w) for w in words), frozenset())
        lengths = (Fraction(2, 3), Fraction(5, 7))
        M = MarkedMetricGraph(graph, marking, lengths)
        standard = rose(2, [lengths[e - 1] for e in petals])
        assert M.word_to_path(parse_word("ab", 2)) == ab_path
        rng = random.Random(76)
        for _ in range(60):
            w = random_reduced_word(rng, 2, rng.randint(0, 16))
            path = M.word_to_path(w)
            assert path == naive_path(M, w)
            assert M.path_to_word(path) == w
            assert translation_length(M, w) == edge_sum(M, cyclic_reduce_path(path))
            assert translation_length(M, w) == translation_length(standard, w)

    def test_standard_rose_reads_a_word_as_its_path(self):
        # generator loops that reduce to the petals in order, back-tracking or not
        graph = SerreGraph(("v",), ("a", "b"), ("A", "B"), ("v", "v"), ("v", "v"))
        words = (Word(2, (1,)), Word(2, (2,)))
        charts = [
            unit_rose(2),
            MarkedMetricGraph(graph, Marking("v", ((1, 2, -2), (2,)), words, frozenset()), (2, 3)),
        ]
        rng = random.Random(77)
        for M in charts:
            for _ in range(40):
                w = random_reduced_word(rng, 2, rng.randint(0, 16))
                assert M.word_to_path(w) == naive_path(M, w) == w.letters
                assert M.path_to_word(w.letters) == w

    def test_lengths_with_awkward_denominators(self):
        rng = random.Random(73)
        for _ in range(8):
            rank = rng.choice([2, 3])
            for M in charts_with_awkward_lengths(rng, rank):
                edges = M.graph.oriented_edges()
                w = random_reduced_word(rng, rank, rng.randint(0, 30))
                path = M.word_to_path(w)
                for p in (path, tuple(rng.choice(edges) for _ in range(rng.randint(0, 30)))):
                    assert M.path_length(p) == edge_sum(M, p)
                assert translation_length(M, w) == edge_sum(M, cyclic_reduce_path(path))
                assert M.volume() == edge_sum(M, M.graph.positive_edges)


def signed_loops(M: MarkedMetricGraph) -> dict[int, tuple[int, ...]]:
    """The reduced loop of each signed letter."""
    loops = {i: reduce_path(loop) for i, loop in enumerate(M.marking.generator_loops, 1)}
    return {**loops, **{-i: inverse_path(loop) for i, loop in loops.items()}}


def cancelling_junctions(M: MarkedMetricGraph) -> set[tuple[int, int]]:
    """Each letter pair ``(x, y)``, ``y != x^-1``, whose loops cancel where
    loop x meets loop y."""
    loops = signed_loops(M)
    return {(x, y) for x in loops for y in loops if y != -x and loops[x][-1] == -loops[y][0]}


class TestJunctionFree:
    """A chart is junction-free when loops cancel only where their letters
    do; then a cyclically reduced word's loops, end to end, are its axis
    period."""

    def test_roses_and_their_subdivisions(self):
        rng = random.Random(81)
        for _ in range(30):
            rank = rng.choice([2, 3, 4])
            R = rose(rank, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rank)])
            assert R._junction_free
            M = R
            for e in R.graph.positive_edges:
                assert subdivide_edge(R, e, Fraction(rng.randint(1, 3), 4))._junction_free
                M = subdivide_edge(M, rng.randint(1, M.graph.num_edges))  # again and again
                assert M._junction_free

    def test_one_cancelling_junction_is_enough(self):
        # a is petal 1 and b runs along petal 1 then petal 2, so loop A's
        # last edge cancels loop b's first: the junction A.b, and its inverse B.a
        graph = SerreGraph(("v",), ("a", "b"), ("A", "B"), ("v", "v"), ("v", "v"))
        marking = Marking("v", ((1,), (1, 2)), (Word(2, (1,)), Word(2, (-1, 2))), frozenset())
        M = MarkedMetricGraph(graph, marking, (Fraction(2), Fraction(3)))
        assert cancelling_junctions(M) == {(-1, 2), (-2, 1)}
        assert not M._junction_free
        assert translation_length(M, parse_word("Ab", 2)) == 3

    def test_flag_is_the_definition(self):
        rng, blown = random.Random(82), random.Random(83)
        kinds = set()
        for _ in range(60):
            rank = rng.choice([2, 3, 4])
            charts = (*random_chart_of_each_kind(rng, rank), random_marked_graph(rng, rank),
                      random_blown_up_chart(blown, rank), *backtracking_charts())
            for M in charts:
                assert M._junction_free == (not cancelling_junctions(M))
                kinds.add(M._junction_free)
        assert kinds == {True, False}

    def test_loops_end_to_end_are_the_axis_period(self):
        rng = random.Random(84)
        for _ in range(40):
            rank = rng.choice([2, 3, 4])
            for M in random_chart_of_each_kind(rng, rank):
                if not M._junction_free:
                    continue
                loops = signed_loops(M)
                for _ in range(5):
                    w = random_cyclically_reduced_word(rng, rank, rng.randint(1, 20))
                    period = tuple(e for x in w.letters for e in loops[x])
                    assert cyclic_reduce_path(period) == period
                    assert M._path_length(period) == translation_length(M, w)
