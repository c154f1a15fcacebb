import json
import math
import pathlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from outerint import dynamics
from outerint.catalog import (
    fibonacci_automorphism,
    fibonacci_inverse_rose_map,
    fibonacci_rose_map,
    supergolden_rose_map,
)
from outerint.currents import counting_current, frequency_vector
from outerint.dynamics import (
    DEFAULT_WORD_CAP,
    GraphMap,
    NonPrimitiveMatrixError,
    TransitionMatrix,
    WordLengthCapError,
    compose_graph_maps,
    eigencurrent_approx,
    eigenmetric_defect,
    graph_map_from_json_obj,
    graph_map_to_json_obj,
    iwip_rows,
    metric_from_pf,
    pairing_estimate,
    pf_eigenpair,
    stable_length_oracle,
    transition_matrix,
)
from outerint.marked_graph import MarkedMetricGraph, unit_rose
from outerint.words import Automorphism, Word, parse_word

from _generators import random_automorphism, random_chart_of_each_kind, random_reduced_word
from oracles import char_poly_at, dominant_root_by_bisection

GOLDEN = (1 + 5 ** 0.5) / 2
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def random_primitive_matrices(seed: int, per_size: int = 10):
    """``per_size`` primitive 0..3 matrices of each size 2..6."""
    rng = random.Random(seed)
    for n in range(2, 7):
        found = 0
        while found < per_size:
            entries = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(n))
            if TransitionMatrix(entries).is_primitive():
                found += 1
                yield entries


def brackets_dominant_root(entries, lo: Fraction, hi: Fraction) -> bool:
    """p = det(xI - T) changes sign at the simple dominant root of a
    primitive T: an enclosure of that root sees p <= 0 below, >= 0 above."""
    return char_poly_at(entries, lo) <= 0 <= char_poly_at(entries, hi)


def pf_bracket(entries) -> tuple[Fraction, Fraction]:
    result = pf_eigenpair(TransitionMatrix(entries), tol=1e-13)
    lam, half = Fraction(result.eigenvalue), Fraction(result.eigenvalue_bound)
    return lam - half, lam + half


class TestGraphMap:
    def test_fibonacci_map_validates(self):
        f = fibonacci_rose_map()
        assert f.edge_images == ((1, 2), (1,))

    def test_wrong_automorphism_rejected(self):
        with pytest.raises(ValueError, match="disagrees"):
            GraphMap(
                chart=unit_rose(2),
                vertex_map=(("v", "v"),),
                edge_images=((1, 2), (1,)),
                automorphism=Automorphism.identity(2),
            )

    def test_unreduced_image_rejected(self):
        with pytest.raises(ValueError, match="reduced"):
            GraphMap(
                chart=unit_rose(2),
                vertex_map=(("v", "v"),),
                edge_images=((1, -1, 1, 2), (1,)),
                automorphism=fibonacci_automorphism(),
            )

    def test_trivial_image_rejected(self):
        with pytest.raises(ValueError, match="trivial"):
            GraphMap(
                chart=unit_rose(2),
                vertex_map=(("v", "v"),),
                edge_images=((), (1,)),
                automorphism=fibonacci_automorphism(),
            )

    def test_json_round_trip(self):
        f = supergolden_rose_map()
        back = graph_map_from_json_obj(graph_map_to_json_obj(f))
        assert back.edge_images == f.edge_images
        assert back.automorphism.images == f.automorphism.images

    @pytest.mark.parametrize(
        "name", ["fibonacci_map", "fibonacci_inverse_map", "supergolden_map", "cat_map"]
    )
    def test_fixture_json_round_trip(self, name):
        obj = json.loads((FIXTURES / f"{name}.json").read_text())
        assert graph_map_to_json_obj(graph_map_from_json_obj(obj)) == obj

    def test_image_read_under_the_inverse_name(self):
        obj = json.loads((FIXTURES / "fibonacci_map.json").read_text())
        f = graph_map_from_json_obj(obj)
        obj["edge_map"] = {"A": ["B", "A"], "b": ["a"]}
        assert graph_map_from_json_obj(obj) == f

    @pytest.mark.parametrize(
        "edge_map, message",
        [
            ({"a": ["a", "b"], "b": ["a"], "zz": ["b"]}, "'zz' names no edge"),
            ({"a": ["a", "b"], "A": ["A"], "b": ["a"]}, "'A' contradicts its inverse"),
            ({"a": ["a", "b"], "A": ["B", "A"], "b": ["a"], "B": ["A"]}, None),
            ({"a": ["a", "b"]}, "cover every edge pair"),
        ],
        ids=["unknown-key", "contradiction", "both-names-agree", "missing-edge"],
    )
    def test_edge_map_checked(self, edge_map, message):
        obj = json.loads((FIXTURES / "fibonacci_map.json").read_text())
        obj["edge_map"] = edge_map
        if message is None:
            assert graph_map_from_json_obj(obj).edge_images == ((1, 2), (1,))
        else:
            with pytest.raises(ValueError, match=message):
                graph_map_from_json_obj(obj)


class TestTransitionMatrix:
    def test_fibonacci(self):
        assert transition_matrix(fibonacci_rose_map()).entries == ((1, 1), (1, 0))

    def test_identity_map(self):
        f = GraphMap.on_rose(unit_rose(2), Automorphism.identity(2))
        assert transition_matrix(f).entries == ((1, 0), (0, 1))

    def test_recount_matches_composition_square(self):
        # cancellation-free images: counts of the square equal the matrix square
        f = fibonacci_rose_map()
        ff = compose_graph_maps(f, f)
        A = transition_matrix(f).entries
        expected = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*A)) for row in A
        )
        assert transition_matrix(ff).entries == expected

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            TransitionMatrix(((1, -1), (0, 1)))

    def test_primitivity(self):
        assert transition_matrix(fibonacci_rose_map()).is_primitive()
        assert not TransitionMatrix(((1, 0), (0, 1))).is_primitive()
        assert not TransitionMatrix(((0, 1), (1, 0))).is_primitive()


class TestPFEigenpair:
    def test_golden_ratio_against_bisection(self):
        result = pf_eigenpair(transition_matrix(fibonacci_rose_map()), tol=1e-13)
        oracle = dominant_root_by_bisection(((1, 1), (1, 0)), 1e-12)
        assert abs(result.eigenvalue - oracle) < 1e-9
        assert abs(result.eigenvalue - GOLDEN) < 1e-9
        assert result.eigenvalue_bound < 1e-9

    def test_identity_rejected(self):
        with pytest.raises(NonPrimitiveMatrixError):
            pf_eigenpair(TransitionMatrix(((1, 0), (0, 1))))

    def test_random_primitive_against_char_poly(self):
        for entries in random_primitive_matrices(20):
            assert brackets_dominant_root(entries, *pf_bracket(entries))

    def test_char_poly_catches_shifted_bracket(self):
        def shifted(entries):
            lo, hi = pf_bracket(entries)
            return hi, 2 * hi - lo

        assert not all(
            brackets_dominant_root(entries, *shifted(entries))
            for entries in random_primitive_matrices(20)
        )

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            pf_eigenpair(transition_matrix(fibonacci_rose_map()), tol=tol)

    def test_eigenvector_positive_and_residual_small(self):
        result = pf_eigenpair(transition_matrix(supergolden_rose_map()), tol=1e-13)
        assert all(x > 0 for x in result.eigenvector)
        assert result.residual < 1e-10


class TestMetricFromPF:
    def test_golden_ratio_lengths(self):
        M = metric_from_pf(fibonacci_rose_map(), tol=1e-12)
        assert abs(float(M.lengths[0] / M.lengths[1]) - GOLDEN) < 1e-8

    def test_volume_normalised(self):
        M = metric_from_pf(supergolden_rose_map(), tol=1e-12)
        assert M.volume() == 1

    @pytest.mark.parametrize(
        "f", [fibonacci_rose_map(), fibonacci_inverse_rose_map(), supergolden_rose_map()]
    )
    @pytest.mark.parametrize("tol", [1e-3, 1e-12])
    def test_edge_stretches_lie_in_enclosure(self, f, tol):
        M = metric_from_pf(f, tol=tol)
        pf = pf_eigenpair(transition_matrix(f), tol=tol)
        lam, half = Fraction(pf.eigenvalue), Fraction(pf.eigenvalue_bound)
        # the bracket's half-width is at most tol; rounding adds an ulp
        assert half <= Fraction(tol) + Fraction(math.ulp(pf.eigenvalue))
        for k in M.graph.positive_edges:
            stretch = M.path_length(f.edge_images[k - 1]) / M.lengths[k - 1]
            assert lam - half <= stretch <= lam + half

    def test_defining_relation(self):
        f = fibonacci_rose_map()
        M = metric_from_pf(f, tol=1e-12)
        lam = pf_eigenpair(transition_matrix(f), tol=1e-13).eigenvalue
        assert eigenmetric_defect(f, M, lam) < 1e-8


def cat_map() -> GraphMap:
    return graph_map_from_json_obj(json.loads((FIXTURES / "cat_map.json").read_text()))


def cat_automorphism() -> Automorphism:
    """a -> ab, b -> bab, which fixes abAB: its letter images grow while
    the iterates of abAB stay four letters long."""
    return cat_map().automorphism


def stepwise(phi, w, n, cap):
    """``_iterates`` by repeated ``phi.apply``, with the same cap rule."""
    out = [w]
    for _ in range(n):
        nxt = phi.apply(out[-1])
        if len(nxt) > cap:
            break
        out.append(nxt)
    return out


ITERATION_CAP = 3000


def iteration_cases(maps, seed: int):
    """``(phi, w, n, cap)`` over seeds of 0-8 letters and n = 0..8; each
    seed also runs with the cap at one of its iterates' lengths and one
    below it."""
    rng = random.Random(seed)
    for phi in maps:
        for length in range(9):
            for positive in (False, True):  # under a positive map, half the alphabet
                letters = random_reduced_word(rng, phi.rank, length).letters
                w = Word(phi.rank, tuple(map(abs, letters)) if positive else letters)
                n = 0 if length == 0 else rng.randint(0, 8)
                yield phi, w, n, ITERATION_CAP
                full = stepwise(phi, w, n, ITERATION_CAP)
                if len(full) > 1:
                    j = rng.randrange(1, len(full))
                    yield phi, w, n, len(full[j])
                    yield phi, w, n, len(full[j]) - 1


def iteration_maps():
    rng = random.Random(41)
    return [
        fibonacci_rose_map().automorphism,
        fibonacci_inverse_rose_map().automorphism,
        supergolden_rose_map().automorphism,
        cat_automorphism(),
        # fixes c, so seeds in a, b reach part of the alphabet
        Automorphism.from_images(3, [[1, 2], [1], [3]], [[2], [-2, 1], [3]]),
        *(random_automorphism(rng, rank) for rank in (2, 3, 4) for _ in range(8)),
    ]


def iteration_mismatches(maps, seed: int = 43) -> list:
    return [
        (phi.images, w, n, cap)
        for phi, w, n, cap in iteration_cases(maps, seed)
        if list(dynamics._iterates(phi, w, n, cap)) != stepwise(phi, w, n, cap)
    ]


class TestIteration:
    def test_cap_enforced(self):
        # every walk that must reach phi^n(g) stops at phi^10(a), 144 letters
        phi, g, M = fibonacci_automorphism(), parse_word("a", 2), unit_rose(2)
        oracle = stable_length_oracle(phi, M, GOLDEN, 40, cap=100)
        for walk in (
            lambda: list(dynamics._orbit(phi, g, 40, cap=100)),
            lambda: eigencurrent_approx(phi, g, 40, M, 2, cap=100),
            lambda: oracle.evaluate(g),
            lambda: oracle.error_bound(g),
            lambda: pairing_estimate(phi, M, GOLDEN, g, 20, cap=100),
        ):
            message = "^iterate 10 has more than 100 letters; use a smaller n$"
            with pytest.raises(WordLengthCapError, match=message):
                walk()

    def test_sequence_prefix(self):
        phi = fibonacci_automorphism()
        seq = dynamics._orbit(phi, parse_word("a", 2), 3, DEFAULT_WORD_CAP)
        assert [str(w) for w in seq] == ["a", "ab", "aba", "abaab"]

    def test_matches_letter_by_letter_substitution(self):
        assert iteration_mismatches(iteration_maps()) == []

    def test_cross_check_catches_joins_that_never_cancel(self, monkeypatch):
        def joined(table, keys):
            return [x for k in keys for x in table[k]]

        monkeypatch.setattr(dynamics, "_concat", joined)
        assert iteration_mismatches([fibonacci_inverse_rose_map().automorphism])

    def test_cap_cuts_before_the_first_longer_iterate(self):
        phi, w = fibonacci_automorphism(), parse_word("a", 2)
        assert [len(x) for x in dynamics._iterates(phi, w, 10, 13)] == [1, 2, 3, 5, 8, 13]
        assert [len(x) for x in dynamics._iterates(phi, w, 10, 12)] == [1, 2, 3, 5, 8]
        assert list(dynamics._iterates(phi, w, 0, 0)) == [w]

    def test_tables_dropped_when_letter_images_outgrow_the_iterates(self):
        phi, w = cat_automorphism(), parse_word("abAB", 2)
        tracemalloc.start()
        try:
            out = list(dynamics._iterates(phi, w, 60, DEFAULT_WORD_CAP))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 61 and all(len(x) == 4 for x in out)
        assert peak < 2 ** 20  # phi^60(a) alone has about 10^25 letters

    def test_one_letter_seeds_stay_on_tables(self, monkeypatch):
        """The orbit of A under a -> b, b -> Ba reaches all four signed
        letters; a letter and its inverse count once against the bound, so
        only phi(A) is substituted letter by letter."""
        phi, apply, concat = fibonacci_inverse_rose_map().automorphism, Automorphism.apply, dynamics._concat
        calls, substituted = [], []
        monkeypatch.setattr(Automorphism, "apply", lambda psi, w: calls.append(w) or apply(psi, w))
        monkeypatch.setattr(dynamics, "_concat", lambda table, keys: (
            substituted.append(keys) if table is phi._images else None) or concat(table, keys))
        for seed in ("A", "B"):
            out = list(dynamics._iterates(phi, parse_word(seed, 2), 16, DEFAULT_WORD_CAP))
            assert len(out) == 17 and out == stepwise(phi, out[0], 16, DEFAULT_WORD_CAP)
        assert len(calls) == 2 * 16  # all of them by stepwise
        assert substituted == [(-1,), (-2,)]

    def test_tables_restart_where_the_iterates_lag_behind(self, monkeypatch):
        """BA goes to A, and abaab to abab, aa, b: the tables, started at
        the seed, hold several letters per letter of the lagging iterate
        until they start over from it, once."""
        phi, concat = fibonacci_inverse_rose_map().automorphism, dynamics._concat
        substituted = []
        monkeypatch.setattr(dynamics, "_concat", lambda table, keys: (
            substituted.append(len(keys)) if table is phi._images else None) or concat(table, keys))
        for seed in ("BA", "abaab"):
            substituted.clear()
            out = list(dynamics._iterates(phi, parse_word(seed, 2), 16, DEFAULT_WORD_CAP))
            assert out == stepwise(phi, out[0], 16, DEFAULT_WORD_CAP)
            assert len(substituted) == 2 and substituted[1] <= 3  # the seed, then one short iterate

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            list(dynamics._iterates(fibonacci_automorphism(), parse_word("a", 3), 2, 100))


class TestStableLengthOracle:
    def test_identity_maps_to_zero(self):
        oracle = stable_length_oracle(fibonacci_automorphism(), unit_rose(2), GOLDEN, 5)
        assert oracle.evaluate(Word(2)) == 0

    def test_power_homogeneity(self):
        oracle = stable_length_oracle(fibonacci_automorphism(), unit_rose(2), GOLDEN, 6)
        g = parse_word("ab", 2)
        assert abs(oracle.evaluate(g ** 3) - 3 * oracle.evaluate(g)) < 1e-12

    def test_conjugacy_invariance(self):
        oracle = stable_length_oracle(fibonacci_automorphism(), unit_rose(2), GOLDEN, 6)
        g = parse_word("aB", 2)
        conj = g.conjugate_by(parse_word("ba", 2))
        assert oracle.evaluate(conj) == oracle.evaluate(g)

    def test_deflated_lengths_converge(self):
        phi = fibonacci_automorphism()
        M = unit_rose(2)
        values = [
            stable_length_oracle(phi, M, GOLDEN, n).evaluate(parse_word("a", 2))
            for n in range(1, 16)
        ]
        diffs = [abs(b - a) for a, b in zip(values, values[1:])]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))

    def test_error_bound_reported(self):
        oracle = stable_length_oracle(fibonacci_automorphism(), unit_rose(2), GOLDEN, 8)
        g = parse_word("a", 2)
        assert not oracle.exact
        assert oracle.error_bound(g) > 0


def axis_route_cases(seed: int = 53):
    """``(phi, M, g, n, depth)`` on every chart kind at ranks 2-4, with
    seeds that are proper powers, conjugated by a random word."""
    rng = random.Random(seed)
    for rank in (2, 3, 4):
        for _ in range(10):
            phi = random_automorphism(rng, rank)
            root = random_reduced_word(rng, rank, rng.randint(1, 4))
            conjugator = random_reduced_word(rng, rank, rng.randint(0, 3))
            g = (root ** rng.randint(1, 3)).conjugate_by(conjugator)
            for M in random_chart_of_each_kind(rng, rank):
                yield phi, M, g, rng.randint(1, 3), rng.randint(1, 3)


def current_route_mismatches() -> list:
    """Cases where the eigencurrent vector or the ``freq_delta`` column,
    both read off axis periods, differ from the normalised counting
    currents of the iterates."""
    bad = []
    for phi, M, g, n, depth in axis_route_cases():
        iterates = dynamics._orbit(phi, g, n, DEFAULT_WORD_CAP)
        vecs = [frequency_vector(counting_current(w), M, depth) for w in iterates]
        deltas = [b.sup_distance(a) for a, b in zip(vecs, vecs[1:])]
        rows = iwip_rows(phi, M, GOLDEN, g, n, depth)
        if eigencurrent_approx(phi, g, n, M, depth) != vecs[-1] or [r.freq_delta for r in rows[1:]] != deltas:
            bad.append((phi.images, M, g, n, depth))
    return bad


def uncut_period(M, w):
    return M.word_to_path(w)


def uncrossed_gap(a, b):
    """``currents._row_gap`` with the counts not scaled by the other
    row's mass."""
    (da, na), (db, nb) = a, b
    return Fraction(max(abs(x - y) for x, y in zip(na, nb)), da * db)


class TestAxisRoute:
    def test_matches_counting_currents(self):
        assert current_route_mismatches() == []

    @pytest.mark.parametrize(
        "name, planted",
        [("_axis_period", uncut_period), ("cyclic_length", len), ("_row_gap", uncrossed_gap)],
        ids=[
            "period-without-cyclic-cut", "mass-without-cyclic-cut", "gap-without-cross-multiplied-masses"
        ],
    )
    def test_cross_check_catches_uncut_period_or_mass(self, monkeypatch, name, planted):
        monkeypatch.setattr(dynamics, name, planted)
        assert current_route_mismatches()


class TestEigencurrent:
    def test_n_zero_is_seed_frequency(self):
        M = unit_rose(2)
        g = parse_word("ab", 2)
        vec = eigencurrent_approx(fibonacci_automorphism(), g, 0, M, 2)
        assert vec.entries == frequency_vector(counting_current(g), M, 2).entries

    def test_seed_independence(self):
        phi = fibonacci_automorphism()
        M = unit_rose(2)
        gaps = []
        for n in (6, 9, 12):
            va = eigencurrent_approx(phi, parse_word("a", 2), n, M, 2)
            vb = eigencurrent_approx(phi, parse_word("b", 2), n, M, 2)
            gaps.append(va.sup_distance(vb))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_projective_invariance_of_powered_seed(self):
        phi = fibonacci_automorphism()
        M = unit_rose(2)
        g = parse_word("ab", 2)
        va = eigencurrent_approx(phi, g, 5, M, 2)
        vb = eigencurrent_approx(phi, g ** 2, 5, M, 2)
        assert va.entries == vb.entries

    def test_identity_seed_rejected(self):
        with pytest.raises(ValueError):
            eigencurrent_approx(fibonacci_automorphism(), Word(2), 3, unit_rose(2), 2)


class TestPairingEstimate:
    def test_positive_window(self):
        report = pairing_estimate(
            fibonacci_automorphism(), unit_rose(2), GOLDEN, parse_word("a", 2), 10
        )
        assert report.stays_positive
        assert 0.1 < report.window[0] <= report.window[1] < 10

    def test_conjugate_seed_identical(self):
        phi = fibonacci_automorphism()
        M = unit_rose(2)
        g = parse_word("a", 2)
        conj = g.conjugate_by(parse_word("bA", 2))
        a = pairing_estimate(phi, M, GOLDEN, g, 6)
        b = pairing_estimate(phi, M, GOLDEN, conj, 6)
        assert a.values == b.values

    def test_inverse_map_pairs_opposite_limits(self):
        finv = fibonacci_inverse_rose_map()
        lam = pf_eigenpair(transition_matrix(finv), tol=1e-13).eigenvalue
        assert abs(lam - GOLDEN) < 1e-9
        report = pairing_estimate(
            finv.automorphism, finv.chart, lam, parse_word("a", 2), 8
        )
        assert report.stays_positive and report.window[1] < 10


class TestIwipRows:
    def test_orbit_that_does_not_grow_deflates_to_zero(self):
        # lam^800 overflows a float, while the iterates of abAB stay four letters long
        f, g = cat_map(), parse_word("abAB", 2)
        phi, M, lam = f.automorphism, f.chart, pf_eigenpair(transition_matrix(f)).eigenvalue
        rows = iwip_rows(phi, M, lam, g, 400, 1)
        assert rows[1].length_estimate == 4 / lam
        assert rows[-1].pairing_estimate == 0 < rows[-1].length_estimate
        assert pairing_estimate(phi, M, lam, g, 400).values[-1] == 0
        assert stable_length_oracle(phi, M, lam, 800).evaluate(g) == 0

    def test_row_zero_is_raw(self):
        rows = iwip_rows(
            fibonacci_automorphism(), unit_rose(2), GOLDEN, parse_word("a", 2), 5, 2
        )
        assert rows[0].n == 0
        assert rows[0].length_estimate == 1.0
        assert rows[0].pairing_estimate == 1.0
        assert rows[0].freq_delta is None
        assert all(r.freq_delta is not None for r in rows[1:])

    def test_cap_breach_reported_per_row(self):
        # fib lengths 1,2,3,5,8,13,...: cap 10 lets iterates 0..4 through,
        # so pairing (which needs iterate 2n) breaks before length does
        rows = iwip_rows(
            fibonacci_automorphism(), unit_rose(2), GOLDEN, parse_word("a", 2), 4, 1, cap=10
        )
        assert rows[2].length_estimate is not None
        assert rows[2].pairing_estimate is not None  # needs iterate 4
        assert rows[3].length_estimate is not None
        assert rows[3].pairing_estimate is None  # needs iterate 6
        assert rows[4].pairing_estimate is None

    def test_each_iterate_measured_once(self, monkeypatch):
        M, g, phi = unit_rose(2), parse_word("a", 2), fibonacci_inverse_rose_map().automorphism
        measured = []
        real = MarkedMetricGraph.word_to_path

        def counting(self, w):
            measured.append(w)
            return real(self, w)

        # every iterate's length and frequency row passes through here;
        # the inverse map cancels, so its table is read off iterates
        monkeypatch.setattr(MarkedMetricGraph, "word_to_path", counting)
        iwip_rows(phi, M, GOLDEN, g, 4, 1)
        # lengths and rows read iterates 0..4, pairings the even iterates 0..8
        assert len(measured) == len(set(measured)) == 7
        measured.clear()
        eigencurrent_approx(fibonacci_automorphism(), g, 6, M, 2)
        assert len(measured) == 1

    @pytest.mark.parametrize("f", [fibonacci_rose_map(), supergolden_rose_map(), cat_map()],
                             ids=["fibonacci", "supergolden", "cat"])
    def test_positive_table_builds_no_iterate(self, monkeypatch, f):
        lam, charts, calls = pf_eigenpair(transition_matrix(f)).eigenvalue, (f.chart, metric_from_pf(f)), []
        real_iterates, real_path = dynamics._iterates, MarkedMetricGraph.word_to_path
        monkeypatch.setattr(dynamics, "_iterates", lambda *a: calls.append(a) or real_iterates(*a))
        monkeypatch.setattr(MarkedMetricGraph, "word_to_path", lambda M, w: calls.append(w) or real_path(M, w))
        for M in charts:
            rows = iwip_rows(f.automorphism, M, lam, Word(f.chart.rank, (1, 2)), 12, 3)
            assert rows[12].length_estimate is not None
        assert calls == []

    def test_columns_match_pairing_estimate_and_oracle(self):
        f = supergolden_rose_map()
        lam = pf_eigenpair(transition_matrix(f)).eigenvalue
        M, phi, g, n = metric_from_pf(f), f.automorphism, parse_word("aC", 3), 5
        rows = iwip_rows(phi, M, lam, g, n, 1)
        values = pairing_estimate(phi, M, lam, g, n).values
        assert values == tuple(r.pairing_estimate for r in rows[1:])
        assert stable_length_oracle(phi, M, lam, n).evaluate(g) == rows[n].length_estimate


def positive_tables(seed: int = 61):
    """``(phi, M, lam, g, n_max, depth, cap)`` of 120 tables the block
    route takes: fibonacci, supergolden and the cat map, on the unit rose
    and on the PF metric, with positive seeds of 1-8 letters, depth 1-4,
    n_max 0-14 and caps from 10 to 10^5.  The first puts depth 4 past a
    one-letter seed, the second a cap mid-table, and the third a cap
    below the seed, which is read all the same."""
    rng = random.Random(seed)
    maps = []
    for f in (fibonacci_rose_map(), supergolden_rose_map(), cat_map()):
        lam = pf_eigenpair(transition_matrix(f)).eigenvalue
        maps += [(f.automorphism, f.chart, lam), (f.automorphism, metric_from_pf(f), lam)]
    yield *maps[1], Word(2, (1,)), 6, 4, 10 ** 5
    yield *maps[3], Word(3, (2, 1)), 10, 2, 300
    yield *maps[4], Word(2, (1, 2, 2, 1, 2)), 3, 2, 3
    for _ in range(117):
        phi, M, lam = rng.choice(maps)
        g = Word(phi.rank, tuple(rng.randint(1, phi.rank) for _ in range(rng.randint(1, 8))))
        yield phi, M, lam, g, rng.randint(0, 14), rng.randint(1, 4), rng.choice([10, 300, 10 ** 4, 10 ** 5])


def block_route_mismatches(monkeypatch) -> list:
    """Tables whose rows differ between the block route and the iterate
    route, which is reached by standing in for the block route."""
    tables = list(positive_tables())
    block = [rows_or_error(table) for table in tables]
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_block_readings", dynamics._iterate_readings)
        iterated = [rows_or_error(table) for table in tables]
    return [table for table, a, b in zip(tables, block, iterated) if a != b]


def rows_or_error(table):
    try:
        return iwip_rows(*table)
    except ZeroDivisionError as error:  # a seed whose windows go uncounted has no mass
        return repr(error)


def windows_without_wraparound(period, k):
    return Counter(tuple(period[i : i + k]) for i in range(len(period) - k + 1))


def blocks_anywhere(images, b):
    image = [x for y in b for x in images[y]]
    return Counter(tuple(image[i : i + len(b)]) for i in range(len(image) - len(b) + 1))


class TestBlockRoute:
    def test_grid_reaches_deep_windows_and_caps(self):
        tables = list(positive_tables())
        assert any(depth > len(g) for _, _, _, g, _, depth, _ in tables)
        rows = iwip_rows(*tables[1])
        assert rows[-2].length_estimate is not None and rows[-2].pairing_estimate is None
        rows = iwip_rows(*tables[2])
        assert rows[0].length_estimate is not None and rows[1].length_estimate is None

    def test_matches_iterate_route(self, monkeypatch):
        assert block_route_mismatches(monkeypatch) == []

    @pytest.mark.parametrize(
        "name, planted",
        [("_cyclic_windows", windows_without_wraparound), ("_block_column", blocks_anywhere)],
        ids=["seed-without-wraparound", "columns-from-anywhere-in-the-image"],
    )
    def test_cross_check_catches_planted_bug(self, monkeypatch, name, planted):
        monkeypatch.setattr(dynamics, name, planted)
        assert block_route_mismatches(monkeypatch)

    def test_input_errors_kept(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("took the iterate route")

        monkeypatch.setattr(dynamics, "_iterate_readings", unreachable)
        phi = fibonacci_automorphism()
        for M, g in ((unit_rose(2), parse_word("ab", 3)), (unit_rose(3), parse_word("ab", 2))):
            with pytest.raises(ValueError, match="rank mismatch"):
                iwip_rows(phi, M, GOLDEN, g, 3, 2)
        with pytest.raises(ValueError, match="seed must be nontrivial"):
            iwip_rows(phi, unit_rose(2), GOLDEN, Word(2), 3, 2)
