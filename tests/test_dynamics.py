import inspect
import itertools
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
    ConvergenceError,
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
from outerint.marked_graph import MarkedMetricGraph, subdivide_edge, translation_length, unit_rose
from outerint.words import Automorphism, Word, parse_word

from _generators import (
    random_automorphism,
    random_blown_up_chart,
    random_chart_of_each_kind,
    random_cyclically_reduced_word,
    random_reduced_word,
)
from oracles import (
    char_poly_at,
    cyclic_core_orbit,
    dominant_root_by_bisection,
    fraction_pf_eigenpair,
    illegal_turns,
    orbit_cancels,
)

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


def pf_cases():
    """Seeded random 0..3 matrices of sizes 1-6, most with zero entries
    and many not primitive, then the catalog maps and the map fixtures,
    each with a tolerance between 1e-16 and 2."""
    rng = random.Random(35)
    matrices = [
        tuple(tuple(rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(n)) for _ in range(n))
        for n in (rng.randint(1, 6) for _ in range(600))
    ]
    maps = [fibonacci_rose_map(), fibonacci_inverse_rose_map(), supergolden_rose_map()]
    maps += [graph_map_from_json_obj(json.loads(path.read_text())) for path in sorted(FIXTURES.glob("*_map.json"))]
    matrices += [transition_matrix(f).entries for f in maps for _ in range(4)]
    return [(TransitionMatrix(entries), 2 * 10 ** rng.uniform(-16.3, 0)) for entries in matrices]


def pf_or_error(pf, T, tol):
    try:
        return pf(T, tol)
    except (ConvergenceError, NonPrimitiveMatrixError) as exc:
        return type(exc), str(exc)


def pf_mismatches(cases) -> list:
    return [(T, tol) for T, tol in cases
            if pf_or_error(dynamics.pf_eigenpair, T, tol) != pf_or_error(fraction_pf_eigenpair, T, tol)]


class TestPFEigenpair:
    def test_matches_fraction_oracle(self):
        cases = pf_cases()
        results = [pf_or_error(pf_eigenpair, T, tol) for T, tol in cases]
        # the sample holds refusals, one-step brackets and long iterations
        assert {type(r) for r in results} == {tuple, dynamics.PFResult}
        assert {r.iterations for r in results if type(r) is not tuple} >= {1, 2, 3}
        assert max(r.iterations for r in results if type(r) is not tuple) > 100
        assert pf_mismatches(cases) == []

    @pytest.mark.parametrize(
        "edits",
        [[("pf_eigenpair", "(2 * Fraction(tol))", "Fraction(tol)")],
         [("pf_eigenpair", "v = [1] * T.size", "v, late = [1] * T.size, False"),
          ("pf_eigenpair", "if (w[ih] * v[il] - w[il] * v[ih]) * q <= p * v[ih] * v[il]:\n            break",
           "if late:\n            break\n        late = (w[ih] * v[il] - w[il] * v[ih]) * q <= p * v[ih] * v[il]")],
         [("pf_eigenpair", "a, b = ", "b, a = ")]],
        ids=["stop-at-tol", "stop-one-step-late", "residual-mid-inverted"],
    )
    def test_oracle_catches_planted_bug(self, monkeypatch, edits):
        plant(monkeypatch, edits)
        assert pf_mismatches(pf_cases()) != []

    @pytest.mark.parametrize("f, steps", [(fibonacci_rose_map, 30), (supergolden_rose_map, 48)])
    def test_fractions_made_do_not_grow_with_the_steps(self, monkeypatch, f, steps):
        T, made = transition_matrix(f()), []
        monkeypatch.setattr(dynamics, "Fraction", lambda *a: made.append(a) or Fraction(*a))
        counts = []
        for tol in (1.0, 1e-12):
            made.clear()
            counts.append((pf_eigenpair(T, tol).iterations, len(made)))
        assert counts[1][0] == steps > counts[0][0]
        assert counts[0][1] == counts[1][1] <= T.size + 8

    def test_step_bound_reached(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_PF_ITERATIONS", 3)
        with pytest.raises(ConvergenceError, match="^power iteration did not converge in 3 steps$"):
            pf_eigenpair(transition_matrix(fibonacci_rose_map()))

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


def iterates(phi, w, n, cap) -> list:
    """The iterates ``dynamics._orbit`` yields before it raises
    :class:`WordLengthCapError`, or all ``n + 1`` of them."""
    out = []
    try:
        for image in dynamics._orbit(phi, w, n, cap):
            out.append(image)
    except WordLengthCapError:
        pass
    return out


def stepwise(phi, w, n, cap):
    """:func:`iterates` by repeated ``phi.apply``, with the same cap rule."""
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
        if iterates(phi, w, n, cap) != stepwise(phi, w, n, cap)
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
        assert [len(x) for x in iterates(phi, w, 10, 13)] == [1, 2, 3, 5, 8, 13]
        assert [len(x) for x in iterates(phi, w, 10, 12)] == [1, 2, 3, 5, 8]
        assert iterates(phi, w, 0, 0) == [w]

    def test_tables_dropped_when_letter_images_outgrow_the_iterates(self):
        phi, w = cat_automorphism(), parse_word("abAB", 2)
        tracemalloc.start()
        try:
            out = iterates(phi, w, 60, DEFAULT_WORD_CAP)
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
            out = iterates(phi, parse_word(seed, 2), 16, DEFAULT_WORD_CAP)
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
            out = iterates(phi, parse_word(seed, 2), 16, DEFAULT_WORD_CAP)
            assert out == stepwise(phi, out[0], 16, DEFAULT_WORD_CAP)
            assert len(substituted) == 2 and substituted[1] <= 3  # the seed, then one short iterate

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            iterates(fibonacci_automorphism(), parse_word("a", 3), 2, 100)


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
    """``(phi, M, g, n, depth)`` on every chart kind at ranks 2-4, graphs
    blown up from the rose among them, with seeds that are proper powers,
    conjugated by a random word."""
    rng, blown = random.Random(seed), random.Random(seed + 1)
    for rank in (2, 3, 4):
        for _ in range(10):
            phi = random_automorphism(rng, rank)
            root = random_reduced_word(rng, rank, rng.randint(1, 4))
            conjugator = random_reduced_word(rng, rank, rng.randint(0, 3))
            g = (root ** rng.randint(1, 3)).conjugate_by(conjugator)
            for M in random_chart_of_each_kind(rng, rank):
                yield phi, M, g, rng.randint(1, 3), rng.randint(1, 3)
            yield phi, random_blown_up_chart(blown, rank), g, blown.randint(1, 3), blown.randint(1, 3)


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

    @pytest.mark.parametrize(
        "case, n",
        [("cat_map", 400), ("fibonacci", 12)],
        ids=["iterate-route-past-overflow", "block-route"],
    )
    def test_deep_rows_match_fresh_powers(self, case, n):
        # the table carries lam^j from row to row; each cell must still be
        # the exact length over a freshly raised exact lam^j, rounded once
        if case == "cat_map":
            f, g = cat_map(), parse_word("abAB", 2)
            phi, M, lam = f.automorphism, f.chart, pf_eigenpair(transition_matrix(f)).eigenvalue
        else:
            phi, M, lam, g = fibonacci_automorphism(), unit_rose(2), GOLDEN, parse_word("a", 2)
        rows = iwip_rows(phi, M, lam, g, n, 1)
        fresh = [
            float(translation_length(M, w) / Fraction(lam) ** j)
            for j, w in enumerate(dynamics._orbit(phi, g, 2 * n, DEFAULT_WORD_CAP))
        ]
        assert [r.length_estimate for r in rows] == fresh[: n + 1]
        assert [r.pairing_estimate for r in rows] == fresh[::2]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            iwip_rows(fibonacci_automorphism(), unit_rose(2), GOLDEN, parse_word("a", 2), -1, 1)

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
        M, g, phi = subdivide_edge(unit_rose(2), 1), parse_word("ab", 2), fibonacci_inverse_rose_map().automorphism
        measured = []
        real = MarkedMetricGraph.word_to_path

        def counting(self, w):
            measured.append(w)
            return real(self, w)

        # every iterate's length and frequency row passes through here; the
        # chart is not a standard rose, so the table is read off iterates
        assert orbit_cancels([w.letters for w in phi.images], g.letters, 1)
        monkeypatch.setattr(MarkedMetricGraph, "word_to_path", counting)
        iwip_rows(phi, M, GOLDEN, g, 4, 1)
        # lengths and rows read iterates 0..4, pairings the even iterates 0..8
        assert len(measured) == len(set(measured)) == 7
        measured.clear()
        eigencurrent_approx(fibonacci_automorphism(), g, 6, M, 2)
        assert len(measured) == 1

    @pytest.mark.parametrize(
        "f, seed",
        [(fibonacci_rose_map(), "ab"), (supergolden_rose_map(), "ab"), (cat_map(), "ab"),
         (fibonacci_inverse_rose_map(), "aBBa"), (fibonacci_rose_map(), "BA")],
        ids=["fibonacci", "supergolden", "cat", "fibonacci_inverse-signed-seed", "fibonacci-inverse-letters"],
    )
    def test_positive_table_builds_no_iterate(self, monkeypatch, f, seed):
        # under fibonacci a seed with both signs cancels: its turn from an
        # inverse letter to a positive one goes to (A, a), so the signed
        # seeds it keeps legal are inverse words
        lam, charts, calls = pf_eigenpair(transition_matrix(f)).eigenvalue, (f.chart, metric_from_pf(f)), []
        real_orbit, real_path = dynamics._orbit, MarkedMetricGraph.word_to_path
        monkeypatch.setattr(dynamics, "_orbit", lambda *a: calls.append(a) or real_orbit(*a))
        monkeypatch.setattr(MarkedMetricGraph, "word_to_path", lambda M, w: calls.append(w) or real_path(M, w))
        for M in charts:
            rows = iwip_rows(f.automorphism, M, lam, parse_word(seed, f.chart.rank), 12, 3)
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


def folded_map() -> GraphMap:
    """a -> bA, b -> A on the unit rose: not a train track, as the turn
    inside the image of a is illegal: its directions B and A both go to
    a, and the image of bA is A.aB."""
    return GraphMap.on_rose(unit_rose(2), Automorphism.from_images(2, [[2, -1], [-1]], [[-2], [1, -2]]))


def self_cancelling_map() -> GraphMap:
    """a -> ac, b -> Cb, c -> cab on the unit rose: not a train track, as
    the turn ab inside the image of c cancels at the next step, ac.Cb."""
    phi = Automorphism.from_images(3, [[1, 3], [-3, 2], [3, 1, 2]], [[1, 1, 2, -3], [3, -2, -1, 2], [3, -2, -1]])
    return GraphMap.on_rose(unit_rose(3), phi)


def route_tables(seed: int = 61):
    """``(phi, M, lam, g, n_max, depth, cap)`` of 281 tables.  The first
    240: fibonacci, supergolden, the cat map and fibonacci_inverse, on
    the unit rose and on the PF metric, with reduced seeds of 1-8
    letters, depth 1-4, n_max 0-14 and caps from 10 to 10^5.  Every
    other seed is drawn until :func:`oracles.orbit_cancels` sees its
    orbit never cancel; the others are drawn freely, so most of them
    cancel, at a junction or across the wrap-around, at once or a step
    later.  The first table puts depth 4 past a one-letter seed, the
    second and the fourth a cap mid-table, and the third a cap below the
    seed, which is read all the same.  Then three orbits that cancel for
    good: AAbAB under fibonacci_inverse grows a conjugator, and its cap
    of 120 stops the iterates a step before their cyclic cores; baaBBA
    under fibonacci_inverse and aCB under supergolden keep illegal turns
    at every step, Nielsen paths.  Then c under :func:`self_cancelling_map`,
    whose orbit has no illegal turn but cancels inside the image of c at
    the last step its table reads.  The last 37 are drawn likewise under
    :func:`folded_map`, which is not a train track, with every
    other seed drawn until it has no illegal turn; most of their orbits
    cancel all the same, inside the image of a."""
    rng = random.Random(seed)
    maps = []
    for f in (fibonacci_rose_map(), supergolden_rose_map(), cat_map(), fibonacci_inverse_rose_map()):
        lam = pf_eigenpair(transition_matrix(f)).eigenvalue
        maps += [(f.automorphism, f.chart, lam), (f.automorphism, metric_from_pf(f), lam)]
    yield *maps[1], Word(2, (1,)), 6, 4, 10 ** 5
    yield *maps[3], Word(3, (2, 1)), 10, 2, 300
    yield *maps[4], Word(2, (1, 2, 2, 1, 2)), 3, 2, 3
    yield *maps[7], parse_word("aBBa", 2), 10, 3, 300
    yield from drawn_tables(rng, maps, 236)
    yield *maps[6], parse_word("AAbAB", 2), 5, 3, 120
    yield *maps[7], parse_word("baaBBA", 2), 12, 3, 10 ** 5
    yield *maps[2], parse_word("aCB", 3), 12, 2, 10 ** 5
    f = self_cancelling_map()
    yield f.automorphism, f.chart, pf_eigenpair(transition_matrix(f)).eigenvalue, parse_word("c", 3), 1, 2, 10 ** 5
    f = folded_map()
    lam = pf_eigenpair(transition_matrix(f)).eigenvalue
    yield from drawn_tables(rng, [(f.automorphism, f.chart, lam), (f.automorphism, metric_from_pf(f), lam)], 37,
                            lambda images, g: illegal_turns(images, g.letters) > 0)


def drawn_tables(rng, maps, count: int, redraw=lambda images, g: orbit_cancels(images, g.letters, 8)):
    """``count`` tables, every other seed drawn again while ``redraw``."""
    for i in range(count):
        phi, M, lam = rng.choice(maps)
        images = [w.letters for w in phi.images]
        g = random_reduced_word(rng, phi.rank, rng.randint(1, 8))
        while i % 2 == 0 and redraw(images, g):
            g = random_reduced_word(rng, phi.rank, rng.randint(1, 8))
        yield phi, M, lam, g, rng.randint(0, 14), rng.randint(1, 4), rng.choice([10, 300, 10 ** 4, 10 ** 5])


def conjugated_tables(seed: int = 67, count: int = 600):
    """``count`` tables whose seeds are not cyclically reduced: the three
    catalog maps, on the unit rose and on the PF metric, with seeds of
    3-12 letters, n_max 0-10, depth 1-3 and caps from 50 to 10^5."""
    rng = random.Random(seed)
    maps = []
    for f in (fibonacci_rose_map(), fibonacci_inverse_rose_map(), supergolden_rose_map()):
        lam = pf_eigenpair(transition_matrix(f)).eigenvalue
        maps += [(f.automorphism, f.chart, lam), (f.automorphism, metric_from_pf(f), lam)]
    for _ in range(count):
        phi, M, lam = rng.choice(maps)
        g = random_reduced_word(rng, phi.rank, rng.randint(3, 12))
        while g.letters[0] != -g.letters[-1]:
            g = random_reduced_word(rng, phi.rank, rng.randint(3, 12))
        yield phi, M, lam, g, rng.randint(0, 10), rng.randint(1, 3), rng.choice([50, 300, 10 ** 4, 10 ** 5])


def block_route_mismatches(monkeypatch, tables=None) -> list:
    """Tables, by default :func:`route_tables`, whose rows differ between
    the route ``iwip_rows`` chooses and the iterate route, which is
    reached by standing in for the block route."""
    tables = list(tables or route_tables())
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


NEVER_FIRES = [("_block_column", "images[b[0]][-1] == -images[b[1]][0]", "False")]
WRONG_ENDS = [("_block_column", "images[b[0]][-1] == -images[b[1]][0]", "images[b[0]][0] == -images[b[1]][-1]")]
# a 1-letter window holds no turn, so nothing checks a depth-1 table
DEPTH_WINDOWS = [("_block_readings", "_path_pairs(M.graph, depth), max(depth, 2)", "_path_pairs(M.graph, depth), depth"),
                 ("_block_column", "if images", "if len(b) > 1 and images")]
CHECK_BUGS = pytest.mark.parametrize(
    "edits", [NEVER_FIRES, WRONG_ENDS, DEPTH_WINDOWS],
    ids=["check-never-fires", "check-on-the-wrong-ends", "windows-of-depth-letters"],
)


# bugs in the pieces of an orbit that cancels: the windows across a joint
# read the tail buffer one letter short; the cap reads the cyclic cores,
# not the iterates with their conjugators; a piece's head never cancels
# against the joint before it, so an illegal turn cancels only while the
# orbit is held as letters, not at every step
PIECE_BUGS = pytest.mark.parametrize(
    "edits",
    [[("_orbit_counts", "p[1][1 - K :] + p[3]", "p[1][2 - K :] + p[3]")],
     [("_block_readings", "next(line) if line else sum(c.values())", "sum(c.values())")],
     [("_joint_step", "while m < len(head) and s and s[-1] == -head[m]:", "while False:")]],
    ids=["buffer-read-one-letter-short", "cap-on-the-cyclic-cores", "cancellation-only-while-held"],
)


def plant(monkeypatch, edits):
    """Replace pieces of the source of ``dynamics`` functions, run in one
    copy of the module's namespace: a bug planted in the counts route.
    ``edits`` are ``(function name, old, new)``; each ``old`` occurs once
    in the original source of its function, and the edits of a function
    are compiled together, at its line in ``dynamics.py``."""
    namespace = dict(vars(dynamics))
    for name in dict.fromkeys(name for name, _, _ in edits):
        lines, first = inspect.getsourcelines(getattr(dynamics, name))
        source = original = "".join(lines)
        for old, new in ((old, new) for n, old, new in edits if n == name):
            assert original.count(old) == 1
            source = source.replace(old, new)
        exec(compile("\n" * (first - 1) + source, dynamics.__file__, "exec"), namespace)
        monkeypatch.setattr(dynamics, name, namespace[name])


def test_plant_applies_two_edits_to_one_function(monkeypatch):
    # a second edit used to look for its text in the first lines of the module
    line = dynamics._letter_counts.__code__.co_firstlineno
    plant(monkeypatch, [("_letter_counts", "abs(x) == i", "x == i"),
                        ("_letter_counts", "range(1, rank + 1)", "range(rank, 0, -1)")])
    # unplanted [2, 3]; the first edit alone [1, 3], the second alone [3, 2]
    assert dynamics._letter_counts((1, -1, 2, 2, 2), 2) == [3, 1]
    assert dynamics._letter_counts.__code__.co_firstlineno == line


def iterate_free(monkeypatch, tables) -> list[bool]:
    """Whether ``iwip_rows`` builds no iterate, per table."""
    real, calls, free = dynamics._orbit, [], []
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_orbit", lambda *a: calls.append(a) or real(*a))
        for table in tables:
            calls.clear()
            rows_or_error(table)
            free.append(not calls)
    return free


class TestBlockRoute:
    def test_grid_reaches_deep_windows_and_caps(self):
        tables = list(route_tables())
        assert any(depth > len(g) for _, _, _, g, _, depth, _ in tables)
        for i in (1, 3):
            rows = iwip_rows(*tables[i])
            assert rows[-2].length_estimate is not None and rows[-2].pairing_estimate is None
        rows = iwip_rows(*tables[2])
        assert rows[0].length_estimate is not None and rows[1].length_estimate is None

    def test_grid_holds_signed_legal_and_cancelling_seeds(self, monkeypatch):
        # legal: no junction cancels in the iterates the table builds, up
        # to the first past the cap; on a train track cancelling tables
        # build no iterate either, and no cancellation in the grid reaches
        # past a buffer (see counts_route)
        tables = list(route_tables())
        legal = [not orbit_cancels([w.letters for w in phi.images], g.letters, 2 * n_max, cap)
                 for phi, _, _, g, n_max, _, cap in tables]
        assert sum(legal[:240]) == 174
        route = [counts_route(phi, g, 2 * n_max, cap) for phi, _, _, g, n_max, _, cap in tables]
        assert sum(route) == 244
        assert iterate_free(monkeypatch, tables) == route
        for images in {phi.images for phi, *_ in tables[:240]}:  # (legal, with inverse letters) per map
            kinds = {(ok, min(g.letters) < 0) for (phi, _, _, g, *_), ok in zip(tables, legal) if phi.images == images}
            assert kinds >= {(True, False), (True, True), (False, True)}
            assert any(free and not ok for (phi, *_), ok, free in zip(tables, legal, route) if phi.images == images)
        # under a map that is not a train track, cancelling tables stay on iterates
        assert {free for (phi, *_), free in zip(tables[244:], route[244:])} == {False, True}

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

    @CHECK_BUGS
    def test_cross_check_catches_planted_check_bug(self, monkeypatch, edits):
        plant(monkeypatch, edits)
        assert block_route_mismatches(monkeypatch)

    @PIECE_BUGS
    def test_cross_check_catches_planted_piece_bug(self, monkeypatch, edits):
        plant(monkeypatch, edits)
        assert block_route_mismatches(monkeypatch)

    def test_grid_caps_a_conjugator_before_its_core(self):
        # AAbAB under fibonacci_inverse: iterate 8 has 146 letters, past
        # the cap of 120, and its cyclic core 102, within it
        phi, M, lam, g, n_max, depth, cap = list(route_tables())[240]
        assert (g, cap) == (parse_word("AAbAB", 2), 120)
        assert [len(w) for w in cyclic_core_orbit([w.letters for w in phi.images], g.letters, 8)][7:] == [63, 102]
        assert len(stepwise(phi, g, 8, math.inf)[-1]) == 146
        rows = iwip_rows(phi, M, lam, g, n_max, depth, cap)
        assert rows[3].pairing_estimate is not None and rows[4].pairing_estimate is None

    def test_buffer_guard_sends_the_table_to_iterates(self, monkeypatch):
        # CaBC under a -> abb, b -> b, c -> cb: a cancellation at a joint
        # reaches past the E letters held at the end of a piece, so the
        # counts cannot read the orbit; lam 1 leaves the cells undeflated
        phi = Automorphism.from_images(3, [[1, 2, 2], [2], [3, 2]], [[1, -2, -2], [2], [3, -2]])
        table = (phi, unit_rose(3), 1.0, parse_word("CaBC", 3), 9, 2, DEFAULT_WORD_CAP)
        rows = iwip_rows(*table)
        assert [r.length_estimate for r in rows] == [4, 4, 6, 8, 10, 12, 14, 16, 18, 20]
        assert [r.pairing_estimate for r in rows] == [4, 6, 10, 14, 18, 22, 26, 30, 34, 38]
        assert iterate_free(monkeypatch, [table]) == [False]
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_block_readings", dynamics._iterate_readings)
            assert iwip_rows(*table) == rows
        plant(monkeypatch, [("_joint_step", "if min(low, len(head) - m) < E:", "if False:")])
        assert iwip_rows(*table) != rows

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


class TestConjugatedSeeds:
    """A seed that is not cyclically reduced is read off counts: the
    cyclic track starts at its cyclic core, and the linear track, which
    counts the letters for the cap, at the seed itself."""

    def test_counts_read_every_table_and_match_iterates(self, monkeypatch):
        tables = list(conjugated_tables())
        assert all(iterate_free(monkeypatch, tables))
        assert block_route_mismatches(monkeypatch, tables) == []

    def test_cross_check_catches_a_linear_track_started_at_the_core(self, monkeypatch):
        # the cap then reads the cyclic cores, not the iterates with their conjugators
        plant(monkeypatch, [("_block_readings", "_orbit_counts(images, g.letters, K, False)",
                             "_orbit_counts(images, g.letters[cut : len(g) - cut], K, False)")])
        assert block_route_mismatches(monkeypatch, conjugated_tables())


def counts_route(phi, g, steps: int, cap: float = math.inf) -> bool:
    """Whether a table should take the counts: any seed under a train
    track (no turn inside a letter's image illegal, by
    :func:`oracles.illegal_turns`), else a cyclically reduced seed with
    no illegal turn and no cancellation within ``steps``
    (:func:`oracles.orbit_cancels`).  No cancellation in these tables
    reaches past a buffer."""
    images = [w.letters for w in phi.images]
    train_track = not any(illegal_turns(images, image, cyclic=False) for image in images)
    return train_track or g.letters[0] != -g.letters[-1] and illegal_turns(images, g.letters) == 0 and not (
        orbit_cancels(images, g.letters, steps, cap))


def cyclically_reduced_seeds(rank: int, longest: int):
    alphabet = [x for i in range(1, rank + 1) for x in (i, -i)]
    for length in range(1, longest + 1):
        for letters in itertools.product(alphabet, repeat=length):
            if all(letters[i - 1] != -letters[i] for i in range(length)):
                yield Word(rank, letters)


def route_mismatches(monkeypatch, longest: int = 5) -> dict:
    """Per map, the cyclically reduced seeds of 1-``longest`` letters on which
    ``iwip_rows``, at n_max 4 and depth 1 or 3, builds iterates although
    :func:`counts_route` says it should not, or builds none although it
    should; the counts of tables that build none, of seeds with no
    illegal turn, and of all tables.  The maps are the three catalog
    maps, the cat map and :func:`folded_map`, which is not a train track."""
    out = {}
    for f in (fibonacci_rose_map(), fibonacci_inverse_rose_map(), supergolden_rose_map(), cat_map(), folded_map()):
        phi, images = f.automorphism, tuple(w.letters for w in f.automorphism.images)
        seeds = list(cyclically_reduced_seeds(phi.rank, longest))
        route = [counts_route(phi, g, 8) for g in seeds]
        legal = sum(illegal_turns(images, g.letters) == 0 for g in seeds)
        for depth in (1, 3):
            free = iterate_free(monkeypatch, [(phi, f.chart, 1.5, g, 4, depth) for g in seeds])
            out[images, depth] = ([g for g, a, b in zip(seeds, free, route) if a != b], sum(free), legal, len(free))
    return out


class TestLegalOrbit:
    """The counts route is taken exactly where :func:`counts_route` says:
    on a train track whatever cancels, as no cancellation here reaches
    past a buffer; else while the orbit has no illegal turn and no
    junction cancels over the steps its table reads."""

    def test_matches_letter_by_letter_substitution(self, monkeypatch):
        # (mismatches, tables that build no iterate, seeds with no illegal turn, tables)
        assert list(route_mismatches(monkeypatch).values()) == [
            ([], 372, 124, 372), ([], 372, 124, 372), ([], 372, 124, 372), ([], 372, 124, 372),
            ([], 3918, 726, 3918), ([], 3918, 726, 3918), ([], 372, 124, 372), ([], 372, 124, 372),
            ([], 0, 124, 372), ([], 0, 124, 372),
        ]

    # the wrong ends check the turn (x^-1, y^-1) for (x, y), which picks
    # the same route on every seed of 1-5 letters here: the grid catches
    # it, on c under self_cancelling_map
    @pytest.mark.parametrize(
        "edits", [NEVER_FIRES, DEPTH_WINDOWS], ids=["check-never-fires", "windows-of-depth-letters"]
    )
    def test_oracle_catches_planted_check_bug(self, monkeypatch, edits):
        plant(monkeypatch, edits)
        assert any(bad for bad, *_ in route_mismatches(monkeypatch, longest=3).values())

    def test_rank_checked_before_the_image_table_is_read(self):
        # letter 5 lies past every index of a rank-2 image table
        with pytest.raises(ValueError, match="rank mismatch"):
            iwip_rows(fibonacci_automorphism(), unit_rose(2), GOLDEN, Word(5, (5, 1)), 3, 2)


def turn_count_faults(count, per_map: int = 50) -> list:
    """Seeds of 1-8 letters, ``per_map`` under each catalog map and the cat
    map, whose illegal turns, counted by ``count`` on the cyclic cores of
    the orbit over 14 steps (or until a core passes 2,000 letters), rise
    at some step or differ between two rotations of one core.  Under a
    train track the count never rises (Bestvina-Handel), and a cyclic
    word has no first letter."""
    rng, faults = random.Random(71), []
    for f in (fibonacci_rose_map(), fibonacci_inverse_rose_map(), supergolden_rose_map(), cat_map()):
        images = [w.letters for w in f.automorphism.images]
        for _ in range(per_map):
            g = random_cyclically_reduced_word(rng, len(images), rng.randint(1, 8)).letters
            counts = []
            for w in cyclic_core_orbit(images, g, 14, 2000):
                k = rng.randrange(len(w))
                counts.append(count(images, w))
                if count(images, w[k:] + w[:k]) != counts[-1] or counts[-1] > counts[max(len(counts) - 2, 0)]:
                    faults.append((images, g))
                    break
    return faults


class TestIllegalTurns:
    def test_count_never_rises_nor_depends_on_the_cut(self):
        assert turn_count_faults(illegal_turns) == []

    def test_catches_a_count_without_the_wraparound_turn(self):
        assert turn_count_faults(lambda images, w: illegal_turns(images, w, cyclic=False))

    def test_orbits_keep_or_lose_their_illegal_turns(self):
        # fibonacci_inverse: ab turns legal at once, baaBBA keeps two illegal turns for good
        images = [w.letters for w in fibonacci_inverse_rose_map().automorphism.images]
        assert [illegal_turns(images, w) for w in cyclic_core_orbit(images, (1, 2), 14)][:2] == [2, 0]
        assert {illegal_turns(images, w) for w in cyclic_core_orbit(images, (2, 1, 1, -2, -2, -1), 14)} == {2}

    def test_matches_the_package_turns(self):
        # the illegal turns and the train-track test of the counts route
        for f in (fibonacci_rose_map(), fibonacci_inverse_rose_map(), supergolden_rose_map(), cat_map(),
                  folded_map(), self_cancelling_map()):
            phi = f.automorphism
            images = [w.letters for w in phi.images]
            letters = [x for i in range(1, phi.rank + 1) for x in (i, -i)]
            illegal = {(x, y) for x in letters for y in letters if x != -y and illegal_turns(images, (x, y), cyclic=False)}
            train_track = not any(illegal_turns(images, image, cyclic=False) for image in images)
            assert dynamics._turns(phi._images)[:2] == (illegal, train_track)
            assert train_track == (f not in (folded_map(), self_cancelling_map()))
