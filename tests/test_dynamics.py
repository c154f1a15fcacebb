import math
import random
from fractions import Fraction

import pytest

from outerint.catalog import (
    fibonacci_automorphism,
    fibonacci_inverse_rose_map,
    fibonacci_rose_map,
    supergolden_rose_map,
)
from outerint.dynamics import (
    GraphMap,
    NonPrimitiveMatrixError,
    TransitionMatrix,
    WordLengthCapError,
    compose_graph_maps,
    eigencurrent_approx,
    eigenmetric_defect,
    graph_map_from_json_obj,
    graph_map_to_json_obj,
    iterate_images,
    iwip_rows,
    metric_from_pf,
    pairing_estimate,
    pf_eigenpair,
    stable_length_oracle,
    transition_matrix,
)
from outerint.marked_graph import unit_rose
from outerint.words import Automorphism, Word, parse_word

from oracles import char_poly_at, dominant_root_by_bisection

GOLDEN = (1 + 5 ** 0.5) / 2


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


class TestIteration:
    def test_cap_enforced(self):
        with pytest.raises(WordLengthCapError):
            iterate_images(fibonacci_automorphism(), parse_word("a", 2), 40, cap=100)

    def test_sequence_prefix(self):
        phi = fibonacci_automorphism()
        seq = iterate_images(phi, parse_word("a", 2), 3)
        assert [str(w) for w in seq] == ["a", "ab", "aba", "abaab"]


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


class TestEigencurrent:
    def test_n_zero_is_seed_frequency(self):
        from outerint.currents import counting_current, frequency_vector

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
