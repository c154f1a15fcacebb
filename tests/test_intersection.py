import random
from fractions import Fraction

import pytest

from outerint.currents import add, counting_current, cylinder_count, scale, zero_current
from outerint.intersection import (
    LengthFunctionOracle,
    equivariance_check,
    intersect,
    intersect_oracle,
    intersect_report,
    scaling_modulus_experiment,
)
from outerint.marked_graph import scale_lengths, translation_length, unit_rose
from outerint.words import Automorphism, Word, parse_word, word_length

from _generators import (
    random_automorphism,
    random_chart_of_each_kind,
    random_current,
    random_fraction,
    random_marked_graph,
    random_reduced_word,
)


def fib_aut() -> Automorphism:
    return Automorphism.from_images(2, [[1, 2], [1]], [[2], [-2, 1]])


class TestIntersect:
    def test_counting_current_recovers_length(self):
        assert intersect(unit_rose(2), counting_current(parse_word("ab", 2))) == 2

    def test_zero_current(self):
        assert intersect(unit_rose(2), zero_current(2)) == 0

    def test_routes_agree_and_are_reported(self):
        rng = random.Random(1)
        for _ in range(50):
            rank = rng.choice([2, 3])
            report = intersect_report(
                random_marked_graph(rng, rank), random_current(rng, rank)
            )
            assert report.via_lengths == report.via_crossings == report.value

    def test_crossing_route_is_length_weighted_one_edge_counts(self):
        rng = random.Random(31)
        for _ in range(15):
            rank = rng.choice([2, 3])
            mu = random_current(rng, rank, max_terms=4, max_word_len=10)
            for M in random_chart_of_each_kind(rng, rank):
                assert intersect_report(M, mu).via_crossings == sum(
                    M.lengths[k - 1] * cylinder_count(mu, M, (k,))
                    for k in M.graph.positive_edges
                )

    def test_homogeneity(self):
        rng = random.Random(2)
        for _ in range(30):
            M = random_marked_graph(rng, 2)
            mu = random_current(rng, 2)
            c = random_fraction(rng)
            assert intersect(scale_lengths(M, c), mu) == c * intersect(M, mu)

    def test_linearity(self):
        rng = random.Random(3)
        for _ in range(30):
            M = random_marked_graph(rng, 3)
            mu, nu = random_current(rng, 3), random_current(rng, 3)
            l1, l2 = random_fraction(rng), random_fraction(rng)
            assert intersect(M, add(scale(l1, mu), scale(l2, nu))) == l1 * intersect(
                M, mu
            ) + l2 * intersect(M, nu)

    def test_positivity(self):
        rng = random.Random(4)
        for _ in range(30):
            M = random_marked_graph(rng, 2)
            mu = random_current(rng, 2)
            assert intersect(M, mu) > 0

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            intersect(unit_rose(2), zero_current(3))


class TestEquivariance:
    def test_identity(self):
        report = equivariance_check(
            Automorphism.identity(2), unit_rose(2), counting_current(parse_word("a", 2))
        )
        assert report.equal and report.original == 1

    def test_fibonacci_example(self):
        report = equivariance_check(
            fib_aut(), unit_rose(2), counting_current(parse_word("a", 2))
        )
        assert report.equal
        assert report.original == 1

    def test_randomized(self):
        rng = random.Random(5)
        for _ in range(40):
            rank = rng.choice([2, 3])
            report = equivariance_check(
                random_automorphism(rng, rank),
                random_marked_graph(rng, rank),
                random_current(rng, rank),
            )
            assert report.equal


class TestOracle:
    def test_exact_oracle_matches_intersect(self):
        rng = random.Random(6)
        for _ in range(20):
            M = random_marked_graph(rng, 2)
            mu = random_current(rng, 2)
            oracle = LengthFunctionOracle.from_marked_graph(M)
            assert intersect_oracle(oracle, mu) == intersect(M, mu)

    def test_scaled_oracle_homogeneity(self):
        M = unit_rose(2)
        mu = counting_current(parse_word("ab", 2))
        oracle = LengthFunctionOracle(
            evaluate=lambda w: 3 * translation_length(M, w), exact=True
        )
        assert intersect_oracle(oracle, mu) == 3 * intersect(M, mu)

    def test_boundary_oracle_within_reported_error_of_extrapolation(self):
        # deflated iterated lengths converge geometrically; the oracle's
        # self-reported error bound must cover the distance to the
        # Aitken-extrapolated limit
        from outerint.dynamics import stable_length_oracle

        phi = fib_aut()
        M = unit_rose(2)
        lam = (1 + 5 ** 0.5) / 2
        mu = counting_current(parse_word("a", 2))
        values = [
            intersect_oracle(stable_length_oracle(phi, M, lam, n), mu)
            for n in range(6, 11)
        ]
        v0, v1, v2 = values[-3:]
        aitken = v2 - (v2 - v1) ** 2 / ((v2 - v1) - (v1 - v0))
        oracle = stable_length_oracle(phi, M, lam, 10)
        bound = sum(
            float(weight) * oracle.error_bound(cw.as_word()) for cw, weight in mu.terms
        )
        assert abs(values[-1] - aitken) <= bound

    def test_spot_check_accepts_exact_lengths(self):
        M = unit_rose(2)
        oracle = LengthFunctionOracle.from_marked_graph(M)
        sample = [Word(2), parse_word("ab", 2), parse_word("aab", 2)]
        oracle.spot_check(sample)

    def test_spot_check_rejects_word_length(self):
        # plain word length is not conjugacy invariant
        bad = LengthFunctionOracle(evaluate=lambda w: word_length(w), exact=True)
        with pytest.raises(ValueError):
            bad.spot_check([parse_word("ab", 2)])


class TestScalingExperiment:
    def test_zero_delta(self):
        rng = random.Random(7)
        sample = [random_reduced_word(rng, 2, rng.randint(1, 10)) for _ in range(50)]
        report = scaling_modulus_experiment(unit_rose(2), 0, sample, seed=1)
        assert report.empirical_modulus == 0

    def test_unit_rose_bound(self):
        rng = random.Random(8)
        sample = [random_reduced_word(rng, 2, rng.randint(1, 20)) for _ in range(200)]
        report = scaling_modulus_experiment(unit_rose(2), Fraction(1, 10), sample, seed=2)
        assert report.holds
        assert report.a_priori_modulus == Fraction(1, 10)
        assert report.empirical_modulus <= Fraction(1, 10)

    def test_power_invariance(self):
        w = parse_word("abAB", 2)
        a = scaling_modulus_experiment(unit_rose(2), Fraction(1, 10), [w], seed=3)
        b = scaling_modulus_experiment(unit_rose(2), Fraction(1, 10), [w ** 3], seed=3)
        assert a.empirical_modulus == b.empirical_modulus

    def test_identity_words_skipped(self):
        report = scaling_modulus_experiment(
            unit_rose(2), Fraction(1, 10), [Word(2), parse_word("a", 2)], seed=4
        )
        assert report.skipped_identities == 1

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError, match="nonpositive"):
            scaling_modulus_experiment(unit_rose(2), Fraction(5), [parse_word("a", 2)], seed=5)
