import copy
import inspect
import random
from collections import Counter
from fractions import Fraction

import pytest

from outerint import intersection, marked_graph
from outerint.currents import RationalCurrent, add, counting_current, cylinder_count, scale
from outerint.intersection import (
    LengthFunctionOracle,
    RouteDisagreement,
    equivariance_check,
    intersect,
    intersect_oracle,
    intersect_report,
    scaling_modulus_experiment,
)
from outerint.marked_graph import (
    cyclic_reduce_path,
    reduce_path,
    scale_lengths,
    translation_length,
    unit_rose,
)
from outerint.words import Automorphism, Word, _letter_table, parse_word

from _generators import (
    awkward_current,
    charts_with_awkward_lengths,
    random_automorphism,
    random_blown_up_chart,
    random_chart_of_each_kind,
    random_current,
    random_fraction,
    random_marked_graph,
    random_reduced_word,
)
from oracles import displacement_length


def fib_aut() -> Automorphism:
    return Automorphism.from_images(2, [[1, 2], [1]], [[2], [-2, 1]])


class TestIntersect:
    def test_counting_current_recovers_length(self):
        assert intersect(unit_rose(2), counting_current(parse_word("ab", 2))) == 2

    def test_zero_current(self):
        assert intersect(unit_rose(2), RationalCurrent(2)) == 0

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

    def test_routes_equal_edge_by_edge_sums_with_awkward_denominators(self):
        rng = random.Random(74)
        for _ in range(6):
            rank = rng.choice([2, 3])
            mu = awkward_current(rng, rank)
            for M in charts_with_awkward_lengths(rng, rank):
                expected = Fraction(0)
                for cw, weight in mu.terms:
                    period = cyclic_reduce_path(M.word_to_path(cw.as_word()))
                    for e in period:
                        expected += weight * M.lengths[abs(e) - 1]
                report = intersect_report(M, mu)
                assert report.via_crossings == expected
                assert report.via_lengths == expected

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
            intersect(unit_rose(2), RationalCurrent(3))


def chart_current_pairs(seed: int = 5, draws: int = 200) -> list:
    """800 (chart, current) pairs: a random current of rank 2-4 with each
    of the three charts of :func:`random_chart_of_each_kind`, and with
    one chart of :func:`random_blown_up_chart`."""
    rng, blown = random.Random(seed), random.Random(seed + 1)
    pairs = []
    for _ in range(draws):
        rank = rng.choice([2, 3, 4])
        mu = random_current(rng, rank)
        charts = (*random_chart_of_each_kind(rng, rank), random_blown_up_chart(blown, rank))
        pairs.extend((M, mu) for M in charts)
    return pairs


@pytest.fixture(scope="module")
def pairs():
    return chart_current_pairs()


def mutant_report(old: str, new: str):
    """``intersect_report`` with one piece of its source replaced, run in
    a copy of the module's namespace: a bug planted inside one route."""
    source = inspect.getsource(intersection.intersect_report)
    assert source.count(old) == 1
    namespace = dict(vars(intersection))
    exec(compile(source.replace(old, new), intersection.__file__, "exec"), namespace)
    return namespace["intersect_report"]


def with_edge_1_cache_off_by_one(M):
    """A copy of ``M`` whose cached integer length of edge 1, which only
    route A reads, is one too large, and so is each letter's cached loop
    length by the times its loop runs along edge 1."""
    nums = list(M._length_nums)
    nums[1] += 1
    bad = copy.copy(M)
    object.__setattr__(bad, "_length_nums", nums)
    loops = _letter_table([reduce_path(loop) for loop in M.marking.generator_loops])
    object.__setattr__(bad, "_letter_nums", [sum(map(nums.__getitem__, loop)) for loop in loops])
    return bad


def with_edge_1_crossing_length_off_by_one(M):
    """A copy of ``M`` whose integer length of edge 1 in route B's own
    table is one too large."""
    E, q = M._crossing_lengths
    bad = copy.copy(M)
    object.__setattr__(bad, "_crossing_lengths", (E, [q[0] + 1, *q[1:]]))
    return bad


def always_junction_free(M):
    """A copy of ``M`` that claims to be junction-free: a planted bug in
    the input both routes share, which only an outside reference sees."""
    bad = copy.copy(M)
    object.__setattr__(bad, "_junction_free", True)
    return bad


class TestSharedPeriod:
    """Both routes read one input per term, the letters on a junction-free
    chart and else one axis period; everything after it is each route's
    own, so a bug on either side alone still trips the check."""

    def test_one_cyclic_reduction_per_term(self, pairs, monkeypatch):
        real, calls = marked_graph.cyclic_reduce_path, []
        monkeypatch.setattr(
            marked_graph, "cyclic_reduce_path", lambda path: calls.append(1) or real(path)
        )
        for M, mu in pairs:
            before = len(calls)
            intersect_report(M, mu)
            assert len(calls) - before == (0 if M._junction_free else len(mu.terms))
        assert {M._junction_free for M, _ in pairs} == {True, False}

    def test_length_route_is_the_term_by_term_sum(self, pairs):
        # on the letters of a junction-free chart as on an axis period
        for M, mu in pairs:
            by_lengths = sum(
                (weight * translation_length(M, cw.as_word()) for cw, weight in mu.terms),
                Fraction(0),
            )
            by_periods = sum(
                (weight * M.lengths[abs(e) - 1]
                 for cw, weight in mu.terms
                 for e in cyclic_reduce_path(M.word_to_path(cw.as_word()))),
                Fraction(0),
            )
            assert intersect_report(M, mu).via_lengths == by_lengths == by_periods

    @pytest.mark.parametrize(
        "plant",
        ["length-cache-off-by-one", "crossing-table-off-by-one", "route-a-denominator",
         "route-b-weight-scaling", "edge-1-crossings-doubled"],
    )
    def test_check_fails_from_one_side_alone(self, pairs, monkeypatch, plant):
        report, chart = intersect_report, lambda M: M
        if plant == "length-cache-off-by-one":
            chart = with_edge_1_cache_off_by_one
        elif plant == "crossing-table-off-by-one":
            chart = with_edge_1_crossing_length_off_by_one
        elif plant == "route-a-denominator":
            report = mutant_report("den * d", "den")
        elif plant == "route-b-weight-scaling":
            report = mutant_report("D // d", "D")
        else:
            real = intersection._edge_tally

            def doubled(period):
                tally = real(period)
                tally[1] *= 2
                return tally

            monkeypatch.setattr(intersection, "_edge_tally", doubled)
        caught = Counter()
        for M, mu in pairs:
            try:
                report(chart(M), mu)
            except RouteDisagreement:
                caught[M._junction_free] += 1
        assert caught.total() > len(pairs) // 2
        # on the letter route and on the period route alike
        for free, total in Counter(M._junction_free for M, _ in pairs).items():
            assert caught[free] > total // 2


class TestLetterRoute:
    """On a junction-free chart both routes read the letters of each term,
    so a wrong flag is seen only from outside."""

    def test_a_flag_that_always_says_junction_free_is_caught(self, pairs):
        wrong = []
        for M, mu in pairs:
            expected = sum(
                (weight * displacement_length(M, cw.as_word()) for cw, weight in mu.terms),
                Fraction(0),
            )
            if intersect(always_junction_free(M), mu) != expected:
                assert not M._junction_free
                wrong.append(M)
        assert wrong


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
        bad = LengthFunctionOracle(evaluate=len, exact=True)
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
