import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import find, settings, strategies as st

from outerint import currents
from outerint.catalog import catalog, fibonacci_automorphism
from outerint.currents import (
    RationalCurrent,
    act,
    add,
    counting_current,
    cylinder_count,
    enumerate_reduced_paths,
    frequency_vector,
    occurrences_in_cycle,
    one_letter_mass,
    scale,
)
from outerint.marked_graph import inverse_path, subdivide_edge, translation_length, unit_rose
from outerint.words import (
    Automorphism,
    Word,
    compose,
    cyclic_reduce,
    letter_sort_key,
    parse_word,
    primitive_root,
)

from _generators import (
    random_automorphism,
    random_blown_up_chart,
    random_chart_of_each_kind,
    random_current,
    random_fraction,
    random_marked_graph,
    random_reduced_word,
)
from oracles import modular_window_count, scan_reduce

# ``find`` raises when no generated input tells the planted version apart
# from the oracle, so the oracle shows it can fail.
PLANTED = settings(database=None, derandomize=True)


def oracle_period(M, cw) -> list[int]:
    """One axis period by another route than ``axis_period``: the
    generator loops read letter by letter, cancelled by repeated scans,
    then cancelling first/last pairs stripped one at a time."""
    loops = M.marking.generator_loops
    path = scan_reduce(
        [e for l in cw.letters for e in (loops[l - 1] if l > 0 else inverse_path(loops[-l - 1]))]
    )
    while len(path) > 1 and path[0] == -path[-1]:
        path = path[1:-1]
    return path


def oracle_entries(mu, M, k) -> tuple:
    """``frequency_vector(mu, M, k).entries`` from modular window counts."""
    periods = [(oracle_period(M, cw), weight) for cw, weight in mu.terms]
    mass = sum(weight * len(cw) for cw, weight in mu.terms)

    def count(v):
        return sum(
            w * (modular_window_count(p, v) + modular_window_count(p, inverse_path(v)))
            for p, w in periods
        )

    return tuple((v, count(v) / mass) for v in enumerate_reduced_paths(M.graph, k))


class TestCountingCurrent:
    def test_proper_power(self):
        mu = counting_current(parse_word("abab", 2))
        assert [(str(c), w) for c, w in mu.terms] == [("ab", Fraction(2))]

    def test_single_letter(self):
        mu = counting_current(parse_word("a", 2))
        assert [(str(c), w) for c, w in mu.terms] == [("a", Fraction(1))]

    def test_inverse_gives_same_current(self):
        rng = random.Random(3)
        for _ in range(40):
            w = random_reduced_word(rng, 2, rng.randint(1, 8))
            if w.is_identity:
                continue
            assert counting_current(w) == counting_current(w.inverse())

    def test_conjugation_invariant(self):
        rng = random.Random(4)
        for _ in range(40):
            w = random_reduced_word(rng, 2, rng.randint(1, 8))
            u = random_reduced_word(rng, 2, rng.randint(0, 6))
            if w.is_identity:
                continue
            assert counting_current(w.conjugate_by(u)) == counting_current(w)

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            counting_current(Word(2))

    def test_keys_primitive_and_flip_normalized(self):
        rng = random.Random(5)
        for _ in range(40):
            mu = random_current(rng, 3)
            for cw, weight in mu.terms:
                assert weight > 0
                assert primitive_root(cw)[1] == 1
                assert cw.sort_key() <= cw.inverse().sort_key()


class TestLinearStructure:
    def test_scale_zero(self):
        mu = counting_current(parse_word("ab", 2))
        assert scale(0, mu).is_zero

    def test_add_is_doubling(self):
        mu = counting_current(parse_word("a", 2))
        assert add(mu, mu) == scale(2, mu)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            scale(-1, counting_current(parse_word("a", 2)))

    def test_pairing_additive(self):
        rng = random.Random(6)
        from outerint.intersection import intersect

        for _ in range(25):
            M = random_marked_graph(rng, 2)
            mu, nu = random_current(rng, 2), random_current(rng, 2)
            assert intersect(M, add(mu, nu)) == intersect(M, mu) + intersect(M, nu)


class TestTrustedBuilders:
    """``counting_current``, ``add``, ``scale`` and ``act`` build through
    the trusted constructor; each must give what the public constructor
    gives on the same raw terms."""

    @staticmethod
    def public(rank, raw):
        return RationalCurrent(rank, tuple((cyclic_reduce(w)[0], x) for w, x in raw))

    @staticmethod
    def words(rng, rank):
        """A word, its inverse and a proper power of it."""
        w = random_reduced_word(rng, rank, rng.randint(1, 6))
        while w.is_identity:
            w = random_reduced_word(rng, rank, rng.randint(1, 6))
        return [w, w.inverse(), w ** rng.randint(2, 3)]

    def test_counting_current(self):
        rng = random.Random(41)
        for _ in range(60):
            for w in self.words(rng, rng.choice([2, 3])):
                assert counting_current(w) == self.public(w.rank, [(w, 1)])

    def test_add(self):
        rng = random.Random(42)
        for _ in range(60):
            rank = rng.choice([2, 3])
            w, w_inv, power = self.words(rng, rank)
            v = self.words(rng, rank)[0]
            x, y, z = (random_fraction(rng) for _ in range(3))
            mu = add(scale(x, counting_current(w)), scale(y, counting_current(v)))
            nu = add(scale(z, counting_current(w_inv)), counting_current(power))
            assert mu == self.public(rank, [(w, x), (v, y)])
            assert add(mu, nu) == self.public(rank, [(w, x), (v, y), (w_inv, z), (power, 1)])
            assert add(nu, RationalCurrent(rank)) == nu == add(RationalCurrent(rank), nu)

    def test_scale(self):
        rng = random.Random(43)
        for _ in range(60):
            rank = rng.choice([2, 3])
            raw = [(w, random_fraction(rng)) for w in self.words(rng, rank)]
            mu = self.public(rank, raw)
            for lam in (random_fraction(rng), 0, 1):
                assert scale(lam, mu) == self.public(rank, [(w, lam * x) for w, x in raw])

    def test_act(self):
        rng = random.Random(44)
        for _ in range(60):
            rank = rng.choice([2, 3])
            phi = random_automorphism(rng, rank)
            w, w_inv, power = self.words(rng, rank)
            v = self.words(rng, rank)[0]
            raw = [(w, random_fraction(rng)), (w_inv, 1), (power, 2), (v, random_fraction(rng))]
            mu = self.public(rank, raw)
            assert act(phi, mu) == self.public(rank, [(phi.apply(u), x) for u, x in raw])

    def test_weights_stay_fractions(self):
        rng = random.Random(45)
        phi = random_automorphism(rng, 3)
        mu = random_current(rng, 3)
        for nu in (counting_current(Word(3, (1, 1))), add(mu, mu), scale(3, mu), act(phi, mu)):
            assert all(type(x) is Fraction for _, x in nu.terms)


class TestCylinderCounts:
    def test_single_edge(self):
        M = unit_rose(2)
        assert cylinder_count(counting_current(parse_word("a", 2)), M, (1,)) == 1
        assert cylinder_count(counting_current(parse_word("a", 2)), M, (2,)) == 0

    def test_two_edge_paths(self):
        M = unit_rose(2)
        eta = counting_current(parse_word("ab", 2))
        assert cylinder_count(eta, M, (1, 2)) == 1
        assert cylinder_count(eta, M, (2, 1)) == 1

    def test_wrapping_pattern_longer_than_period(self):
        M = unit_rose(2)
        eta = counting_current(parse_word("a", 2))
        assert cylinder_count(eta, M, (1, 1)) == 1
        assert cylinder_count(eta, M, (1, 1, 1)) == 1

    def test_occurrences_in_cycle_wraps(self):
        assert occurrences_in_cycle((1, 2), (2, 1)) == 1
        assert occurrences_in_cycle((1,), (1, 1, 1)) == 1
        assert occurrences_in_cycle((1, 2, 1, 2), (1, 2)) == 2
        assert occurrences_in_cycle((1, 1, 1), (1, 1)) == 3
        assert occurrences_in_cycle((2, 1, 1, 2, 1), (1, 2, 1)) == 2  # overlapping, one wraps
        assert occurrences_in_cycle((1, 2), (1, 2, 1, 2, 1)) == 1
        assert occurrences_in_cycle((1, 2), (1, 1)) == 0
        with pytest.raises(ValueError):
            occurrences_in_cycle((), (1,))
        with pytest.raises(ValueError):
            occurrences_in_cycle((1,), ())

    def test_occurrences_in_cycle_matches_modular_definition(self):
        rng = random.Random(18)
        alphabet = (1, -1, 2)  # few letters, so that windows often match and overlap
        wrapped = overlapping = 0
        for _ in range(3000):
            period = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            if rng.random() < 0.5:  # a window of the period, so it occurs at least once
                start = rng.randrange(len(period))
                pattern = tuple(
                    period[(start + j) % len(period)] for j in range(rng.randint(1, 6))
                )
            else:
                pattern = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
            expected = modular_window_count(period, pattern)
            assert occurrences_in_cycle(period, pattern) == expected
            assert occurrences_in_cycle(list(period), list(pattern)) == expected
            wrapped += len(period) < len(pattern) and expected > 0
            overlapping += expected * len(pattern) > len(period)
        assert wrapped > 100 and overlapping > 100

    def test_modular_oracle_catches_missed_wraparound(self):
        def no_modulus(period, pattern):  # indices past the period never match
            p, k = len(period), len(pattern)
            return sum(
                1 for i in range(p) if all(i + j < p and period[i + j] == pattern[j] for j in range(k))
            )

        cycles = st.lists(st.sampled_from([1, -1, 2]), min_size=1, max_size=8)
        find(
            st.tuples(cycles, cycles),
            lambda t: no_modulus(*t) != modular_window_count(*t),
            settings=PLANTED,
        )

    def test_interleaved_calls_count_on_their_own_period(self):
        # the window memo holds one (period, pattern length) pair, so a
        # call on another period or length in between must not reuse it
        rng = random.Random(20)
        alphabet = (1, -1, 2)

        def letters(n):
            return tuple(rng.choice(alphabet) for _ in range(rng.randint(1, n)))

        for _ in range(500):
            p1, p2, v, u = letters(9), letters(9), letters(5), letters(5)
            for period, pattern in ((p1, v), (p2, v), (p1, v), (p1, u), (p1, v), (p2, u)):
                assert occurrences_in_cycle(period, pattern) == modular_window_count(period, pattern)

    def test_identity_memo_counts_each_period_as_given(self):
        # the window memo is keyed on the identity of its period: equal
        # periods as distinct tuples, a list changed in place between two
        # calls, interleaved periods and one period at two depths must
        # each count on their own
        rng = random.Random(21)
        alphabet = (1, -1, 2)

        def pattern(period, k):  # a window of the period half the time
            if rng.random() < 0.5:
                start = rng.randrange(len(period))
                return tuple(period[(start + j) % len(period)] for j in range(k))
            return tuple(rng.choice(alphabet) for _ in range(k))

        for _ in range(300):
            period = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            other = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            twin, as_list = tuple(list(period)), list(period)
            assert twin is not period
            short, deep, far = pattern(period, 2), pattern(period, 4), pattern(other, 3)
            calls = [(period, short), (period, deep), (twin, deep), (twin, short), (other, far),
                     (period, short), (other, short), (as_list, short)]
            for p, v in calls:
                assert occurrences_in_cycle(p, v) == modular_window_count(tuple(p), v)
            as_list[rng.randrange(len(as_list))] *= -1
            for v in (short, deep):
                assert occurrences_in_cycle(as_list, v) == modular_window_count(tuple(as_list), v)

    def test_window_tally_released_after_count(self):
        """The one-entry window memo keeps no period once a count returns:
        the last iterate's tally (about 1 MiB for phi^24(a), 121,393
        letters) is released with the rest of the iterate."""
        from outerint.dynamics import eigencurrent_approx

        phi, g, M = fibonacci_automorphism(), parse_word("a", 2), unit_rose(2)
        eigencurrent_approx(phi, g, 2, M, 2)  # fills the process-wide path cache
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            eigencurrent_approx(phi, g, 24, M, 2)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2 ** 17
        assert occurrences_in_cycle((1, 2, 1), (2, 1, 1)) == 1  # the memo is still callable

    def test_flip_invariance(self):
        rng = random.Random(7)
        M = unit_rose(2)
        from outerint.marked_graph import inverse_path

        for _ in range(30):
            mu = random_current(rng, 2)
            paths = enumerate_reduced_paths(M.graph, rng.randint(1, 3), up_to_inversion=False)
            v = rng.choice(paths)
            assert cylinder_count(mu, M, v) == cylinder_count(mu, M, inverse_path(v))

    def test_additive_in_current(self):
        rng = random.Random(8)
        M = unit_rose(3)
        for _ in range(20):
            mu, nu = random_current(rng, 3), random_current(rng, 3)
            v = (1, 2)
            assert cylinder_count(add(mu, nu), M, v) == cylinder_count(
                mu, M, v
            ) + cylinder_count(nu, M, v)

    def test_unreduced_path_rejected(self):
        with pytest.raises(ValueError):
            cylinder_count(counting_current(parse_word("a", 2)), unit_rose(2), (1, -1))

    def test_one_edge_counts_recover_translation_length(self):
        rng = random.Random(9)
        for _ in range(40):
            rank = rng.choice([2, 3])
            M = random_marked_graph(rng, rank)
            w = random_reduced_word(rng, rank, rng.randint(1, 8))
            if w.is_identity:
                continue
            eta = counting_current(w)
            total = sum(
                M.lengths[k - 1] * cylinder_count(eta, M, (k,))
                for k in M.graph.positive_edges
            )
            assert total == translation_length(M, w)


class TestMass:
    def test_examples(self):
        assert one_letter_mass(counting_current(parse_word("ab", 2))) == 2
        assert one_letter_mass(RationalCurrent(2)) == 0

    def test_matches_unit_rose_pairing(self):
        rng = random.Random(10)
        from outerint.intersection import intersect

        for _ in range(25):
            rank = rng.choice([2, 3])
            mu = random_current(rng, rank)
            assert one_letter_mass(mu) == intersect(unit_rose(rank), mu)


def unscaled_numerators(values):
    """``currents._numerators`` with each numerator kept over its own
    denominator."""
    return math.lcm(*(x.denominator for x in values)), [x.numerator for x in values]


def uncrossed_gap(a, b):
    """``currents._row_gap`` with the counts not scaled by the other
    row's mass."""
    (da, na), (db, nb) = a, b
    return Fraction(max(abs(x - y) for x, y in zip(na, nb)), da * db)


class TestFrequencyVector:
    def test_unit_mass_single_letter(self):
        M = unit_rose(2)
        vec = frequency_vector(counting_current(parse_word("a", 2)), M, 1)
        entries = {path: val for path, val in vec.entries}
        assert entries[(1,)] == 1
        assert all(val == 0 for path, val in vec.entries if path != (1,))

    def test_projective_invariance(self):
        rng = random.Random(11)
        M = unit_rose(2)
        for _ in range(15):
            mu = random_current(rng, 2)
            assert frequency_vector(mu, M, 2).entries == frequency_vector(
                scale(Fraction(7, 3), mu), M, 2
            ).entries

    def test_depth_one_counts_sum_to_mass(self):
        # each letter of each period is counted exactly once across the
        # inversion-normalised depth-1 paths of the standard rose
        rng = random.Random(12)
        for _ in range(20):
            rank = rng.choice([2, 3])
            M = unit_rose(rank)
            mu = random_current(rng, rank)
            vec = frequency_vector(mu, M, 1)
            assert sum(val for _, val in vec.entries) * vec.mass == vec.mass
            assert sum(val * vec.mass for _, val in vec.entries) == one_letter_mass(mu)

    def test_entries_are_normalised_cylinder_counts(self):
        rng, blown = random.Random(19), random.Random(20)
        for _ in range(3):
            rank = rng.choice([2, 3])
            mu = random_current(rng, rank, max_terms=4, max_word_len=8)
            mass = one_letter_mass(mu)
            for M in (*random_chart_of_each_kind(rng, rank), random_blown_up_chart(blown, rank)):
                for k in range(1, 5):
                    assert frequency_vector(mu, M, k).entries == tuple(
                        (v, cylinder_count(mu, M, v) / mass)
                        for v in enumerate_reduced_paths(M.graph, k)
                    )

    @pytest.mark.parametrize("key", ["fibonacci", "fibonacci_inverse", "supergolden"])
    def test_matches_window_oracle_on_long_catalog_iterates(self, key):
        f = catalog()[key]
        rng = random.Random(23)
        w = Word(f.chart.rank)
        while w.is_identity:
            w = random_reduced_word(rng, f.chart.rank, rng.randint(1, 6))
        charts = (f.chart, subdivide_edge(f.chart, rng.randint(1, f.chart.rank)))
        for target, depths in ((1000, (1, 2, 3)), (6000, (2,))):
            while len(w) < target:
                w = f.automorphism.apply(w)
            assert len(w) <= 10 ** 4
            mu = counting_current(w)
            for M in charts:
                for k in depths:
                    assert frequency_vector(mu, M, k).entries == oracle_entries(mu, M, k)

    def test_matches_window_oracle_on_three_term_currents(self):
        rng, blown = random.Random(24), random.Random(25)
        for _ in range(6):
            rank = rng.choice([2, 3])
            mu = RationalCurrent(rank)
            while len(mu.terms) < 3:  # each summand is one class
                mu = add(mu, random_current(rng, rank, max_terms=1, max_word_len=10))
            for M in (*random_chart_of_each_kind(rng, rank), random_blown_up_chart(blown, rank)):
                for k in range(1, 5):
                    assert frequency_vector(mu, M, k).entries == oracle_entries(mu, M, k)

    def test_paths_are_listed_in_sort_key_order(self):
        # the depth-first walk alone orders them: nothing sorts afterwards
        rng, blown = random.Random(25), random.Random(26)
        for rank in (2, 3, 4):
            for M in (*random_chart_of_each_kind(rng, rank), random_blown_up_chart(blown, rank)):
                for k in range(1, 5):
                    for up_to_inversion in (False, True):
                        paths = enumerate_reduced_paths(M.graph, k, up_to_inversion)
                        assert list(paths) == sorted(paths, key=lambda p: list(map(letter_sort_key, p)))

    def test_zero_current_rejected(self):
        with pytest.raises(ValueError):
            frequency_vector(RationalCurrent(2), unit_rose(2), 1)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            frequency_vector(counting_current(parse_word("a", 3)), unit_rose(2), 1)

    def test_sup_distance(self):
        M = unit_rose(2)
        va = frequency_vector(counting_current(parse_word("a", 2)), M, 1)
        vb = frequency_vector(counting_current(parse_word("b", 2)), M, 1)
        assert va.sup_distance(vb) == 1
        assert va.sup_distance(va) == 0

    def test_integer_rows_match_fraction_definitions(self):
        assert integer_row_mismatches() == (0, 0)

    @pytest.mark.parametrize(
        "name, planted, rows_differ",
        [("_numerators", unscaled_numerators, True), ("_row_gap", uncrossed_gap, False)],
        ids=["numerators-over-own-denominators", "gap-without-cross-multiplied-masses"],
    )
    def test_integer_row_checks_catch_unscaled_numerators(self, monkeypatch, name, planted, rows_differ):
        monkeypatch.setattr(currents, name, planted)
        rows, distances = integer_row_mismatches()
        assert (rows > 0) == rows_differ and distances > 0


def coprime_current(rng, rank):
    """Three classes weighted 1/3, 2/7 and 5/11."""
    mu = RationalCurrent(rank)
    for weight in (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)):
        w = Word(rank)
        while w.is_identity:
            w = random_reduced_word(rng, rank, rng.randint(1, 8))
        mu = add(mu, scale(weight, counting_current(w)))
    return mu


def integer_row_mismatches() -> tuple[int, int]:
    """How many frequency vectors differ from ``oracle_entries`` and how
    many ``sup_distance`` values differ from the entry-by-entry
    ``Fraction`` maximum, over random currents of different masses and
    currents weighted over coprime denominators."""
    rng = random.Random(29)
    rows = distances = 0
    for _ in range(8):
        rank = rng.choice([2, 3])
        pairs = [(random_current(rng, rank), random_current(rng, rank)),
                 (coprime_current(rng, rank), random_current(rng, rank)),
                 (coprime_current(rng, rank), coprime_current(rng, rank))]
        M = rng.choice(random_chart_of_each_kind(rng, rank))
        k = rng.randint(1, 3)
        for mu, nu in pairs:
            va, vb = frequency_vector(mu, M, k), frequency_vector(nu, M, k)
            rows += (va.entries != oracle_entries(mu, M, k)) + (vb.entries != oracle_entries(nu, M, k))
            a, b = va.as_dict(), vb.as_dict()
            distances += va.sup_distance(vb) != max(abs(a[p] - b[p]) for p in a)
    return rows, distances


class TestAction:
    def test_identity(self):
        rng = random.Random(13)
        mu = random_current(rng, 2)
        assert act(Automorphism.identity(2), mu) == mu

    def test_matches_image_counting_current(self):
        rng = random.Random(14)
        phi = random_automorphism(rng, 2)
        for _ in range(30):
            g = random_reduced_word(rng, 2, rng.randint(1, 7))
            if g.is_identity:
                continue
            assert act(phi, counting_current(g)) == counting_current(phi.apply(g))

    def test_composition(self):
        rng = random.Random(15)
        for _ in range(15):
            phi, psi = random_automorphism(rng, 2), random_automorphism(rng, 2)
            mu = random_current(rng, 2)
            assert act(compose(phi, psi), mu) == act(phi, act(psi, mu))

    def test_commutes_with_linear_structure(self):
        rng = random.Random(16)
        phi = random_automorphism(rng, 3)
        mu, nu = random_current(rng, 3), random_current(rng, 3)
        assert act(phi, add(mu, nu)) == add(act(phi, mu), act(phi, nu))
        assert act(phi, scale(Fraction(5, 2), mu)) == scale(Fraction(5, 2), act(phi, mu))


class TestJson:
    def test_round_trip(self):
        rng = random.Random(17)
        for _ in range(15):
            mu = random_current(rng, rng.choice([2, 3]))
            assert RationalCurrent.from_json_obj(mu.to_json_obj()) == mu

    def test_zero_round_trip(self):
        assert RationalCurrent.from_json_obj(RationalCurrent(2).to_json_obj()).is_zero
