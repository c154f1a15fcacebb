import random

import pytest
from hypothesis import find, given, settings, strategies as st

from outerint.words import (
    Automorphism,
    CyclicWord,
    Word,
    compose,
    cyclic_length,
    cyclic_reduce,
    enumerate_cyclic_words,
    flip_normalize,
    letter_sort_key,
    parse_word,
    primitive_root,
    reduce,
    word_from_json_obj,
    word_length,
    word_str,
    word_to_json_obj,
)
from oracles import divisor_primitive_root, fibonacci, scan_reduce

letters_rank2 = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=40)
letters_rank3 = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=40)

# Planted-bug searches: ``find`` raises when no generated input tells the
# planted version apart from the oracle, so each oracle shows it can fail.
PLANTED = settings(database=None, derandomize=True)


def fib_aut() -> Automorphism:
    return Automorphism.from_images(2, [[1, 2], [1]], [[2], [-2, 1]])


class TestReduce:
    def test_cancellation(self):
        assert reduce([1, -1], 2).letters == ()

    def test_inner_cancellation(self):
        assert reduce([1, 2, -2, 1], 2).letters == (1, 1)

    @pytest.mark.parametrize(
        "letters, reduced",
        [
            ((), ()),
            ((-2,), (-2,)),
            ((1, 2, -1, -2), (1, 2, -1, -2)),  # reduced already
            ((1, 2, -2, -1, 2), (2,)),
            ((2, 1, -1, -2), ()),
        ],
        ids=["empty", "one-letter", "reduced", "unreduced", "cancels-to-identity"],
    )
    def test_examples(self, letters, reduced):
        for given in (letters, list(letters)):
            w = reduce(given, 2)
            assert w.letters == reduced and type(w.letters) is tuple
            assert w == Word(2, reduced)

    @given(letters_rank2)
    def test_matches_scan_oracle(self, letters):
        assert reduce(letters, 2).letters == tuple(scan_reduce(letters))

    def test_scan_oracle_catches_one_pair_per_pass(self):
        def one_pair(letters):
            out = list(letters)
            for i in range(len(out) - 1):
                if out[i] == -out[i + 1]:
                    del out[i : i + 2]
                    break
            return tuple(out)

        find(letters_rank2, lambda l: one_pair(l) != tuple(scan_reduce(l)), settings=PLANTED)

    @given(letters_rank2)
    def test_word_times_inverse_is_identity(self, letters):
        w = reduce(letters, 2)
        assert (w * w.inverse()).is_identity

    @given(letters_rank2)
    def test_idempotent(self, letters):
        w = reduce(letters, 2)
        assert reduce(w.letters, 2) == w

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            reduce([3], 2)
        with pytest.raises(ValueError):
            reduce([0], 2)
        with pytest.raises(ValueError):
            Word(2, (1, -1))


class TestCyclicReduce:
    def test_one_letter_conjugation(self):
        root, conj = cyclic_reduce(parse_word("abA", 2))
        assert str(root) == "b" and str(conj) == "A"
        # conjugator^-1 * root * conjugator recovers the input
        assert conj.inverse() * root.as_word() * conj == parse_word("abA", 2)

    def test_already_reduced(self):
        root, conj = cyclic_reduce(parse_word("ab", 2))
        assert root.letters == (1, 2) and conj.is_identity

    def test_identity_marker(self):
        root, conj = cyclic_reduce(Word(2))
        assert root is None and conj.is_identity

    @given(letters_rank2, letters_rank2)
    def test_conjugacy_invariance(self, w_letters, u_letters):
        w = reduce(w_letters, 2)
        u = reduce(u_letters, 2)
        assert cyclic_reduce(w.conjugate_by(u))[0] == cyclic_reduce(w)[0]


class TestCyclicWord:
    def test_canonical_rotation_is_least(self):
        cw = CyclicWord(2, (2, 1))
        assert cw.letters == (1, 2)

    def test_rotations_compare_equal(self):
        assert CyclicWord(2, (1, 2, -1, 2)) == CyclicWord(2, (2, 1, 2, -1))

    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            CyclicWord(2, (1, -1))
        with pytest.raises(ValueError):
            CyclicWord(2, (2, 1, -2))  # wraps badly
        with pytest.raises(ValueError):
            CyclicWord(2, ())

    def test_letter_order(self):
        assert [letter_sort_key(l) for l in (1, -1, 2, -2)] == [0, 1, 2, 3]

    def test_flip_normalize(self):
        cw = CyclicWord(2, (-1, -2))
        assert flip_normalize(cw).letters == (1, 2)


class TestPrimitiveRoot:
    def test_visible_period(self):
        root, m = primitive_root(CyclicWord(2, (1, 2, 1, 2)))
        assert root.letters == (1, 2) and m == 2

    def test_primitive_case(self):
        root, m = primitive_root(CyclicWord(2, (1, 2)))
        assert root.letters == (1, 2) and m == 1

    @given(letters_rank2)
    def test_against_divisor_oracle(self, letters):
        w = reduce(letters, 2)
        root, _ = cyclic_reduce(w)
        if root is None:
            return
        got_root, got_m = primitive_root(root)
        oracle_root, oracle_m = divisor_primitive_root(root.letters)
        assert got_m == oracle_m
        assert len(root) % len(got_root) == 0
        assert got_root.letters == oracle_root

    def test_divisor_oracle_catches_missed_power(self):
        def squares_only(letters):  # sees w^2 but misses w^3
            half = len(letters) // 2
            if len(letters) % 2 == 0 and letters[:half] == letters[half:]:
                return letters[:half], 2
            return letters, 1

        def misses(letters):
            root, _ = cyclic_reduce(reduce(letters, 2))
            return root is not None and (
                squares_only(root.letters) != divisor_primitive_root(root.letters)
            )

        find(letters_rank2, misses, settings=PLANTED)

    @given(letters_rank2, st.integers(min_value=1, max_value=4))
    def test_power_recovers_root(self, letters, m):
        w = reduce(letters, 2)
        root, _ = cyclic_reduce(w)
        if root is None:
            return
        powered, _ = cyclic_reduce(root.as_word() ** m)
        got_root, got_m = primitive_root(powered)
        assert got_root.letters == primitive_root(root)[0].letters
        assert got_m % m == 0


class TestAutomorphism:
    def test_direct_substitution(self):
        assert str(fib_aut().apply(parse_word("a", 2))) == "ab"

    @given(letters_rank2)
    def test_inverse_round_trip(self, letters):
        phi = fib_aut()
        w = reduce(letters, 2)
        assert phi.apply(phi.apply_inverse(w)) == w

    def test_fibonacci_growth(self):
        phi = fib_aut()
        w = parse_word("a", 2)
        for n in range(21):
            assert word_length(w) == fibonacci(n + 2)
            w = phi.apply(w)

    @given(letters_rank2, letters_rank2)
    def test_homomorphism(self, u_letters, v_letters):
        phi = fib_aut()
        u, v = reduce(u_letters, 2), reduce(v_letters, 2)
        assert phi.apply(u * v) == phi.apply(u) * phi.apply(v)

    def test_rejects_non_inverse_pair(self):
        with pytest.raises(ValueError):
            Automorphism.from_images(2, [[1, 2], [1]], [[1], [2]])

    def test_compose_with_inverse_is_identity(self):
        phi = fib_aut()
        assert compose(phi, phi.inverse()).is_identity
        assert compose(phi.inverse(), phi).is_identity

    def test_identity_neutral(self):
        phi = fib_aut()
        ident = Automorphism.identity(2)
        assert compose(ident, phi).images == phi.images
        assert compose(phi, ident).images == phi.images

    def test_associativity_on_random_triples(self):
        rng = random.Random(11)
        from _generators import random_automorphism

        for _ in range(25):
            a, b, c = (random_automorphism(rng, 2) for _ in range(3))
            lhs = compose(compose(a, b), c)
            rhs = compose(a, compose(b, c))
            for i in range(1, 3):
                g = Word(2, (i,))
                assert lhs.apply(g) == rhs.apply(g)

    def test_json_round_trip(self):
        phi = fib_aut()
        assert Automorphism.from_json_obj(phi.to_json_obj()).images == phi.images


class TestLengths:
    def test_examples(self):
        w = parse_word("abA", 2)
        assert word_length(w) == 3
        assert cyclic_length(w) == 1
        assert word_length(Word(2)) == 0 and cyclic_length(Word(2)) == 0

    @given(letters_rank3, st.integers(min_value=-5, max_value=5))
    def test_power_law(self, letters, m):
        w = reduce(letters, 3)
        # direct power-and-reduce oracle
        powered = Word(3)
        base = w if m >= 0 else w.inverse()
        for _ in range(abs(m)):
            powered = powered * base
        assert w ** m == powered
        assert cyclic_length(powered) == abs(m) * cyclic_length(w)

    @given(letters_rank3, letters_rank3)
    def test_cyclic_length_conjugacy_invariant(self, w_letters, u_letters):
        w, u = reduce(w_letters, 3), reduce(u_letters, 3)
        assert cyclic_length(w.conjugate_by(u)) == cyclic_length(w)


class TestTextAndJson:
    def test_parse_word(self):
        assert parse_word("abA", 2).letters == (1, 2, -1)
        assert parse_word("", 2).is_identity

    @given(letters_rank2)
    def test_round_trips(self, letters):
        w = reduce(letters, 2)
        if not w.is_identity:
            assert parse_word(word_str(w), 2) == w
        assert word_from_json_obj(word_to_json_obj(w), 2) == w


class TestEnumeration:
    def test_counts_rank2(self):
        classes = enumerate_cyclic_words(2, 2)
        # length 1: a, A, b, B; length 2: ab, aB, Ab, AB, aa, AA, bb, BB
        assert len(classes) == 12

    def test_up_to_inversion_halves_free_pairs(self):
        full = enumerate_cyclic_words(2, 2)
        half = enumerate_cyclic_words(2, 2, up_to_inversion=True)
        assert len(half) == 6
        assert all(flip_normalize(cw) == cw for cw in half)
        assert {flip_normalize(cw).letters for cw in full} == {cw.letters for cw in half}

    @pytest.mark.parametrize("rank", [2, 3, 4])
    @pytest.mark.parametrize("up_to_inversion", [False, True])
    def test_matches_brute_force(self, rank, up_to_inversion):
        # every letter tuple, kept when cyclically reduced, through the public
        # constructor (and flip normalisation) and de-duplicated
        import itertools

        alphabet = [l for i in range(1, rank + 1) for l in (i, -i)]
        expected = set()
        for length in range(1, 6):
            for letters in itertools.product(alphabet, repeat=length):
                if any(letters[i] == -letters[(i + 1) % length] for i in range(length)):
                    continue
                cw = CyclicWord(rank, letters)
                expected.add(flip_normalize(cw) if up_to_inversion else cw)
        got = enumerate_cyclic_words(rank, 5, up_to_inversion)
        assert len(got) == len(expected)
        assert set(got) == expected
        assert list(got) == sorted(expected, key=CyclicWord.sort_key)

    def test_deterministic_order(self):
        a = enumerate_cyclic_words(3, 3)
        b = enumerate_cyclic_words(3, 3)
        assert a == b
        assert list(a) == sorted(a, key=CyclicWord.sort_key)


def image_letters(phi_images, l):
    """Letter-by-letter image of one letter: the image, or its reversed inverse."""
    img = phi_images[abs(l) - 1].letters
    return img if l > 0 else tuple(-x for x in reversed(img))


def naive_apply(images, w: Word) -> tuple[int, ...]:
    return tuple(scan_reduce([x for l in w.letters for x in image_letters(images, l)]))


class TestJunctionKernel:
    """Substitution cancels only at junctions; it must still equal the
    free reduction of the letter-by-letter concatenation."""

    def test_random_words_and_automorphisms(self):
        from _generators import random_automorphism, random_reduced_word

        rng = random.Random(70)
        for _ in range(150):
            rank = rng.choice([2, 3, 4])
            phi = random_automorphism(rng, rank, max_factors=5, max_image_len=10)
            w = random_reduced_word(rng, rank, rng.randint(0, 40))
            assert phi.apply(w).letters == naive_apply(phi.images, w)
            assert phi.apply_inverse(w).letters == naive_apply(phi.inverse_images, w)

    def test_image_cancels_completely_at_a_junction(self):
        # a -> ab, b -> b on a b^-1: the image B of b^-1 cancels entirely
        phi = Automorphism.from_images(2, [[1, 2], [2]], [[1, -2], [2]])
        assert phi.apply(parse_word("aB", 2)).letters == (1,)
        # a -> ab, b -> bab on a b^-1: ab . BAB cancels two letters, all of ab
        psi = Automorphism.from_images(2, [[1, 2], [2, 1, 2]], [[1, 1, -2], [2, -1]])
        for text in ("aB", "aBaB", "bAbaB", "BAbab"):
            w = parse_word(text, 2)
            assert psi.apply(w).letters == naive_apply(psi.images, w)
            assert psi.apply_inverse(w).letters == naive_apply(psi.inverse_images, w)
        assert psi.apply(parse_word("aB", 2)).letters == (-2,)


class TestBoundary:
    """Public constructors and parsers validate; derived values are trusted."""

    def test_word_rejects_bad_input(self):
        for letters in [(3,), (0,), (1, -1), (2, 1, -1, 2), ("a",), (1.0,)]:
            with pytest.raises(ValueError):
                Word(2, letters)
        with pytest.raises(ValueError):
            Word(1, ())

    def test_cyclic_word_rejects_bad_input(self):
        for letters in [(), (3,), (1, 2, -1), (1, -1), (0, 1)]:
            with pytest.raises(ValueError):
                CyclicWord(2, letters)

    def test_reduce_rejects_bad_letters(self):
        for letters in [[1, 5], [1, 0], [-3], [1, "b"]]:
            with pytest.raises(ValueError):
                reduce(letters, 2)

    def test_from_images_rejects_bad_input(self):
        with pytest.raises(ValueError):  # letter out of range
            Automorphism.from_images(2, [[1, 3], [2]], [[1, -3], [2]])
        with pytest.raises(ValueError):  # not an inverse pair
            Automorphism.from_images(2, [[1, 2], [2]], [[1, 2], [2]])
        with pytest.raises(ValueError):  # one image short
            Automorphism.from_images(2, [[1]], [[1]])

    def test_current_from_json_rejects_bad_roots(self):
        from outerint.currents import RationalCurrent

        for root, weight in [([1, -1], "1"), ([1, 3], "1"), ([0], "1"), ([], "1"), ([1], "-1")]:
            with pytest.raises(ValueError):
                RationalCurrent.from_json_obj({"rank": 2, "terms": [{"root": root, "weight": weight}]})

    def test_derived_values_equal_validated_ones(self):
        phi = fib_aut()
        w = reduce([1, 2, -2, -1, 2, 1, 1], 2)
        cw = CyclicWord(2, (2, 1, 2))
        for got in [w, w.inverse(), phi.apply(w), phi.apply_inverse(w), cw.as_word(),
                    cyclic_reduce(parse_word("abA", 2))[1]]:
            again = Word(got.rank, got.letters)
            assert got == again and hash(got) == hash(again) and vars(got) == vars(again)
        # roots of powers given in other rotations, and cores of conjugates
        # that are not in canonical rotation, with their inverses
        roots = [primitive_root(CyclicWord(2, letters))[0]
                 for letters in [(1, 2, 1, 2), (2, 1, 2, 1), (-1, 2, -1, 2, -1, 2), (2, -1) * 3]]
        cores = [cyclic_reduce(parse_word(text, rank))[0]
                 for text, rank in [("abbA", 2), ("abAA", 2), ("cbaC", 3), ("abaBAA", 2)]]
        for got in [cw.inverse(), *roots, *cores, *(c.inverse() for c in roots + cores)]:
            again = CyclicWord(got.rank, got.letters)
            assert got == again and got.letters == again.letters and vars(got) == vars(again)
        psi = Automorphism.from_images(2, [[2], [1]], [[2], [1]])
        for got in [phi.inverse(), compose(phi, psi), compose(psi, phi.inverse()),
                    compose(phi, phi).inverse()]:
            again = Automorphism(got.rank, got.images, got.inverse_images)
            assert got == again and hash(got) == hash(again) and vars(got) == vars(again)

    def test_public_constructor_still_checks_the_inverse_pair(self):
        phi = fib_aut()
        with pytest.raises(ValueError, match="two-sided inverse pair"):
            Automorphism(2, phi.images, phi.images)
        with pytest.raises(ValueError, match="two-sided inverse pair"):
            Automorphism(2, compose(phi, phi).images, phi.inverse_images)
