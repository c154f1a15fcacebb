"""Reduced words, cyclic words and automorphisms of a finite-rank free group.

A letter is a nonzero integer: ``+i`` stands for the i-th basis generator
``a_i``, ``-i`` for its inverse.  The rank ``N >= 2`` travels with every
object and mixing ranks is an error.

Whenever letters are compared (canonical rotations, flip normalisation,
deterministic enumeration) the total order used is

    a_1 < a_1^-1 < a_2 < a_2^-1 < ... ,

realised by :func:`letter_sort_key`.

Input is validated once, by the public constructors, :func:`reduce` and
the parsers; values derived from validated ones (reductions, inverses,
cyclic reductions, primitive roots, automorphic images) are built by the
trusted ``_make`` constructors.  Substitution cancels only at the
junctions of reduced pieces (:func:`_concat`, shared with word-to-path).

Everything in this module is immutable and all operations are pure, so
values can be shared freely between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


class OuterintError(Exception):
    """Base of the package's own errors; a rejected argument is a
    ``ValueError`` instead.  ``exit_code`` is the ``oi`` exit status."""

    exit_code = 1

def letter_sort_key(letter: int) -> int:
    """Rank of a letter in the order a_1 < a_1^-1 < a_2 < a_2^-1 < ...

    >>> [letter_sort_key(l) for l in (1, -1, 2, -2)]
    [0, 1, 2, 3]
    """
    return 2 * letter - 2 if letter > 0 else -2 * letter - 1


def _check_int(x, what: str) -> int:
    """``x``, which must be an integer and not a bool: a JSON number is
    never truncated into one."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _check_letters(letters: Sequence[int], rank: int) -> None:
    if rank < 2:
        raise ValueError(f"rank must be >= 2, got {rank}")
    for l in letters:
        if type(l) is not int or l == 0 or abs(l) > rank:
            raise ValueError(f"invalid letter {l!r} for rank {rank}")


@dataclass(frozen=True)
class Word:
    """A freely reduced word.  The empty word is the identity."""

    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_letters(self.letters, self.rank)
        for x, y in zip(self.letters, self.letters[1:]):
            if x == -y:
                raise ValueError(f"word is not freely reduced at {x}, {y}")

    @classmethod
    def _make(cls, rank: int, letters: tuple[int, ...]) -> "Word":
        """Trusted: reduced letters derived from validated values."""
        w = object.__new__(cls)
        object.__setattr__(w, "rank", rank)
        object.__setattr__(w, "letters", letters)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return reduce(self.letters + other.letters, self.rank)

    def inverse(self) -> "Word":
        return Word._make(self.rank, tuple(-l for l in reversed(self.letters)))

    def __pow__(self, m: int) -> "Word":
        base = self if m >= 0 else self.inverse()
        return reduce(base.letters * abs(m), self.rank)

    def conjugate_by(self, u: "Word") -> "Word":
        """u * self * u^-1."""
        return u * self * u.inverse()

    def __str__(self) -> str:
        return word_str(self)


def reduce(letters: Sequence[int], rank: int) -> Word:
    """Freely reduce a letter sequence.

    The output represents the same group element as the input.

    >>> reduce([1, -1], 2).letters
    ()
    >>> reduce([1, 2, -2, 1], 2).letters
    (1, 1)
    """
    _check_letters(letters, rank)
    stack: list[int] = []
    for l in letters:
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return Word._make(rank, tuple(stack))


def _concat(table: Sequence[tuple[int, ...]], keys: Iterable[int]) -> list[int]:
    """Free reduction of the pieces ``table[k]`` concatenated over ``keys``.
    Each piece is reduced, so letters cancel only at junctions: pop while
    the last output letter cancels the piece's next, then extend."""
    out: list[int] = []
    pop = out.pop
    for k in keys:
        piece = table[k]
        j, n = 0, len(piece)
        while out and j < n and out[-1] == -piece[j]:
            pop()
            j += 1
        out.extend(piece[j:] if j else piece)
    return out


def _least_rotation(keys: Sequence[int]) -> int:
    # Booth's algorithm; returns the start index of the least rotation.
    n = len(keys)
    doubled = list(keys) + list(keys)
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = doubled[j]
        i = f[j - k - 1]
        while i != -1 and sj != doubled[k + i + 1]:
            if sj < doubled[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != doubled[k + i + 1]:
            if sj < doubled[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def _canonical_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
    start = _least_rotation([letter_sort_key(l) for l in letters])
    return letters[start:] + letters[:start]


@dataclass(frozen=True)
class CyclicWord:
    """A nonempty cyclically reduced word, stored in canonical rotation.

    The canonical rotation is the lexicographically least one under
    :func:`letter_sort_key`, so two conjugate cyclically reduced words
    compare equal as sequences.
    """

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_letters(self.letters, self.rank)
        if not self.letters:
            raise ValueError("cyclic word must be nonempty (identity has no cyclic word)")
        n = len(self.letters)
        for i in range(n):
            if self.letters[i] == -self.letters[(i + 1) % n]:
                raise ValueError("word is not cyclically reduced")
        object.__setattr__(self, "letters", _canonical_rotation(self.letters))

    @classmethod
    def _make(cls, rank: int, letters: tuple[int, ...]) -> "CyclicWord":
        """Trusted: cyclically reduced letters derived from validated values."""
        cw = object.__new__(cls)
        object.__setattr__(cw, "rank", rank)
        object.__setattr__(cw, "letters", _canonical_rotation(letters))
        return cw

    def __len__(self) -> int:
        return len(self.letters)

    def as_word(self) -> Word:
        return Word._make(self.rank, self.letters)

    def inverse(self) -> "CyclicWord":
        return CyclicWord._make(self.rank, tuple(-l for l in reversed(self.letters)))

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.letters), tuple(letter_sort_key(l) for l in self.letters))

    def __str__(self) -> str:
        return word_str(self.as_word())


def flip_normalize(cw: CyclicWord) -> CyclicWord:
    """The smaller of ``cw`` and ``cw^-1`` in the canonical order."""
    inv = cw.inverse()
    return cw if cw.sort_key() <= inv.sort_key() else inv


def cyclic_reduce(w: Word) -> tuple[CyclicWord | None, Word]:
    """Split ``w`` as ``conjugator^-1 * root * conjugator``.

    Returns ``(root, conjugator)`` where the root is cyclically reduced,
    or ``(None, identity)`` when ``w`` is the identity.

    >>> root, u = cyclic_reduce(parse_word("abA", 2))
    >>> str(root), str(u)
    ('b', 'A')
    """
    letters = list(w.letters)
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    core = tuple(letters[lo:hi])
    if not core:
        return None, Word._make(w.rank, ())
    conjugator = Word._make(w.rank, tuple(-l for l in reversed(letters[:lo])))
    return CyclicWord._make(w.rank, core), conjugator


def primitive_root(cw: CyclicWord) -> tuple[CyclicWord, int]:
    """Write the cyclic word as ``root^m`` with the root not a proper power.

    The smallest period of the canonical rotation is found with the
    classic prefix-function; it divides the length exactly when the word
    is a proper power.

    >>> root, m = primitive_root(CyclicWord(2, (1, 2, 1, 2)))
    >>> str(root), m
    ('ab', 2)
    """
    s = cw.letters
    n = len(s)
    fail = [0] * (n + 1)
    k = 0
    for i in range(1, n):
        while k > 0 and s[i] != s[k]:
            k = fail[k]
        if s[i] == s[k]:
            k += 1
        fail[i + 1] = k
    period = n - fail[n]
    if n % period != 0:
        period = n
    return CyclicWord._make(cw.rank, s[:period]), n // period


def word_length(w: Word) -> int:
    """Number of letters of the freely reduced form."""
    return len(w.letters)


def cyclic_length(w: Word) -> int:
    """Number of letters of the cyclically reduced form."""
    root, _ = cyclic_reduce(w)
    return 0 if root is None else len(root)


def _letter_table(pieces: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """``table[l]`` is the piece of letter ``l``; ``table[-l]``, counted
    from the end, is its inverse."""
    inverses = (tuple(-l for l in reversed(p)) for p in reversed(pieces))
    return ((), *pieces, *inverses)


@dataclass(frozen=True)
class Automorphism:
    """A free-group automorphism given by generator images and a verified
    two-sided inverse.

    Construction checks that ``images`` after ``inverse_images`` (and the
    other way round) fix every generator; dictionaries that are not a
    genuine inverse pair are rejected.
    """

    rank: int
    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if self.rank < 2:
            raise ValueError("rank must be >= 2")
        if len(self.images) != self.rank or len(self.inverse_images) != self.rank:
            raise ValueError("need one image per generator")
        for w in (*self.images, *self.inverse_images):
            if w.rank != self.rank:
                raise ValueError("image rank mismatch")
        # per-letter image tables, built once (and checked by the loop below)
        for name, words in (("_images", self.images), ("_inverses", self.inverse_images)):
            object.__setattr__(self, name, _letter_table([w.letters for w in words]))
        for i in range(1, self.rank + 1):
            gen = Word(self.rank, (i,))
            fwd = self.apply(self.apply_inverse(gen))
            bwd = self.apply_inverse(self.apply(gen))
            if fwd != gen or bwd != gen:
                raise ValueError(
                    f"images and inverse_images are not a two-sided inverse pair at a_{i}"
                )

    @classmethod
    def identity(cls, rank: int) -> "Automorphism":
        gens = tuple(Word(rank, (i,)) for i in range(1, rank + 1))
        return cls(rank, gens, gens)

    @classmethod
    def from_images(
        cls, rank: int, images: Sequence[Sequence[int]], inverse_images: Sequence[Sequence[int]]
    ) -> "Automorphism":
        return cls(
            rank,
            tuple(reduce(img, rank) for img in images),
            tuple(reduce(img, rank) for img in inverse_images),
        )

    @property
    def is_identity(self) -> bool:
        return all(w.letters == (i + 1,) for i, w in enumerate(self.images))

    def _substitute(self, table: tuple[tuple[int, ...], ...], w: Word) -> Word:
        if w.rank != self.rank:
            raise ValueError("rank mismatch")
        return Word._make(self.rank, tuple(_concat(table, w.letters)))

    def apply(self, w: Word) -> Word:
        return self._substitute(self._images, w)

    def apply_inverse(self, w: Word) -> Word:
        return self._substitute(self._inverses, w)

    def __call__(self, w: Word) -> Word:
        return self.apply(w)

    def inverse(self) -> "Automorphism":
        return Automorphism(self.rank, self.inverse_images, self.images)

    def to_json_obj(self) -> dict:
        return {
            "rank": self.rank,
            "images": [list(w.letters) for w in self.images],
            "inverse_images": [list(w.letters) for w in self.inverse_images],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Automorphism":
        rank = _check_int(obj["rank"], "rank")
        return cls.from_images(rank, obj["images"], obj["inverse_images"])


def compose(phi: Automorphism, psi: Automorphism) -> Automorphism:
    """The automorphism ``phi after psi`` (first psi, then phi)."""
    if phi.rank != psi.rank:
        raise ValueError("rank mismatch")
    return Automorphism(
        phi.rank,
        tuple(phi.apply(w) for w in psi.images),
        tuple(psi.apply_inverse(w) for w in phi.inverse_images),
    )


# --- text and JSON forms ---------------------------------------------------
#
# Text form: one letter per character, 'a'..'z' for generators, 'A'..'Z'
# for inverses (rank <= 26).  JSON form: array of signed integers.


def parse_word(text: str, rank: int) -> Word:
    """Parse compact text like ``"abA"`` into a reduced word.

    >>> parse_word("abA", 2).letters
    (1, 2, -1)
    """
    letters = []
    for ch in text.strip():
        if ch.isspace():
            continue
        if "a" <= ch <= "z":
            letters.append(ord(ch) - ord("a") + 1)
        elif "A" <= ch <= "Z":
            letters.append(-(ord(ch) - ord("A") + 1))
        else:
            raise ValueError(f"invalid letter character {ch!r}")
    return reduce(letters, rank)


def word_str(w: Word) -> str:
    if not w.letters:
        return "1"
    out = []
    for l in w.letters:
        if abs(l) > 26:
            return json.dumps(list(w.letters))
        out.append(chr(ord("a") + l - 1) if l > 0 else chr(ord("A") - l - 1))
    return "".join(out)


def word_to_json_obj(w: Word) -> list[int]:
    return list(w.letters)


def word_from_json_obj(obj: Iterable[int], rank: int) -> Word:
    return reduce(list(obj), rank)


@lru_cache(maxsize=None)
def enumerate_cyclic_words(
    rank: int, max_length: int, up_to_inversion: bool = False
) -> tuple[CyclicWord, ...]:
    """All conjugacy classes of cyclic length 1..max_length, sorted.

    Classes are represented by canonical rotations; with
    ``up_to_inversion`` each {class, inverse class} pair is represented by
    its flip-normalised member only.  The output order is deterministic.
    Each class is tested on its raw letters and built once.
    """
    out: list[CyclicWord] = []
    alphabet = [l for i in range(1, rank + 1) for l in (i, -i)]

    def extend(prefix: list[int], remaining: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            if prefix[-1] != -prefix[0]:
                yield tuple(prefix)
            return
        for l in alphabet:
            if l != -prefix[-1]:
                prefix.append(l)
                yield from extend(prefix, remaining - 1)
                prefix.pop()

    for length in range(1, max_length + 1):
        for first in alphabet:
            for letters in extend([first], length - 1):
                if _canonical_rotation(letters) != letters:
                    continue
                if up_to_inversion:
                    inverse = _canonical_rotation(tuple(-l for l in reversed(letters)))
                    if list(map(letter_sort_key, inverse)) < list(map(letter_sort_key, letters)):
                        continue
                out.append(CyclicWord(rank, letters))
    return tuple(sorted(out, key=CyclicWord.sort_key))
