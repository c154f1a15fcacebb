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
cyclic reductions, primitive roots, enumerated classes, automorphic
images, composed and inverted automorphisms) are built by the trusted
``_make`` constructors.  A reduced word is a reduced edge path in the
rose, so words and edge paths share one free reduction, cyclic cut and
inverse.  Substitution cancels only at the junctions of reduced pieces
(:func:`_concat`, shared with word-to-path).

Everything in this module is immutable and all operations are pure, so
values can be shared freely between threads.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import gcd
from operator import add, attrgetter
from typing import Iterable, Sequence


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
        raise ValueError(f"{what} must be an integer, got {_clip(x)}")
    return x


def _clip(x) -> str:
    """``repr(x)`` for an error message, cut after 40 characters."""
    text = repr(x)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def _check_letters(letters: Sequence[int], rank: int) -> None:
    if rank < 2:
        raise ValueError(f"rank must be >= 2, got {rank}")
    for l in letters:
        if type(l) is not int or l == 0 or abs(l) > rank:
            raise ValueError(f"invalid letter {_clip(l)} for rank {rank}")


def _frozen(cls):
    """``@dataclass(frozen=True)`` over the annotated fields of ``cls``, from
    closures, not generated code; ``__post_init__`` is read off the instance.
    A class's own ``__eq__`` and ``__hash__``, as the hot classes write, stay."""
    names = tuple(cls.__dict__["__annotations__"])
    defaults = {k: cls.__dict__[k] for k in names if k in cls.__dict__}
    post, set_field = hasattr(cls, "__post_init__"), object.__setattr__
    key = attrgetter(*names) if len(names) > 1 else lambda self: (getattr(self, names[0]),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            given = {**defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > len(names) or given.keys() != set(names) or kwargs.keys() & set(names[: len(args)]):
                raise TypeError(f"{cls.__name__}() takes {names}, got {len(args)} and {sorted(kwargs)}")
            args = [given[k] for k in names]
        for k, value in zip(names, args):
            set_field(self, k, value)
        if post:
            self.__post_init__()

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={getattr(self, k)!r}' for k in names)})"

    def __setattr__(self, name, value=None):  # and __delattr__
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    cls.__init__, cls.__repr__, cls.__setattr__, cls.__delattr__ = __init__, __repr__, __setattr__, __setattr__
    if "__eq__" not in cls.__dict__:
        cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(key(self))
    return cls


@_frozen
class Word:
    """A freely reduced word.  The empty word is the identity."""

    rank: int
    letters: tuple[int, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters and self.rank == other.rank

    def __hash__(self):
        return hash((self.rank, self.letters))

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
        return Word._make(self.rank, _inverse(self.letters))

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
    return Word._make(rank, tuple(_free_reduce(letters)))


def _free_reduce(seq: Sequence[int]) -> list[int]:
    """Cancel adjacent ``x, -x`` pairs of signed letters or edges.  Both
    are nonzero, so ``x + y == 0`` exactly when ``y == -x``: a reduced
    sequence is copied by one C-level scan, without the stack."""
    if 0 not in map(add, seq, seq[1:]):
        return list(seq)
    stack: list[int] = []
    for x in seq:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return stack


def _cyclic_cut(seq: Sequence[int]) -> int:
    """How many first/last pairs of a reduced sequence cancel cyclically."""
    i, j = 0, len(seq) - 1
    while i < j and seq[i] == -seq[j]:
        i += 1
        j -= 1
    return i


def _inverse(seq: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a word or an edge path."""
    return tuple(-x for x in reversed(seq))


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


@_frozen
class CyclicWord:
    """A nonempty cyclically reduced word, stored in canonical rotation.

    The canonical rotation is the lexicographically least one under
    :func:`letter_sort_key`, so two conjugate cyclically reduced words
    compare equal as sequences.
    """

    rank: int
    letters: tuple[int, ...]

    __eq__, __hash__ = Word.__eq__, Word.__hash__

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
        """Trusted: cyclically reduced letters in canonical rotation,
        derived from validated values."""
        cw = object.__new__(cls)
        object.__setattr__(cw, "rank", rank)
        object.__setattr__(cw, "letters", letters)
        return cw

    def __len__(self) -> int:
        return len(self.letters)

    def as_word(self) -> Word:
        return Word._make(self.rank, self.letters)

    def inverse(self) -> "CyclicWord":
        return CyclicWord._make(self.rank, _canonical_rotation(_inverse(self.letters)))

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
    if not w.letters:
        return None, w
    cut = _cyclic_cut(w.letters)
    core = _canonical_rotation(w.letters[cut : len(w) - cut])
    return CyclicWord._make(w.rank, core), Word._make(w.rank, _inverse(w.letters[:cut]))


def conjugacy_class(letters: Sequence[int], rank: int) -> CyclicWord | None:
    """The conjugacy class a letter sequence names: the sequence freely,
    then cyclically reduced; None for the identity.  The one input rule
    of classes and current roots.

    >>> str(conjugacy_class([1, 2, -2], 2)), str(conjugacy_class([1, 2, -1], 2))
    ('a', 'b')
    """
    return cyclic_reduce(reduce(letters, rank))[0]


def primitive_root(cw: CyclicWord) -> tuple[CyclicWord, int]:
    """Write the cyclic word as ``root^m`` with the root not a proper power.

    The smallest period of the canonical rotation is found with the
    classic prefix-function; it divides the length exactly when the word
    is a proper power, and the root, a prefix, is then canonical too.

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


def cyclic_length(w: Word) -> int:
    """Number of letters of the cyclically reduced form."""
    return len(w) - 2 * _cyclic_cut(w.letters)


def _letter_table(pieces: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """``table[l]`` is the piece of letter ``l``; ``table[-l]``, counted
    from the end, is its inverse."""
    return ((), *pieces, *map(_inverse, reversed(pieces)))


@_frozen
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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.images == other.images and self.inverse_images == other.inverse_images
                and self.rank == other.rank)

    def __hash__(self):  # computed once: the splitting caches hash a twist on every lookup
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash((self.rank, self.images, self.inverse_images)))
        return self._hash

    def __post_init__(self) -> None:
        if self.rank < 2:
            raise ValueError("rank must be >= 2")
        if len(self.images) != self.rank or len(self.inverse_images) != self.rank:
            raise ValueError("need one image per generator")
        for w in (*self.images, *self.inverse_images):
            if w.rank != self.rank:
                raise ValueError("image rank mismatch")
        self._tabulate()  # checked by the loop below
        for i in range(1, self.rank + 1):
            gen = Word(self.rank, (i,))
            fwd = self.apply(self.apply_inverse(gen))
            bwd = self.apply_inverse(self.apply(gen))
            if fwd != gen or bwd != gen:
                raise ValueError(
                    f"images and inverse_images are not a two-sided inverse pair at a_{i}"
                )

    @classmethod
    def _make(
        cls, rank: int, images: tuple[Word, ...], inverse_images: tuple[Word, ...]
    ) -> "Automorphism":
        """Trusted: a two-sided inverse pair derived from validated ones."""
        phi = object.__new__(cls)
        object.__setattr__(phi, "rank", rank)
        object.__setattr__(phi, "images", images)
        object.__setattr__(phi, "inverse_images", inverse_images)
        phi._tabulate()
        return phi

    def _tabulate(self) -> None:
        """Per-letter image tables, built once."""
        for name, words in (("_images", self.images), ("_inverses", self.inverse_images)):
            object.__setattr__(self, name, _letter_table([w.letters for w in words]))

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

    def inverse(self) -> "Automorphism":
        return Automorphism._make(self.rank, self.inverse_images, self.images)

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


def act_on_class(phi: Automorphism, cw: CyclicWord) -> CyclicWord:
    """The flip-normalised class of the image of ``cw`` under ``phi``."""
    return flip_normalize(cyclic_reduce(phi.apply(cw.as_word()))[0])


def compose(phi: Automorphism, psi: Automorphism) -> Automorphism:
    """The automorphism ``phi after psi`` (first psi, then phi)."""
    if phi.rank != psi.rank:
        raise ValueError("rank mismatch")
    return Automorphism._make(
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


#: The most classes or edge paths an enumerator lists: a larger depth is an
#: error before anything is listed.
MAX_LISTED = 10 ** 6


@lru_cache(maxsize=None)
def _check_class_count(rank: int, max_length: int) -> None:
    """Refuse more than :data:`MAX_LISTED` classes up to ``max_length``, counted by Burnside's lemma."""
    total = 0
    for n in range(1, max_length + 1):  # rotation by j fixes the cyclically reduced words of period gcd(j, n)
        fixed = ((2 * rank - 1) ** d + (rank - 1) * (-1) ** d + rank for d in map(gcd, range(n), [n] * n))
        total += sum(fixed) // n
        if total > MAX_LISTED:
            raise ValueError(f"depth {max_length} has more than {MAX_LISTED} conjugacy classes")


@lru_cache(maxsize=None)
def enumerate_cyclic_words(
    rank: int, max_length: int, up_to_inversion: bool = False
) -> tuple[CyclicWord, ...]:
    """All conjugacy classes of cyclic length 1..max_length, in
    :meth:`CyclicWord.sort_key` order, as canonical rotations; with
    ``up_to_inversion``, only the flip-normalised member of each pair.

    Each length's necklaces come out in increasing order from the
    recursive Fredricksen-Kessler-Maiorana generator (Ruskey-Savage-Wang,
    1992) on letter sort keys, where the inverse of key ``k`` is ``k ^ 1``:
    a branch stops where a letter meets its inverse, and the wrap pair is
    checked on output.  A length with more than :data:`MAX_LISTED`
    classes, counted by Burnside's lemma, is refused before any is built.

    >>> [str(cw) for cw in enumerate_cyclic_words(2, 2, up_to_inversion=True)]
    ['a', 'b', 'aa', 'ab', 'aB', 'bb']
    """
    _check_class_count(rank, max_length)
    out: list[CyclicWord] = []
    letter = [l for i in range(1, rank + 1) for l in (i, -i)]  # by sort key

    def gen(t: int, p: int) -> None:
        if t <= n:
            for k in range(a[t - p], 2 * rank):
                if t == 1 or k != a[t - 1] ^ 1:
                    a[t] = k
                    gen(t + 1, p if k == a[t - p] else t)
        elif n % p == 0 and a[n] != a[1] ^ 1:  # a cyclically reduced necklace
            keys = a[1:]
            if up_to_inversion:
                inv = [k ^ 1 for k in reversed(keys)]
                start = _least_rotation(inv)
                if inv[start:] + inv[:start] < keys:
                    return
            out.append(CyclicWord._make(rank, tuple(letter[k] for k in keys)))

    for n in range(1, max_length + 1):
        a = [0] * (n + 1)
        gen(1, 1)
    return tuple(out)
