"""The four workloads: seeded rounds of operations and their checks.

A workload builds one round of operations at a time.  Each operation is a
zero-argument call into the program plus a check of its output against
``refs``; building happens before a round's timed loop and checking after
it.  Round ``r`` of seed ``s`` always holds the same inputs, and round -1
is the warm-up, drawn from its own stream so that it is outside the timed
list.  Within a run no timed input repeats, except in ``cli``, where each
operation is a fresh interpreter and the repeats are what the
byte-identity check compares.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable

import gen
import refs
from refs import expect

# The traced run wraps the package's functions in place, so the calls under
# test are looked up on their modules when a round is built, never bound here.
from outerint import dynamics, intersection, splittings
from outerint.catalog import catalog, supergolden_automorphism
from outerint.currents import RationalCurrent
from outerint.marked_graph import act, marked_graph_to_json_obj, rose, subdivide_edge
from outerint.splittings import FreeSplitting, act as act_on_splitting
from outerint.words import Automorphism, CyclicWord, Word


@dataclass
class Op:
    call: Callable[[], Any]
    check: Callable[[Any], None]


def close_to(got, want: float, rel: float = 1e-9) -> bool:
    return abs(float(got) - want) <= rel * abs(want)


class Workload:
    name = ""
    round_s = 1.0  # nominal timed seconds of one round, measured at the seed commit
    min_rounds = 1  # enough rounds for at least 40 timed operations

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.seen: set = set()

    def rng(self, r: int):
        return gen.rng_for(self.name, self.seed, r)

    def draw_fresh(self, draw):
        """Call ``draw() -> (key, value) or None`` until it gives a key not
        drawn before in this run; returns the value.  Only a digest of each
        key is kept, so the record of past inputs adds little to the run's
        peak memory."""
        for _ in range(1000):
            drawn = draw()
            if drawn is None:
                continue
            digest = hashlib.blake2b(repr(drawn[0]).encode(), digest_size=16).digest()
            if digest not in self.seen:
                self.seen.add(digest)
                return drawn[1]
        raise RuntimeError(f"{self.name}: no fresh input left to draw")

    def build(self, r: int, limit: int | None = None) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# -- pairing -------------------------------------------------------------------


def pair_all(M, currents) -> list:
    return [intersection.intersect_report(M, mu) for mu in currents]


def check_pairing(loops, lengths, terms_list, reports) -> None:
    expect(len(reports) == len(terms_list), f"pairing: {len(reports)} reports")
    for terms, report in zip(terms_list, reports):
        expected = refs.pairing(loops, lengths, terms)
        expect(
            report.via_lengths == report.via_crossings == report.value == expected,
            f"pairing: routes {report.via_lengths} / {report.via_crossings}, "
            f"value {report.value}, reference {expected}",
        )


class Pairing(Workload):
    """One operation pairs a seeded chart of rank 2-4 (rose, subdivided
    rose or re-marked chart) with each of its sixteen currents by
    ``intersect_report``; the currents have 1-4 terms whose roots have 1-36
    letters.  A chart with its currents is the unit of work, rather than
    one call of about 1 ms, so that a run times about 600 operations and
    its tail (the 11th slowest) is set by the heavier charts rather than
    by a few host stalls of a millisecond or two among thousands of
    calls."""

    name = "pairing"
    charts = 64
    currents_per_chart = 16
    round_s = 1.2
    min_rounds = 1

    @staticmethod
    def chart(rng, index: int):
        rank = rng.randint(2, 4)
        M = rose(rank, [gen.fraction(rng) for _ in range(rank)])
        if index % 3 != 0:
            for e in range(1, rank + 1):
                if rng.random() < 0.5:
                    M = subdivide_edge(M, e, Fraction(rng.randint(1, 3), 4))
        if index % 3 == 2:
            images, inv = gen.automorphism_data(rng, rank, rng.randint(1, 4))
            M = act(Automorphism.from_images(rank, images, inv), M)
        return M

    @staticmethod
    def draw_terms(rng, M):
        terms = tuple((gen.cyclic_word(rng, M.rank, rng.randint(1, 36)), gen.fraction(rng, 6))
                      for _ in range(rng.randint(1, 4)))
        return (M.marking.generator_loops, M.lengths, terms), terms

    def build(self, r, limit=None):
        rng = self.rng(r)
        ops: list[Op] = []
        for c in range(self.charts if limit is None else limit):
            M = self.chart(rng, c)
            terms_list = [self.draw_fresh(partial(self.draw_terms, rng, M))
                          for _ in range(self.currents_per_chart)]
            currents = [RationalCurrent(M.rank, tuple((CyclicWord(M.rank, w), x) for w, x in terms))
                        for terms in terms_list]
            ops.append(Op(partial(pair_all, M, currents),
                          partial(check_pairing, M.marking.generator_loops, M.lengths, terms_list)))
        return ops


# -- iwip ------------------------------------------------------------------------

CAP = 100_000
# Fixed per map rather than drawn, so that rounds cost alike across seeds:
# the table depth, and the letters the pairing column's last iterate is
# aimed at, past the cap for fibonacci and below it for the other two.
TABLE_DEPTH = {"fibonacci": 4, "fibonacci_inverse": 3, "supergolden": 3}
TABLE_REACH = {"fibonacci": (110_000, 150_000), "fibonacci_inverse": (40_000, 60_000),
               "supergolden": (40_000, 60_000)}
SEED_LETTERS = 8
# Two tables of one map share iterates exactly when one seed's class is an
# iterate of the other's, so a table is keyed on the classes of its short
# iterates.  Iterates are followed until they pass ORBIT_STOP letters: the
# three maps expand every class, and in samples of 40-150 seed words per
# map no iterate past 1,000 letters was shorter than the one before it.
ORBIT_STOP = 1000
# The iterates of a map that is not positive can be u c u^-1 with a
# conjugator u that grows with them, and the program's time on a table
# then grows with the sum over its rows of |u| x |w| (about 1.6 s per 10^9
# letter pairs here), where a table without conjugators costs 0.05-0.4 s.
# About one seed word in six gives such a table, with a sum anywhere in
# 10^7.5-10^9.5, so a run of eight tables drawn freely holds anywhere from
# none to several.  Such a map's tables are therefore drawn by round: even
# rounds keep tables whose sum is below PLAIN, odd rounds tables whose sum
# is in CONJUGATED, so every run has the same share of each.
PLAIN = 10 ** 6
CONJUGATED = (10 ** 8, 4 * 10 ** 8)
# A table without conjugators costs about its letters read, which the
# parity of the last iterate under the cap alone moves by a factor of 2.6
# (lambda^2 for fibonacci); tables are kept only if they read READ letters,
# the middle half or so of every map's tables.
READ = (90_000, 135_000)
ESTIMATE = 2_000


class Iwip(Workload):
    """Per catalog map and round: four ``eigencurrent_approx`` vectors and
    one ``pf_eigenpair`` + ``iwip_rows`` table, from seed words of 1-8
    letters.  Vectors take the first iterate with 200-400 letters, at depth
    3 (rank 3) or 4 (rank 2).  A table's ``n_max`` is half the first
    iterate with ``TABLE_REACH`` letters, so its pairing column reaches
    4x10^4-10^5 letters and, in every fibonacci table, cells past the 10^5
    cap are ``None``; its depth is ``TABLE_DEPTH``.  The fibonacci_inverse
    table alternates by round between iterates without conjugators and
    iterates with conjugators of a set size (see ``CONJUGATED``).  No two vectors of a
    run count windows on the same class, and no two tables of a map share
    an iterate's class."""

    name = "iwip"
    round_s = 1.6  # rescaled seconds (see hostspeed.py), with four vectors per map
    min_rounds = 5
    # vector costs spread over 1-45 ms and the median operation is a
    # vector, so with two per map the median moved by 12 % between seeds
    vectors_per_map = 4

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.maps = catalog()
        self.info = {}
        for key, f in self.maps.items():
            images = [w.letters for w in f.automorphism.images]
            A = refs.transition_matrix(images)
            positive = all(l > 0 for img in images for l in img)
            self.info[key] = (images, A, positive, refs.dominant_root(A))
        self.table_orbits: dict[str, set] = {key: set() for key in self.maps}

    def seed_word(self, rng, key) -> tuple[int, ...]:
        rank = self.maps[key].chart.rank
        images, _, positive, _ = self.info[key]
        length = rng.randint(1, SEED_LETTERS)
        return gen.positive_word(rng, rank, length) if positive else gen.cyclic_word(rng, rank, length)

    def steps_to(self, key, g, target: int) -> int:
        """First n with at least ``target`` letters in A^n (letter counts of g):
        the length of the n-th iterate for a positive map, a bound otherwise."""
        images, A, _, _ = self.info[key]
        v, n = refs.letter_counts(len(images), g), 0
        while sum(v) < target:
            v, n = [sum(a * x for a, x in zip(row, v)) for row in A], n + 1
        return n

    def short_classes(self, key, g, steps: int) -> set:
        """Classes of at most ``SEED_LETTERS`` letters among phi^0(g) ..
        phi^steps(g)."""
        images = self.info[key][0]
        out, w = set(), g
        for _ in range(steps + 1):
            core = refs.cyclic_core(w)
            if len(core) > ORBIT_STOP:
                break
            if len(core) <= SEED_LETTERS:
                out.add(gen.cyclic_class(core))
            w = refs.substitute(images, core)
        return out

    def table_size(self, key, g, n_max: int, up_to: int = CAP) -> tuple[float, float]:
        """Letters of the iterates a table reads, and the sum of |u| x |w|
        over those of them that are w = u c u^-1.  For a map that is not
        positive, iterates past ``up_to`` letters are not computed but
        extrapolated by lambda per step, so that a small ``up_to`` gives a
        cheap estimate."""
        images, A, positive, (lam, _) = self.info[key]
        if positive:  # no cancellation: lengths are letter counts
            lengths = refs.power_lengths(A, refs.letter_counts(len(images), g), 2 * n_max)
            cores = lengths
        else:
            words = gen.iterate(images, g, 2 * n_max, up_to)
            lengths = [len(w) for w in words]
            cores = [len(refs.cyclic_core(w)) for w in words]
            grow = [float(lam) ** j for j in range(1, 2 * n_max + 2 - len(words))]
            lengths += [lengths[-1] * x for x in grow]
            cores += [cores[-1] * x for x in grow]
        lengths = lengths[: next((j for j, L in enumerate(lengths) if L > CAP), len(lengths))]
        read = set(range(min(n_max, len(lengths) - 1) + 1)) | set(range(0, len(lengths), 2))
        return (sum(lengths[n] for n in read),
                sum((lengths[n] - cores[n]) // 2 * lengths[n] for n in read))

    def draw_table(self, rng, key, r: int):
        g = self.seed_word(rng, key)
        n_max = (self.steps_to(key, g, rng.randint(*TABLE_REACH[key])) + 1) // 2
        positive = self.info[key][2]
        plain = positive or r % 2 == 0
        if not positive:
            # Estimated from the iterates of up to ESTIMATE letters first: a
            # millisecond, where computing them all takes 25 ms, so that
            # drawing round 0 adds little to set-up time and its spread.
            # Letters come within 0.2 % of the whole computation, and so
            # does a growing conjugator's sum; a conjugator that does not
            # grow is overestimated, up to about 5x10^6 where the exact
            # sum is below PLAIN, so the estimate rejects only what the
            # exact check below would.
            letters, conjugated = self.table_size(key, g, n_max, ESTIMATE)
            if not (READ[0] <= letters * 1.05 and letters < READ[1] * 1.05 and conjugated < 10 * PLAIN
                    if plain else CONJUGATED[0] <= conjugated * 1.5 and conjugated < CONJUGATED[1] * 1.5):
                return None
        letters, conjugated = self.table_size(key, g, n_max)
        if not (conjugated < PLAIN and READ[0] <= letters < READ[1] if plain
                else CONJUGATED[0] <= conjugated < CONJUGATED[1]):
            return None
        orbit = self.short_classes(key, g, 2 * n_max)
        if orbit & self.table_orbits[key]:
            return None
        self.table_orbits[key] |= orbit
        return ("table", key, gen.cyclic_class(g)), (g, n_max)

    def draw_vector(self, rng, key):
        g = self.seed_word(rng, key)
        n = self.steps_to(key, g, rng.randint(200, 400))
        last = gen.iterate(self.info[key][0], g, n, CAP)[-1]
        return ("vector", key, gen.cyclic_class(last)), (g, n)

    def build(self, r, limit=None):
        if r < 0:
            # warm-up: one fixed vector, phi^10(a) for fibonacci (144 letters),
            # so that set-up costs the same for every seed; timed vectors
            # have at least 200 letters, so none of them repeats it
            key, g, n = "fibonacci", (1,), 10
            f = self.maps[key]
            return [Op(partial(dynamics.eigencurrent_approx, f.automorphism, Word(2, g), n, f.chart, 4, CAP),
                       partial(self.check_vector, key, g, n, 4))]
        rng = self.rng(r)
        ops: list[Op] = []
        for key, f in self.maps.items():
            rank = f.chart.rank
            k = 3 if rank == 3 else 4
            depth = TABLE_DEPTH[key]
            for _ in range(self.vectors_per_map):
                g, n = self.draw_fresh(partial(self.draw_vector, rng, key))
                ops.append(Op(
                    partial(dynamics.eigencurrent_approx, f.automorphism, Word(rank, g), n, f.chart, k, CAP),
                    partial(self.check_vector, key, g, n, k),
                ))
            g, n_max = self.draw_fresh(partial(self.draw_table, rng, key, r))
            ops.append(Op(
                partial(self.table, f, Word(rank, g), n_max, depth),
                partial(self.check_table, key, g, n_max, depth),
            ))
        return ops[:limit]

    @staticmethod
    def table(f, g, n_max, depth):
        pf = dynamics.pf_eigenpair(dynamics.transition_matrix(f))
        return pf, dynamics.iwip_rows(f.automorphism, f.chart, pf.eigenvalue, g, n_max, depth, CAP)

    def check_table(self, key, g, n_max, depth, out) -> None:
        pf, rows = out
        images, A, positive, (root_lo, root_hi) = self.info[key]
        lam, half = Fraction(pf.eigenvalue), Fraction(pf.eigenvalue_bound)
        expect(lam - half <= root_lo and root_hi <= lam + half,
               f"iwip {key}: enclosure {pf.eigenvalue}+-{pf.eigenvalue_bound} misses the root")
        if positive:
            lengths = refs.power_lengths(A, refs.letter_counts(len(images), g), 2 * n_max)
            available = next((j - 1 for j, L in enumerate(lengths) if L > CAP), 2 * n_max)
            lengths = lengths[: available + 1]
            words = gen.iterate(images, g, min(n_max, available), CAP)
        else:
            words = gen.iterate(images, g, 2 * n_max, CAP)
            available = len(words) - 1
            lengths = [len(refs.cyclic_core(w)) for w in words]
        lam_f = pf.eigenvalue
        expect(len(rows) == n_max + 1, f"iwip {key}: {len(rows)} rows for n_max {n_max}")
        prev = None
        for n, row in enumerate(rows):
            want_len = float(lengths[n]) / lam_f ** n if n <= available else None
            want_pair = float(lengths[2 * n]) / lam_f ** (2 * n) if 2 * n <= available else None
            want_delta = None
            if n <= available:
                freq = refs.window_frequencies(words[n], depth)
                want_delta = None if prev is None else refs.sup_distance(freq, prev)
                prev = freq
            got = (row.n, row.length_estimate, row.pairing_estimate, row.freq_delta)
            # the two estimates are floats: equal up to rounding, None alike
            expect(row.n == n and row.freq_delta == want_delta
                   and all(x is w if None in (x, w) else close_to(x, w, 1e-12)
                           for x, w in ((row.length_estimate, want_len), (row.pairing_estimate, want_pair))),
                   f"iwip {key} g={g} row {n}: {got} != {(n, want_len, want_pair, want_delta)}")

    def check_vector(self, key, g, n, k, vec) -> None:
        images = self.info[key][0]
        rank = len(images)
        counts, length = refs.window_frequencies(gen.iterate(images, g, n, CAP)[-1], k)
        entries = vec.entries
        expect(vec.depth == k and vec.mass == length, f"vector {key}: depth/mass {vec.depth}/{vec.mass}")
        expect(len(entries) == refs.reduced_path_count(rank, k)
               and len({refs.pair_key(p) for p, _ in entries}) == len(entries),
               f"vector {key}: {len(entries)} entries")
        expect(all(x == refs.frequency_entry(counts, length, p) for p, x in entries),
               f"vector {key} g={g} n={n}: entries differ from window counts")
        expect(sum(x for _, x in entries) == 1, f"vector {key}: entries do not sum to 1")


# -- splitting-bfs -------------------------------------------------------------------

RANK = 3
SUBSETS = ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))
FULL = frozenset(range(1, RANK + 1))


class SplittingBfs(Workload):
    """``bfs_distance`` on all five flavors with the supergolden automorphism
    as move generator.  Each round draws two twists, each one seeded
    transvection, shared by its pairs.  "distinct" and "twin" pairs are two
    vertices of one coordinate family (a twin is the complement
    presentation of the same vertex); "moved" pairs apply the supergolden
    move to one endpoint.  Z pairs a splitting with a conjugacy class and
    I0 with a current, either built elliptic or drawn at random and kept
    only if hyperbolic, so each round has one of each."""

    name = "splitting-bfs"
    # (flavor, which of the round's two twists, pair shape, radius); the
    # shapes are fixed per round so that rounds cost alike across seeds, and
    # the cheap first entry is also the warm-up
    plan = (("Z", 0, "elliptic", 3), ("F", 0, "distinct", 2), ("F", 1, "twin", 2),
            ("S", 0, "distinct", 2), ("S", 1, "distinct", 2), ("F", 1, "moved", 2),
            ("Fstar", 0, "distinct", 2), ("Fstar", 1, "moved", 2), ("Z", 1, "hyperbolic", 2),
            ("I0", 1, "elliptic", 3), ("I0", 0, "hyperbolic", 2),
            ("F", 0, "moved", 2), ("F", 1, "moved", 2), ("Z", 1, "elliptic", 3), ("I0", 0, "elliptic", 3))
    round_s = 5.2
    # 75 operations.  F "moved" searches are the heaviest (about 0.45 s,
    # twice most others), and with one per round the tail (11th largest)
    # fell at the edge between them and the rest and moved by 17 % between
    # seeds; with three per round it falls inside them and moved by 1 %.
    # The two light elliptic searches added with them keep the median
    # operation where it was (it moved by 1.5 % between seeds, 3 % without).
    min_rounds = 5

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.phi = supergolden_automorphism()

    @staticmethod
    def vertex(spec, twist):
        kind, subset, stable, _ = spec
        return FreeSplitting(RANK, kind, subset, stable, twist)

    @staticmethod
    def same_vertex(a, b) -> bool:
        if a[0] != b[0]:
            return False
        if a[0] == "loop":
            return a[2] == b[2]
        return a[1] in (b[1], FULL - b[1])

    @staticmethod
    def draw_spec(rng, untwist, loops: bool):
        if loops and rng.random() < 0.4:
            return ("loop", None, rng.randint(1, RANK), untwist)
        return ("sep", frozenset(rng.choice(SUBSETS)), None, untwist)

    @staticmethod
    def elliptic_class(rng, spec, twist_images) -> tuple[int, ...]:
        """A class elliptic in ``spec``: the twist applied to a word
        inside one factor."""
        kind, subset, stable, _ = spec
        if kind == "loop":
            letters = [i for i in range(1, RANK + 1) if i != stable]
        else:
            letters = sorted(subset if rng.random() < 0.5 else FULL - subset)
        while True:
            w = tuple(rng.choice(letters) * rng.choice((1, -1)) for _ in range(rng.randint(1, 4)))
            core = refs.cyclic_core(refs.substitute(twist_images, w))
            if core:
                return core

    def pair(self, rng, flavor, shape, radius, twist, td):
        """Draw one pair as (key, (v1, v2, check)), or None to redraw."""
        a = self.draw_spec(rng, td[1], loops=flavor in ("S", "Z", "I0"))
        v1 = self.vertex(a, twist)
        if flavor in ("F", "S", "Fstar"):
            b = self.draw_spec(rng, td[1], loops=flavor == "S")
            if shape == "twin":
                b = (a[0], FULL - a[1], None, td[1])
            elif self.same_vertex(a, b):
                return None
            v2 = self.vertex(b, twist)
            target = None
            if shape == "moved":
                v2 = act_on_splitting(self.phi, v2)
            elif flavor != "Fstar":
                target = 0 if shape == "twin" else 1
            return (flavor, shape, radius, a, b), (v1, v2, partial(self.check_range, flavor, target))
        if shape == "elliptic":
            draw = partial(self.elliptic_class, rng, a, td[0])
        else:
            draw = partial(gen.cyclic_word, rng, RANK, rng.randint(2, 6))
        if flavor == "Z":
            cls = draw()
            adjacent = refs.splitting_length(a, cls) == 0
            if adjacent != (shape == "elliptic"):
                return None
            return (flavor, shape, radius, a, cls), (v1, CyclicWord(RANK, cls), partial(self.check_exact_one, flavor, adjacent))
        terms = tuple((draw(), gen.fraction(rng, 5)) for _ in range(rng.randint(1, 2)))
        zero = sum(x * refs.splitting_length(a, w) for w, x in terms) == 0
        if zero != (shape == "elliptic"):
            return None
        mu = RationalCurrent(RANK, tuple((CyclicWord(RANK, w), x) for w, x in terms))
        return (flavor, shape, radius, a, terms), (v1, mu, partial(self.check_exact_one, flavor, zero))

    def build(self, r, limit=None):
        rng = self.rng(r)
        ops: list[Op] = []
        data = [gen.automorphism_data(rng, RANK, 1, kinds=(0, 1)) for _ in range(2)]
        twists = [Automorphism.from_images(RANK, *d) for d in data]
        for flavor, t, shape, radius in self.plan:
            v1, v2, check = self.draw_fresh(partial(self.pair, rng, flavor, shape, radius, twists[t], data[t]))
            ops.append(Op(partial(splittings.bfs_distance, flavor, v1, v2, radius, [self.phi]), partial(check, radius)))
        return ops[:limit]

    @staticmethod
    def check_range(flavor, expected, radius, d) -> None:
        expect(d is None or 0 <= d <= radius, f"{flavor}: distance {d} outside 0..{radius}")
        if expected is not None:
            expect(d == expected, f"{flavor}: same-twist distance {d}, hand-derived {expected}")

    @staticmethod
    def check_exact_one(flavor, adjacent, radius, d) -> None:
        expect(d is None or 0 <= d <= radius, f"{flavor}: distance {d} outside 0..{radius}")
        expect((d == 1) == adjacent, f"{flavor}: distance {d} but reference adjacency {adjacent}")




# -- cli ----------------------------------------------------------------------------


def csv_rows(text: str) -> list[list[str]]:
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    return [l.split(",") for l in lines[1:]]


def csv_header(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if line.startswith("#"):
            for field in line[1:].split():
                if "=" in field:
                    k, v = field.split("=", 1)
                    out[k] = v
    return out


def rose_path(names: str) -> tuple[int, ...]:
    """``a.b.C`` on a rose with petals a, b, c ... as signed edges."""
    return tuple(ord(c) - 96 if c.islower() else -(ord(c) - 64) for c in names.split("."))


class Cli(Workload):
    """Sequential ``python -m outerint.cli`` processes covering all eight
    subcommands, on the fixtures and on a seeded rank-3 chart, current and
    word written at set-up through the library's serialisers.  The same
    fourteen commands repeat every round."""

    name = "cli"
    round_s = 6.0
    # 56 operations, 16 of them heavy (iwip and three graph commands, four
    # copies of each), so that the tail (11th largest) falls inside the
    # copies of one heavy command rather than at the edge of the heavy ones
    min_rounds = 4

    def __init__(self, root, seed, in_process: bool = False):
        super().__init__(root, seed)
        self.in_process = in_process
        self.max_child_rss_kib = 0
        self.stdout_seen: dict[int, bytes] = {}
        self.tmp = root / ".bench_tmp" / f"{os.getpid()}-{id(self)}"
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.tmp.mkdir(parents=True)
        try:
            self.commands = self.write_inputs()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run's files
            self.tmp.parent.rmdir()

    def write_inputs(self) -> list[tuple[list[str], Callable[[str], None]]]:
        rng = self.rng(0)
        rank = 3
        M = Pairing.chart(rng, 2)
        while M.rank != rank or M.graph.num_edges == rank:
            M = Pairing.chart(rng, 2)
        loops, lengths = M.marking.generator_loops, M.lengths
        big_terms = [(gen.cyclic_word(rng, rank, rng.randint(12, 30)), gen.fraction(rng, 6)) for _ in range(3)]
        freq_terms = [(gen.cyclic_word(rng, rank, rng.randint(8, 20)), gen.fraction(rng, 6)) for _ in range(2)]
        word = gen.reduced_word(rng, rank, rng.randint(30, 40))
        files = {
            "chart.json": marked_graph_to_json_obj(M),
            "current.json": RationalCurrent(rank, tuple((CyclicWord(rank, w), x) for w, x in big_terms)).to_json_obj(),
            "freq_current.json": RationalCurrent(rank, tuple((CyclicWord(rank, w), x) for w, x in freq_terms)).to_json_obj(),
        }
        for name, obj in files.items():
            (self.tmp / name).write_text(json.dumps(obj, sort_keys=True, indent=2))
        fx = lambda name: str(self.root / "fixtures" / name)
        tmp = lambda name: str(self.tmp / name)
        word_text = "".join(chr(96 + l) if l > 0 else chr(64 - l) for l in word)
        golden = refs.dominant_root([[1, 1], [1, 0]])
        return [
            (["translen", fx("rose2.json"), "ab"], lambda out: expect(out == "2\n", f"translen rose2 ab: {out!r}")),
            (["translen", tmp("chart.json"), word_text],
             lambda out: expect(Fraction(out) == refs.chart_length(loops, lengths, word), f"translen chart: {out!r}")),
            (["bbt", fx("rose2_lengths_2_3.json")], lambda out: expect(out == "5\n", f"bbt fixture: {out!r}")),
            (["bbt", tmp("chart.json")],
             lambda out: expect(Fraction(out) == sum(refs.path_weight(refs.chart_path(loops, (i,)), lengths)
                                                      for i in range(1, rank + 1)), f"bbt chart: {out!r}")),
            (["intersect", fx("rose2.json"), fx("current_ab.json")], partial(self.check_intersect, Fraction(2))),
            (["intersect", tmp("chart.json"), tmp("current.json")],
             partial(self.check_intersect, refs.pairing(loops, lengths, big_terms))),
            (["current-freq", fx("current_ab.json"), fx("rose2.json"), "-k", "2"],
             partial(self.check_freq, [((1, 2), Fraction(1))], 2, 2)),
            (["current-freq", tmp("freq_current.json"), fx("rose3.json"), "-k", "3"],
             partial(self.check_freq, freq_terms, 3, 3)),
            (["scaling-exp", tmp("chart.json"), "--samples", "200", "--seed", str(self.seed)], self.check_scaling),
            (["pf", "--map", fx("fibonacci_map.json")], partial(self.check_pf, golden)),
            (["iwip", "--map", fx("fibonacci_map.json"), "--seed", "a", "--n", "12", "--depth", "2"],
             partial(self.check_iwip, golden)),
            (["graph", "--flavor", "F", "--from", fx("splitting_a_rank3.json"),
              "--to", fx("splitting_ab_rank3.json"), "--radius", "2"], self.check_distance_one),
            (["graph", "--flavor", "I0", "--from", fx("splitting_a_rank3.json"),
              "--to", fx("current_b_rank3.json"), "--radius", "2"], self.check_distance_one),
            (["graph", "--flavor", "S", "--from", fx("splitting_a_rank3.json"),
              "--to", fx("splitting_loop_a_rank3.json"), "--radius", "2",
              "--moves", fx("moves_supergolden.json")], self.check_distance_one),
        ]

    def build(self, r, limit=None):
        if r < 0:  # warm-up: a command outside the timed list
            args = ["translen", str(self.root / "fixtures" / "rose3.json"), "abc"]
            return [Op(partial(self.run, args), lambda out: expect(out == b"3\n", f"warm-up: {out!r}"))]
        ops = [Op(partial(self.run, args), partial(self.check_output, i, check))
               for i, (args, check) in enumerate(self.commands)]
        return ops[:limit]

    def run(self, args: list[str]) -> bytes:
        if self.in_process:
            return self.run_in_process(args)
        p = subprocess.Popen([sys.executable, "-m", "outerint.cli", *args], cwd=self.root,
                             env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = p.stdout.read(), p.stderr.read()
        p.stdout.close()
        p.stderr.close()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kib = max(self.max_child_rss_kib, usage.ru_maxrss)
        if p.returncode != 0:
            raise RuntimeError(f"oi {args[0]} exited {p.returncode}: {err.decode()[-300:]}")
        return out

    @staticmethod
    def run_in_process(args: list[str]) -> bytes:
        from outerint.cli import main as cli_main  # only the in-process (traced) cli run loads click

        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                cli_main.main(args=args, prog_name="oi", standalone_mode=False)
        except SystemExit as exc:  # a command that exits counts as a failed operation
            raise RuntimeError(f"oi {args[0]} exited {exc.code}") from None
        return buf.getvalue().encode()

    def check_output(self, index: int, check, out: bytes) -> None:
        first = self.stdout_seen.setdefault(index, out)
        expect(out == first, f"cli command {index}: stdout differs between repeats")
        check(out.decode())

    @staticmethod
    def check_intersect(expected: Fraction, out: str) -> None:
        obj = json.loads(out)
        expect(obj["route_a"] == obj["route_b"] == obj["value"] and Fraction(obj["value"]) == expected,
               f"intersect: {obj['value']} / {obj['route_a']} / {obj['route_b']}, reference {expected}")

    @staticmethod
    def check_freq(terms, rank: int, k: int, out: str) -> None:
        want = refs.current_frequencies(terms, k)
        rows = csv_rows(out)
        expect(len(rows) == refs.reduced_path_count(rank, k), f"current-freq: {len(rows)} rows")
        for name, value in rows:
            p = refs.pair_key(rose_path(name))
            expect(Fraction(value) == want.get(p, 0), f"current-freq {name}: {value} != {want.get(p, 0)}")

    @staticmethod
    def check_scaling(out: str) -> None:
        obj = json.loads(out)
        expect(obj["holds"] is True and Fraction(obj["empirical_modulus"]) <= Fraction(obj["a_priori_modulus"]),
               f"scaling-exp: {obj}")

    @staticmethod
    def check_pf(golden, out: str) -> None:
        obj = json.loads(out)
        lam, err = Fraction(obj["lambda"]), Fraction(obj["lambda_error"])
        expect(lam - err <= golden[0] and golden[1] <= lam + err, f"pf: {lam} +- {err} misses the golden ratio")

    @staticmethod
    def check_iwip(golden, out: str) -> None:
        header = csv_header(out)
        lam, err = Fraction(header["lambda"]), Fraction(header["lambda_error"])
        expect(lam - err <= golden[0] and golden[1] <= lam + err, "iwip: lambda misses the golden ratio")
        images = [(1, 2), (1,)]
        lengths = refs.power_lengths(refs.transition_matrix(images), [1, 0], 24)
        words = gen.iterate(images, (1,), 12, 10 ** 6)
        rows = csv_rows(out)
        expect(len(rows) == 13, f"iwip: {len(rows)} rows")
        lam_f = float(header["lambda"])
        for n, (n_text, length, pairing, delta) in enumerate(rows):
            want_delta = "" if n == 0 else (
                f"{float(refs.sup_distance(refs.window_frequencies(words[n], 2), refs.window_frequencies(words[n - 1], 2))):.12g}")
            expect(n_text == str(n) and close_to(length, lengths[n] / lam_f ** n)
                   and close_to(pairing, lengths[2 * n] / lam_f ** (2 * n)) and delta == want_delta,
                   f"iwip row {n}: {length}, {pairing}, {delta!r}")

    @staticmethod
    def check_distance_one(out: str) -> None:
        expect(json.loads(out)["distance"] == 1, f"graph: {out!r}")


WORKLOADS = {w.name: w for w in (Pairing, Iwip, SplittingBfs, Cli)}
