"""Acceptance suite: one test per shipped guarantee, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts both the property and its runtime budget.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from click.testing import CliRunner

from outerint.catalog import fibonacci_automorphism, fibonacci_rose_map
from outerint.cli import main as cli_main
from outerint.currents import add, counting_current, scale
from outerint.dynamics import (
    eigencurrent_approx,
    metric_from_pf,
    pairing_estimate,
    pf_eigenpair,
    transition_matrix,
)
from outerint.intersection import (
    equivariance_check,
    intersect,
    intersect_report,
    scaling_modulus_experiment,
)
from outerint.marked_graph import (
    bbt_upper_bound,
    lemma_ll_check,
    scale_lengths,
    translation_length,
    unit_rose,
)
from outerint.splittings import (
    fstar_adjacent,
    intersection_graph_adjacent,
    loop_splitting,
    refinement_adjacent,
    separating_splitting,
    splitting_length,
    vertex_key,
)
from outerint.words import Word, cyclic_length, enumerate_cyclic_words, parse_word

from _generators import (
    random_automorphism,
    random_current,
    random_fraction,
    random_marked_graph,
    random_reduced_word,
)
from oracles import bass_serre_translation_length, bisect_root

import pathlib

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN_TOL = 1e-9


def _finish(num: int, description: str, start: float, limit: float, ok: bool, detail: str = ""):
    elapsed = time.perf_counter() - start
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num:02d}] {status} ({elapsed:.2f}s / {limit:.0f}s) {description} {detail}".rstrip())
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num}: runtime {elapsed:.2f}s over budget {limit}s"


def test_criterion_01_two_route_equality():
    start = time.perf_counter()
    rng = random.Random(101)
    checked = 0
    for _ in range(500):
        rank = rng.choice([2, 3, 4])
        report = intersect_report(random_marked_graph(rng, rank), random_current(rng, rank))
        assert report.via_lengths == report.via_crossings
        checked += 1
    _finish(1, "two-route intersection equality on 500 pairs, ranks 2-4", start, 30, checked == 500)


def test_criterion_02_form_axioms():
    start = time.perf_counter()
    rng = random.Random(102)
    ok = True
    for _ in range(200):
        rank = rng.choice([2, 3])
        M = random_marked_graph(rng, rank)
        mu, nu = random_current(rng, rank), random_current(rng, rank)
        c = random_fraction(rng)
        l1, l2 = random_fraction(rng), random_fraction(rng)
        phi = random_automorphism(rng, rank, max_image_len=6)
        ok &= intersect(scale_lengths(M, c), mu) == c * intersect(M, mu)
        ok &= intersect(M, add(scale(l1, mu), scale(l2, nu))) == l1 * intersect(M, mu) + l2 * intersect(M, nu)
        ok &= equivariance_check(phi, M, mu).equal
        if not ok:
            break
    _finish(2, "homogeneity, linearity, equivariance on 200 instances", start, 30, ok)


def test_criterion_03_length_function_laws():
    start = time.perf_counter()
    rng = random.Random(103)
    graphs2 = [unit_rose(2), random_marked_graph(rng, 2)]
    ok = True
    for cw in enumerate_cyclic_words(2, 5):
        w = cw.as_word()
        u = random_reduced_word(rng, 2, rng.randint(0, 4))
        m = rng.randint(2, 4)
        for M in graphs2:
            tl = translation_length(M, w)
            ok &= tl > 0
            ok &= translation_length(M, w.conjugate_by(u)) == tl
            ok &= translation_length(M, w ** m) == m * tl
            ok &= translation_length(M, w ** -m) == m * tl
        if not ok:
            break
    count3 = 0
    while ok and count3 < 10_000:
        M = random_marked_graph(rng, 3)
        for _ in range(100):
            w = random_reduced_word(rng, 3, rng.randint(1, 12))
            u = random_reduced_word(rng, 3, rng.randint(0, 5))
            m = rng.randint(0, 4)
            tl = translation_length(M, w)
            ok &= (tl > 0) == (not w.is_identity)
            ok &= translation_length(M, w.conjugate_by(u)) == tl
            ok &= translation_length(M, w ** m) == m * tl
            count3 += 1
            if not ok:
                break
    _finish(3, "length laws: exhaustive rank 2 (len<=5) + 10^4 random rank 3", start, 60, ok)


def test_criterion_04_backtracking_inequalities():
    start = time.perf_counter()
    rng = random.Random(104)
    min_slack = None
    ok = True
    for _ in range(1000):
        rank = rng.choice([2, 3])
        M = random_marked_graph(rng, rank)
        m = rng.randint(1, 6)
        w = random_reduced_word(rng, rank, rng.randint(m, m + 14))
        cuts = sorted(rng.sample(range(1, len(w)), m - 1)) if m > 1 else []
        bounds = [0, *cuts, len(w)]
        parts = [Word(rank, w.letters[a:b]) for a, b in zip(bounds, bounds[1:])]
        report = lemma_ll_check(M, parts, C=bbt_upper_bound(M))
        ok &= report.all_hold
        min_slack = report.min_slack if min_slack is None else min(min_slack, report.min_slack)
        if not ok:
            break
    _finish(
        4,
        "back-tracking inequalities on 10^3 decompositions",
        start,
        60,
        ok and min_slack >= 0,
        f"(min slack {min_slack})",
    )


def test_criterion_05_uniform_scaling():
    start = time.perf_counter()
    rng = random.Random(105)
    sample = [random_reduced_word(rng, 2, rng.randint(1, 25)) for _ in range(1000)]
    report = scaling_modulus_experiment(unit_rose(2), Fraction(1, 10), sample, seed=105)
    ok = report.empirical_modulus <= Fraction(1, 10) and report.holds
    _finish(
        5,
        "uniform scaling modulus <= 1/10 on the unit rose, 10^3 words",
        start,
        10,
        ok,
        f"(empirical {report.empirical_modulus})",
    )


def test_criterion_06_pf_quantitative():
    start = time.perf_counter()
    f = fibonacci_rose_map()
    result = pf_eigenpair(transition_matrix(f), tol=1e-13)
    golden = bisect_root(lambda x: x * x - x - 1, 1.0, 2.0, 1e-12)
    M = metric_from_pf(f, tol=1e-12)
    ratio = float(M.lengths[0] / M.lengths[1])
    ok = abs(result.eigenvalue - golden) < GOLDEN_TOL and abs(ratio - result.eigenvalue) < 1e-8
    _finish(
        6,
        "stretch factor and length ratio match the golden ratio",
        start,
        1,
        ok,
        f"(lambda err {abs(result.eigenvalue - golden):.2e})",
    )


def test_criterion_07_pairing_window():
    start = time.perf_counter()
    lam = pf_eigenpair(transition_matrix(fibonacci_rose_map()), tol=1e-13).eigenvalue
    report = pairing_estimate(fibonacci_automorphism(), unit_rose(2), lam, parse_word("a", 2), 10)
    lo, hi = report.window
    diffs = report.differences
    monotone = all(diffs[i + 1] < diffs[i] for i in range(2, len(diffs) - 1))
    ok = lo > 0.1 and hi < 10 and monotone
    _finish(
        7,
        "deflated pairing sequence in (0.1, 10), differences shrinking after n=3",
        start,
        5,
        ok,
        f"(window [{lo:.4f}, {hi:.4f}])",
    )


def test_criterion_08_north_south_convergence():
    start = time.perf_counter()
    phi = fibonacci_automorphism()
    M = unit_rose(2)
    va = eigencurrent_approx(phi, parse_word("a", 2), 12, M, 2)
    vb = eigencurrent_approx(phi, parse_word("b", 2), 12, M, 2)
    gap = va.sup_distance(vb)
    ok = gap < Fraction(1, 1000)
    _finish(8, "seed frequency vectors within 1e-3 by n=12", start, 5, ok, f"(gap {float(gap):.2e})")


def test_criterion_09_splitting_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    checked = 0
    for rank in (2, 3):
        splittings = []
        for size in range(1, rank):
            for sub in combinations(range(1, rank + 1), size):
                splittings.append(("sep", frozenset(sub), separating_splitting(rank, sub)))
        for t in range(1, rank + 1):
            splittings.append(("loop", t, loop_splitting(rank, t)))
        for cw in enumerate_cyclic_words(rank, 6):
            w = cw.as_word()
            for kind, data, s in splittings:
                got = splitting_length(s, w)
                want = bass_serre_translation_length(kind, data, cw.letters)
                if got != want:
                    ok = False
                    break
                checked += 1
            if not ok:
                break
    _finish(
        9,
        "splitting lengths match the coset oracle, all words len<=6, ranks 2-3",
        start,
        60,
        ok,
        f"({checked} comparisons)",
    )


def test_criterion_10_lipschitz_structure():
    start = time.perf_counter()
    rng = random.Random(110)
    subsets = [frozenset(s) for size in (1, 2) for s in combinations((1, 2, 3), size)]
    ok = True

    def midpoint_ok(s1, s2, search_length):
        # the comparison maps j and q carry vertex data unchanged
        witness = fstar_adjacent(s1, s2, search_length)
        if witness is None:
            return False
        eta = counting_current(witness.as_word())
        return intersection_graph_adjacent(s1, eta) and intersection_graph_adjacent(s2, eta)

    for _ in range(100):  # certified refinement edges
        tw = random_automorphism(rng, 3, max_image_len=6)
        small = rng.choice([s for s in subsets if len(s) == 1])
        big = rng.choice([s for s in subsets if len(s) == 2 and small < s])
        s1, s2 = separating_splitting(3, small, tw), separating_splitting(3, big, tw)
        bound = max(cyclic_length(w) for w in tw.images)
        ok &= refinement_adjacent(s1, s2) == "yes"
        ok &= midpoint_ok(s1, s2, max(6, bound))
        if not ok:
            break
    for _ in range(100):  # common-elliptic edges
        if not ok:
            break
        tw = random_automorphism(rng, 3, max_image_len=6)
        sub1, sub2 = rng.sample(subsets, 2)
        s1, s2 = separating_splitting(3, sub1, tw), separating_splitting(3, sub2, tw)
        if vertex_key(s1) == vertex_key(s2):
            continue
        bound = max(cyclic_length(w) for w in tw.images)
        ok &= midpoint_ok(s1, s2, max(6, bound))
    _finish(10, "j preserves 100 certified edges; q reaches distance <= 2 midpoints", start, 30, ok)


def test_criterion_11_cli_determinism():
    start = time.perf_counter()
    runner = CliRunner()

    def run_twice(args):
        a = runner.invoke(cli_main, args, catch_exceptions=False).output
        b = runner.invoke(cli_main, args, catch_exceptions=False).output
        return a == b and a

    ok = bool(
        run_twice(["iwip", "--map", str(FIXTURES / "fibonacci_map.json"), "--seed", "a", "--n", "8"])
        and run_twice(["intersect", str(FIXTURES / "rose2.json"), str(FIXTURES / "current_ab.json")])
        and run_twice(
            [
                "scaling-exp", str(FIXTURES / "rose2.json"),
                "--delta", "1/10", "--samples", "300", "--seed", "42",
            ]
        )
        and run_twice(
            ["current-freq", str(FIXTURES / "current_ab.json"), str(FIXTURES / "rose2.json"), "-k", "2"]
        )
    )
    _finish(11, "repeated CLI runs are byte-identical", start, 30, ok)
