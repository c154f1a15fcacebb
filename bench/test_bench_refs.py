"""Self-tests of the benchmark's checks: each passes on the program's real
outputs and fails once a bug is planted, either in the program (patched
for the duration of one test) or in the output handed to the check.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

import refs
import workloads
from refs import CheckFailure

ROOT = Path(__file__).resolve().parent.parent


def run_checked(ops) -> None:
    for op in ops:
        op.check(op.call())


def some_fail(ops) -> bool:
    failures = 0
    for op in ops:
        try:
            op.check(op.call())
        except CheckFailure:
            failures += 1
    return failures > 0


# -- references ----------------------------------------------------------------


def test_dominant_root_brackets_known_roots():
    lo, hi = refs.dominant_root([[1, 1], [1, 0]])
    golden = (1 + 5 ** 0.5) / 2
    assert lo <= Fraction(golden) + Fraction(1, 10 ** 15) and Fraction(golden) - Fraction(1, 10 ** 15) <= hi
    assert hi - lo < Fraction(1, 10 ** 20)
    assert refs.char_poly([[1, 0, 1], [1, 0, 0], [0, 1, 0]]) == [-1, 0, -1, 1]  # x^3 - x^2 - 1


def test_culler_morgan_on_unit_rose_is_cyclic_length():
    loops, lengths = ((1,), (2,)), (Fraction(1), Fraction(1))
    assert refs.chart_length(loops, lengths, (1, 2, -1)) == 1
    assert refs.chart_length(loops, lengths, (1, 2, 1, 2)) == 4


def test_window_frequencies_sum_to_one():
    counts, n = refs.window_frequencies((1, 2, 1, -2, -1, 2), 3)
    assert sum(counts.values()) == n


def test_syllable_count():
    sep = ("sep", frozenset({1}), None, None)
    assert refs.splitting_length(sep, (1, 2)) == 2
    assert refs.splitting_length(sep, (2, 3, -2)) == 0
    assert refs.splitting_length(("loop", None, 1, None), (1, 2, 1, 3)) == 2


# -- pairing -------------------------------------------------------------------


def pairing_ops():
    return workloads.Pairing(ROOT, 0).build(0, limit=100)


def test_pairing_check_passes_and_catches_wrong_value():
    ops = pairing_ops()
    run_checked(ops)
    reports = ops[0].call()
    report = reports[0]
    bad = dataclasses.replace(report, value=report.value + 1, via_lengths=report.via_lengths + 1,
                              via_crossings=report.via_crossings + 1)
    with pytest.raises(CheckFailure):
        ops[0].check([bad] + reports[1:])
    with pytest.raises(CheckFailure):  # routes disagree
        ops[0].check([dataclasses.replace(report, via_crossings=report.via_crossings + 1)] + reports[1:])


def test_pairing_check_catches_one_layer_cyclic_reduction(monkeypatch):
    """Both routes share cyclic_reduce_path, so a bug there keeps them
    equal; the Culler-Morgan reference does not use it."""
    from outerint import marked_graph

    def one_layer(path):
        p = list(marked_graph.reduce_path(path))
        if len(p) >= 2 and p[0] == -p[-1]:
            p = p[1:-1]
        return tuple(p)

    ops = pairing_ops()
    monkeypatch.setattr(marked_graph, "cyclic_reduce_path", one_layer)
    assert some_fail(ops)


# -- iwip ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def iwip_ops():
    wl = workloads.Iwip(ROOT, 0)
    ops = wl.build(0)
    return ops[wl.vectors_per_map], ops[0]  # fibonacci table and vector


def test_iwip_checks_pass(iwip_ops):
    run_checked(iwip_ops)


def test_iwip_table_check_catches_bad_enclosure_and_rows(iwip_ops):
    table, _ = iwip_ops
    pf, rows = table.call()
    with pytest.raises(CheckFailure):
        table.check((dataclasses.replace(pf, eigenvalue=pf.eigenvalue + 1e-9), rows))
    for field in ("length_estimate", "pairing_estimate"):
        bad = list(rows)
        bad[2] = dataclasses.replace(bad[2], **{field: getattr(bad[2], field) * (1 + 1e-10)})
        with pytest.raises(CheckFailure):
            table.check((pf, bad))
    bad = list(rows)
    bad[2] = dataclasses.replace(bad[2], freq_delta=bad[2].freq_delta + Fraction(1, 10 ** 9))
    with pytest.raises(CheckFailure):
        table.check((pf, bad))


def test_iwip_vector_check_catches_missed_wraparound(iwip_ops, monkeypatch):
    from outerint import currents

    def no_wrap(period, pattern):
        p, k = len(period), len(pattern)
        return sum(1 for i in range(p - k + 1) if tuple(period[i:i + k]) == tuple(pattern))

    _, vector = iwip_ops
    monkeypatch.setattr(currents, "occurrences_in_cycle", no_wrap)
    with pytest.raises(CheckFailure):
        vector.check(vector.call())


# -- splitting-bfs ------------------------------------------------------------------


def test_splitting_checks_reject_wrong_distances():
    check_range, exact = workloads.SplittingBfs.check_range, workloads.SplittingBfs.check_exact_one
    check_range("F", 1, 2, 1)
    check_range("Fstar", None, 2, None)
    exact("Z", True, 2, 1)
    exact("I0", False, 3, None)
    for args in [("F", 1, 2, 0), ("S", 0, 2, 1), ("Fstar", None, 2, 3), ("Fstar", None, 2, -1)]:
        with pytest.raises(CheckFailure):
            check_range(*args)
    for args in [("Z", True, 2, 2), ("Z", False, 2, 1), ("I0", True, 3, None), ("I0", False, 3, 4)]:
        with pytest.raises(CheckFailure):
            exact(*args)


def test_splitting_check_catches_wrong_lengths(monkeypatch):
    """An off-by-one splitting length turns every elliptic class
    hyperbolic, so the Z and I0 pairs built elliptic lose distance 1."""
    from outerint import splittings

    wl = workloads.SplittingBfs(ROOT, 0)
    plan = [p[2:] for p in wl.plan]
    ops = [op for op, (shape, _) in zip(wl.build(0), plan) if shape == "elliptic"]
    run_checked(ops)
    original = splittings.splitting_length
    monkeypatch.setattr(splittings, "splitting_length", lambda s, g: original(s, g) + 1)
    with pytest.raises(CheckFailure):
        run_checked(ops)


# -- cli ------------------------------------------------------------------------------


@pytest.fixture()
def cli():
    wl = workloads.Cli(ROOT, 0, in_process=True)
    yield wl
    wl.close()


def plant(text: str) -> str:
    """The same output with its computed value moved."""
    if text.startswith("{"):
        obj = json.loads(text)
        obj["value"] = obj["route_a"] = obj["route_b"] = str(Fraction(obj["value"]) + 1)
        return json.dumps(obj)
    if text.startswith("#"):
        lines = text.splitlines()
        path, value = lines[-1].split(",")
        lines[-1] = f"{path},{Fraction(value) + Fraction(1, 1000)}"
        return "\n".join(lines) + "\n"
    return f"{Fraction(text) + 1}\n"


def test_cli_light_commands_pass_and_catch_planted_output(cli):
    ops = cli.build(0)
    light = range(8)  # translen, bbt, intersect and current-freq, fixture and seeded inputs
    for i in light:
        out = ops[i].call()
        ops[i].check(out)
        with pytest.raises(CheckFailure):
            cli.commands[i][1](plant(out.decode()))


def test_cli_repeat_must_be_byte_identical(cli):
    op = cli.build(0)[0]
    op.check(b"2\n")
    with pytest.raises(CheckFailure):
        op.check(b"2 \n")


def test_cli_pf_and_iwip_checks_catch_wrong_lambda(cli):
    golden = refs.dominant_root([[1, 1], [1, 0]])
    good = '{"lambda": "1.61803398875", "lambda_error": "1.2e-12"}'
    workloads.Cli.check_pf(golden, good)
    with pytest.raises(CheckFailure):
        workloads.Cli.check_pf(golden, good.replace("1.61803398875", "1.61803398876"))
    ops = cli.build(0)
    iwip_out = ops[10].call().decode()
    ops[10].check(iwip_out.encode())
    with pytest.raises(CheckFailure):
        workloads.Cli.check_iwip(golden, iwip_out.replace("lambda=1.61803398875", "lambda=1.6180339887"))
    rows = iwip_out.splitlines()
    rows[-1] = rows[-1][:-1] + ("1" if rows[-1][-1] != "1" else "2")
    with pytest.raises(CheckFailure):
        workloads.Cli.check_iwip(golden, "\n".join(rows) + "\n")
