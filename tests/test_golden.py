"""Golden stdout of ``oi`` on the fixtures.

Each case runs one command in-process, with the working directory at the
repository root (the relative paths enter the printed ``config_hash``),
and compares the exit code and the stdout bytes with
``tests/golden/<name>.out``.

Regenerate the files after an intended output change with
``PYTHONPATH=src python tests/test_golden.py`` and list every changed line
in CHANGES.md.
"""

import os
import pathlib
import sys

import pytest
from click.testing import CliRunner

from outerint.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# name -> (arguments, exit code)
CASES = {
    "translen": (["translen", "fixtures/rose2_lengths_2_3.json", "abAbbaB"], 0),
    "bbt": (["bbt", "fixtures/rose2_lengths_2_3.json"], 0),
    "intersect_rose2": (["intersect", "fixtures/rose2.json", "fixtures/current_ab.json"], 0),
    "intersect_rose2_lengths": (
        ["intersect", "fixtures/rose2_lengths_2_3.json", "fixtures/current_ab.json"], 0),
    "intersect_rose3": (["intersect", "fixtures/rose3.json", "fixtures/current_b_rank3.json"], 0),
    "current_freq_k3": (
        ["current-freq", "fixtures/current_ab.json", "fixtures/rose2_lengths_2_3.json", "-k", "3"], 0),
    "current_freq_k4": (
        ["current-freq", "fixtures/current_b_rank3.json", "fixtures/rose3.json", "-k", "4"], 0),
    "scaling_exp": (["scaling-exp", "fixtures/rose2_lengths_2_3.json"], 0),
    "pf_fibonacci": (["pf", "--map", "fixtures/fibonacci_map.json"], 0),
    "iwip_fibonacci": (["iwip", "--map", "fixtures/fibonacci_map.json", "--seed", "a"], 0),
    "iwip_fibonacci_inverse": (
        ["iwip", "--map", "fixtures/fibonacci_inverse_map.json", "--seed", "a"], 0),
    "iwip_supergolden": (["iwip", "--map", "fixtures/supergolden_map.json", "--seed", "a"], 0),
    # a -> ab, b -> bab fixes abAB: iterates stay short while letter images grow
    "iwip_cat_commutator": (
        ["iwip", "--map", "fixtures/cat_map.json", "--seed", "abAB", "--n", "15"], 0),
    "graph_F": (
        ["graph", "--flavor", "F", "--from", "fixtures/splitting_a_rank3.json",
         "--to", "fixtures/splitting_ab_rank3.json", "--radius", "2"], 0),
    "graph_Z": (
        ["graph", "--flavor", "Z", "--from", "fixtures/splitting_a_rank3.json",
         "--to", "fixtures/splitting_ab_rank3.json", "--radius", "2"], 0),
    "graph_Fstar": (
        ["graph", "--flavor", "Fstar", "--from", "fixtures/splitting_a_rank3.json",
         "--to", "fixtures/splitting_ab_rank3.json", "--radius", "2"], 0),
    "graph_I0": (
        ["graph", "--flavor", "I0", "--from", "fixtures/splitting_a_rank3.json",
         "--to", "fixtures/current_b_rank3.json", "--radius", "2"], 0),
    "graph_S_moves": (
        ["graph", "--flavor", "S", "--from", "fixtures/splitting_a_rank3.json",
         "--to", "fixtures/splitting_loop_a_rank3.json", "--radius", "2",
         "--moves", "fixtures/moves_supergolden.json"], 0),
}


def invoke(args):
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return CliRunner().invoke(main, args, catch_exceptions=False)
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    args, code = CASES[name]
    result = invoke(args)
    assert result.exit_code == code
    assert result.stdout_bytes == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (args, code) in sorted(CASES.items()):
        result = invoke(args)
        if result.exit_code != code:
            sys.exit(f"{name}: exit code {result.exit_code}, expected {code}")
        (GOLDEN / f"{name}.out").write_bytes(result.stdout_bytes)
