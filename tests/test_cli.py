import json
import pathlib
from fractions import Fraction

import pytest
from click.testing import CliRunner

from outerint.cli import main

from oracles import char_poly_at

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(*args, env=None):
    return CliRunner().invoke(main, [str(a) for a in args], env=env, catch_exceptions=False)


class TestTranslen:
    def test_rose_word(self):
        result = run("translen", FIXTURES / "rose2.json", "ab")
        assert result.exit_code == 0
        assert result.output.strip() == "2"

    def test_identity_word(self):
        result = run("translen", FIXTURES / "rose2.json", "[]")
        assert result.output.strip() == "0"

    def test_conjugates_print_equal_values(self):
        a = run("translen", FIXTURES / "rose2.json", "abA")
        b = run("translen", FIXTURES / "rose2.json", "b")
        assert a.output == b.output

    def test_json_word_form(self):
        result = run("translen", FIXTURES / "rose2.json", "[1,2]")
        assert result.output.strip() == "2"

    def test_malformed_graph_fails(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = run("translen", bad, "a")
        assert result.exit_code != 0
        assert "cannot read JSON" in result.output


class TestIntersect:
    def test_rose_counting_current(self):
        result = run("intersect", FIXTURES / "rose2.json", FIXTURES / "current_ab.json")
        data = json.loads(result.output)
        assert data["value"] == "2"
        assert data["route_a"] == data["route_b"] == "2"

    def test_zero_current(self, tmp_path):
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"rank": 2, "terms": []}))
        result = run("intersect", FIXTURES / "rose2.json", zero)
        assert json.loads(result.output)["value"] == "0"

    def test_scaled_graph_doubles(self):
        base = json.loads(run("intersect", FIXTURES / "rose2.json", FIXTURES / "current_ab.json").output)
        scaled = json.loads(
            run("intersect", FIXTURES / "rose2_lengths_2_3.json", FIXTURES / "current_ab.json").output
        )
        assert base["value"] == "2" and scaled["value"] == "5"


class TestBBT:
    def test_weighted_rose(self):
        assert run("bbt", FIXTURES / "rose2_lengths_2_3.json").output.strip() == "5"


class TestPF:
    def test_fields_and_value(self):
        result = run("pf", "--map", FIXTURES / "fibonacci_map.json", "--tol", "1e-13")
        data = json.loads(result.output)
        assert abs(float(data["lambda"]) - (1 + 5 ** 0.5) / 2) < 1e-9
        assert set(data["eigenvector"]) == {"a", "b"}
        assert set(data["metric"]) == {"a", "b"}


def printed_enclosure(output: str) -> tuple[Fraction, Fraction]:
    """The printed lambda -+ lambda_error of `oi pf` or an `oi iwip` header, exactly."""
    if output.startswith("{"):
        data = json.loads(output)
    else:
        header = next(l for l in output.splitlines() if l.startswith("# lambda="))
        data = dict(field.split("=") for field in header[2:].split())
    lam, err = Fraction(data["lambda"]), Fraction(data["lambda_error"])
    return lam - err, lam + err


class TestPrintedEnclosure:
    """The printed lambda +- lambda_error contains the stretch factor."""

    @pytest.mark.parametrize("command", ["pf", "iwip"])
    def test_fibonacci_contains_golden_ratio(self, command):
        extra = ["--seed", "a", "--n", "2"] if command == "iwip" else []
        result = run(command, "--map", FIXTURES / "fibonacci_map.json", "--tol", "1e-14", *extra)
        lo, hi = printed_enclosure(result.output)
        # x^2 - x - 1 is increasing past 1/2 and vanishes at the golden ratio
        assert 1 < lo and lo * lo - lo - 1 < 0 < hi * hi - hi - 1

    @pytest.mark.parametrize("tol", ["1e-12", "1e-14"])
    def test_supergolden_brackets_a_root(self, tol):
        from outerint.dynamics import graph_map_from_json_obj, transition_matrix

        path = FIXTURES / "supergolden_map.json"
        entries = transition_matrix(graph_map_from_json_obj(json.loads(path.read_text()))).entries
        lo, hi = printed_enclosure(run("pf", "--map", path, "--tol", tol).output)
        assert char_poly_at(entries, lo) < 0 < char_poly_at(entries, hi)


class TestIwip:
    def test_row_zero_is_raw(self):
        result = run(
            "iwip", "--map", FIXTURES / "fibonacci_map.json", "--seed", "a", "--n", "4"
        )
        lines = [l for l in result.output.splitlines() if not l.startswith("#")]
        assert lines[0] == "n,length_estimate,pairing_estimate,freq_delta"
        first = lines[1].split(",")
        assert first == ["0", "1", "1", ""]

    def test_identity_seed_rejected(self):
        result = run("iwip", "--map", FIXTURES / "fibonacci_map.json", "--seed", "[]")
        assert result.exit_code != 0

    def test_iteration_ceiling(self):
        result = run(
            "iwip", "--map", FIXTURES / "fibonacci_map.json", "--seed", "a", "--n", "20"
        )
        assert result.exit_code != 0
        assert "ceiling" in result.output
        deep = run(
            "iwip", "--map", FIXTURES / "fibonacci_map.json",
            "--seed", "a", "--n", "20", "--n-cap", "25",
        )
        assert deep.exit_code == 0

    def test_drift_header_present(self):
        result = run("iwip", "--map", FIXTURES / "fibonacci_map.json", "--seed", "a", "--n", "4")
        assert any(l.startswith("# lambda=") for l in result.output.splitlines())

    def test_cap_breach_marked_per_row(self):
        result = run(
            "iwip", "--map", FIXTURES / "fibonacci_map.json",
            "--seed", "a", "--n", "4", "--cap", "10",
        )
        assert result.exit_code == 0
        rows = [l.split(",") for l in result.output.splitlines() if not l.startswith(("#", "n,"))]
        assert rows[3][2] == "cap_exceeded"
        assert rows[3][1] != "cap_exceeded"


class TestGraphCmd:
    def test_refinement_distance(self):
        result = run(
            "graph",
            "--flavor", "F",
            "--from", FIXTURES / "splitting_a_rank3.json",
            "--to", FIXTURES / "splitting_ab_rank3.json",
            "--radius", "2",
        )
        assert json.loads(result.output)["distance"] == 1

    def test_intersection_graph_distance(self):
        result = run(
            "graph",
            "--flavor", "I0",
            "--from", FIXTURES / "splitting_a_rank3.json",
            "--to", FIXTURES / "current_b_rank3.json",
            "--radius", "2",
        )
        assert json.loads(result.output)["distance"] == 1

    def test_cut_graph_with_moves_file(self):
        result = run(
            "graph",
            "--flavor", "S",
            "--from", FIXTURES / "splitting_a_rank3.json",
            "--to", FIXTURES / "splitting_loop_a_rank3.json",
            "--radius", "3",
            "--moves", FIXTURES / "moves_supergolden.json",
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["distance"] == 1

    def test_loop_vertex_rejected_for_fstar(self):
        result = run(
            "graph",
            "--flavor", "Fstar",
            "--from", FIXTURES / "splitting_a_rank3.json",
            "--to", FIXTURES / "splitting_loop_a_rank3.json",
            "--radius", "2",
        )
        assert result.exit_code != 0


class TestDeterminism:
    def test_iwip_byte_identical(self):
        args = ["iwip", "--map", FIXTURES / "fibonacci_map.json", "--seed", "a", "--n", "8"]
        assert run(*args).output == run(*args).output

    def test_scaling_exp_byte_identical(self):
        args = [
            "scaling-exp", FIXTURES / "rose2.json",
            "--delta", "1/10", "--samples", "200", "--seed", "11",
        ]
        first, second = run(*args).output, run(*args).output
        assert first == second
        assert json.loads(first)["holds"] is True

    def test_current_freq_byte_identical(self):
        args = ["current-freq", FIXTURES / "current_ab.json", FIXTURES / "rose2.json", "--depth", "2"]
        assert run(*args).output == run(*args).output


class TestUserErrors:
    """Bad user input ends in one error line, never a traceback."""

    @staticmethod
    def assert_one_line_error(result, *fragments):
        assert result.exit_code != 0
        assert "Traceback" not in result.output
        errors = [l for l in result.output.splitlines() if l.startswith("Error:")]
        assert len(errors) == 1
        assert result.output.rstrip("\n").endswith(errors[0])
        for fragment in fragments:
            assert fragment in errors[0]

    def test_graph_state_cap(self):
        result = run(
            "graph",
            "--flavor", "S",
            "--from", FIXTURES / "splitting_a_rank3.json",
            "--to", FIXTURES / "splitting_loop_a_rank3.json",
            "--radius", "2",
            "--state-cap", "2",
        )
        self.assert_one_line_error(result, "state cap exceeded")

    def test_graph_key_collision(self):
        result = run(
            "graph",
            "--flavor", "F",
            "--from", FIXTURES / "splitting_a_rank3.json",
            "--to", FIXTURES / "splitting_ab_rank3.json",
            "--radius", "1",
            "--key-depth", "1",
        )
        self.assert_one_line_error(result, "collide at key depth 1")

    def test_iwip_zero_cap(self):
        result = run(
            "iwip", "--map", FIXTURES / "fibonacci_map.json",
            "--seed", "a", "--n", "3", "--cap", "0",
        )
        self.assert_one_line_error(result, "--cap")

    def test_current_freq_zero_depth(self):
        result = run(
            "current-freq", FIXTURES / "current_ab.json", FIXTURES / "rose2.json", "-k", "0"
        )
        self.assert_one_line_error(result, "--depth")

    @pytest.mark.parametrize("option", ["--samples", "--max-len"])
    def test_scaling_exp_zero_count(self, option):
        result = run("scaling-exp", FIXTURES / "rose2.json", option, "0")
        self.assert_one_line_error(result, option)

    def test_pf_zero_tol(self):
        result = run("pf", "--map", FIXTURES / "fibonacci_map.json", "--tol", "0")
        assert result.exit_code == 2
        self.assert_one_line_error(result, "--tol")

    def test_iwip_zero_tol(self):
        result = run(
            "iwip", "--map", FIXTURES / "fibonacci_map.json", "--seed", "a", "--tol", "0"
        )
        assert result.exit_code == 2
        self.assert_one_line_error(result, "--tol")

    def test_iwip_negative_n(self):
        result = run("iwip", "--map", FIXTURES / "fibonacci_map.json", "--seed", "a", "--n", "-1")
        assert result.exit_code == 2
        self.assert_one_line_error(result, "--n")

    @staticmethod
    def identity_map(tmp_path):
        from outerint.dynamics import GraphMap, graph_map_to_json_obj
        from outerint.marked_graph import unit_rose
        from outerint.words import Automorphism

        path = tmp_path / "identity_map.json"
        f = GraphMap.on_rose(unit_rose(2), Automorphism.identity(2))
        path.write_text(json.dumps(graph_map_to_json_obj(f)))
        return path

    def test_pf_non_primitive(self, tmp_path):
        result = run("pf", "--map", self.identity_map(tmp_path))
        assert result.exit_code == 1
        self.assert_one_line_error(result, "not primitive")

    def test_iwip_non_primitive(self, tmp_path):
        result = run("iwip", "--map", self.identity_map(tmp_path), "--seed", "a")
        assert result.exit_code == 1
        self.assert_one_line_error(result, "not primitive")

    def test_intersect_rank_mismatch(self):
        result = run("intersect", FIXTURES / "rose2.json", FIXTURES / "current_b_rank3.json")
        assert result.exit_code == 1
        self.assert_one_line_error(result, "rank mismatch")

    @pytest.mark.parametrize(
        "option, value",
        [("--key-depth", "-1"), ("--key-depth", "0"), ("--search-length", "0"),
         ("--radius", "-1"), ("--state-cap", "0")],
    )
    def test_graph_option_out_of_range(self, option, value):
        # --key-depth -1 used to merge the two splittings and print distance 0
        result = run(
            "graph",
            "--flavor", "F",
            "--from", FIXTURES / "splitting_a_rank3.json",
            "--to", FIXTURES / "splitting_ab_rank3.json",
            "--radius", "2",
            option, value,
        )
        assert result.exit_code == 2
        self.assert_one_line_error(result, option)

    def test_current_freq_rank_mismatch(self):
        result = run("current-freq", FIXTURES / "current_b_rank3.json", FIXTURES / "rose2.json")
        assert result.exit_code == 1
        self.assert_one_line_error(result, "rank mismatch")


def test_cli_import_leaves_numpy_unloaded():
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = "import sys, outerint.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


class TestFixturesLoad:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_fixture_parses(self, name):
        path = FIXTURES / name
        data = json.loads(path.read_text())
        if "edge_map" in data:
            from outerint.dynamics import graph_map_from_json_obj

            graph_map_from_json_obj(data)
        elif "edges" in data:
            from outerint.marked_graph import marked_graph_from_json_obj

            marked_graph_from_json_obj(data)
        elif "terms" in data:
            from outerint.currents import RationalCurrent

            RationalCurrent.from_json_obj(data)
        elif "kind" in data:
            from outerint.splittings import FreeSplitting

            FreeSplitting.from_json_obj(data)
        elif isinstance(data, list):
            from outerint.words import Automorphism

            for obj in data:
                Automorphism.from_json_obj(obj)
        else:
            pytest.fail(f"unrecognised fixture {name}")
