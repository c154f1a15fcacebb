import contextlib
import io
import json
import os
import pathlib
import re
from fractions import Fraction

import pytest

from outerint.cli import main

from _cli import run
from oracles import char_poly_at

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def child_env(src: pathlib.Path) -> dict:
    """The environment of a child interpreter that imports ``src``: its
    ``PYTHONPATH``, and ``PYTHONDONTWRITEBYTECODE`` when the tests run
    under it, so that the child writes no bytecode into ``src`` either."""
    keep = {k: v for k, v in os.environ.items() if k == "PYTHONDONTWRITEBYTECODE"}
    return {**keep, "PYTHONPATH": str(src)}


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

    @pytest.mark.parametrize(
        "word, message",
        [("abz", "invalid letter 26 for rank 2"), ("[1, 2", "Expecting ',' delimiter"),
         # used to end in a RecursionError traceback
         ("[" * 5000 + "]" * 5000, "maximum recursion depth exceeded"),
         # parsed, but its one letter is a list: once echoed in full twice
         ("[" * 900 + "]" * 900, "invalid letter [[[")],
        ids=["letter", "json", "nested-json", "nested-letter"],
    )
    def test_malformed_word_fails(self, word, message):
        result = run("translen", FIXTURES / "rose2.json", word)
        assert result.exit_code == 1
        TestUserErrors.assert_one_line_error(result, "bad word", message)
        # the echoed word and letter are cut, so the line stays short
        assert len(result.output.rstrip("\n").splitlines()[-1]) <= 200


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

    def test_orbit_that_does_not_grow_deflates_to_zero(self):
        # a -> ab, b -> bab fixes abAB, so no iterate trips the letter cap, but lam^738 overflows a float
        result = run(
            "iwip", "--map", FIXTURES / "cat_map.json",
            "--seed", "abAB", "--n", "400", "--n-cap", "400",
        )
        assert result.exit_code == 0
        rows = [l.split(",") for l in result.output.splitlines() if not l.startswith(("#", "n,"))]
        assert len(rows) == 401
        assert rows[-1][2] == "0" and float(rows[-1][1]) > 0

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

    def test_class_vertex(self, tmp_path):
        cls = tmp_path / "class_b.json"
        cls.write_text(json.dumps({"class": [2], "rank": 3}))
        result = run(
            "graph",
            "--flavor", "Z",
            "--from", FIXTURES / "splitting_a_rank3.json",
            "--to", cls,
            "--radius", "2",
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["distance"] == 1

    def test_chart_vertex(self):
        # a chart acts freely, so no current is adjacent to it
        result = run(
            "graph",
            "--flavor", "I0",
            "--from", FIXTURES / "rose3.json",
            "--to", FIXTURES / "current_b_rank3.json",
            "--radius", "2",
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["distance"] is None

    def test_loop_vertex_rejected_for_fstar(self):
        result = run(
            "graph",
            "--flavor", "Fstar",
            "--from", FIXTURES / "splitting_a_rank3.json",
            "--to", FIXTURES / "splitting_loop_a_rank3.json",
            "--radius", "2",
        )
        assert result.exit_code != 0


class TestClassInput:
    """A conjugacy-class vertex and a current root follow one rule: the
    word names its class, freely and then cyclically reduced."""

    # word -> the class it names; a is the stable letter of the loop
    # splitting, so only b is elliptic there
    WORDS = [([1, 2, -2], [1]), ([1, 2, -1], [2])]

    @staticmethod
    def output(tmp_path, command, obj) -> dict:
        path = tmp_path / "vertex.json"
        path.write_text(json.dumps(obj))
        if command == "intersect":
            result = run("intersect", FIXTURES / "rose2_lengths_2_3.json", path)
        else:
            result = run("graph", "--flavor", command, "--from", FIXTURES / "splitting_loop_a_rank3.json",
                         "--to", path, "--radius", "2")
        assert result.exit_code == 0, result.output
        data = json.loads(result.output)
        del data["meta"]  # its hash covers the file path only
        return data

    @pytest.mark.parametrize("word, named", WORDS, ids=["free-cancellation", "cyclic-cancellation"])
    @pytest.mark.parametrize("command", ["Z", "I0", "intersect"])
    def test_word_names_its_class(self, tmp_path, command, word, named):
        def vertex(letters):
            if command == "Z":
                return {"rank": 3, "class": letters}
            return {"rank": 3 if command == "I0" else 2, "terms": [{"root": letters, "weight": "1"}]}

        got = self.output(tmp_path, command, vertex(word))
        assert got == self.output(tmp_path, command, vertex(named))
        if command == "intersect":  # a has length 2, b length 3
            assert got["value"] == {1: "2", 2: "3"}[named[0]]
        else:
            assert got["distance"] == {1: None, 2: 1}[named[0]]

    @pytest.mark.parametrize("command, obj, message", [
        ("Z", {"rank": 3, "class": [1, -1]},
         "cyclic word must be nonempty (identity has no cyclic word)"),
        ("I0", {"rank": 3, "terms": [{"root": [2, 1, -1, -2], "weight": "1"}]},
         "current term root is the identity"),
    ])
    def test_identity_names_no_class(self, tmp_path, command, obj, message):
        path = tmp_path / "vertex.json"
        path.write_text(json.dumps(obj))
        result = run("graph", "--flavor", command, "--from", FIXTURES / "splitting_a_rank3.json",
                     "--to", path, "--radius", "2")
        assert result.exit_code == 1
        TestUserErrors.assert_one_line_error(result, f"bad vertex file {path}: {message}")


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


class TestConfigHash:
    """``config_hash`` covers every resolved option: changing one changes
    the hash, an unchanged rerun keeps it."""

    BASE = {
        "iwip": ["iwip", "--map", FIXTURES / "fibonacci_map.json", "--seed", "a", "--n", "3"],
        "scaling-exp": ["scaling-exp", FIXTURES / "rose2.json", "--samples", "20"],
        "pf": ["pf", "--map", FIXTURES / "fibonacci_map.json"],
        "current-freq": ["current-freq", FIXTURES / "current_ab.json", FIXTURES / "rose2.json"],
        "graph": [
            "graph", "--flavor", "S",
            "--from", FIXTURES / "splitting_a_rank3.json",
            "--to", FIXTURES / "splitting_loop_a_rank3.json",
            "--radius", "2",
        ],
    }

    @staticmethod
    def config_hash(args) -> str:
        result = run(*args)
        assert result.exit_code == 0, result.output
        return re.search(r"config_hash\W+([0-9a-f]{16})", result.output).group(1)

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("iwip", "--n", "4"),
            ("iwip", "--depth", "3"),
            ("iwip", "--tol", "1e-10"),
            ("iwip", "--cap", "1000"),
            ("scaling-exp", "--delta", "1/5"),
            ("scaling-exp", "--samples", "21"),
            ("scaling-exp", "--max-len", "5"),
            ("scaling-exp", "--seed", "1"),
            ("pf", "--tol", "1e-10"),
            ("current-freq", "-k", "2"),
            ("graph", "--radius", "3"),
            ("graph", "--search-length", "5"),
            ("graph", "--moves", FIXTURES / "moves_supergolden.json"),
        ],
    )
    def test_each_option_moves_the_hash(self, command, option, value):
        base = self.BASE[command]
        assert self.config_hash(base) == self.config_hash(base)
        assert self.config_hash([*base, option, value]) != self.config_hash(base)


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

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    @pytest.mark.parametrize("command", ["pf", "iwip"])
    def test_non_finite_tol(self, command, tol):
        seed = ("--seed", "a") if command == "iwip" else ()
        result = run(command, "--map", FIXTURES / "fibonacci_map.json", *seed, "--tol", tol)
        assert result.exit_code == 1
        self.assert_one_line_error(result, "tol must be positive and finite")

    @pytest.mark.parametrize("option", ["--n", "--n-cap"])
    def test_iwip_negative_count(self, option):
        # --n-cap -1 used to reach the ceiling check: "n=0 exceeds the iteration ceiling -1"
        result = run("iwip", "--map", FIXTURES / "fibonacci_map.json", "--seed", "a", option, "-1")
        assert result.exit_code == 2
        self.assert_one_line_error(result, option)

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
        [("--search-length", "0"), ("--radius", "-1"), ("--state-cap", "0")],
    )
    def test_graph_option_out_of_range(self, option, value):
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

    @pytest.mark.parametrize("radius", ["0", "1", "2"])
    @pytest.mark.parametrize("flavor, to", [("F", "splitting_ab_rank3.json"), ("I0", "current_b_rank3.json"),
                                            ("I0", "rose3.json")])
    def test_graph_moves_of_another_rank(self, tmp_path, flavor, to, radius):
        moves = tmp_path / "moves_rank2.json"
        moves.write_text(json.dumps([{"rank": 2, "images": [[1, 2], [2]], "inverse_images": [[1, -2], [2]]}]))
        start = FIXTURES / ("rose3.json" if to == "rose3.json" else "splitting_a_rank3.json")
        result = run("graph", "--flavor", flavor, "--from", start, "--to", FIXTURES / to,
                     "--radius", radius, "--moves", moves)
        assert result.exit_code == 1
        self.assert_one_line_error(result, "rank mismatch: move 1 has rank 2, the endpoints rank 3")

    def test_current_freq_rank_mismatch(self):
        result = run("current-freq", FIXTURES / "current_b_rank3.json", FIXTURES / "rose2.json")
        assert result.exit_code == 1
        self.assert_one_line_error(result, "rank mismatch")

    @staticmethod
    def write_malformed(directory):
        """Well-formed JSON of a shape the parsers cannot read."""
        from outerint.marked_graph import marked_graph_to_json_obj, rose, subdivide_edge
        chart = json.loads((FIXTURES / "rose2.json").read_text())
        infinite_length = json.loads((FIXTURES / "rose2.json").read_text())
        infinite_length["edges"][0]["length"] = "1/0"
        infinite_weight = json.loads((FIXTURES / "current_ab.json").read_text())
        infinite_weight["terms"][0]["weight"] = "1/0"
        float_rank_map = json.loads((FIXTURES / "fibonacci_map.json").read_text())
        float_rank_map["automorphism"]["rank"] = 2.7
        unknown_edge_map = json.loads((FIXTURES / "fibonacci_map.json").read_text())
        unknown_edge_map["edge_map"]["zz"] = ["b"]
        contradicting_map = json.loads((FIXTURES / "fibonacci_map.json").read_text())
        contradicting_map["edge_map"]["A"] = ["A"]
        unknown_image_map = json.loads((FIXTURES / "fibonacci_map.json").read_text())
        unknown_image_map["edge_map"]["a"] = ["a", "zz"]
        unknown_loop = json.loads((FIXTURES / "rose2.json").read_text())
        unknown_loop["marking"]["generator_loops"][0] = ["zz"]
        unknown_tree = json.loads((FIXTURES / "rose2.json").read_text())
        unknown_tree["marking"]["spanning_tree"] = ["zz"]
        unknown_word_key = json.loads((FIXTURES / "rose2.json").read_text())
        unknown_word_key["marking"]["edge_words"]["zz"] = [1]
        identity3 = {"rank": 3, "images": [[1], [2], [3]], "inverse_images": [[1], [2], [3]]}
        outside_vertex_map = json.loads((FIXTURES / "fibonacci_map.json").read_text())
        outside_vertex_map["vertex_map"] = {"v": "w"}
        rank3_automorphism_map = json.loads((FIXTURES / "fibonacci_map.json").read_text())
        rank3_automorphism_map["automorphism"] = identity3

        def swapped_map(edge_map):
            """A map of the rose with petal a subdivided (vertices v, w1;
            edges a, b, a2) that swaps the two vertices."""
            return {"graph": marked_graph_to_json_obj(subdivide_edge(rose(2, [1, 1]), 1)),
                    "vertex_map": {"v": "w1", "w1": "v"}, "edge_map": edge_map,
                    "automorphism": {"rank": 2, "images": [[1], [2]], "inverse_images": [[1], [2]]}}

        def rose2(edit):
            """rose2.json after ``edit`` changed it in place."""
            obj = json.loads((FIXTURES / "rose2.json").read_text())
            edit(obj)
            return obj

        charts = {  # edges a, A, b, B on the vertex v
            "duplicate_edge": lambda c: c["edges"].append(c["edges"][0]),
            "no_inverse_record": lambda c: c["edges"].pop(1),
            "inconsistent_pair": lambda c: c["edges"][1].update(to="w"),
            "differing_lengths": lambda c: c["edges"][1].update(length="2"),
            "contradicting_words": lambda c: c["marking"]["edge_words"].update(A=[1]),
            "uncovered_edge": lambda c: c["marking"]["edge_words"].pop("b"),
            "duplicate_vertex": lambda c: c["vertices"].append("v"),
            "no_edges": lambda c: c.update(edges=[]),
            "base_outside": lambda c: c["marking"].update(base="w"),
            "empty_loop": lambda c: c["marking"]["generator_loops"][0].clear(),
            "zero_length": lambda c: [edge.update(length="0") for edge in c["edges"][:2]],
            "self_inverse": lambda c: (c["edges"].pop(1), c["edges"][0].update(inverse="a")),
            "unknown_endpoint": lambda c: (c["edges"][0].update(to="w"), c["edges"][1].update({"from": "w"})),
            "loop_in_tree": lambda c: c["marking"].update(spanning_tree=["a"]),
        }
        files = {f"{name}.json": rose2(edit) for name, edit in charts.items()}
        files |= {
            "list.json": [1, 2],
            "number.json": 5,
            "kind_list.json": ["kind"],
            "subset.json": {"kind": "sep", "rank": 3, "subset": 5},
            "chart.json": chart,
            "length.json": infinite_length,
            "weight.json": infinite_weight,
            "float_rank.json": {"rank": 2.9, "terms": [{"root": [1], "weight": 1}]},
            "float_weight.json": {"rank": 2, "terms": [{"root": [1], "weight": 0.1}]},
            "float_loop.json": {"kind": "loop", "rank": 3.5, "stable": 1.9, "twist": None},
            "float_stable.json": {"kind": "loop", "rank": 3, "stable": 1.9, "twist": None},
            "float_subset.json": {"kind": "sep", "rank": 3, "subset": [1.0], "twist": None},
            "float_rank_map.json": float_rank_map,
            "unknown_edge_map.json": unknown_edge_map,
            "contradicting_map.json": contradicting_map,
            "unknown_image_map.json": unknown_image_map,
            "unknown_loop.json": unknown_loop,
            "unknown_tree.json": unknown_tree,
            "unknown_word_key.json": unknown_word_key,
            "bool_letter.json": {"rank": 3, "class": [1, True]},
            "twist_rank.json": {"kind": "sep", "rank": 5, "subset": [1], "twist": identity3},
            "twist_float_rank.json": {"kind": "sep", "rank": 5.0, "subset": [1], "twist": identity3},
            "bogus_kind.json": {"kind": "bogus", "rank": 3, "stable": 1},
            "loop_no_stable.json": {"kind": "loop", "rank": 3},
            "sep_no_subset.json": {"kind": "sep", "rank": 3},
            "twist_no_inverse.json": {"kind": "sep", "rank": 3, "subset": [1],
                                      "twist": {"rank": 3, "images": [[1], [2], [3]]}},
            "no_kind.json": {"rank": 3, "subset": [1]},
            "outside_vertex_map.json": outside_vertex_map,
            "rank3_automorphism_map.json": rank3_automorphism_map,
            "swapped_endpoints_map.json": swapped_map({"a": ["a"], "b": ["b"], "a2": ["a2"]}),
            "swapped_base_map.json": swapped_map({"a": ["a2"], "b": ["a2", "b", "a"], "a2": ["a"]}),
            "full_subset.json": {"kind": "sep", "rank": 3, "subset": [1, 2, 3], "twist": None},
            "empty_subset.json": {"kind": "sep", "rank": 3, "subset": [], "twist": None},
            "stable_4.json": {"kind": "loop", "rank": 3, "stable": 4, "twist": None},
            "loop_with_subset.json": {"kind": "loop", "rank": 3, "subset": [1], "stable": 1, "twist": None},
            "sep_with_stable.json": {"kind": "sep", "rank": 3, "subset": [1], "stable": 1, "twist": None},
            "null_subset.json": {"kind": "sep", "rank": 3, "subset": None, "twist": None},
            "zero_current.json": {"rank": 3, "terms": []},
        }
        for name, obj in files.items():
            (directory / name).write_text(json.dumps(obj))
        (directory / "rank.json").write_text('{"rank": 1e400, "terms": []}')
        (directory / "deep.json").write_text("[" * 3000 + "]" * 3000)
        (directory / "deep_terms.json").write_text('{"rank": 2, "terms": ' + "[" * 3000 + "]" * 3000 + "}")
        # deep enough to print a long value, shallow enough to parse
        nested = "[" * 900 + "]" * 900
        (directory / "deep_rank.json").write_text('{"kind": "sep", "rank": ' + nested + ', "subset": [1]}')
        deep_length = json.loads((FIXTURES / "rose2.json").read_text())
        deep_length["edges"][0]["length"] = "deep"
        (directory / "deep_length.json").write_text(json.dumps(deep_length).replace('"deep"', nested))

    @pytest.mark.parametrize(
        "args, message",
        [
            (["translen", "list.json", "a"], "bad graph file list.json"),
            (["pf", "--map", "list.json"], "bad graph map file list.json"),
            (["intersect", FIXTURES / "rose2.json", "list.json"], "bad current file list.json"),
            (["graph", "--from", "number.json"], "bad vertex file number.json"),
            (["graph", "--from", "kind_list.json"], "bad vertex file kind_list.json"),
            (["graph", "--from", "subset.json"], "bad vertex file subset.json: subset must be a list, got 5"),
            (["graph", "--moves", "chart.json"], "bad moves file chart.json"),
            (["translen", "length.json", "a"], "bad graph file length.json"),
            (["intersect", FIXTURES / "rose2.json", "weight.json"], "bad current file weight.json"),
            (["intersect", FIXTURES / "rose2.json", "rank.json"], "bad current file rank.json"),
            (["scaling-exp", FIXTURES / "rose2.json", "--delta", "1/0"], "bad delta '1/0'"),
            (["intersect", FIXTURES / "rose2.json", "float_rank.json"],
             "bad current file float_rank.json"),
            (["intersect", FIXTURES / "rose2.json", "float_weight.json"],
             "bad current file float_weight.json"),
            (["graph", "--from", "float_loop.json"], "bad vertex file float_loop.json"),
            (["graph", "--from", "float_stable.json"], "bad vertex file float_stable.json"),
            (["graph", "--from", "float_subset.json"], "bad vertex file float_subset.json"),
            (["pf", "--map", "float_rank_map.json"], "bad graph map file float_rank_map.json"),
            (["pf", "--map", "unknown_edge_map.json"],
             "bad graph map file unknown_edge_map.json: edge_map key 'zz' names no edge"),
            (["pf", "--map", "contradicting_map.json"],
             "bad graph map file contradicting_map.json: edge_map image of 'A' contradicts"),
            (["graph", "--from", "bool_letter.json"], "bad vertex file bool_letter.json"),
            (["graph", "--from", "twist_rank.json"], "bad vertex file twist_rank.json"),
            (["graph", "--from", "twist_float_rank.json"],
             "bad vertex file twist_float_rank.json"),
            (["pf", "--map", "unknown_image_map.json"],
             "bad graph map file unknown_image_map.json: edge_map image of 'a': entry 'zz' names no edge"),
            (["translen", "unknown_loop.json", "a"],
             "bad graph file unknown_loop.json: generator loop entry 'zz' names no edge"),
            (["translen", "unknown_tree.json", "a"],
             "bad graph file unknown_tree.json: spanning_tree entry 'zz' names no edge"),
            (["translen", "unknown_word_key.json", "a"],
             "bad graph file unknown_word_key.json: edge_words key 'zz' names no edge"),
            (["graph", "--from", "bogus_kind.json"],
             "bad vertex file bogus_kind.json: unknown splitting kind 'bogus'"),
            (["graph", "--from", "loop_no_stable.json"],
             "bad vertex file loop_no_stable.json: missing key 'stable'"),
            (["graph", "--from", "sep_no_subset.json"],
             "bad vertex file sep_no_subset.json: missing key 'subset'"),
            (["graph", "--from", "twist_no_inverse.json"],
             "bad vertex file twist_no_inverse.json: missing key 'inverse_images'"),
            (["translen", "deep.json", "a"], "cannot read JSON from deep.json: maximum recursion depth"),
            (["graph", "--from", "deep.json"], "cannot read JSON from deep.json: maximum recursion depth"),
            (["intersect", FIXTURES / "rose2.json", "deep_terms.json"],
             "cannot read JSON from deep_terms.json: maximum recursion depth"),
            (["graph", "--from", "deep_rank.json"],
             "bad vertex file deep_rank.json: rank must be an integer, got [[[["),
            (["translen", "deep_length.json", "a"],
             "bad graph file deep_length.json: expected exact rational, got [[[["),
            (["translen", "duplicate_edge.json", "a"], "duplicate_edge.json: duplicate edge id 'a'"),
            (["translen", "no_inverse_record.json", "a"], "no_inverse_record.json: edge 'a' has no inverse record"),
            (["translen", "inconsistent_pair.json", "a"],
             "inconsistent_pair.json: edges 'a'/'A' are not a consistent pair"),
            (["translen", "differing_lengths.json", "a"], "differing_lengths.json: lengths of 'a' and 'A' differ"),
            (["translen", "contradicting_words.json", "a"],
             "contradicting_words.json: edge_words for 'A' contradict its inverse"),
            (["translen", "uncovered_edge.json", "a"], "uncovered_edge.json: edge_words must cover every edge pair"),
            (["translen", "duplicate_vertex.json", "a"], "duplicate_vertex.json: duplicate vertex names"),
            (["translen", "no_edges.json", "a"], "no_edges.json: graph must have at least one edge"),
            (["translen", "base_outside.json", "a"], "base_outside.json: base vertex not in graph"),
            (["translen", "empty_loop.json", "a"], "empty_loop.json: generator loop 0 is empty"),
            (["translen", "zero_length.json", "a"], "zero_length.json: edge lengths must be positive"),
            (["translen", "self_inverse.json", "a"], "self_inverse.json: duplicate edge names"),
            (["translen", "unknown_endpoint.json", "a"], "unknown_endpoint.json: unknown endpoint 'w'"),
            (["translen", "loop_in_tree.json", "a"], "loop_in_tree.json: spanning tree has wrong edge count"),
            (["graph", "--from", "no_kind.json"],
             "bad vertex file no_kind.json: cannot tell its kind: no 'kind', 'terms', 'class' or 'edges' key"),
            (["pf", "--map", "outside_vertex_map.json"],
             "outside_vertex_map.json: vertex_map must map every vertex into the graph"),
            (["pf", "--map", "rank3_automorphism_map.json"], "rank3_automorphism_map.json: automorphism rank mismatch"),
            (["pf", "--map", "swapped_endpoints_map.json"],
             "swapped_endpoints_map.json: image of edge a has wrong endpoints"),
            (["pf", "--map", "swapped_base_map.json"],
             "swapped_base_map.json: the base vertex must be fixed by the map"),
            (["graph", "--from", "full_subset.json"],
             "full_subset.json: subset must be nonempty and proper in {1..N}"),
            (["graph", "--from", "empty_subset.json"],
             "empty_subset.json: subset must be nonempty and proper in {1..N}"),
            (["graph", "--from", "stable_4.json"], "stable_4.json: stable letter out of range"),
            # either key used to be dropped when the kind did not read it
            (["graph", "--from", "loop_with_subset.json"],
             "loop_with_subset.json: loop splittings need a stable letter and no subset"),
            (["graph", "--from", "sep_with_stable.json"],
             "sep_with_stable.json: separating splittings need a subset and no stable letter"),
            (["graph", "--from", "null_subset.json"], "null_subset.json: subset must be a list, got None"),
            # the enumerators refuse before they list anything: these used to exhaust memory
            (["current-freq", FIXTURES / "current_ab.json", FIXTURES / "rose2.json", "-k", "40"],
             "depth 40 has more than 1000000 reduced paths"),
            (["iwip", "--map", FIXTURES / "fibonacci_map.json", "--seed", "a", "--depth", "40"],
             "depth 40 has more than 1000000 reduced paths"),
            # S finds these endpoints adjacent without a search; the later --flavor wins
            (["graph", "--flavor", "Fstar", "--search-length", "40"],
             "depth 40 has more than 1000000 conjugacy classes"),
            # a zero current used to give None at radius 0 and fail inside a longer search
            (["graph", "--flavor", "I0", "--to", "zero_current.json"], "the zero current has no projective class"),
        ],
        ids=[
            "translen-list", "pf-list", "intersect-list", "graph-number-vertex", "graph-list-vertex",
            "graph-bad-subset", "graph-chart-as-moves", "length-1/0", "weight-1/0", "rank-1e400",
            "delta-1/0", "rank-2.9", "weight-0.1", "loop-rank-3.5", "stable-1.9", "subset-1.0",
            "map-rank-2.7", "map-edge-zz", "map-contradiction", "class-true", "twist-rank-5",
            "twist-rank-5.0", "map-image-zz", "loop-zz", "tree-zz", "edge-words-zz", "kind-bogus",
            "loop-without-stable", "sep-without-subset", "twist-without-inverse-images",
            "translen-nested", "graph-nested", "intersect-nested-terms", "rank-900-deep", "length-900-deep",
            "duplicate-edge", "no-inverse-record", "inconsistent-pair", "differing-lengths", "contradicting-words",
            "uncovered-edge", "duplicate-vertex", "no-edges", "base-outside", "empty-loop", "zero-length",
            "self-inverse-edge", "unknown-endpoint", "loop-in-tree", "vertex-without-kind",
            "map-vertex-outside", "map-automorphism-rank-3", "map-wrong-endpoints", "map-base-moved",
            "subset-full", "subset-empty", "stable-4", "loop-with-subset", "sep-with-stable",
            "subset-null",
            "current-freq-depth-40", "iwip-depth-40", "graph-search-length-40", "graph-zero-current",
        ],
    )
    def test_malformed_input(self, tmp_path, monkeypatch, args, message):
        # most of these used to end in a traceback: TypeError, AttributeError,
        # ZeroDivisionError, OverflowError or RecursionError
        self.write_malformed(tmp_path)
        monkeypatch.chdir(tmp_path)
        if args[0] == "graph":  # a good search, but for the one bad file given
            args = [
                "graph", "--flavor", "S",
                "--from", FIXTURES / "splitting_a_rank3.json",
                "--to", FIXTURES / "splitting_ab_rank3.json",
                *args[1:],
            ]
        result = run(*args)
        assert result.exit_code == 1
        self.assert_one_line_error(result, message)
        # the offending value is echoed clipped, however deep it nests
        assert len(result.output.splitlines()[-1]) <= 200


class TestExitCodes:
    """0 for success, 1 for input the command rejects, 2 for a usage
    error, 3 for a route disagreement; each failure is one Error: line."""

    def test_success_exits_0(self):
        result = run("bbt", FIXTURES / "rose2.json")
        assert result.exit_code == 0
        assert result.output == "2\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["current-freq", "zero.json", FIXTURES / "rose2.json"],
             "cannot normalise the zero current"),
            (["iwip", "--map", FIXTURES / "fibonacci_map.json", "--seed", "[]"],
             "seed must be nontrivial"),
        ],
        ids=["zero-current", "identity-seed"],
    )
    def test_library_rejection_exits_1(self, tmp_path, monkeypatch, args, message):
        (tmp_path / "zero.json").write_text(json.dumps({"rank": 2, "terms": []}))
        monkeypatch.chdir(tmp_path)
        result = run(*args)
        assert result.exit_code == 1
        TestUserErrors.assert_one_line_error(result, message)

    def test_unconverged_power_iteration_exits_1(self, monkeypatch):
        from outerint import dynamics

        monkeypatch.setattr(dynamics, "MAX_PF_ITERATIONS", 3)
        result = run("pf", "--map", FIXTURES / "fibonacci_map.json")
        assert result == (1, "Error: power iteration did not converge in 3 steps\n", b"")

    def test_usage_error_exits_2(self):
        result = run("bbt", FIXTURES / "rose2.json", "--no-such-option")
        assert result.exit_code == 2
        TestUserErrors.assert_one_line_error(result, "--no-such-option")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["bbt", "missing.json"], "File 'missing.json' does not exist"),
            (["bbt", "."], "File '.' is a directory"),
            (["pf"], "the following arguments are required: --map"),
            ([], "the following arguments are required: COMMAND"),
            (["graph", "--flavor", "X", "--from", "x.json", "--to", "x.json"], "argument --flavor"),
            # no abbreviations: a mistyped --rad is an error, not --radius
            (["graph", "--flavor", "F", "--from", "x.json", "--to", "x.json", "--rad", "2"],
             "unrecognized arguments: --rad 2"),
            (["bbt", "x.json", "-h"], "unrecognized arguments: -h"),
            # charts are decided exactly, so no key depth is left to set
            (["graph", "--flavor", "F", "--from", "x.json", "--to", "x.json", "--key-depth", "4"],
             "unrecognized arguments: --key-depth 4"),
        ],
        ids=["missing-file", "directory", "missing-option", "no-command", "bad-choice", "abbreviation",
             "no-short-help", "retired-key-depth"],
    )
    def test_each_usage_error_exits_2(self, tmp_path, monkeypatch, args, message):
        (tmp_path / "x.json").write_text("{}")
        monkeypatch.chdir(tmp_path)
        result = run(*args)
        assert result.exit_code == 2
        assert result.output.startswith("usage: oi")
        TestUserErrors.assert_one_line_error(result, message)

    def test_negative_delta_is_a_value(self):
        # a token like -1/10 would otherwise be taken for an option
        result = run("scaling-exp", FIXTURES / "rose2.json", "--samples", "5", "--delta", "-1/10")
        assert result.exit_code == 1
        TestUserErrors.assert_one_line_error(result, "delta must be nonnegative")

    def test_help_and_version_exit_0(self):
        assert run("--version") == (0, "oi, version 0.1.0\n", b"oi, version 0.1.0\n")
        result = run("iwip", "--help")
        assert result.exit_code == 0 and result.output.startswith("usage: oi iwip")

    def test_click_style_entry_point(self):
        # the call the bench's in-process cli run makes: it returns on success
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
            assert main.main(args=["bbt", str(FIXTURES / "rose2.json")], prog_name="oi",
                             standalone_mode=False) is None
            with pytest.raises(SystemExit) as exc:
                main.main(args=["bbt", "--no-such-option"], prog_name="oi", standalone_mode=False)
        assert out.getvalue() == "2\n" and exc.value.code == 2

    def test_intersect_route_disagreement_exits_3(self, monkeypatch):
        from outerint import intersection

        real = intersection._edge_tally
        monkeypatch.setattr(
            intersection, "_edge_tally",
            lambda period: {k: 2 * n for k, n in real(period).items()},
        )
        result = run("intersect", FIXTURES / "rose2.json", FIXTURES / "current_ab.json")
        assert result.exit_code == 3
        TestUserErrors.assert_one_line_error(result, "length route 2 != crossing route 4")

    def test_scaling_exp_route_disagreement_exits_3(self, monkeypatch):
        import itertools

        from outerint import intersection

        # a length route that drifts from call to call breaks the a-priori bound
        calls = itertools.count()
        monkeypatch.setattr(
            intersection, "translation_length", lambda M, w: Fraction(100 * next(calls))
        )
        result = run("scaling-exp", FIXTURES / "rose2.json", "--samples", "20")
        assert result.exit_code == 3
        TestUserErrors.assert_one_line_error(result, "exceeds a-priori bound")

    def test_programming_error_keeps_its_traceback(self, monkeypatch):
        from outerint import intersection

        def broken(period):
            raise TypeError("planted")

        monkeypatch.setattr(intersection, "_edge_tally", broken)
        with pytest.raises(TypeError, match="planted"):
            run("intersect", FIXTURES / "rose2.json", FIXTURES / "current_ab.json")


def test_every_library_exception_is_an_outerint_error():
    import importlib
    import pkgutil

    import outerint
    from outerint.words import OuterintError

    defined = [
        obj
        for info in pkgutil.iter_modules(outerint.__path__)
        for obj in vars(importlib.import_module(f"outerint.{info.name}")).values()
        if isinstance(obj, type)
        and issubclass(obj, Exception)
        and obj.__module__ == f"outerint.{info.name}"
    ]
    assert len(defined) >= 7
    assert [c.__name__ for c in defined if not issubclass(c, OuterintError)] == []


def test_cli_import_leaves_numpy_unloaded():
    """``import outerint.cli`` loads no numpy, no click, no dataclasses or
    inspect, and no library module beyond ``words``; each command loads
    only the modules it runs, while the help still shows the constants
    those modules use."""
    import subprocess
    import sys

    from outerint import DEFAULT_WORD_CAP, FLAVORS

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = (
        "import contextlib, io, json, sys\n"
        "DC = ('dataclasses', 'inspect')\n"
        "import outerint.cli\n"
        "ours = lambda: sorted(m for m in sys.modules if m.startswith('outerint') or m in DC)\n"
        "foreign = lambda: sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'click'))\n"
        "before, foreign_before, out = ours(), foreign(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = outerint.cli.main(sys.argv[1:])\n"
        "print(json.dumps([before, ours(), foreign_before + foreign(), code, out.getvalue()]))\n"
    )

    def loaded(*args):
        out = subprocess.run(
            [sys.executable, "-c", code, *map(str, args)],
            env=child_env(src),
            capture_output=True,
            text=True,
            check=True,
        )
        on_import, after, foreign, exit_code, stdout = json.loads(out.stdout)
        assert foreign == [] and exit_code == 0
        return on_import, after, stdout

    on_import, _, _ = loaded("bbt", FIXTURES / "rose2.json")
    assert on_import == ["outerint", "outerint.cli", "outerint.words"]
    assert set(loaded("translen", FIXTURES / "rose2.json", "ab")[1]) - set(on_import) == {
        "outerint.marked_graph"
    }
    _, after, _ = loaded("iwip", "--map", FIXTURES / "fibonacci_map.json", "--seed", "a", "--n", "2")
    assert "outerint.dynamics" in after
    assert {"outerint.intersection", "outerint.splittings"}.isdisjoint(after)
    _, after, _ = loaded(
        "graph", "--flavor", "I0", "--from", FIXTURES / "splitting_a_rank3.json",
        "--to", FIXTURES / "current_b_rank3.json", "--radius", "2",
    )
    assert "outerint.splittings" in after
    assert {"outerint.intersection", "outerint.dynamics"}.isdisjoint(after)

    # The value classes are frozen without dataclasses, and so without its
    # import of inspect (translen is held to that above).  IntersectionReport,
    # PFResult and IwipRow stay dataclasses while the bench self-tests
    # ``dataclasses.replace`` them (ROADMAP item 1(a)): once that item lands,
    # add intersect, scaling-exp, pf and iwip to this loop.
    for args in [
        ("bbt", FIXTURES / "rose2.json"),
        ("current-freq", FIXTURES / "current_ab.json", FIXTURES / "rose2.json", "-k", "2"),
        ("graph", "--flavor", "F", "--from", FIXTURES / "splitting_a_rank3.json",
         "--to", FIXTURES / "splitting_ab_rank3.json", "--radius", "2"),
    ]:
        assert {"dataclasses", "inspect"}.isdisjoint(loaded(*args)[1])

    _, after, stdout = loaded("iwip", "--help")
    assert after == on_import and f"Letter budget for iterates. (default: {DEFAULT_WORD_CAP})" in stdout
    _, after, stdout = loaded("graph", "--help")
    assert after == on_import and f"--flavor {{{','.join(FLAVORS)}}}" in stdout


def test_no_runtime_dependency():
    """``oi`` runs on the standard library alone."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["dependencies"] == []


def test_package_import_loads_no_submodule():
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = "import sys, outerint; print(sorted(m for m in sys.modules if m.startswith('outerint.')))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


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
