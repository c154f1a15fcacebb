"""Batch command line front end.

Commands read JSON inputs, run one computation and print the result.
``translen`` and ``bbt`` print a bare number; every other command prints
a JSON object or a table (CSV with ``#`` header lines) that carries the
tool version, ``config_hash`` and the seed (null when the command uses
none).  ``config_hash`` covers the command name and every resolved
argument and option, with paths as given and file contents not read.
Every output is byte-identical across reruns with the same inputs.

Errors are handled in one place, :func:`main`: a usage error, a library
error or a rejected argument is one ``Error:`` line on stderr and the exit
code of its class (2 for a usage error, 3 for a route disagreement,
otherwise 1).  A command returns what it prints, so a failed one prints
nothing else.

Each command imports the library modules it runs in its own body, so a
process loads only those; module attributes are read at call time.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
from decimal import ROUND_CEILING, Context, Decimal, localcontext
from fractions import Fraction
from typing import TYPE_CHECKING

from . import DEFAULT_WORD_CAP, FLAVORS, __version__
from .words import Automorphism, OuterintError, Word, _clip, parse_word, reduce, word_str

if TYPE_CHECKING:
    from .currents import RationalCurrent
    from .marked_graph import MarkedMetricGraph


def _load(path: str, parse, what: str):
    """``parse`` of the JSON in ``path``; any shape ``parse`` rejects is
    one error naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, RecursionError, ValueError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"cannot read JSON from {path}: {exc}")
    try:
        return parse(obj)
    except KeyError as exc:  # the parsers look keys up only in the JSON object
        raise ValueError(f"bad {what} file {path}: missing key {exc.args[0]!r}")
    except (AttributeError, OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad {what} file {path}: {exc}")


def _load_chart_and_current(graph: str, current: str) -> tuple[MarkedMetricGraph, RationalCurrent]:
    from .currents import RationalCurrent
    from .marked_graph import marked_graph_from_json_obj

    M = _load(graph, marked_graph_from_json_obj, "graph")
    mu = _load(current, RationalCurrent.from_json_obj, "current")
    if M.rank != mu.rank:
        raise ValueError(f"rank mismatch: {current} has rank {mu.rank}, {graph} has rank {M.rank}")
    return M, mu


def _parse_word_arg(text: str, rank: int) -> Word:
    try:
        if text.lstrip().startswith("["):
            return reduce(json.loads(text), rank)
        return parse_word(text, rank)
    except (RecursionError, ValueError) as exc:  # RecursionError: JSON nested too deep
        raise ValueError(f"bad word {_clip(text)}: {exc}")


def _config_hash(payload) -> str:
    import hashlib  # OpenSSL is loaded only by the commands that print a hash

    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _render(name: str, params: dict, out) -> str:
    """What command ``name`` prints for its result ``out``: a bare line, a
    JSON object (a dict) or a CSV table (``columns, rows, extra_header``),
    the last two with the provenance of the run."""
    if isinstance(out, str):
        return out
    meta = {"tool": "oi", "version": __version__, "config_hash": _config_hash([name, params]),
            "seed": params.get("seed")}
    if isinstance(out, dict):
        return json.dumps({**out, "meta": meta}, sort_keys=True, indent=2)
    columns, rows, extra_header = out
    header = [f"oi {name} v{__version__}", f"config_hash={meta['config_hash']} seed={meta['seed']}"]
    return "\n".join([*(f"# {l}" for l in header + extra_header), ",".join(columns), *map(",".join, rows)])


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _fmt_error(center: float, bound: float) -> str:
    """``bound`` widened by the rounding of the printed ``center`` and
    rounded up to 12 significant digits: the printed interval, taken
    exactly, contains ``center +- bound``."""
    err = abs(Fraction(_fmt(center)) - Fraction(center)) + Fraction(bound)
    with localcontext(Context(prec=12, rounding=ROUND_CEILING)):
        return _fmt(float(Decimal(err.numerator) / Decimal(err.denominator)))


#: name -> (command function, argument specs); the order of ``oi --help``.
_COMMANDS: dict[str, tuple] = {}


def _command(name: str, *specs):
    """Register the decorated function as command ``name``, with one
    :func:`_arg` spec per argument."""
    def register(fn):
        _COMMANDS[name] = fn, specs
        return fn
    return register


def _arg(*flags, **kwargs):
    """The flags and ``add_argument`` keywords of one argument.  Its
    ``dest`` names it in ``config_hash``, so a new name changes the hash."""
    return flags, kwargs


def _file(path: str) -> str:
    """A readable file, not a directory; kept as given."""
    problem = ("is a directory" if os.path.isdir(path) else "does not exist" if not os.path.exists(path)
               else None if os.access(path, os.R_OK) else "is not readable")
    if problem:
        raise argparse.ArgumentTypeError(f"File {path!r} {problem}.")
    return path


def _at_least(kind, low, strict: bool = False):
    """Argument type: a ``kind`` at least ``low``, or above it if ``strict``;
    ``inf`` and ``nan`` pass, for the library to reject."""
    def convert(text: str):
        value = kind(text)  # a ValueError is "invalid int value: ..."
        if value < low or strict and value == low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x{'>' if strict else '>='}{low}.")
        return value

    convert.__name__ = kind.__name__
    return convert


class _UsageError(OuterintError):
    exit_code = 2


class _Parser(argparse.ArgumentParser):
    """Its errors are :class:`_UsageError` after the usage line, and a token
    that starts like a negative number (``--delta -1/10``) is a value, as
    no option of ``oi`` looks like one."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)  # abbreviations would accept typos
        self.add_argument("--help", action="help", help="Show this message and exit.")
        self._negative_number_matcher = re.compile(r"-\.?\d.*")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


@functools.cache  # built once per process: a parser keeps no state between parses
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="oi", description="Exact intersection pairings on free groups: length "
                     "functions, currents, expanding-map diagnostics and splitting graphs.")
    parser.add_argument("--version", action="version", version=f"oi, version {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (fn, specs) in _COMMANDS.items():
        sub = commands.add_parser(name, help=fn.__doc__.partition(".")[0], description=fn.__doc__)
        for flags, kwargs in specs:
            kwargs = {"metavar": None if "choices" in kwargs else flags[0].lstrip("-").upper(), **kwargs}
            if kwargs.get("default") is not None:
                kwargs["help"] = f"{kwargs.get('help', '')} (default: %(default)s)".lstrip()
            sub.add_argument(*flags, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run ``oi`` on ``argv`` (by default ``sys.argv[1:]``) and return its
    exit code.  A failure is one ``Error:`` line on stderr and the
    ``exit_code`` of its :class:`OuterintError` (2 for a usage error, 1
    for a ``ValueError``).  Any other exception keeps its traceback."""
    try:
        params = vars(_parser().parse_args(argv))
        name = params.pop("command")
        out = _COMMANDS[name][0](**params)
    except (OuterintError, ValueError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)
    except SystemExit as exc:  # only --help and --version exit: they print and exit 0
        return exc.code
    print(_render(name, params, out))
    return 0


def _click_style_main(args: list[str], prog_name: str = "oi", standalone_mode: bool = False) -> None:
    """The call ``Cli.run_in_process`` in ``bench/workloads.py`` makes:
    ``main(args)``, with ``SystemExit`` for an exit code other than 0."""
    if code := main(args):
        raise SystemExit(code)


main.main = _click_style_main  # type: ignore[attr-defined]


_GRAPH = _arg("graph", type=_file)
_MAP = _arg("--map", dest="map_path", required=True, type=_file)
_TOL = _arg("--tol", default=1e-12, type=_at_least(float, 0, strict=True))


@_command("translen", _GRAPH, _arg("word"))
def translen(graph: str, word: str) -> str:
    """Translation length of WORD on the tree of GRAPH."""
    from .marked_graph import marked_graph_from_json_obj, translation_length

    M = _load(graph, marked_graph_from_json_obj, "graph")
    return _fmt(translation_length(M, _parse_word_arg(word, M.rank)))


@_command("bbt", _GRAPH)
def bbt(graph: str) -> str:
    """Back-tracking bound of GRAPH: total generator displacement."""
    from .marked_graph import bbt_upper_bound, marked_graph_from_json_obj

    return _fmt(bbt_upper_bound(_load(graph, marked_graph_from_json_obj, "graph")))


@_command("intersect", _GRAPH, _arg("current", type=_file))
def intersect(graph: str, current: str) -> dict:
    """Pairing of GRAPH with CURRENT; both evaluation routes are shown
    and any disagreement is a hard failure."""
    from .intersection import intersect_report

    report = intersect_report(*_load_chart_and_current(graph, current))
    return {"value": _fmt(report.via_lengths), "route_a": _fmt(report.via_lengths),
            "route_b": _fmt(report.via_crossings)}


@_command("current-freq", _arg("current", type=_file), _GRAPH,
          _arg("--depth", "-k", default=1, type=_at_least(int, 1), help="Cylinder path length."))
def current_freq(current: str, graph: str, depth: int) -> tuple:
    """Frequency vector of CURRENT at the given depth on GRAPH."""
    from .currents import frequency_vector

    M, mu = _load_chart_and_current(graph, current)
    vec = frequency_vector(mu, M, depth)
    return ["path", "frequency"], [[".".join(map(M.graph.name, p)), _fmt(x)] for p, x in vec.entries], []


@_command("scaling-exp", _GRAPH, _arg("--delta", default="1/10", help="Perturbation size (rational)."),
          _arg("--samples", default=1000, type=_at_least(int, 1)),
          _arg("--max-len", default=20, type=_at_least(int, 1)), _arg("--seed", default=0, type=int))
def scaling_exp(graph: str, delta: str, samples: int, max_len: int, seed: int) -> dict:
    """Perturb GRAPH twice and compare the length change of sampled words
    against the a-priori scaling bound."""
    from .intersection import scaling_modulus_experiment
    from .marked_graph import marked_graph_from_json_obj

    M = _load(graph, marked_graph_from_json_obj, "graph")
    try:
        d = Fraction(delta)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad delta {delta!r}")
    rng = random.Random(seed)
    sample = [_random_reduced_word(rng, M.rank, rng.randint(1, max_len)) for _ in range(samples)]
    report = scaling_modulus_experiment(M, d, sample, seed=seed)
    return {"delta": _fmt(report.delta), "empirical_modulus": _fmt(report.empirical_modulus),
            "a_priori_modulus": _fmt(report.a_priori_modulus), "holds": report.holds,
            "worst_word": None if report.worst_word is None else word_str(report.worst_word),
            "skipped_identities": report.skipped_identities}


def _random_reduced_word(rng: random.Random, rank: int, length: int) -> Word:
    letters: list[int] = []
    alphabet = [l for i in range(1, rank + 1) for l in (i, -i)]
    while len(letters) < length:
        l = rng.choice(alphabet)
        if letters and letters[-1] == -l:
            continue
        letters.append(l)
    return Word(rank, tuple(letters))


@_command("pf", _MAP, _TOL)
def pf(map_path: str, tol: float) -> dict:
    """Dominant eigenpair of the transition matrix of an expanding map."""
    from .dynamics import graph_map_from_json_obj, pf_eigenpair, transition_matrix

    f = _load(map_path, graph_map_from_json_obj, "graph map")
    result = pf_eigenpair(transition_matrix(f), tol=tol)
    g, v = f.chart.graph, result.eigenvector
    return {"lambda": _fmt(result.eigenvalue), "residual": _fmt(result.residual),
            "lambda_error": _fmt_error(result.eigenvalue, result.eigenvalue_bound),
            "iterations": result.iterations,
            "eigenvector": {g.edge_names[k - 1]: _fmt(float(v[k - 1])) for k in g.positive_edges},
            "metric": {g.edge_names[k - 1]: _fmt(v[k - 1]) for k in g.positive_edges}}


@_command("iwip", _MAP, _arg("--seed", required=True, help="Seed word, e.g. 'a' or '[1,2]'."),
          _arg("--n", dest="n_max", default=10, type=_at_least(int, 0)),
          _arg("--depth", default=2, type=_at_least(int, 1), help="Frequency vector depth."), _TOL,
          _arg("--cap", default=DEFAULT_WORD_CAP, type=_at_least(int, 1), help="Letter budget for iterates."),
          _arg("--n-cap", default=15, type=_at_least(int, 0), help="Iteration ceiling; the stretch-factor "
               "error drifts like 2n times its enclosure width, so deep runs need a smaller tol."))
def iwip(map_path: str, seed: str, n_max: int, depth: int, tol: float, cap: int, n_cap: int) -> tuple:
    """Deflated length, pairing and frequency diagnostics for an
    expanding map, one CSV row per iteration."""
    from .dynamics import graph_map_from_json_obj, iwip_rows, pf_eigenpair, transition_matrix

    f = _load(map_path, graph_map_from_json_obj, "graph map")
    g = _parse_word_arg(seed, f.chart.rank)
    if n_max > n_cap:
        raise ValueError(f"n={n_max} exceeds the iteration ceiling {n_cap} (raise --n-cap deliberately)")
    pf_result = pf_eigenpair(transition_matrix(f), tol=tol)
    lam = pf_result.eigenvalue
    drift = 2 * n_max * pf_result.eigenvalue_bound / lam
    rows = [[str(r.n),
             "cap_exceeded" if r.length_estimate is None else _fmt(r.length_estimate),
             "cap_exceeded" if r.pairing_estimate is None else _fmt(r.pairing_estimate),
             "cap_exceeded" if r.freq_delta is None and r.length_estimate is None
             else ("" if r.freq_delta is None else _fmt(float(r.freq_delta)))]
            for r in iwip_rows(f.automorphism, f.chart, lam, g, n_max, depth, cap)]
    header = (f"lambda={_fmt(lam)} lambda_error={_fmt_error(lam, pf_result.eigenvalue_bound)} "
              f"relative_drift_bound={_fmt(drift)}")
    return ["n", "length_estimate", "pairing_estimate", "freq_delta"], rows, [header]


@_command("graph", _arg("--flavor", required=True, choices=FLAVORS),
          _arg("--from", dest="from_path", required=True, type=_file),
          _arg("--to", dest="to_path", required=True, type=_file),
          _arg("--radius", default=3, type=_at_least(int, 0)), _arg("--moves", dest="moves_path", type=_file),
          _arg("--search-length", default=6, type=_at_least(int, 1)),
          _arg("--key-depth", default=4, type=_at_least(int, 1)),
          _arg("--state-cap", default=5000, type=_at_least(int, 1)))
def graph_cmd(flavor: str, from_path: str, to_path: str, radius: int, moves_path: str | None,
              search_length: int, key_depth: int, state_cap: int) -> dict:
    """Bounded-radius distance between two vertices of a splitting graph."""
    from .splittings import bfs_distance, vertex_from_json_obj

    v1, v2 = _load(from_path, vertex_from_json_obj, "vertex"), _load(to_path, vertex_from_json_obj, "vertex")
    moves = []
    if moves_path:
        moves = _load(moves_path, lambda objs: list(map(Automorphism.from_json_obj, objs)), "moves")
    dist = bfs_distance(flavor, v1, v2, radius, moves,  # type: ignore[arg-type]
                        search_length=search_length, key_depth=key_depth, state_cap=state_cap)
    return {"flavor": flavor, "distance": dist, "radius": radius}


if __name__ == "__main__":
    sys.exit(main())
