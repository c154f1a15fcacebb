"""Batch command line front end.

Commands read JSON inputs, run one computation and print the result.
``translen`` and ``bbt`` print a bare number; every other command prints
a JSON object or a table (CSV with ``#`` header lines) that carries the
tool version, ``config_hash`` and the seed (null when the command uses
none).  ``config_hash`` covers the command name and every resolved
argument and option, with paths as given and file contents not read.
Every output is byte-identical across reruns with the same inputs.

Errors are handled in one place, :class:`_Main`: a library error or a
rejected argument becomes one ``Error:`` line on stderr and the exit code
of its class (3 for a route disagreement, otherwise 1).

Each command imports the library modules it runs in its own body, so a
process loads only those; module attributes are read at call time.
"""

from __future__ import annotations

import json
import random
from decimal import ROUND_CEILING, Context, Decimal, localcontext
from fractions import Fraction
from typing import TYPE_CHECKING

import click

from . import DEFAULT_WORD_CAP, FLAVORS, __version__
from .words import (
    Automorphism, OuterintError, Word, _check_int, conjugacy_class, parse_word, reduce, word_str
)

if TYPE_CHECKING:
    from .currents import RationalCurrent
    from .marked_graph import MarkedMetricGraph


def _load(path: str, parse, what: str):
    """``parse`` of the JSON in ``path``; any shape ``parse`` rejects is
    one error naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise click.ClickException(f"cannot read JSON from {path}: {exc}")
    try:
        return parse(obj)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise click.ClickException(f"bad {what} file {path}: {exc}")


def _load_chart_and_current(graph: str, current: str) -> tuple[MarkedMetricGraph, RationalCurrent]:
    from .currents import RationalCurrent
    from .marked_graph import marked_graph_from_json_obj

    M = _load(graph, marked_graph_from_json_obj, "graph")
    mu = _load(current, RationalCurrent.from_json_obj, "current")
    if M.rank != mu.rank:
        raise click.ClickException(
            f"rank mismatch: {current} has rank {mu.rank}, {graph} has rank {M.rank}"
        )
    return M, mu


def _parse_word_arg(text: str, rank: int) -> Word:
    try:
        if text.lstrip().startswith("["):
            return reduce(json.loads(text), rank)
        return parse_word(text, rank)
    except ValueError as exc:
        raise click.ClickException(f"bad word {text!r}: {exc}")


def _config_hash(payload) -> str:
    import hashlib  # OpenSSL is loaded only by the commands that print a hash

    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _meta() -> dict:
    """Provenance of the running command, read from its click context."""
    ctx = click.get_current_context()
    return {
        "tool": "oi",
        "version": __version__,
        "config_hash": _config_hash([ctx.info_name, ctx.params]),
        "seed": ctx.params.get("seed"),
    }


def _echo_json(obj) -> None:
    click.echo(json.dumps({**obj, "meta": _meta()}, sort_keys=True, indent=2))


def _echo_csv(columns, rows, extra_header=()) -> None:
    meta = _meta()
    click.echo(f"# oi {click.get_current_context().info_name} v{meta['version']}")
    click.echo(f"# config_hash={meta['config_hash']} seed={meta['seed']}")
    for line in extra_header:
        click.echo(f"# {line}")
    click.echo(",".join(columns))
    for row in rows:
        click.echo(",".join(row))


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
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


class _Main(click.Group):
    """The one error handler: an :class:`OuterintError` or a
    ``ValueError`` (a rejected argument) from any command is one
    ``Error:`` line and the exit code of its class."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (OuterintError, ValueError) as exc:
            error = click.ClickException(str(exc))
            error.exit_code = getattr(exc, "exit_code", 1)
            raise error from exc


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="oi")
def main() -> None:
    """Exact intersection pairings on free groups: length functions,
    currents, expanding-map diagnostics and splitting graphs."""


@main.command()
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.argument("word")
def translen(graph: str, word: str) -> None:
    """Translation length of WORD on the tree of GRAPH."""
    from .marked_graph import marked_graph_from_json_obj, translation_length

    M = _load(graph, marked_graph_from_json_obj, "graph")
    w = _parse_word_arg(word, M.rank)
    click.echo(_fmt(translation_length(M, w)))


@main.command()
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
def bbt(graph: str) -> None:
    """Back-tracking bound of GRAPH: total generator displacement."""
    from .marked_graph import bbt_upper_bound, marked_graph_from_json_obj

    M = _load(graph, marked_graph_from_json_obj, "graph")
    click.echo(_fmt(bbt_upper_bound(M)))


@main.command()
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.argument("current", type=click.Path(exists=True, dir_okay=False))
def intersect(graph: str, current: str) -> None:
    """Pairing of GRAPH with CURRENT; both evaluation routes are shown
    and any disagreement is a hard failure."""
    from .intersection import intersect_report

    M, mu = _load_chart_and_current(graph, current)
    report = intersect_report(M, mu)
    _echo_json(
        {
            "value": _fmt(report.value),
            "route_a": _fmt(report.via_lengths),
            "route_b": _fmt(report.via_crossings),
        }
    )


@main.command("current-freq")
@click.argument("current", type=click.Path(exists=True, dir_okay=False))
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--depth", "-k", default=1, show_default=True, type=click.IntRange(min=1),
    help="Cylinder path length.",
)
def current_freq(current: str, graph: str, depth: int) -> None:
    """Frequency vector of CURRENT at the given depth on GRAPH."""
    from .currents import frequency_vector

    M, mu = _load_chart_and_current(graph, current)
    vec = frequency_vector(mu, M, depth)
    rows = [
        [".".join(M.graph.name(e) for e in path), _fmt(value)]
        for path, value in vec.entries
    ]
    _echo_csv(["path", "frequency"], rows)


@main.command("scaling-exp")
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.option("--delta", default="1/10", show_default=True, help="Perturbation size (rational).")
@click.option("--samples", default=1000, show_default=True, type=click.IntRange(min=1))
@click.option("--max-len", default=20, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True)
def scaling_exp(graph: str, delta: str, samples: int, max_len: int, seed: int) -> None:
    """Perturb GRAPH twice and compare the length change of sampled words
    against the a-priori scaling bound."""
    from .intersection import scaling_modulus_experiment
    from .marked_graph import marked_graph_from_json_obj

    M = _load(graph, marked_graph_from_json_obj, "graph")
    try:
        d = Fraction(delta)
    except (ValueError, ZeroDivisionError):
        raise click.ClickException(f"bad delta {delta!r}")
    rng = random.Random(seed)
    sample = [_random_reduced_word(rng, M.rank, rng.randint(1, max_len)) for _ in range(samples)]
    report = scaling_modulus_experiment(M, d, sample, seed=seed)
    _echo_json(
        {
            "delta": _fmt(report.delta),
            "empirical_modulus": _fmt(report.empirical_modulus),
            "a_priori_modulus": _fmt(report.a_priori_modulus),
            "holds": report.holds,
            "worst_word": None if report.worst_word is None else word_str(report.worst_word),
            "skipped_identities": report.skipped_identities,
        }
    )


def _random_reduced_word(rng: random.Random, rank: int, length: int) -> Word:
    letters: list[int] = []
    alphabet = [l for i in range(1, rank + 1) for l in (i, -i)]
    while len(letters) < length:
        l = rng.choice(alphabet)
        if letters and letters[-1] == -l:
            continue
        letters.append(l)
    return Word(rank, tuple(letters))


_TOL = click.FloatRange(min=0, min_open=True)


@main.command()
@click.option("--map", "map_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", default=1e-12, show_default=True, type=_TOL)
def pf(map_path: str, tol: float) -> None:
    """Dominant eigenpair of the transition matrix of an expanding map."""
    from .dynamics import graph_map_from_json_obj, pf_eigenpair, transition_matrix

    f = _load(map_path, graph_map_from_json_obj, "graph map")
    result = pf_eigenpair(transition_matrix(f), tol=tol)
    g = f.chart.graph
    _echo_json(
        {
            "lambda": _fmt(result.eigenvalue),
            "lambda_error": _fmt_error(result.eigenvalue, result.eigenvalue_bound),
            "residual": _fmt(result.residual),
            "iterations": result.iterations,
            "eigenvector": {
                g.edge_names[k - 1]: _fmt(float(result.eigenvector[k - 1]))
                for k in g.positive_edges
            },
            "metric": {
                g.edge_names[k - 1]: _fmt(result.eigenvector[k - 1]) for k in g.positive_edges
            },
        }
    )


@main.command()
@click.option("--map", "map_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", required=True, help="Seed word, e.g. 'a' or '[1,2]'.")
@click.option("--n", "n_max", default=10, show_default=True, type=click.IntRange(min=0))
@click.option(
    "--depth", default=2, show_default=True, type=click.IntRange(min=1),
    help="Frequency vector depth.",
)
@click.option("--tol", default=1e-12, show_default=True, type=_TOL)
@click.option(
    "--cap", default=DEFAULT_WORD_CAP, show_default=True, type=click.IntRange(min=1),
    help="Letter budget for iterates.",
)
@click.option(
    "--n-cap", default=15, show_default=True, type=click.IntRange(min=0),
    help="Iteration ceiling; the stretch-factor error drifts like 2n times "
    "its enclosure width, so deep runs need a smaller tol.",
)
def iwip(
    map_path: str, seed: str, n_max: int, depth: int, tol: float, cap: int, n_cap: int
) -> None:
    """Deflated length, pairing and frequency diagnostics for an
    expanding map, one CSV row per iteration."""
    from .dynamics import graph_map_from_json_obj, iwip_rows, pf_eigenpair, transition_matrix

    f = _load(map_path, graph_map_from_json_obj, "graph map")
    g = _parse_word_arg(seed, f.chart.rank)
    if n_max > n_cap:
        raise click.ClickException(
            f"n={n_max} exceeds the iteration ceiling {n_cap} (raise --n-cap deliberately)"
        )
    pf_result = pf_eigenpair(transition_matrix(f), tol=tol)
    lam = pf_result.eigenvalue
    drift = 2 * n_max * pf_result.eigenvalue_bound / lam
    rows = iwip_rows(f.automorphism, f.chart, lam, g, n_max, depth, cap)
    _echo_csv(
        ["n", "length_estimate", "pairing_estimate", "freq_delta"],
        [
            [
                str(r.n),
                "cap_exceeded" if r.length_estimate is None else _fmt(r.length_estimate),
                "cap_exceeded" if r.pairing_estimate is None else _fmt(r.pairing_estimate),
                "cap_exceeded"
                if r.freq_delta is None and r.length_estimate is None
                else ("" if r.freq_delta is None else _fmt(float(r.freq_delta))),
            ]
            for r in rows
        ],
        extra_header=[
            f"lambda={_fmt(lam)} lambda_error={_fmt_error(lam, pf_result.eigenvalue_bound)} "
            f"relative_drift_bound={_fmt(drift)}"
        ],
    )


def _vertex(obj):
    from .currents import RationalCurrent
    from .marked_graph import marked_graph_from_json_obj
    from .splittings import FreeSplitting

    if "kind" in obj:
        return FreeSplitting.from_json_obj(obj)
    if "terms" in obj:
        return RationalCurrent.from_json_obj(obj)
    if "class" in obj:
        cw = conjugacy_class(obj["class"], _check_int(obj["rank"], "rank"))
        if cw is None:
            raise ValueError("cyclic word must be nonempty (identity has no cyclic word)")
        return cw
    if "edges" in obj:
        return marked_graph_from_json_obj(obj)
    raise ValueError("cannot tell its kind: no 'kind', 'terms', 'class' or 'edges' key")


@main.command("graph")
@click.option("--flavor", required=True, type=click.Choice(FLAVORS))
@click.option("--from", "from_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--to", "to_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--radius", default=3, show_default=True, type=click.IntRange(min=0))
@click.option("--moves", "moves_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--search-length", default=6, show_default=True, type=click.IntRange(min=1))
@click.option("--key-depth", default=4, show_default=True, type=click.IntRange(min=1))
@click.option("--state-cap", default=5000, show_default=True, type=click.IntRange(min=1))
def graph_cmd(
    flavor: str,
    from_path: str,
    to_path: str,
    radius: int,
    moves_path: str | None,
    search_length: int,
    key_depth: int,
    state_cap: int,
) -> None:
    """Bounded-radius distance between two vertices of a splitting graph."""
    from .splittings import bfs_distance

    v1, v2 = _load(from_path, _vertex, "vertex"), _load(to_path, _vertex, "vertex")
    moves = []
    if moves_path:
        moves = _load(moves_path, lambda objs: list(map(Automorphism.from_json_obj, objs)), "moves")
    dist = bfs_distance(
        flavor, v1, v2, radius, moves,  # type: ignore[arg-type]
        search_length=search_length, key_depth=key_depth, state_cap=state_cap,
    )
    _echo_json({"flavor": flavor, "distance": dist, "radius": radius})


if __name__ == "__main__":
    main()
