"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload pairing --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout of the repository: the program is
imported from ``src/`` next to this directory, never from an installed
copy.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
say what was run.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics.

An untraced run builds, warms up and times a fixed number of whole rounds
in this process; between rounds, spread over the run, it times
``SETUP_PROBES`` fresh interpreters from their start to the first timed
operation (``setup_s`` is their median).  The number of rounds is
``--seconds`` divided by the workload's nominal round time, so two commits
given the same seed and seconds time the same operations.  Every reported
timing is CPU time (of this process and the children it waited for),
rescaled to a nominal host speed by reference samples taken during the
run (see ``hostspeed.py``); the unscaled CPU and the wall-clock figures
are printed on comment lines.  A traced run times one round untraced, then the
same round again with every layer wrapped (see ``layers.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
TRACE_ROUNDS = 1
IMPORT_PROBES = 5
MIN_SAMPLES = 40
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


@dataclass
class Timed:
    """What ``run_rounds`` measured: per operation, its CPU seconds, wall
    seconds and wall-clock start, and the counts of its outcomes."""

    cpu: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.cpu)


def run_rounds(wl, rounds: list[int], first=None, after_round=None, speed=None) -> Timed:
    """Time each round's calls, then check their outputs, then call
    ``after_round(r)`` if given.  With a ``HostSpeed``, a reference sample
    is taken between calls every ``hostspeed.EVERY_S`` of CPU time.  An
    operation that raises has failed, one whose output disagrees with its
    reference is wrong."""
    t = Timed()
    busy = 0.0
    cpu_clock = hostspeed.cpu_clock
    for r in rounds:
        ops = first if (first is not None and r == rounds[0]) else wl.build(r)
        outs = []
        for op in ops:
            if speed is not None:
                speed.maybe_sample(busy)
            t0, c0 = perf_counter(), cpu_clock()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            c1, t1 = cpu_clock(), perf_counter()
            busy += c1 - c0
            t.cpu.append(c1 - c0)
            t.wall.append(t1 - t0)
            t.starts.append(t0)
            outs.append(out)
        for op, out in zip(ops, outs):
            if isinstance(out, Exception):
                t.failed += 1
                t.problems.append(f"failed: {type(out).__name__}: {out}")
                continue
            try:
                op.check(out)
            except Exception as exc:
                t.wrong += 1
                t.problems.append(f"wrong: {type(exc).__name__}: {exc}")
        del ops, outs
        if after_round is not None:
            after_round(r)
    return t


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Wall seconds from spawning a fresh interpreter to its first timed
    call, and the CPU seconds it spent until then."""
    start = perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--probe"],
        cwd=ROOT, stdout=subprocess.PIPE,
    )
    line = child.stdout.readline().split()
    elapsed = perf_counter() - start
    child.stdout.read()
    child.stdout.close()
    if child.wait() != 0 or len(line) != 2 or line[0] != b"ready":
        raise RuntimeError(f"set-up probe for {workload} failed")
    return elapsed, float(line[1])


def set_up(cls, seed: int, **kwargs):
    """Build the workload, its first round and run one warm-up call."""
    wl = cls(ROOT, seed, **kwargs)
    first = wl.build(0)
    warm = wl.build(-1, limit=1)[0]
    warm.check(warm.call())
    return wl, first


def tail(latencies: list[float]) -> float:
    """Latency at the highest percentile with 10 samples beyond it."""
    return sorted(latencies)[len(latencies) - 11]


def latency_metrics(latencies: list[float]) -> tuple[dict[str, float], str]:
    """End-to-end latency metrics and a line saying which percentile the tail is."""
    n = len(latencies)
    if n < MIN_SAMPLES:
        raise RuntimeError(f"only {n} timed operations; need {MIN_SAMPLES}")
    how = f"op_tail_s is the {100 * (n - 10) / n:.2f}th percentile of {n} samples"
    return {"ops_per_s": n / sum(latencies), "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail(latencies)}, how


def src_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted((ROOT / "src").rglob("*.py")))


def import_seconds(env) -> float:
    """Median time of ``import outerint.cli`` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import outerint.cli; print(time.perf_counter() - t)"
    samples = [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                                    capture_output=True, text=True).stdout)
               for _ in range(IMPORT_PROBES)]
    return statistics.median(samples)


def untraced(cls, args):
    rounds = max(cls.min_rounds, round(args.seconds / cls.round_s))
    # spread the set-up probes over the run, so that one burst of host
    # load cannot slow all of them
    due = Counter(round(i * (rounds - 1) / (SETUP_PROBES - 1)) for i in range(SETUP_PROBES))
    setups: list[tuple[float, float, float]] = []  # (wall s, CPU s, when)
    speed = hostspeed.HostSpeed()

    def probe(r: int) -> None:
        for _ in range(due[r]):
            for _ in range(hostspeed.K // 2 + 1):
                speed.sample()
            start = perf_counter()
            wall, cpu = setup_probe(args.workload, args.seed)
            setups.append((wall, cpu, start + wall / 2))
            for _ in range(hostspeed.K // 2 + 1):
                speed.sample()

    wl, first = set_up(cls, args.seed)
    try:
        t = run_rounds(wl, list(range(rounds)), first, probe, speed)
        rss_kib = getattr(wl, "max_child_rss_kib", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        wl.close()
    norm = [c * speed.scale(t0 + w / 2) for c, w, t0 in zip(t.cpu, t.wall, t.starts)]
    metrics, how = latency_metrics(norm)
    norm_setups = [cpu * speed.scale(when) for _, cpu, when in setups]
    metrics["setup_s"] = statistics.median(norm_setups)
    metrics["peak_rss_mib"] = rss_kib / 1024
    ref = statistics.median(speed.seconds)
    print(f"# {args.workload} seed={args.seed}: {rounds} rounds, {t.attempted} timed operations, "
          f"{sum(t.cpu):.3f} CPU s in {sum(t.wall):.3f} wall s")
    print(f"# {how}")
    print(f"# timings are CPU seconds rescaled to a reference sample of {hostspeed.NOMINAL_S} s; this run's "
          f"{len(speed.seconds)} samples took {ref:.6f} s (median), x{hostspeed.NOMINAL_S / ref:.3f}")
    for label, values, setup in (("CPU, not rescaled", t.cpu, [cpu for _, cpu, _ in setups]),
                                 ("wall-clock", t.wall, [wall for wall, _, _ in setups])):
        plain, _ = latency_metrics(values)
        print(f"# {label}: " + " ".join(f"{k} {v:.6g}" for k, v in plain.items())
              + f" setup_s {statistics.median(setup):.6g}")
    print(f"# setup_s is the median of {SETUP_PROBES} fresh interpreters: " + " ".join(f"{x:.4f}" for x in norm_setups))
    return metrics, t.attempted, t.failed, t.wrong, t.problems


def traced(cls, args):
    import layers

    kwargs = {"in_process": True} if args.workload == "cli" else {}
    rounds = list(range(TRACE_ROUNDS))
    wl, first = set_up(cls, args.seed, **kwargs)
    try:
        plain = run_rounds(wl, rounds, first)
    finally:
        wl.close()
    tracer = layers.Tracer()
    tracer.install()
    try:
        wl, first = set_up(cls, args.seed, **kwargs)
        try:
            traced_run = run_rounds(wl, rounds, first)
        finally:
            wl.close()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["src.lines"] = src_lines()
    plain_s, traced_s = sum(plain.wall), sum(traced_run.wall)
    plain_rate, traced_rate = plain.attempted / plain_s, traced_run.attempted / traced_s
    metrics["trace.overhead_ops_per_s"] = traced_rate - plain_rate
    if args.workload == "cli":
        metrics["cli.command_s"] = plain_s
        metrics["cli.import_s"] = import_seconds(wl.env)
    print(f"# {args.workload} seed={args.seed} traced: {len(rounds)} round(s) of {plain.attempted} operations")
    print(f"# tracing overhead: untraced {plain_rate:.3f} ops/s, traced {traced_rate:.3f} ops/s "
          f"({traced_rate - plain_rate:+.3f} ops/s, x{plain_rate / traced_rate:.2f} time)")
    both = (plain, traced_run)
    return (metrics, sum(x.attempted for x in both), sum(x.failed for x in both), sum(x.wrong for x in both),
            plain.problems + traced_run.problems)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "outerint" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'outerint'} is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # one thread per process, as the load shape asks: numpy's BLAS would
    # otherwise start a pool of threads whose spinning counts as CPU time
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import outerint

    if Path(outerint.__file__).resolve().parent != ROOT / "src" / "outerint":
        print(f"error: imported outerint from {outerint.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe:
        wl, _ = set_up(cls, args.seed)
        print(f"ready {hostspeed.cpu_clock()!r}", flush=True)
        wl.close()
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured, attempted, failed, wrong, problems = (traced if args.trace else untraced)(cls, args)
    for line in problems[:20]:
        print(f"# {line}", file=sys.stderr)
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    if args.trace:
        for name, m in metrics.items():
            if m["value"]:
                print(f"# {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
