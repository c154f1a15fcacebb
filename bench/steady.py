"""Check that the benchmark is steady: two sets of runs of the same code.

    python3 bench/steady.py [--runs 10]

Every workload of ``BENCHMARK.json`` runs at its ``run_seconds``.  Set A
uses seeds 1..runs, set B seeds 101..100+runs, so the spread counts both
host noise and the inputs a seed picks.  Runs alternate which set goes
first and never overlap.  For every workload and end-to-end metric it
prints each set's median and quartiles, the spread (quartile distance
over median) and the shift of B's median from A's (+ is worse), and
whether both spreads and the size of the shift stay within the metric's
bound; it also compares the share of failed operations.  The raw results
go to ``.bench_runs/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(spec: dict, results: dict) -> bool:
    """Print the comparison of the two sets; True when they agree."""
    print("spread = (q3 - q1) / median; shift = B median against A median, + is worse")
    print(f"{'workload':14s} {'metric':13s} {'bound':>5s}  {'A median [q1, q3]':>31s} {'spread':>6s}"
          f"  {'B median [q1, q3]':>31s} {'spread':>6s} {'shift':>7s}  ok")
    all_ok = True
    for w, sets in results.items():
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, med, spread = [], {}, {}
            for s in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[s]]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med[s] = statistics.median(values)
                spread[s] = (q3 - q1) / med[s]
                cells.append(f"{med[s]:9.4g} [{q1:9.4g}, {q3:9.4g}] {spread[s]:6.3f}")
            sign = 1 if m["better"] == "lower" else -1
            shift = sign * (med["B"] - med["A"]) / med["A"]
            ok = max(spread.values()) <= bound and abs(shift) <= bound
            all_ok &= ok
            print(f"{w:14s} {name:13s} {bound:5.2f}  {cells[0]}  {cells[1]} {shift:+7.3f}  {'yes' if ok else 'NO'}")
        shares = {s: sum(r["failed"] for r in sets[s]) / sum(r["attempted"] for r in sets[s]) for s in sets}
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        all_ok &= shares["A"] == shares["B"] and correct
        print(f"{w:14s} failed share A {shares['A']:.4f} B {shares['B']:.4f}; every output correct: {correct}")
    print("steady" if all_ok else "NOT steady")
    return all_ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = {"A": [1 + i for i in range(args.runs)], "B": [101 + i for i in range(args.runs)]}
    results = {w: {"A": [], "B": []} for w in workloads}
    out_dir = ROOT / ".bench_runs"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"steady-{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}.json"
    started = time.time()
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for s in order:
                results[w][s].append(one_run(w, seeds[s][i], seconds))
                out.write_text(json.dumps({"seconds": seconds, "seeds": seeds, "results": results}))
        print(f"# pass {i + 1}/{args.runs} done after {time.time() - started:.0f} s", file=sys.stderr)
    print(f"{args.runs} runs per set, --seconds {seconds}; results in {out.relative_to(ROOT)}")
    return 0 if report(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
