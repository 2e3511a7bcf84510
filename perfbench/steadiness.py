"""Steadiness of the benchmark on one commit.

    python3 perfbench/steadiness.py

Makes two sets of runs.  Each set runs every workload of BENCHMARK.json
once per seed in SEEDS, untraced, for the run length in BENCHMARK.json.
Both sets use the same seeds, so a difference between the sets is the
machine's and not the inputs'.  For each workload and end-to-end metric
it prints each set's median and quartiles, the spread (quartile distance
over the median), how much worse the second median is than the first,
the paired spread (quartile distance over the median of the per-seed
ratios of set 2 to set 1, from which differences between inputs drop
out), and the bound.

The sets agree when every spread and every paired spread is within its
bound, no median is worse than the first set's by more than its bound,
and the share of failed operations is the same in both sets.  The
unpaired spread of `setup_s` is exempt, as in the acceptance rule for
the benchmark: set-up time guards against work moved into set-up and is
held to its bound by the median and the paired spread.  Writes every
result line to .perfbench/steadiness.json and exits 1 if the sets do not
agree.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile distance / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for seed in SEEDS:
            for workload in workloads:
                start = time.perf_counter()
                result = one_run(workload, seed, spec["run_seconds"])
                runs[workload][s].append(result)
                print(f"set {s + 1} {workload} seed {seed}: correct "
                      f"{result['correct']} {time.perf_counter() - start:.0f}s",
                      file=sys.stderr, flush=True)
    out = ROOT / ".perfbench" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": list(SEEDS), "runs": runs}, indent=1) + "\n")

    ok = True
    print(f"{'workload':10s} {'metric':32s} {'set':>3s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'spread':>7s} {'worse':>7s} {'paired':>7s} {'bound':>6s}")
    for workload in workloads:
        sets = runs[workload]
        if not all(r["correct"] for rs in sets for r in rs):
            ok = False
            print(f"{workload}: runs with failed checks")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in sets]
        ok = ok and len(set(shares)) == 1
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [[r["metrics"][name]["value"] for r in rs] for rs in sets]
            paired = spread([b / a for a, b in zip(values[0], values[-1])])[3]
            first_median = None
            for s, vs in enumerate(values):
                med, q1, q3, sp = spread(vs)
                first_median = first_median or med
                worse = worse_by(first_median, med, m["better"])
                bad = ((sp > bound and name != "setup_s") or worse > bound
                       or paired > bound)
                ok = ok and not bad
                print(f"{workload:10s} {name:32s} {s + 1:3d} {med:11.5g} {q1:11.5g} "
                      f"{q3:11.5g} {sp:7.3f} {worse:7.3f} {paired:7.3f} {bound:6.2f}"
                      f"{'  FAIL' if bad else ''}")
        print(f"{workload:10s} failed share per set: {shares}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
