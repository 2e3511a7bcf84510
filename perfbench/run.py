"""relrec benchmark: one run of one workload.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 50 --trace 0

Generates the workload's inputs from the seed in a separate process,
then measures relrec in this process, checks its outputs, and prints
every metric with its unit.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
are the per-layer ones of a traced run, with the tracing overhead.
A fuller record (machine, thread counts, commit, input digests, timing
samples) is written to .perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS/OpenMP thread, the steadiest choice
# on a small shared host.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
INPUT_FILES = ("graph", "triples", "pairs", "rule")
GENERATE_TIMEOUT_S = 300
# Serving rounds of a traced run, in the order traced, untraced,
# untraced, traced, so neither side always runs first.
TRACED_ROUNDS = (True, False, False, True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def generate(workload: str, seed: int, outdir: Path) -> dict[str, str]:
    subprocess.run(
        [sys.executable, str(HERE / "generate.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(outdir)],
        check=True, timeout=GENERATE_TIMEOUT_S, stdout=subprocess.DEVNULL)
    ext = {"rule": ".json"}
    return {name: str(outdir / (name + ext.get(name, ".tsv"))) for name in INPUT_FILES}


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git;
    "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def end_to_end(samples, owa_per_round: int) -> dict[str, tuple[float, str]]:
    import numpy as np

    from harness import peak_rss_mb

    # The tail is taken per round (every round serves the same OWA list,
    # at least 200 queries) and the median over rounds is reported, so a
    # burst of host load during one round does not set the run's p95.
    owa = samples.owa_ms
    p95 = statistics.median(
        float(np.percentile(owa[i:i + owa_per_round], 95))
        for i in range(0, len(owa), owa_per_round))
    # Training and evaluate throughput are taken from the median epoch
    # and the median call, for the same reason.
    return {
        "setup_s": (statistics.median(samples.setup_s), "s"),
        "train.pairs_per_s": (samples.train_pairs / statistics.median(samples.train_epoch_s),
                              "pairs/s"),
        "evaluate.pairs_per_s": (samples.eval_pairs / statistics.median(samples.evaluate_s),
                                 "pairs/s"),
        "rationalize.owa_p50_ms": (statistics.median(samples.owa_ms), "ms"),
        "rationalize.owa_p95_ms": (p95, "ms"),
        "rationalize.cwa_kb_p50_ms": (statistics.median(samples.cwa_kb_ms), "ms"),
        "rationalize.cwa_fallback_p50_ms": (statistics.median(samples.cwa_fallback_ms),
                                            "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def measure(run, seconds: float) -> dict:
    """The untraced schedule; returns the end-to-end metrics."""
    start = time.perf_counter()
    run.first_setups(run.w.setups_first)
    run.train()
    run.save()
    run.build_queries()
    rounds = 0
    while True:
        took = run.serve_round(keep_reports=rounds == 0)
        rounds += 1
        if rounds >= run.w.min_rounds and time.perf_counter() - start + took > seconds:
            break
    run.rounds = rounds
    return end_to_end(run.samples, run.w.owa_queries)


def measure_traced(run):
    """A traced set-up and training, then the serving rounds of
    TRACED_ROUNDS.  The overhead compares the median OWA query of the
    traced rounds with that of the untraced ones.  Returns the per-layer
    metrics and the tracer."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.span("bench.setup"):
            run.first_setups(1)
        run.train()
        run.save()
        run.build_queries()
    finally:
        tracer.restore()
    owa_ms = {True: [], False: []}
    for n, traced in enumerate(TRACED_ROUNDS):
        first = len(run.samples.owa_ms)
        if traced:
            layers.install(tracer)
        try:
            run.serve_round(keep_reports=n == 0, tracer=tracer if traced else None)
        finally:
            tracer.restore()
        owa_ms[traced] += run.samples.owa_ms[first:]
    run.rounds = len(TRACED_ROUNDS)
    overhead_pct = 100.0 * (statistics.median(owa_ms[True])
                            / statistics.median(owa_ms[False]) - 1.0)
    return layers.per_layer_metrics(tracer, run, overhead_pct), tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relrec" / "__init__.py").is_file():
        print(f"error: relrec sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import relrec

    if Path(relrec.__file__).resolve().parent != SRC / "relrec":
        print(f"error: imported relrec from {relrec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    from harness import Run

    w = WORKLOADS[args.workload]
    workdir = OUT / "work" / f"{w.name}-seed{args.seed}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    label = f"{w.name}_seed{args.seed}_trace{args.trace}"
    try:
        workdir.mkdir(parents=True)
        paths = generate(w.name, args.seed, workdir / "inputs")
        digests = {name: sha256(p) for name, p in paths.items()}
        run = Run(w, args.seed, paths, str(workdir))
        if args.trace:
            metrics, tracer = measure_traced(run)
            tracer.write(str(results / f"BENCH_{label}.spans.jsonl"))
        else:
            metrics = measure(run, args.seconds)
        failures, figures = checks.run_all(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "machine": machine(numpy),
        "inputs_sha256": digests,
        "rounds": run.rounds,
        "samples": {"setup_s": run.samples.setup_s,
                    "evaluate_s": run.samples.evaluate_s,
                    "train_epoch_s": run.samples.train_epoch_s,
                    "owa_ms": run.samples.owa_ms,
                    "cwa_kb_ms": run.samples.cwa_kb_ms,
                    "cwa_fallback_ms": run.samples.cwa_fallback_ms},
        "checks": {"failures": failures, "probe_failures": run.probe_failures,
                   **figures},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (results / f"BENCH_{label}.json").write_text(json.dumps(record, indent=2) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": run.samples.attempted,
        "failed": run.samples.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
