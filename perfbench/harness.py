"""Measurement schedule of one benchmark run.

Every timed call goes through relrec's public functions by module
attribute (`training.joint_train`, `rationale.rationalize_pair`, ...), so
the traced run can replace them in place.  The schedule:

1. `setups_first` set-ups, training on the last, saving the checkpoint;
2. build the query lists (untimed);
3. serving rounds, each of: `setups_per_round` more set-ups, one
   `relrec evaluate` call, every OWA query, every CWA query, and the
   fixed CWA probe of checks.CwaProbe.  Rounds repeat until the run's
   seconds are used, and at least `min_rounds` times.

Only the operations of the serving rounds count as attempted, so every
run attempts whole rounds of the same operations and the share of
failed ones does not depend on how many rounds fit in the run.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

import relrec.cli as cli
import relrec.evaluation as evaluation
import relrec.graph as graph_mod
import relrec.params as params_mod
import relrec.rationale as rationale
import relrec.relational as relational
import relrec.training as training

import reference
from checks import CwaProbe
from workloads import LR, RELATION_NAMES, TARGET_RELATION, TOP_K, Workload

# Candidate pairs drawn at most while looking for CWA queries of each regime.
MAX_CWA_CANDIDATES = 20000


@dataclass
class Setup:
    """What `relrec train` holds before its first step."""

    graph: object
    ppmi: object
    schema: object
    kb: object
    train_triples: object
    train: list
    dev: list
    test: list
    target_pairs: list


def load_setup(paths: dict, w: Workload, seed: int) -> Setup:
    graph = graph_mod.load_cooc_graph(paths["graph"])
    ppmi = graph_mod.compute_ppmi(graph)
    schema = relational.RelationSchema(names=RELATION_NAMES)
    kb = relational.load_triples_tsv(paths["triples"], graph.vocab, schema)
    pairs = evaluation.load_pairs_tsv(paths["pairs"], graph.vocab, schema)
    target = schema.index_of(TARGET_RELATION)
    target_pairs = [p for p in pairs if p.relation == target]
    train, dev, test = evaluation.split_dataset(target_pairs, seed=seed)
    # As in `relrec train`: dev/test positives stay out of the triples.
    held_out = {(p.head, target, p.tail) for p in dev + test if p.label == 1}
    train_triples = relational.TripleSet(
        triples=[t for t in kb.triples if t not in held_out])
    return Setup(graph, ppmi, schema, kb, train_triples, train, dev, test,
                 target_pairs)


def timed_setup(paths: dict, w: Workload, seed: int) -> tuple[Setup, float]:
    gc.collect()
    start = time.perf_counter()
    setup = load_setup(paths, w, seed)
    return setup, time.perf_counter() - start


def balanced(pairs: list, n: int) -> list:
    """The first n/2 negatives and n/2 positives of a split; 0 keeps all."""
    if n == 0:
        return pairs
    neg = [p for p in pairs if p.label == 0][: n // 2]
    pos = [p for p in pairs if p.label == 1][: n - n // 2]
    return neg + pos


def train_config(w: Workload, seed: int, epochs: int):
    return training.TrainConfig(
        d=w.dim, n_neg=w.n_neg, n_assoc=w.n_assoc, lr=LR, b1=w.b1, b2=w.b2,
        b3=w.b3, max_epochs=epochs, patience=epochs + 1, seed=seed)


@dataclass
class Samples:
    setup_s: list[float] = field(default_factory=list)
    train_epoch_s: list[float] = field(default_factory=list)
    train_pairs: int = 0
    evaluate_s: list[float] = field(default_factory=list)
    eval_pairs: int = 0
    owa_ms: list[float] = field(default_factory=list)
    cwa_kb_ms: list[float] = field(default_factory=list)
    cwa_fallback_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


@dataclass
class Query:
    head: int
    tail: int
    label: int | None = None
    expect_fallback: bool | None = None


class Run:
    """State of one run: inputs, the trained model and the query lists."""

    def __init__(self, w: Workload, seed: int, paths: dict, workdir: str):
        self.w = w
        self.seed = seed
        self.paths = paths
        self.samples = Samples()
        self.checkpoint = os.path.join(workdir, "model.bin")
        self.eval_file = os.path.join(workdir, "eval_pairs.tsv")
        self.dump_file = os.path.join(workdir, "eval_dump.tsv")
        self.eval_stdout = ""
        self.owa_reports: list = []
        self.cwa_reports: list = []
        self.cwa_fallback_share = 0.0
        self.probe = CwaProbe()
        self.probe_failures: list[str] = []
        self.setup: Setup | None = None
        self.result = None
        self.rounds = 0

    # -- phases -----------------------------------------------------------

    def first_setups(self, n: int) -> None:
        for _ in range(n):
            self.setup = None
            self.setup, seconds = timed_setup(self.paths, self.w, self.seed)
            self.samples.setup_s.append(seconds)

    def train(self, epochs: int | None = None):
        """Train from scratch; returns the TrainResult.  The default
        epoch count is the workload's, and its result is kept."""
        s = self.setup
        keep = epochs is None
        config = train_config(self.w, self.seed, epochs or self.w.epochs)
        pairs = balanced(s.train, self.w.train_pairs)
        dev = balanced(s.dev, self.w.dev_pairs)
        gc.collect()
        result = training.joint_train(
            s.graph, s.ppmi, s.train_triples, pairs, dev, config, s.schema)
        if keep:
            self.result = result
            self.samples.train_epoch_s = [e.wall_seconds for e in result.log]
            self.samples.train_pairs = len(pairs)
        return result

    def save(self) -> None:
        s, r = self.setup, self.result
        meta = {
            "train": train_config(self.w, self.seed, self.w.epochs).to_dict(),
            "relations": list(s.schema.names),
            "target_relation": TARGET_RELATION,
            "ratios": [0.7, 0.15, 0.15],
            "threshold": 0.5,
            "best_epoch": r.best_epoch,
            "best_dev_f1": r.best_dev_f1,
        }
        params_mod.save_checkpoint(
            self.checkpoint, r.params, s.graph.vocab, meta, state=r.state)

    def build_queries(self) -> None:
        """A seeded OWA list from the target pairs, and CWA lists of each
        regime: random entity pairs whose reference associations do
        (kb) or do not (fallback) form a pair stored in the kb."""
        w, s = self.w, self.setup
        rng = np.random.default_rng(self.seed)
        pool = [s.target_pairs[i] for i in rng.permutation(len(s.target_pairs))]
        owa = [Query(p.head, p.tail, p.label)
               for p in (pool[i % len(pool)] for i in range(w.owa_queries))]
        self.samples.eval_pairs = len(pool[: w.eval_pairs])
        with open(self.eval_file, "w", encoding="utf-8") as fh:
            for p in pool[: w.eval_pairs]:
                fh.write(f"{s.graph.vocab.term_of(p.head)}\t"
                         f"{s.graph.vocab.term_of(p.tail)}\t{p.label}\t"
                         f"{TARGET_RELATION}\n")

        terms = s.graph.vocab.terms
        kb_pairs = {(h, t) for h, _, t in reference.read_triples(self.paths["triples"])}
        tensors = self.result.params.tensors()
        assoc: dict[int, np.ndarray] = {}

        def top(e: int) -> list[str]:
            if e not in assoc:
                assoc[e] = reference.top_associations(tensors, e, w.n_assoc)
            return [terms[i] for i in assoc[e]]

        kb_queries, fallback_queries = [], []
        while (len(kb_queries) < w.cwa_kb_queries
               or len(fallback_queries) < w.cwa_fallback_queries):
            if len(kb_queries) + len(fallback_queries) == MAX_CWA_CANDIDATES:
                raise RuntimeError(
                    f"{MAX_CWA_CANDIDATES} candidate pairs gave {len(kb_queries)} kb "
                    f"and {len(fallback_queries)} fallback CWA queries")
            head, tail = (int(x) for x in rng.choice(len(terms), 2, replace=False))
            tails = top(tail)
            hit = any((a, b) in kb_pairs for a in top(head) for b in tails)
            bucket = kb_queries if hit else fallback_queries
            bucket.append(Query(head, tail, expect_fallback=not hit))
        # What the model decides: the share of drawn pairs that fall back.
        self.cwa_fallback_share = len(fallback_queries) / (
            len(kb_queries) + len(fallback_queries))
        # Host noise drifts over seconds, so each kind of query is spread
        # evenly through the round rather than timed in one burst.
        self.queries = interleave(
            [("owa", q) for q in owa],
            [("cwa", q) for q in kb_queries[: w.cwa_kb_queries]],
            [("cwa", q) for q in fallback_queries[: w.cwa_fallback_queries]])
        # Long-lived benchmark state is frozen out of the cyclic collector,
        # so collections during timed calls scan only what relrec allocates.
        gc.collect()
        gc.freeze()

    def evaluate(self) -> float:
        argv = ["evaluate", "--model", self.checkpoint, "--pairs", self.eval_file,
                "--dump", self.dump_file]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        self.samples.attempted += 1
        if code != 0:
            self.samples.failed += 1
        self.eval_stdout = out.getvalue()
        return seconds

    def rationalize(self, query: Query, mode: str):
        s = self.setup
        start = time.perf_counter()
        report = rationale.rationalize_pair(
            self.result.params, s.graph.vocab, s.schema, query.head, query.tail,
            s.schema.index_of(TARGET_RELATION), n_head=self.w.n_assoc,
            n_tail=self.w.n_assoc, top_k=TOP_K, mode=mode,
            kb=s.kb if mode == "cwa" else None)
        self.samples.attempted += 1
        return report, (time.perf_counter() - start) * 1e3

    def serve_round(self, keep_reports: bool, tracer=None) -> float:
        """One round; returns its wall seconds."""
        w, samples = self.w, self.samples
        span = tracer.span if tracer is not None else _no_span
        start = time.perf_counter()
        for _ in range(w.setups_per_round):
            with span("bench.setup"):
                _, seconds = timed_setup(self.paths, w, self.seed)
            samples.setup_s.append(seconds)
            samples.attempted += 1
        gc.collect()
        with span("cli.evaluate"):
            samples.evaluate_s.append(self.evaluate())
        for mode, query in self.queries:
            with span(f"bench.{mode}_query"):
                report, ms = self.rationalize(query, mode)
            if mode == "owa":
                samples.owa_ms.append(ms)
                reports = self.owa_reports
            else:
                (samples.cwa_fallback_ms if query.expect_fallback
                 else samples.cwa_kb_ms).append(ms)
                reports = self.cwa_reports
            if keep_reports:
                reports.append((query, report))
        samples.attempted += 1
        with (tracer.paused() if tracer is not None else contextlib.nullcontext()):
            try:
                failures = self.probe.failures()
            except Exception as exc:  # an error is a failed probe, not a crash
                failures = [f"cwa probe: {exc!r}"]
        if failures:
            samples.failed += 1
            self.probe_failures = failures
        return time.perf_counter() - start

    def eval_result(self) -> dict | None:
        """The JSON line the last `relrec evaluate` printed, if any."""
        lines = self.eval_stdout.splitlines()
        return json.loads(lines[0]) if lines else None


def interleave(*lists: list) -> list:
    """Merge lists so that the items of each are spread evenly."""
    keyed = [((i + 0.5) / len(items), k, item)
             for k, items in enumerate(lists) for i, item in enumerate(items)]
    return [item for _, _, item in sorted(keyed, key=lambda x: x[:2])]


@contextlib.contextmanager
def _no_span(name):
    yield


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
