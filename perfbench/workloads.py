"""Workload definitions of the relrec benchmark.

Each workload fixes the generator parameters of the synthetic world, the
training configuration, the subsets it trains and evaluates on, and the
sizes of the query lists it serves.  The seed argument of a run picks the
world; everything else is fixed here so two runs differ only in inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

# The README world's generator shape and learning rate, shared by
# every workload.
N_CLUSTERS = 6
N_REL = 4
LR = 0.01
RELATION_NAMES = tuple(f"rel_{k}" for k in range(N_REL))
TARGET_RELATION = "rel_0"
# Entries per rationale report (`rationalize_pair(top_k=...)`).
TOP_K = 5


@dataclass(frozen=True)
class Workload:
    name: str
    # Generator (relrec.evaluation.generate_synthetic).
    n_entities: int
    # Training (relrec.training.TrainConfig); patience is set above the
    # epoch count so early stopping never cuts a run short.
    dim: int
    n_assoc: int
    n_neg: int
    b1: int
    b2: int
    b3: int
    epochs: int
    # Label-balanced subsets of the train/dev splits; 0 keeps the split.
    train_pairs: int
    dev_pairs: int
    # Target-relation pairs scored by each `relrec evaluate` call.
    eval_pairs: int
    # Per serving round: OWA queries, and CWA queries of each regime.
    owa_queries: int
    cwa_kb_queries: int
    cwa_fallback_queries: int
    # Timed set-ups before training (the last one is trained on), set-ups
    # per serving round, and the fewest rounds a run makes.
    setups_first: int
    setups_per_round: int
    min_rounds: int
    # Correctness thresholds that depend on training having converged;
    # None skips the check (the large workload trains only a few steps).
    min_test_f1: float | None = None
    min_owa_fidelity: float | None = None


WORKLOADS = {
    # The README world and training configuration.  Per-call Python work
    # dominates: the per-pair prediction loop, relational sampling and
    # scatter, and building the records of each rationale.
    "quickstart": Workload(
        name="quickstart",
        n_entities=300,
        dim=32, n_assoc=16, n_neg=100, b1=128, b2=128, b3=32,
        epochs=12, train_pairs=0, dev_pairs=0, eval_pairs=720,
        owa_queries=720, cwa_kb_queries=600, cwa_fallback_queries=600,
        setups_first=1, setups_per_round=3, min_rounds=3,
        min_test_f1=0.6, min_owa_fidelity=0.05,
    ),
    # The ROADMAP baseline scale (V=3000, d=128, 1.16M edges).  Array work
    # dominates: graph ingest and memory, full-vocabulary softmax per
    # association list, 1024-pair posterior grids and dense Adam moments.
    "large": Workload(
        name="large",
        n_entities=3000,
        dim=128, n_assoc=32, n_neg=100, b1=256, b2=256, b3=64,
        epochs=2, train_pairs=128, dev_pairs=32, eval_pairs=128,
        owa_queries=200, cwa_kb_queries=100, cwa_fallback_queries=100,
        setups_first=3, setups_per_round=0, min_rounds=3,
    ),
    # A reduced copy of quickstart for the benchmark's own smoke test.
    "smoke": Workload(
        name="smoke",
        n_entities=120,
        dim=8, n_assoc=6, n_neg=10, b1=32, b2=32, b3=16,
        epochs=2, train_pairs=64, dev_pairs=16, eval_pairs=40,
        owa_queries=200, cwa_kb_queries=5, cwa_fallback_queries=5,
        setups_first=1, setups_per_round=1, min_rounds=1,
    ),
}
