"""Traced relrec calls and the per-layer metrics computed from their spans.

A `*_ms` or `*_s` layer metric is the median self time of one call: the
span's duration minus that of the traced calls inside it.  The
`training.stage.*_s` metrics are whole-stage seconds per epoch, child
calls included.  Counts are per call or per query, and shares are of
what was drawn, so neither grows with the run length.
"""

from __future__ import annotations

import importlib
import statistics

# (caller module, function name, span name).  The span name is the
# defining layer and the function, whichever namespace the call comes from.
TRACED_CALLS = (
    ("relrec.graph", "load_cooc_graph", "graph.load_cooc_graph"),
    ("relrec.graph", "compute_ppmi", "graph.compute_ppmi"),
    ("relrec.relational", "load_triples_tsv", "relational.load_triples_tsv"),
    ("relrec.evaluation", "load_pairs_tsv", "evaluation.load_pairs_tsv"),
    ("relrec.training", "joint_train", "training.joint_train"),
    ("relrec.training", "recall_loss", "recall.recall_loss"),
    ("relrec.training", "relational_loss", "relational.relational_loss"),
    ("relrec.relational", "corrupt_triples", "relational.corrupt_triples"),
    ("relrec.training", "prediction_loss", "training.prediction_loss"),
    ("relrec.training", "prediction_forward", "rationale.prediction_forward"),
    ("relrec.training", "prediction_backward", "rationale.prediction_backward"),
    ("relrec.training", "adam_step", "params.adam_step"),
    ("relrec.training", "predict_probabilities", "training.predict_probabilities"),
    ("relrec.params", "save_checkpoint", "params.save_checkpoint"),
    ("relrec.cli", "load_checkpoint", "params.load_checkpoint"),
    ("relrec.cli", "prediction_forward", "rationale.prediction_forward"),
    ("relrec.rationale", "rationalize_pair", "rationale.rationalize_pair"),
    ("relrec.rationale", "predict_relation", "rationale.predict_relation"),
    ("relrec.rationale", "prediction_forward", "rationale.prediction_forward"),
    ("relrec.rationale", "top_associations", "recall.top_associations"),
    ("relrec.rationale", "extract_rationales", "rationale.extract_rationales"),
    ("relrec.rationale", "cwa_rationales", "rationale.cwa_rationales"),
)


def _candidates_scored(tracer, args, kwargs, result):
    # relational_loss(params, triples, n_neg, seed): the gold triple and
    # n_neg corruptions, on the tail side and on the head side.
    tracer.count("relational.candidates_scored", len(args[1]) * 2 * (args[2] + 1))


def _assumption_records(tracer, args, kwargs, result):
    records = result[1]
    tracer.count("rationale.assoc_pairs", len(records))
    tracer.count("rationale.survivors",
                 sum(len(r.posterior.survivors) for r in records))


def _owa_candidates(tracer, args, kwargs, result):
    records, target = args[0], args[1]
    tracer.count("rationale.owa_candidates_ranked", sum(
        (r.assoc_head, int(k), r.assoc_tail) != target
        for r in records for k in r.posterior.survivors))


def _cwa_pairs(tracer, args, kwargs, result):
    tracer.count("rationale.cwa_kb_pairs", len(result))


ON_RESULT = {
    "relational_loss": _candidates_scored,
    "predict_relation": _assumption_records,
    "extract_rationales": _owa_candidates,
    "cwa_rationales": _cwa_pairs,
}


def install(tracer) -> None:
    for module_name, attr, span_name in TRACED_CALLS:
        tracer.patch(importlib.import_module(module_name), attr, span_name,
                     ON_RESULT.get(attr))


# metric name -> (span name, scale from seconds)
SELF_TIMES = {
    "graph.load_cooc_graph_s": ("graph.load_cooc_graph", 1.0),
    "graph.compute_ppmi_s": ("graph.compute_ppmi", 1.0),
    "relational.load_triples_tsv_s": ("relational.load_triples_tsv", 1.0),
    "evaluation.load_pairs_tsv_s": ("evaluation.load_pairs_tsv", 1.0),
    "relational.relational_loss_ms": ("relational.relational_loss", 1e3),
    "recall.recall_loss_ms": ("recall.recall_loss", 1e3),
    "recall.top_associations_ms": ("recall.top_associations", 1e3),
    "rationale.prediction_forward_ms": ("rationale.prediction_forward", 1e3),
    "rationale.prediction_backward_ms": ("rationale.prediction_backward", 1e3),
    "rationale.predict_relation_ms": ("rationale.predict_relation", 1e3),
    "rationale.extract_rationales_ms": ("rationale.extract_rationales", 1e3),
    "rationale.cwa_rationales_ms": ("rationale.cwa_rationales", 1e3),
    "training.prediction_loss_ms": ("training.prediction_loss", 1e3),
    "params.adam_step_ms": ("params.adam_step", 1e3),
    "params.save_checkpoint_ms": ("params.save_checkpoint", 1e3),
    "params.load_checkpoint_ms": ("params.load_checkpoint", 1e3),
}

# metric name -> span name whose inclusive seconds, per training epoch,
# make up that stage.
STAGES = {
    "training.stage.recall_s": "recall.recall_loss",
    "training.stage.relational_s": "relational.relational_loss",
    "training.stage.prediction_s": "training.prediction_loss",
    "training.stage.adam_s": "params.adam_step",
    "training.stage.dev_eval_s": "training.predict_probabilities",
}


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def per_layer_metrics(tracer, run, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run as name -> (value, unit)."""
    setup, epochs = run.setup, run.w.epochs
    own = tracer.self_times()
    dur = tracer.durations()
    metrics: dict[str, tuple[float, str]] = {}
    for name, (span, scale) in SELF_TIMES.items():
        values = [own[i] * scale for i in tracer.select(span)]
        metrics[name] = (statistics.median(values) if values else 0.0,
                         "ms" if scale != 1.0 else "s")
    for name, span in STAGES.items():
        total = sum(dur[i] for i in tracer.select(span, "training.joint_train"))
        metrics[name] = (_per(total, epochs), "s")
    corrupt = tracer.child_sums("relational.corrupt_triples",
                                "relational.relational_loss")
    metrics["relational.corrupt_triples_ms"] = (
        statistics.median(corrupt) * 1e3 if corrupt else 0.0, "ms")
    evaluate = [dur[i] for i in tracer.select("cli.evaluate")]
    metrics["cli.evaluate_s"] = (statistics.median(evaluate), "s")

    c = tracer.counts
    n_loss = len(tracer.select("relational.relational_loss"))
    n_predict = len(tracer.select("rationale.predict_relation"))
    n_owa = len(tracer.select("bench.owa_query"))
    n_cwa = len(tracer.select("bench.cwa_query"))
    metrics.update({
        "graph.edges": (float(setup.graph.n_edges), "count"),
        "graph.ppmi_entries": (float(sum(len(ids) for ids in setup.ppmi.neighbor_ids)),
                               "count"),
        "relational.candidates_scored": (
            _per(c["relational.candidates_scored"], n_loss), "count"),
        "rationale.assoc_pairs": (_per(c["rationale.assoc_pairs"], n_predict), "count"),
        "rationale.survivors_per_pair": (
            _per(c["rationale.survivors"], c["rationale.assoc_pairs"]), "count"),
        "rationale.owa_candidates_ranked": (
            _per(c["rationale.owa_candidates_ranked"], n_owa), "count"),
        "rationale.cwa_kb_pairs": (_per(c["rationale.cwa_kb_pairs"], n_cwa), "count"),
        "rationale.cwa_fallback_share": (run.cwa_fallback_share, "share"),
        "rationale.cwa_zero_posterior_entries": (_per(sum(
            e.posterior == 0.0 for _, r in run.cwa_reports for e in r.rationales),
            len(run.cwa_reports)), "count"),
        "recall.top_associations_per_owa_query": (_per(len(tracer.select(
            "recall.top_associations", "bench.owa_query")), n_owa), "count"),
        "recall.top_associations_per_cwa_query": (_per(len(tracer.select(
            "recall.top_associations", "bench.cwa_query")), n_cwa), "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return metrics
