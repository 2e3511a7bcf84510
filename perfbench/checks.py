"""Correctness checks of one run.

Each check compares relrec's outputs with the independent computations
in reference.py, or with properties the method must have.  None compares
with stored copies of earlier output.  Every check returns a list of
failure messages; an empty list means it passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

import relrec.rationale as rationale
from relrec.graph import Vocab
from relrec.params import ModelDims, init_params
from relrec.relational import RelationSchema, TripleSet

import reference
from workloads import TARGET_RELATION, TOP_K

# Edges and non-edges whose count and PPMI value are compared one by one.
SAMPLED_EDGES = 1000
# Queries of round 0 whose probability is recomputed by the reference.
SAMPLED_OWA_QUERIES = 50


def check_graph(run) -> list[str]:
    s = run.setup
    ref = reference.read_graph(run.paths["graph"])
    if s.graph.vocab.terms != ref.terms:
        return ["graph: vocabulary differs from the TSV's terms in order of appearance"]
    failures = []
    if s.graph.n_edges != len(ref.counts):
        failures.append(f"graph: {s.graph.n_edges} edges, reference {len(ref.counts)}")
    if not np.array_equal(s.graph.marginals, ref.marginals):
        failures.append("graph: marginals differ from the reference sums")
    rng = np.random.default_rng(run.seed)
    pick = rng.choice(len(ref.counts), size=min(SAMPLED_EDGES, len(ref.counts)),
                      replace=False)
    pmi = ref.pmi(ref.lo[pick], ref.hi[pick], ref.counts[pick])
    for i, j, c, value in zip(ref.lo[pick].tolist(), ref.hi[pick].tolist(),
                              ref.counts[pick].tolist(), pmi.tolist()):
        if s.graph.count(i, j) != c:
            failures.append(f"graph: count({i}, {j}) = {s.graph.count(i, j)}, TSV {c}")
        expected = max(value, 0.0)
        for a, b in ((i, j), (j, i)):
            got = s.ppmi.value(a, b)
            if abs(got - expected) > reference.PPMI_RTOL * max(1.0, abs(expected)):
                failures.append(f"ppmi({a}, {b}) = {got!r}, reference {expected!r}")
    v = len(ref.terms)
    edges = set(zip(ref.lo.tolist(), ref.hi.tolist()))
    for i, j in rng.integers(0, v, size=(SAMPLED_EDGES, 2)).tolist():
        if i != j and (min(i, j), max(i, j)) not in edges and s.ppmi.value(i, j) != 0.0:
            failures.append(f"ppmi({i}, {j}) is nonzero on a non-edge")
    positive = int(np.sum(ref.pmi(ref.lo, ref.hi, ref.counts) > 0.0))
    entries = sum(len(ids) for ids in s.ppmi.neighbor_ids)
    if entries != 2 * positive:
        failures.append(f"ppmi: {entries} stored entries, reference {2 * positive}")
    return failures[:10]


def check_checkpoint(run, tensors: dict) -> list[str]:
    return [f"checkpoint: tensor {name} differs from the trained parameters"
            for name, value in run.result.params.tensors().items()
            if not np.array_equal(np.asarray(value), tensors[name])]


def check_training(run) -> list[str]:
    r = run.result
    if r.epochs_run != run.w.epochs or len(r.log) != run.w.epochs:
        return [f"training: ran {r.epochs_run} of {run.w.epochs} epochs"]
    return []


def check_evaluate(run, tensors, n_rel, assoc) -> tuple[list[str], dict]:
    """The dump of the last `relrec evaluate` call against the reference;
    returns the failures and the dumped probability of each (head, tail)."""
    printed = run.eval_result()
    if printed is None:
        return ["evaluate: the last call printed no result"], {}
    failures = []
    vocab = run.setup.graph.vocab
    with open(run.eval_file, encoding="utf-8") as fh:
        expected_rows = [line.rstrip("\n").split("\t")[:3] for line in fh]
    with open(run.dump_file, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    if [r[:3] for r in rows] != expected_rows:
        failures.append("evaluate: dumped pairs differ from the evaluated file")
    probs = {}
    for head, tail, label, prob in rows:
        h, t, p = vocab.id_of(head), vocab.id_of(tail), float(prob)
        probs[(h, t)] = p
        ref = reference.forward(tensors, n_rel, *reference.cross_pairs(
            assoc(h), assoc(t))).probability
        if abs(p - ref) > reference.PROB_TOL:
            failures.append(f"evaluate: p({head}, {tail}) = {p!r}, reference {ref!r}")
    labels = [int(r[2]) for r in rows]
    f1 = reference.f1([float(r[3]) for r in rows], labels)
    if printed["n_pairs"] != len(rows) or abs(printed["f1"] - f1) > 1e-12:
        failures.append(f"evaluate: printed {printed['n_pairs']} pairs F1 "
                        f"{printed['f1']!r}, dump gives {len(rows)} pairs F1 {f1!r}")
    return failures[:10], probs


def _entry_properties(report, top_k: int, target) -> list[str]:
    failures = []
    entries = report.rationales
    if len(entries) > top_k:
        failures.append(f"{len(entries)} entries, top_k {top_k}")
    scores = [e.score for e in entries]
    if scores != sorted(scores, reverse=True):
        failures.append("entries not sorted by score")
    for e in entries:
        if not math.isclose(e.score, e.attn * e.posterior, rel_tol=1e-12, abs_tol=0.0):
            failures.append(f"score {e.score!r} != attn x posterior")
        if (e.head_id, e.relation_id, e.tail_id) == target:
            failures.append("the target triple is its own rationale")
    return failures


def check_owa(run, tensors, n_rel, assoc) -> list[str]:
    failures = []
    target_rel = run.setup.schema.index_of(TARGET_RELATION)
    for n, (q, report) in enumerate(run.owa_reports):
        where = f"owa({q.head}, {q.tail})"
        failures += [f"{where}: {m}" for m in _entry_properties(
            report, TOP_K, (q.head, target_rel, q.tail)) + _positive_posteriors(report)]
        if n >= SAMPLED_OWA_QUERIES:
            continue
        ref = reference.forward(tensors, n_rel, *reference.cross_pairs(
            assoc(q.head), assoc(q.tail)))
        if abs(report.probability - ref.probability) > reference.PROB_TOL:
            failures.append(f"{where}: probability {report.probability!r}, "
                            f"reference {ref.probability!r}")
        for e in report.rationales:
            p = ref.pair_index(e.head_id, e.tail_id)
            if (p < 0 or abs(e.attn - ref.attn[p]) > reference.PROB_TOL
                    or abs(e.posterior - ref.posterior[p, e.relation_id])
                    > reference.PROB_TOL):
                failures.append(f"{where}: entry {e.head} {e.relation} {e.tail} "
                                "differs from the reference attention or posterior")
    return failures[:10]


def _cwa_entry_triples(report, kb: set) -> list[str]:
    return [f"{e.head} {e.relation} {e.tail} is not a kb triple"
            for e in report.rationales if (e.head, e.relation, e.tail) not in kb]


def _positive_posteriors(report) -> list[str]:
    return [f"posterior {e.posterior!r} is not above 0"
            for e in report.rationales if not e.posterior > 0.0]


def check_cwa(run, tensors, n_rel, assoc) -> list[str]:
    """CWA reports of the seeded queries.  A posterior above 0 is not
    required of them: relrec lists kb relations that did not survive the
    NA threshold on some seeds and not others, which would make a run's
    failed share depend on its seed.  CwaProbe checks that property on
    fixed inputs instead, and the traced run counts such entries as
    rationale.cwa_zero_posterior_entries."""
    failures = []
    kb = reference.read_triples(run.paths["triples"])
    kb_pairs = {(h, t) for h, _, t in kb}
    terms = run.setup.graph.vocab.terms
    target_rel = run.setup.schema.index_of(TARGET_RELATION)
    for q, report in run.cwa_reports:
        where = f"cwa({q.head}, {q.tail})"
        head_assoc, tail_assoc = assoc(q.head), assoc(q.tail)
        heads, tails = reference.cross_pairs(head_assoc, tail_assoc)
        in_kb = np.array([(terms[h], terms[t]) in kb_pairs
                          for h, t in zip(heads.tolist(), tails.tolist())], dtype=bool)
        if report.fallback != (not in_kb.any()):
            failures.append(f"{where}: fallback {report.fallback}, but "
                            f"{int(in_kb.sum())} association pairs are kb pairs")
            continue
        if report.fallback:
            if report.rationales:
                failures.append(f"{where}: a fallback report lists rationales")
            ref = reference.forward(tensors, n_rel, heads, tails)
        else:
            ref = reference.forward(tensors, n_rel, heads[in_kb], tails[in_kb])
        if abs(report.probability - ref.probability) > reference.PROB_TOL:
            failures.append(f"{where}: probability {report.probability!r}, "
                            f"reference {ref.probability!r}")
        failures += [f"{where}: {m}" for m in _entry_properties(
            report, TOP_K, (q.head, target_rel, q.tail))
            + _cwa_entry_triples(report, kb)]
    return failures[:10]


class CwaProbe:
    """One CWA query on fixed inputs that do not depend on the run's seed.

    The model is a 12-entity, d=8, 4-relation parameter set drawn from a
    fixed generator; the kb holds one triple of an association pair of
    the query, with a relation whose posterior the reference forward
    pass puts at exactly 0 (it does not survive the NA threshold).  The
    query fails when its report breaks a CWA rationale property,
    posterior above 0 included.  relrec lists that triple with posterior
    0, so the probe fails on every call until that is mended; each
    serving round makes it once and counts it in `failed`.
    """

    N_ENTITIES, DIM, N_REL, N_ASSOC = 12, 8, 4, 3
    HEAD, TAIL, RELATION = 0, 1, 0

    def __init__(self):
        self.params = init_params(ModelDims.square(self.DIM, self.N_REL),
                                  vocab_size=self.N_ENTITIES, seed=0)
        rng = np.random.default_rng(0)
        for tensor in self.params.tensors().values():
            tensor[...] = rng.normal(0.0, 0.5, size=tensor.shape)
        tensors = self.params.tensors()
        heads, tails = reference.cross_pairs(
            reference.top_associations(tensors, self.HEAD, self.N_ASSOC),
            reference.top_associations(tensors, self.TAIL, self.N_ASSOC))
        ref = reference.forward(tensors, self.N_REL, heads, tails)
        pair, relation = (int(x) for x in np.argwhere(ref.posterior == 0.0)[0])
        triple = (int(heads[pair]), relation, int(tails[pair]))
        self.vocab = Vocab(f"e{i}" for i in range(self.N_ENTITIES))
        self.schema = RelationSchema(names=tuple(f"rel_{k}" for k in range(self.N_REL)))
        self.kb = TripleSet(triples=[triple])
        self.kb_names = {(f"e{triple[0]}", f"rel_{relation}", f"e{triple[2]}")}

    def failures(self) -> list[str]:
        report = rationale.rationalize_pair(
            self.params, self.vocab, self.schema, self.HEAD, self.TAIL,
            self.RELATION, n_head=self.N_ASSOC, n_tail=self.N_ASSOC, top_k=TOP_K,
            mode="cwa", kb=self.kb)
        return [f"cwa probe: {m}" for m in _entry_properties(
            report, TOP_K, (self.HEAD, self.RELATION, self.TAIL))
            + _cwa_entry_triples(report, self.kb_names) + _positive_posteriors(report)]


def check_convergence(w, test_f1: float | None, fidelity: float | None) -> list[str]:
    """Test F1 and OWA rationale fidelity against the generative rule."""
    failures = []
    if w.min_test_f1 is not None and (test_f1 is None or test_f1 < w.min_test_f1):
        failures.append(f"convergence: test F1 {test_f1} < {w.min_test_f1}")
    if w.min_owa_fidelity is not None and (fidelity is None
                                           or fidelity < w.min_owa_fidelity):
        failures.append(f"convergence: OWA fidelity {fidelity} < {w.min_owa_fidelity}")
    return failures


def heldout_f1(run, probs: dict) -> float | None:
    """F1 over the test split, from the evaluate dump; None if the dump
    misses a test pair."""
    test = run.setup.test
    if any((p.head, p.tail) not in probs for p in test):
        return None
    return reference.f1([probs[(p.head, p.tail)] for p in test], [p.label for p in test])


def owa_fidelity(run) -> float | None:
    """Share of the OWA rationales of correctly predicted positive queries
    whose triple satisfies the generative rule; None without such queries."""
    with open(run.paths["rule"], encoding="utf-8") as fh:
        rule_file = json.load(fh)
    cluster = rule_file["clusters"]
    rule = {(hc, tc): rel for hc, tc, rel in rule_file["rule_edges"]}
    holds = total = 0
    for q, report in run.owa_reports:
        if q.label == 1 and report.probability >= 0.5:
            for e in report.rationales:
                total += 1
                holds += rule.get((cluster[e.head], cluster[e.tail])) == e.relation
    return holds / total if total else None


def run_all(run) -> tuple[list[str], dict]:
    """All checks; returns the failures and figures worth recording."""
    header, tensors = reference.read_checkpoint(run.checkpoint)
    n_rel = header["dims"]["n_rel"]
    cache: dict[int, np.ndarray] = {}

    def assoc(e: int) -> np.ndarray:
        if e not in cache:
            cache[e] = reference.top_associations(tensors, e, run.w.n_assoc)
        return cache[e]

    failures = check_training(run) + check_checkpoint(run, tensors)
    failures += check_graph(run)
    eval_failures, probs = check_evaluate(run, tensors, n_rel, assoc)
    failures += eval_failures
    failures += check_owa(run, tensors, n_rel, assoc)
    failures += check_cwa(run, tensors, n_rel, assoc)
    figures = {
        "test_f1": heldout_f1(run, probs),
        "owa_fidelity": owa_fidelity(run),
        "best_dev_f1": run.result.best_dev_f1,
    }
    failures += check_convergence(run.w, figures["test_f1"], figures["owa_fidelity"])
    return failures, figures
