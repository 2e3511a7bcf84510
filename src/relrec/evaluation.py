"""Evaluation utilities and the synthetic benchmark world.

The synthetic generator plants a hidden rule over entity clusters:
selected ordered cluster pairs each carry one relation, and entities
whose cluster pair is rule-linked co-occur with high counts while all
other pairs only receive rare noise counts.  Relation triples, balanced
labeled pairs, and the co-occurrence graph are all emitted from the same
rule, so the rule itself is a ground-truth oracle for both prediction
accuracy and rationale fidelity.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .graph import (
    CoocGraph,
    DataError,
    GraphFormatError,
    UnknownTermError,
    Vocab,
    _tsv_rows,
    dump_cooc_graph,
)
from .relational import LabeledPair, RelationSchema, TripleSet

logger = logging.getLogger(__name__)


def f1_score(
    probabilities: np.ndarray, labels: np.ndarray, threshold: float = 0.5
) -> tuple[float, float, float]:
    """Precision, recall, and F1 at a probability threshold.  Degenerate
    denominators yield 0.0 rather than an error."""
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError("probabilities and labels must have the same shape")
    predicted = p >= threshold
    actual = y >= 0.5
    tp = float(np.sum(predicted & actual))
    fp = float(np.sum(predicted & ~actual))
    fn = float(np.sum(~predicted & actual))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, f1


def _allocate(n: int, ratios: tuple[float, ...]) -> list[int]:
    """Largest-remainder allocation of n items to the given ratios.
    Remainder ties go to the earlier split."""
    ideal = [n * r for r in ratios]
    base = [math.floor(x) for x in ideal]
    remainder = n - sum(base)
    by_frac = sorted(
        range(len(ratios)), key=lambda i: (-(ideal[i] - base[i]), i)
    )
    for i in by_frac[:remainder]:
        base[i] += 1
    return base


SPLIT_RATIOS = (0.7, 0.15, 0.15)


def split_dataset(
    pairs: list[LabeledPair],
    ratios: tuple[float, float, float] = SPLIT_RATIOS,
    seed: int = 0,
) -> tuple[list[LabeledPair], list[LabeledPair], list[LabeledPair]]:
    """Seeded stratified train/dev/test split.  Each label stratum is
    shuffled and allocated by largest remainder, so the positive:negative
    ratio of every split matches the input within one sample."""
    if len(ratios) != 3 or not all(math.isfinite(r) and r >= 0 for r in ratios):
        raise DataError(
            f"ratios must be three finite non-negative numbers, got {list(ratios)}"
        )
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"ratios must sum to 1, got {sum(ratios)}")
    if not pairs:
        raise DataError("cannot split an empty pair list")
    rng = np.random.default_rng(seed)
    splits: tuple[list[LabeledPair], ...] = ([], [], [])
    for label in sorted({p.label for p in pairs}):
        stratum = [p for p in pairs if p.label == label]
        order = rng.permutation(len(stratum))
        counts = _allocate(len(stratum), ratios)
        offset = 0
        for split, count in zip(splits, counts):
            split.extend(stratum[i] for i in order[offset : offset + count])
            offset += count
    return splits


def sample_negative_pairs(
    positives: list[tuple[int, int]],
    head_pool: np.ndarray,
    tail_pool: np.ndarray,
    seed: int,
    forbidden: set[tuple[int, int]] | None = None,
) -> list[tuple[int, int]]:
    """Equal-count negative pairs drawn uniformly from the argument
    pools.  No negative collides with a known positive (or any extra
    forbidden pair) and no negative repeats.  Raises DataError when the
    pools cannot supply enough distinct pairs within a bounded number of
    retries."""
    n = len(positives)
    if n == 0:
        return []
    head_pool = np.asarray(head_pool, dtype=np.int64)
    tail_pool = np.asarray(tail_pool, dtype=np.int64)
    if len(head_pool) == 0 or len(tail_pool) == 0:
        raise DataError("empty argument pool")
    blocked = set(positives) if forbidden is None else set(forbidden) | set(positives)
    rng = np.random.default_rng(seed)
    negatives: list[tuple[int, int]] = []
    drawn: set[tuple[int, int]] = set()
    max_tries = 1000 * n + 1000
    tries = 0
    while len(negatives) < n:
        tries += 1
        if tries > max_tries:
            raise DataError(
                f"could not sample {n} distinct negatives from pools of "
                f"size {len(head_pool)} x {len(tail_pool)} "
                f"(got {len(negatives)} after {max_tries} tries)"
            )
        pair = (
            int(head_pool[rng.integers(0, len(head_pool))]),
            int(tail_pool[rng.integers(0, len(tail_pool))]),
        )
        if pair in blocked or pair in drawn:
            continue
        drawn.add(pair)
        negatives.append(pair)
    return negatives


def load_pairs_tsv(
    path: str, vocab: Vocab, schema: RelationSchema
) -> list[LabeledPair]:
    """Load `head<TAB>tail<TAB>label<TAB>relation` rows."""
    pairs: list[LabeledPair] = []
    for lineno, (head, tail, label, relation) in _tsv_rows(path, 4):
        if label not in ("0", "1"):
            raise GraphFormatError(
                f"{path}: line {lineno}: label must be 0 or 1, got {label!r}"
            )
        try:
            pairs.append(
                LabeledPair(
                    head=vocab.id_of(head),
                    tail=vocab.id_of(tail),
                    label=int(label),
                    relation=schema.index_of(relation),
                )
            )
        except UnknownTermError as exc:
            raise GraphFormatError(f"{path}: line {lineno}: {exc}") from None
        except KeyError as exc:  # the schema's, whose str() would quote it
            raise GraphFormatError(f"{path}: line {lineno}: {exc.args[0]}") from None
    return pairs


def save_pairs_tsv(
    pairs: list[LabeledPair], vocab: Vocab, schema: RelationSchema, path: str
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(
                f"{vocab.term_of(pair.head)}\t{vocab.term_of(pair.tail)}\t"
                f"{pair.label}\t{schema.names[pair.relation]}\n"
            )


@dataclass
class SyntheticWorld:
    """A generated benchmark with a known relational rule.

    `rule` maps ordered cluster pairs to a relation index.  Relations
    come in mutually inverse couples (0 with 1, 2 with 3, ...): every
    rule edge generated in one direction has a companion edge in the
    opposite direction carrying the couple partner, mirroring how
    forward and inverse relation phrasings co-occur in real corpora.
    With an odd relation count the last relation is its own partner
    (a symmetric relation).
    """

    vocab: Vocab
    schema: RelationSchema
    clusters: np.ndarray
    rule: dict[tuple[int, int], int]
    graph: CoocGraph
    triples: TripleSet
    pairs_by_relation: dict[int, list[LabeledPair]]
    seed: int

    def rule_holds(self, head: int, relation: int, tail: int) -> bool:
        key = (int(self.clusters[head]), int(self.clusters[tail]))
        return self.rule.get(key) == relation

    def rule_true_pairs(self, relation: int) -> set[tuple[int, int]]:
        """Brute-force oracle: all entity pairs satisfying the rule."""
        members: dict[int, np.ndarray] = {}
        for c in set(self.clusters.tolist()):
            members[c] = np.flatnonzero(self.clusters == c)
        out: set[tuple[int, int]] = set()
        for (hc, tc), rel in self.rule.items():
            if rel != relation:
                continue
            for h in members.get(hc, ()):
                for t in members.get(tc, ()):
                    out.add((int(h), int(t)))
        return out

    def all_pairs(self) -> list[LabeledPair]:
        out: list[LabeledPair] = []
        for relation in sorted(self.pairs_by_relation):
            out.extend(self.pairs_by_relation[relation])
        return out


# Shape of a generated world beyond the generator's parameters.
SIGNAL_EDGE_PROB = 0.8
SIGNAL_COUNT_MEAN = 8.0
NOISE_COUNT_MEAN = 1.0
TRIPLES_PER_RULE_EDGE = 120


def generate_synthetic(
    n_entities: int = 300,
    n_clusters: int = 6,
    n_rel: int = 4,
    density: float = 0.3,
    noise: float = 0.05,
    seed: int = 0,
) -> SyntheticWorld:
    """Generate a seeded synthetic world.

    density is the fraction of ordered, non-diagonal cluster pairs that
    the rule covers; noise is the probability that a non-rule-linked
    entity pair still receives a (small) co-occurrence count.  A
    rule-linked pair gets a count with probability SIGNAL_EDGE_PROB.
    Signal counts are drawn as 3 + Poisson(SIGNAL_COUNT_MEAN), noise
    counts as 1 + Poisson(NOISE_COUNT_MEAN), so rule-linked pairs have
    much larger counts in expectation.  Each rule edge contributes up to
    TRIPLES_PER_RULE_EDGE relation triples.
    """
    if n_clusters < 2 or n_entities < n_clusters:
        raise DataError("need n_entities >= n_clusters >= 2")
    if n_rel < 1:
        raise DataError("need at least one relation")
    if not 0.0 < density <= 1.0:
        raise DataError("density must be in (0, 1]")
    if not 0.0 <= noise <= 1.0:
        raise DataError("noise must be in [0, 1]")
    rng = np.random.default_rng(seed)
    width = max(4, len(str(n_entities - 1)))
    vocab = Vocab([f"e{i:0{width}d}" for i in range(n_entities)])
    schema = RelationSchema(names=tuple(f"rel_{k}" for k in range(n_rel)))
    clusters = rng.integers(0, n_clusters, size=n_entities)

    # Sample unordered cluster pairs; each yields a forward rule edge and
    # a reverse edge labeled with the forward relation's inverse partner.
    # Pairing relations as mutual inverses (0<->1, 2<->3, ...) keeps the
    # translation geometry of distinct couples independent; chaining the
    # reverse to the *next* relation instead would force distinct
    # relation vectors to coincide once the translations fit every edge.
    unordered = [
        (a, b) for a in range(n_clusters) for b in range(a + 1, n_clusters)
    ]
    n_ordered = n_clusters * (n_clusters - 1)
    n_edges_wanted = max(1, round(density * n_ordered))
    n_unordered = min(len(unordered), math.ceil(n_edges_wanted / 2))
    if 2 * n_unordered < n_rel:
        raise DataError(
            f"density {density} yields only {2 * n_unordered} rule edges "
            f"for {n_rel} relations; increase density or cluster count"
        )
    member_counts = np.bincount(clusters, minlength=n_clusters)

    def _usable(rule: dict[tuple[int, int], int]) -> bool:
        # Every relation needs at least one populated rule edge and at
        # least one head-pool x tail-pool cluster combination that is NOT
        # rule-true, otherwise no valid negatives exist for it.
        heads: dict[int, set[int]] = {}
        tails: dict[int, set[int]] = {}
        for (hc, tc), r in rule.items():
            if member_counts[hc] and member_counts[tc]:
                heads.setdefault(r, set()).add(hc)
                tails.setdefault(r, set()).add(tc)
        for r in range(n_rel):
            if r not in heads or r not in tails:
                return False
            if not any(
                rule.get((hc, tc)) != r
                for hc in heads[r]
                for tc in tails[r]
            ):
                return False
        return True

    rule: dict[tuple[int, int], int] = {}
    for _attempt in range(64):
        candidate: dict[tuple[int, int], int] = {}
        chosen = rng.permutation(len(unordered))[:n_unordered]
        n_couples = math.ceil(n_rel / 2)
        for i, pair_idx in enumerate(chosen):
            a, b = unordered[int(pair_idx)]
            if rng.random() < 0.5:
                a, b = b, a
            relation = 2 * (i % n_couples)
            partner = relation + 1 if relation + 1 < n_rel else relation
            candidate[(a, b)] = relation
            candidate[(b, a)] = partner
        if _usable(candidate):
            rule = candidate
            break
    if not rule:
        raise DataError(
            "could not sample a rule giving every relation both positives "
            "and negatives; increase n_clusters or density"
        )

    # Co-occurrence counts: vectorized over the upper triangle.
    linked_lookup = np.zeros((n_clusters, n_clusters), dtype=bool)
    for (a, b) in rule:
        linked_lookup[a, b] = True
    iu, ju = np.triu_indices(n_entities, k=1)
    linked = linked_lookup[clusters[iu], clusters[ju]] | linked_lookup[
        clusters[ju], clusters[iu]
    ]
    draws = rng.random(len(iu))
    signal_edges = linked & (draws < SIGNAL_EDGE_PROB)
    noise_edges = ~linked & (draws < noise)
    counts: dict[tuple[int, int], int] = {}
    signal_counts = 3 + rng.poisson(SIGNAL_COUNT_MEAN, size=int(signal_edges.sum()))
    noise_counts = 1 + rng.poisson(NOISE_COUNT_MEAN, size=int(noise_edges.sum()))
    for edges, drawn in ((signal_edges, signal_counts), (noise_edges, noise_counts)):
        counts.update(zip(zip(iu[edges].tolist(), ju[edges].tolist()), drawn.tolist()))
    if not counts:
        raise DataError("generated graph has no edges; raise density or noise")
    graph = CoocGraph.from_counts(vocab, counts)

    # Relation triples: a seeded sample of entity pairs per rule edge.
    members = {c: np.flatnonzero(clusters == c) for c in range(n_clusters)}
    triples: list[tuple[int, int, int]] = []
    for (hc, tc) in sorted(rule):
        relation = rule[(hc, tc)]
        heads = members[hc]
        tails = members[tc]
        total = len(heads) * len(tails)
        if total == 0:
            continue
        take = min(TRIPLES_PER_RULE_EDGE, total)
        flat = rng.choice(total, size=take, replace=False)
        for f in flat.tolist():
            triples.append(
                (int(heads[f // len(tails)]), relation, int(tails[f % len(tails)]))
            )
    triple_set = TripleSet(triples=triples)

    # Balanced labeled pairs per relation; negatives come from the
    # per-relation argument pools and must violate the rule.
    pairs_by_relation: dict[int, list[LabeledPair]] = {}
    world = SyntheticWorld(
        vocab=vocab,
        schema=schema,
        clusters=clusters,
        rule=rule,
        graph=graph,
        triples=triple_set,
        pairs_by_relation=pairs_by_relation,
        seed=seed,
    )
    for relation in range(n_rel):
        positives = [(h, t) for h, r, t in triple_set.triples if r == relation]
        if not positives:
            pairs_by_relation[relation] = []
            continue
        negatives = sample_negative_pairs(
            positives,
            triple_set.head_pool(relation),
            triple_set.tail_pool(relation),
            seed=int(rng.integers(0, 2**63 - 1)),
            forbidden=world.rule_true_pairs(relation),
        )
        pairs = [
            LabeledPair(head=h, tail=t, label=1, relation=relation)
            for h, t in positives
        ] + [
            LabeledPair(head=h, tail=t, label=0, relation=relation)
            for h, t in negatives
        ]
        pairs_by_relation[relation] = pairs
    return world


def write_synthetic_dataset(world: SyntheticWorld, outdir: str) -> dict[str, str]:
    """Write graph.tsv, triples.tsv, pairs.tsv, and rule.json."""
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "graph": os.path.join(outdir, "graph.tsv"),
        "triples": os.path.join(outdir, "triples.tsv"),
        "pairs": os.path.join(outdir, "pairs.tsv"),
        "rule": os.path.join(outdir, "rule.json"),
    }
    dump_cooc_graph(world.graph, paths["graph"])
    with open(paths["triples"], "w", encoding="utf-8") as fh:
        for h, r, t in world.triples.triples:
            fh.write(
                f"{world.vocab.term_of(h)}\t{world.schema.names[r]}\t"
                f"{world.vocab.term_of(t)}\n"
            )
    save_pairs_tsv(world.all_pairs(), world.vocab, world.schema, paths["pairs"])
    with open(paths["rule"], "w", encoding="utf-8") as fh:
        json.dump(
            {
                "seed": world.seed,
                "relations": list(world.schema.names),
                "clusters": {
                    world.vocab.term_of(i): int(c)
                    for i, c in enumerate(world.clusters.tolist())
                },
                "rule_edges": sorted(
                    [hc, tc, world.schema.names[r]]
                    for (hc, tc), r in world.rule.items()
                ),
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    return paths


def check_rule_file(outdir: str) -> int:
    """Re-check every emitted labeled pair against the stored rule.
    Returns the number of mismatching labels (0 means consistent)."""
    with open(os.path.join(outdir, "rule.json"), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cluster_of = data["clusters"]
    rule = {
        (int(hc), int(tc)): rel for hc, tc, rel in data["rule_edges"]
    }
    mismatches = 0
    pairs = _tsv_rows(os.path.join(outdir, "pairs.tsv"), 4)
    for _, (head, tail, label, relation) in pairs:
        holds = rule.get((cluster_of[head], cluster_of[tail])) == relation
        mismatches += holds != (label == "1")
    return mismatches
