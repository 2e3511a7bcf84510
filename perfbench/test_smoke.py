"""Smoke test of the benchmark on a reduced workload.

    python3 -m pytest -q perfbench/test_smoke.py

Runs the `smoke` workload untraced and traced and checks the result line
against BENCHMARK.json, checks that the benchmark refuses to run without
relrec's sources, and checks the reference computations and rationale
checks on their own.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from relrec.params import ModelDims, init_params  # noqa: E402
from relrec.rationale import prediction_forward  # noqa: E402
from relrec.recall import top_associations  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line(trace, group):
    proc = run_benchmark(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    # Whole rounds of the same operations; the fixed CWA probe is the
    # only operation that may fail, once per round.
    w = WORKLOADS["smoke"]
    per_round = (w.setups_per_round + 1 + w.owa_queries + w.cwa_kb_queries
                 + w.cwa_fallback_queries + 1)
    rounds = json.loads((ROOT / ".perfbench" / "results" /
                         f"BENCH_smoke_seed3_trace{trace}.json").read_text())["rounds"]
    assert result["attempted"] == rounds * per_round
    assert result["failed"] in (0, rounds)
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_forward_matches_relrec():
    rng = np.random.default_rng(5)
    params = init_params(ModelDims.square(6, 3), vocab_size=40, seed=5)
    for tensor in params.tensors().values():
        tensor[...] = rng.normal(0.0, 0.5, size=tensor.shape)
    tensors = params.tensors()
    for head, tail in [(0, 1), (7, 30), (39, 2)]:
        assoc_h = reference.top_associations(tensors, head, 5)
        assoc_t = reference.top_associations(tensors, tail, 4)
        assert assoc_h.tolist() == top_associations(params, head, 5).entity_ids.tolist()
        assert assoc_t.tolist() == top_associations(params, tail, 4).entity_ids.tolist()
        ref = reference.forward(tensors, 3, *reference.cross_pairs(assoc_h, assoc_t))
        trace = prediction_forward(params, head, tail, 5, 4)
        assert abs(ref.probability - trace.probability) <= reference.PROB_TOL
        assert np.allclose(ref.posterior, trace.posterior, rtol=0, atol=1e-12)


def test_entry_checks_catch_faults():
    def entry(score, attn, posterior, ids=(1, 0, 2)):
        return SimpleNamespace(score=score, attn=attn, posterior=posterior,
                               head_id=ids[0], relation_id=ids[1], tail_id=ids[2])

    good = SimpleNamespace(rationales=[entry(0.5, 0.5, 1.0), entry(0.2, 0.4, 0.5)])
    assert checks._entry_properties(good, 5, (9, 0, 9)) == []
    unsorted = SimpleNamespace(rationales=list(reversed(good.rationales)))
    assert checks._entry_properties(unsorted, 5, (9, 0, 9))
    assert checks._entry_properties(good, 1, (9, 0, 9))
    assert checks._entry_properties(good, 5, (1, 0, 2))
    wrong_score = SimpleNamespace(rationales=[entry(0.3, 0.5, 1.0)])
    assert checks._entry_properties(wrong_score, 5, (9, 0, 9))
    assert checks._positive_posteriors(good) == []
    assert checks._positive_posteriors(SimpleNamespace(rationales=[entry(0.0, 0.5, 0.0)]))


def test_cwa_probe_inputs():
    """The probe's kb triple is an association pair of the query, with a
    relation the reference gives posterior exactly 0."""
    probe = checks.CwaProbe()
    (head, relation, tail), = probe.kb.triples
    tensors = probe.params.tensors()
    ref = reference.forward(tensors, probe.N_REL, *reference.cross_pairs(
        reference.top_associations(tensors, probe.HEAD, probe.N_ASSOC),
        reference.top_associations(tensors, probe.TAIL, probe.N_ASSOC)))
    assert ref.posterior[ref.pair_index(head, tail), relation] == 0.0
