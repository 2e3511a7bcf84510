"""Write the generated inputs of one workload and seed.

    python3 perfbench/generate.py --workload quickstart --seed 1 --out DIR

writes DIR/graph.tsv, DIR/triples.tsv, DIR/pairs.tsv and DIR/rule.json
with relrec's own synthetic generator.  run.py calls this in a separate
process, so the generator's temporaries stay out of the measured peak
memory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from workloads import N_CLUSTERS, N_REL, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    from relrec.evaluation import generate_synthetic, write_synthetic_dataset

    w = WORKLOADS[args.workload]
    world = generate_synthetic(
        n_entities=w.n_entities, n_clusters=N_CLUSTERS, n_rel=N_REL,
        seed=args.seed,
    )
    write_synthetic_dataset(world, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
