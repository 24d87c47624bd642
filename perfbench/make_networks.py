"""Write perfbench/networks.jsonl, the fixed network structures of the
`network` workload: the first COUNT networks that
random_planar_network(STRANDS, rng, steps=DEPTH) draws from
random.Random(STRUCTURE_SEED), one JSON network per line.

The file is committed, so the workload keeps its inputs when the
generator changes.  Regenerate from the repository root with

    PYTHONPATH=src python3 perfbench/make_networks.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from a2webs.networks import random_planar_network

COUNT = 60
STRANDS = 4
DEPTH = 5
STRUCTURE_SEED = 0
PATH = Path(__file__).resolve().parent / "networks.jsonl"


def main() -> None:
    rng = random.Random(STRUCTURE_SEED)
    lines = [json.dumps(random_planar_network(STRANDS, rng, steps=DEPTH).to_json_obj(), separators=(",", ":"))
             for _ in range(COUNT)]
    PATH.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
