"""Regenerate ``perfbench/pins.json``: the facts the benchmark checks its
outputs against, and the work estimates it uses to build seed-independent
passes.

    python3 perfbench/pin.py

* ``verify-n7``: for every shard (i, 512) of the labelled space and each of
  clique-exhaustive, proof-ineq and turan-upper at n <= 7, t in {2, 3}:
  ``checked``, ``boundary_cases`` and the single-worker CPU seconds of the
  call (used only to balance passes). Also the triangle-thm result at
  n <= 6.
* ``ramsey-levels``: R(K_3, {H-x}) and R(K_3, {H-ebar}) as (lower, upper)
  for a pool of seeded 6-vertex graphs H, with the CPU seconds of each
  query (used only to balance passes).

Takes about four minutes on two cores.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

SHARDS = 512
SHARDED_SUITES = ("clique-exhaustive", "proof-ineq", "turan-upper")
POOL_SIZE = 66
POOL_DENSITIES = (0.3, 0.4, 0.5, 0.6)
RAMSEY_T = 3


def pool_graph(k: int):
    """The k-th pool graph: G(6, p) drawn from the benchmark's own RNG."""
    from k2tlab import build

    rng = random.Random(1000 + k)
    p = POOL_DENSITIES[k % len(POOL_DENSITIES)]
    return build(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if rng.random() < p])


def _shard(i: int) -> tuple[int, dict]:
    from k2tlab import suites

    out = {}
    for suite in SHARDED_SUITES:
        start = time.process_time()
        result = suites.run_suite(suite, n_max=7, workers=1, shard=(i, SHARDS))
        cpu = time.process_time() - start
        if result.violation_count:
            raise SystemExit(f"{suite} shard {i}: {result.violation_count} violations")
        out[suite] = [result.checked, result.boundary_cases, round(cpu, 4)]
    return i, out


def _pool_entries(k: int) -> list[dict]:
    from k2tlab import graph6_encode, ramsey_exact
    from k2tlab.ramsey import RamseyQuery, family_minus_ebar, family_minus_vertex

    h = pool_graph(k)
    out = []
    for name, family in (("minus_vertex", family_minus_vertex), ("minus_ebar", family_minus_ebar)):
        start = time.process_time()
        res = ramsey_exact(RamseyQuery(t=RAMSEY_T, family=family(h)))
        cpu = time.process_time() - start
        out.append({"h": graph6_encode(h), "family": name,
                    "value": [res.lower, res.upper], "work_s": round(cpu, 4)})
    return out


def main() -> None:
    from k2tlab import suites

    workers = min(2, len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        shards = dict(pool.map(_shard, range(SHARDS)))
        ramsey_pool = [e for pair in pool.map(_pool_entries, range(POOL_SIZE)) for e in pair]
    tri = suites.run_suite("triangle-thm", n_max=6)
    pins = {
        "verify-n7": {
            "shards": SHARDS,
            "by_shard": {str(i): shards[i] for i in range(SHARDS)},
            "triangle-thm": {
                "checked": tri.checked,
                "boundary_cases": tri.boundary_cases,
                "ramsey_ebar": tri.details["ramsey_ebar"],
                "delta": {str(k): v for k, v in tri.details["delta"].items()},
            },
        },
        "ramsey-levels": {"t": RAMSEY_T, "pool": ramsey_pool},
    }
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
