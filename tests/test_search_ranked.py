"""The whole ranking a search returns, against a golden file.

``tests/golden/search_determinism.json`` pins each pair's winner.  The
compilation cache keeps more than the winner: ``CacheEntry.ranked`` holds
every lowered plan and is re-ranked when a new matrix shifts the
statistics, so a plan that lost today can be served tomorrow.  This file
pins that list for the same pairs: for each ranked plan, in order, the
candidate's description, its cost and the sha1 of ``Plan.pretty()``, plus
the search's candidate funnel.

Re-record (only when a change is *meant* to alter the ranking) with
``PYTHONPATH=src python tests/test_search_ranked.py``.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.core.compiler import infer_param_values
from repro.ir.kernels import ALL_KERNELS
from repro.search import search
from tests.test_search_golden import PAIRS, _bindings

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "search_ranked.json")


def ranked_record(kernel: str, fmt: str) -> dict:
    """One search of the pair, described plan by plan."""
    program = ALL_KERNELS[kernel]()
    bindings = _bindings(kernel, fmt)
    result = search(program, bindings, None,
                    infer_param_values(program, bindings))
    stats = result.stats
    return {
        "funnel": [stats.generated, stats.legal, stats.lowered],
        "ranked": [[cand.descr, repr(float(cost)),
                    hashlib.sha1(plan.pretty().encode()).hexdigest()]
                   for cost, cand, plan in result.ranked],
    }


def _load() -> dict:
    if not os.path.exists(GOLDEN):      # being recorded right now
        return {}
    with open(GOLDEN) as f:
        return json.load(f)


_GOLDEN = _load()


@pytest.mark.parametrize("kernel,fmt", PAIRS, ids=lambda p: str(p))
def test_ranking_matches_golden(kernel, fmt):
    got = ranked_record(kernel, fmt)
    want = _GOLDEN[f"{kernel}.{fmt}"]
    assert got["funnel"] == want["funnel"]
    assert len(got["ranked"]) == len(want["ranked"])
    for i, (g, w) in enumerate(zip(got["ranked"], want["ranked"])):
        assert g == w, f"ranked[{i}]"


if __name__ == "__main__":
    with open(GOLDEN, "w") as f:
        json.dump({f"{k}.{fmt}": ranked_record(k, fmt) for k, fmt in PAIRS},
                  f, indent=1, sort_keys=True)
        f.write("\n")
