"""The whole ranking a search returns, against a golden file.

``tests/golden/search_determinism.json`` pins each pair's winner.  The
compilation cache keeps more than the winner: ``CacheEntry.ranked`` holds
every distinct plan and is re-ranked when a new matrix shifts the
statistics, so a plan that lost today can be served tomorrow.  This file
pins that list for the same pairs: for each ranked plan, in order, the
first candidate's description, its cost, the sha1 of ``Plan.pretty()`` and
the descriptions of the later candidates that lowered to the same plan,
plus the search's candidate funnel (generated, legal, lowered, distinct).

Re-record (only when a change is *meant* to alter the ranking) with
``PYTHONPATH=src python tests/test_search_ranked.py``.

The file was re-recorded once on purpose, when the search stopped
offering placements that repeat a plan and started keeping each plan once.
``search_ranked.pr36.json`` is the file before that, when ``ranked`` held
every lowered candidate, and :func:`test_only_the_duplicates_left_since_pr36`
pins the difference: the new list is the old one with every repeat of a
(cost, plan) removed, first occurrences kept in order, and the twins of a
plan are among the old list's repeats of it.
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
GOLDEN_PR36 = os.path.join(os.path.dirname(__file__), "golden",
                           "search_ranked.pr36.json")


def ranked_record(kernel: str, fmt: str) -> dict:
    """One search of the pair, described plan by plan."""
    program = ALL_KERNELS[kernel]()
    bindings = _bindings(kernel, fmt)
    result = search(program, bindings, None,
                    infer_param_values(program, bindings))
    stats = result.stats
    return {
        "funnel": [stats.generated, stats.legal, stats.lowered, stats.distinct],
        "ranked": [[cand.descr, repr(float(cost)),
                    hashlib.sha1(plan.pretty().encode()).hexdigest(),
                    list(cand.twins)]
                   for cost, cand, plan in result.ranked],
    }


def _load(path: str) -> dict:
    if not os.path.exists(path):        # being recorded right now
        return {}
    with open(path) as f:
        return json.load(f)


_GOLDEN = _load(GOLDEN)
_PR36 = _load(GOLDEN_PR36)


@pytest.mark.parametrize("kernel,fmt", PAIRS, ids=lambda p: str(p))
def test_ranking_matches_golden(kernel, fmt):
    got = ranked_record(kernel, fmt)
    want = _GOLDEN[f"{kernel}.{fmt}"]
    assert got["funnel"] == want["funnel"]
    assert len(got["ranked"]) == len(want["ranked"])
    for i, (g, w) in enumerate(zip(got["ranked"], want["ranked"])):
        assert g == w, f"ranked[{i}]"


@pytest.mark.parametrize("kernel,fmt", PAIRS, ids=lambda p: str(p))
def test_only_the_duplicates_left_since_pr36(kernel, fmt):
    new, old = _GOLDEN[f"{kernel}.{fmt}"], _PR36[f"{kernel}.{fmt}"]
    repeats: dict = {}
    kept = []
    for descr, cost, sha1 in old["ranked"]:
        if (cost, sha1) in repeats:
            repeats[cost, sha1].append(descr)
        else:
            repeats[cost, sha1] = []
            kept.append([descr, cost, sha1])
    assert [entry[:3] for entry in new["ranked"]] == kept
    for descr, cost, sha1, twins in new["ranked"]:
        assert set(twins) <= set(repeats[cost, sha1]), descr
    # the candidates the search no longer offers were repeats or illegal
    generated, legal, lowered, distinct = new["funnel"]
    assert distinct == len(kept) and lowered == distinct + sum(
        len(entry[3]) for entry in new["ranked"])
    assert generated <= old["funnel"][0] and lowered <= old["funnel"][2]


def test_the_sym_search_stays_small():
    """A clock-free guard on the search's size.  ``mvm`` on SYM is the
    widest built-in search: 7776 candidates lowered 2916 times into 45
    plans before placements that repeat a plan stopped being offered."""
    import repro
    from repro.formats.generate import can_1072_like

    program = ALL_KERNELS["mvm"]()
    bindings = {"A": repro.as_format(can_1072_like(seed=1072), "sym")}
    stats = search(program, bindings, None,
                   infer_param_values(program, bindings)).stats
    assert stats.generated <= 150
    assert stats.distinct == 45


if __name__ == "__main__":
    with open(GOLDEN, "w") as f:
        json.dump({f"{k}.{fmt}": ranked_record(k, fmt) for k, fmt in PAIRS},
                  f, indent=1, sort_keys=True)
        f.write("\n")
