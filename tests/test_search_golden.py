"""Search determinism against a golden file recorded at the parent commit.

For every (kernel, format) pair of the ``cold_compile`` benchmark list plus
``mvm/msr`` the golden file holds the sha1 of the emitted Python and C
source, the plan cost, and how much polyhedral and search work one cold
compile did.  A change to the arithmetic under ``repro.polyhedra`` must
leave every one of them equal: the search asks the same questions, gets the
same answers and emits the same bytes, it only pays less per answer.

Re-record (only when a change is *meant* to alter the search) with
``PYTHONPATH=src python tests/test_search_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

import repro
from repro.codegen.native import lower_kernel
from repro.core.cache import clear_compile_cache
from repro.core.embedding import clear_pair_memo
from repro.formats.generate import can_1072_like, lower_triangular_of
from repro.instrument import INSTR
from repro.ir.kernels import ALL_KERNELS
from repro.polyhedra.fm import clear_memos

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "search_determinism.json")

PAIRS = [("mvm", f) for f in ("csr", "csc", "coo", "dia", "ell", "jad", "bsr", "msr")]
PAIRS += [("ts_lower", f) for f in ("csr", "csc", "jad")]
PAIRS += [("spmm", f) for f in ("csr", "csc", "bsr")]
PAIRS += [("spgemm", "csr")]

COUNTERS = ("fm.eliminations", "fm.feasible.calls", "fm.project.calls",
            "search.candidates.generated", "search.candidates.legal",
            "search.candidates.lowered")


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def cold_record(kernel: str, fmt: str) -> dict:
    """Compile one pair from a cold state and describe what came out."""
    coo = can_1072_like(seed=1072)
    if kernel == "ts_lower":
        A = repro.as_format(lower_triangular_of(coo), fmt)
        A.annotate_triangular("lower")
        bindings = {"L": A}
    else:
        bindings = {"A": repro.as_format(coo, fmt)}
    if kernel == "spgemm":
        bindings["B"] = repro.as_format(coo, "csr")
    clear_compile_cache()
    clear_memos()
    clear_pair_memo()
    before = INSTR.snapshot()["counters"]
    k = repro.compile_kernel(ALL_KERNELS[kernel](), bindings,
                             backend="python", cache="off")
    record = {"py_sha1": _sha1(k.source),
              "c_sha1": _sha1(lower_kernel(k).c_source),
              "cost": repr(float(k.cost))}
    after = INSTR.snapshot()["counters"]
    for name in COUNTERS:
        record[name] = after.get(name, 0) - before.get(name, 0)
    return record


with open(GOLDEN) as _f:
    _GOLDEN = json.load(_f) if os.path.getsize(GOLDEN) else {}


@pytest.mark.parametrize("kernel,fmt", PAIRS, ids=lambda p: str(p))
def test_cold_compile_matches_parent_commit(kernel, fmt):
    assert cold_record(kernel, fmt) == _GOLDEN[f"{kernel}.{fmt}"]


if __name__ == "__main__":
    with open(GOLDEN, "w") as f:
        json.dump({f"{k}.{fmt}": cold_record(k, fmt) for k, fmt in PAIRS},
                  f, indent=1, sort_keys=True)
        f.write("\n")
