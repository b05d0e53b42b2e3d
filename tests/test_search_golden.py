"""Search determinism against a golden file.

For every (kernel, format) pair of the ``cold_compile`` benchmark list plus
``mvm/msr`` the golden file holds the sha1 of the emitted Python and C
source, the plan cost, and how much polyhedral and search work one cold
compile did.  A change to the arithmetic under ``repro.polyhedra`` must
leave every one of them equal: the search asks the same questions, gets the
same answers and emits the same bytes, it only pays less per answer.

Re-record (only when a change is *meant* to alter what is emitted) with
``PYTHONPATH=src python tests/test_search_golden.py``.

The file was re-recorded once on purpose, when the formats started storing
their index arrays as ``int32`` (ISSUE 16).  ``search_determinism.pr15.json``
is the file as it stood before, and
:func:`test_only_the_index_type_changed_since_pr15` pins exactly what that
re-recording was allowed to change: the C element type of the index
arrays (and the dtype tag of the search helpers specialised on it) and
nothing else — same Python source, same plan, same search and polyhedral
work, and a C source that is the old one byte for byte once the type is
written wide again (so ``codegen.c_source_bytes`` cannot have moved:
``int32_t`` and ``int64_t`` are the same length).

And once more when the search routines became loop IR (ISSUE 20) and the
five-function preamble every Python kernel carried was deleted.
``search_determinism.pr19.json`` is the file before that, and
:func:`test_only_the_preamble_changed_since_pr19` pins the difference: the
new Python source with the old preamble (:data:`PR19_PREAMBLE`, kept here
only for this) put back after its import line *is* the old source; C
source, plan cost and all work counters are equal — none of the pairs
contains a search.

And a third time when the native schedule stopped being a tier (ISSUE 24):
every pointer argument became ``restrict`` and guard_absorb /
register_tile run on every kernel.  ``search_determinism.pr22.json`` is
the file before that, and :func:`test_only_the_schedule_changed_since_pr22`
pins the difference: Python source, plan cost and all work counters are
equal; the C source of a kernel no transform fires on is the old one with
``restrict`` written in, byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

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
GOLDEN_PR15 = os.path.join(os.path.dirname(__file__), "golden",
                           "search_determinism.pr15.json")
GOLDEN_PR19 = os.path.join(os.path.dirname(__file__), "golden",
                           "search_determinism.pr19.json")
GOLDEN_PR22 = os.path.join(os.path.dirname(__file__), "golden",
                           "search_determinism.pr22.json")

PAIRS = [("mvm", f) for f in ("csr", "csc", "coo", "dia", "ell", "jad", "bsr", "msr")]
PAIRS += [("ts_lower", f) for f in ("csr", "csc", "jad")]
PAIRS += [("spmm", f) for f in ("csr", "csc", "bsr")]
PAIRS += [("spgemm", "csr")]

COUNTERS = ("fm.eliminations", "fm.feasible.calls", "fm.project.calls",
            "search.candidates.generated", "search.candidates.legal",
            "search.candidates.lowered")


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def _written_wide(c_source: str) -> str:
    """The C source with every narrow index type (and helper tag) written
    as PR 15 emitted it."""
    return re.sub(r"_i32\b", "_i64", re.sub(r"\bint32_t\b", "int64_t", c_source))


def _bindings(kernel: str, fmt: str) -> dict:
    coo = can_1072_like(seed=1072)
    if kernel == "ts_lower":
        A = repro.as_format(lower_triangular_of(coo), fmt)
        A.annotate_triangular("lower")
        return {"L": A}
    bindings = {"A": repro.as_format(coo, fmt)}
    if kernel == "spgemm":
        bindings["B"] = repro.as_format(coo, "csr")
    return bindings


def cold_record(kernel: str, fmt: str) -> dict:
    """Compile one pair from a cold state and describe what came out."""
    bindings = _bindings(kernel, fmt)
    clear_compile_cache()
    clear_memos()
    clear_pair_memo()
    before = INSTR.snapshot()["counters"]
    k = repro.compile_kernel(ALL_KERNELS[kernel](), bindings,
                             backend="python", cache="off")
    c_source = lower_kernel(k).c_source
    record = {"py_sha1": _sha1(k.source),
              "c_sha1": _sha1(c_source),
              "c_sha1_written_wide": _sha1(_written_wide(c_source)),
              "cost": repr(float(k.cost))}
    after = INSTR.snapshot()["counters"]
    for name in COUNTERS:
        record[name] = after.get(name, 0) - before.get(name, 0)
    return record


def _load(path: str) -> dict:
    if not os.path.exists(path):        # being recorded right now
        return {}
    with open(path) as f:
        return json.load(f)


_GOLDEN = _load(GOLDEN)
_PR15 = _load(GOLDEN_PR15)
_PR19 = _load(GOLDEN_PR19)
_PR22 = _load(GOLDEN_PR22)


@pytest.mark.parametrize("kernel,fmt", PAIRS, ids=lambda p: str(p))
def test_cold_compile_matches_golden(kernel, fmt):
    assert cold_record(kernel, fmt) == _GOLDEN[f"{kernel}.{fmt}"]


@pytest.mark.parametrize("kernel,fmt", PAIRS, ids=lambda p: str(p))
def test_only_the_index_type_changed_since_pr15(kernel, fmt):
    # between the two frozen files: what came after PR 19 is pinned below
    new, old = _PR19[f"{kernel}.{fmt}"], _PR15[f"{kernel}.{fmt}"]
    for name in ("py_sha1", "cost") + COUNTERS:
        assert new[name] == old[name], name
    # every pair here binds a format with index arrays, so the C source
    # did change — into the old one with a narrower element type
    assert new["c_sha1"] != old["c_sha1"]
    assert new["c_sha1_written_wide"] == old["c_sha1"]


#: what ``print_python`` put between the import line and ``def kernel``
#: up to PR 19: the search routines as Python text (their C twins were
#: templates in ``codegen/native.py``)
PR19_PREAMBLE = '''
def _bisect(arr, key, lo, hi):
    while lo < hi:
        mid = (lo + hi) // 2
        v = arr[mid]
        if v == key:
            return mid
        if v < key:
            lo = mid + 1
        else:
            hi = mid
    return -1

def _coo_find(rows, cols, r, c):
    for k in range(len(rows)):
        if rows[k] == r and cols[k] == c:
            return k
    return -1

def _ell_find(colind, rowlen, r, c):
    lo, hi = 0, rowlen[r]
    while lo < hi:
        mid = (lo + hi) // 2
        v = colind[r, mid]
        if v == c:
            return mid
        if v < c:
            lo = mid + 1
        else:
            hi = mid
    return -1

def _jad_row_find(dptr, colind, rowcnt, rr, c):
    lo, hi = 0, rowcnt[rr]
    while lo < hi:
        mid = (lo + hi) // 2
        jj = dptr[mid] + rr
        v = colind[jj]
        if v == c:
            return jj
        if v < c:
            lo = mid + 1
        else:
            hi = mid
    return -1

def _jad_find(ipermi, dptr, colind, rowcnt, r, c):
    if not (0 <= r < len(ipermi)):
        return -1
    return _jad_row_find(dptr, colind, rowcnt, ipermi[r], c)
'''


@pytest.mark.parametrize("kernel,fmt", PAIRS, ids=lambda p: str(p))
def test_only_the_preamble_changed_since_pr19(kernel, fmt):
    # between the two frozen files: what came after PR 22 is pinned below
    new, old = _PR22[f"{kernel}.{fmt}"], _PR19[f"{kernel}.{fmt}"]
    for name in ("c_sha1", "c_sha1_written_wide", "cost") + COUNTERS:
        assert new[name] == old[name], name
    assert new["py_sha1"] != old["py_sha1"]
    source = repro.compile_kernel(ALL_KERNELS[kernel](),
                                  _bindings(kernel, fmt),
                                  backend="python", cache="off").source
    assert _sha1(source) == new["py_sha1"]
    head = "import numpy as _np\n"
    assert source.startswith(head + "\ndef kernel(")
    assert _sha1(head + PR19_PREAMBLE + source[len(head):]) == old["py_sha1"]


#: the pairs the scheduler rewrites; every other C source is the PR 22
#: one with ``restrict`` on its pointers
REWRITTEN = {"mvm.dia": ["guard_absorb"], "spmm.csr": ["register_tile"]}


@pytest.mark.parametrize("kernel,fmt", PAIRS, ids=lambda p: str(p))
def test_only_the_schedule_changed_since_pr22(kernel, fmt):
    new, old = _GOLDEN[f"{kernel}.{fmt}"], _PR22[f"{kernel}.{fmt}"]
    for name in ("py_sha1", "cost") + COUNTERS:
        assert new[name] == old[name], name
    assert new["c_sha1"] != old["c_sha1"]
    k = repro.compile_kernel(ALL_KERNELS[kernel](), _bindings(kernel, fmt),
                             backend="python", cache="off")
    spec = lower_kernel(k)
    assert _sha1(spec.c_source) == new["c_sha1"]
    assert spec.transforms == REWRITTEN.get(f"{kernel}.{fmt}", [])
    if not spec.transforms:
        assert "restrict" in spec.c_source
        assert _sha1(spec.c_source.replace(" * restrict ", " * ")) \
            == old["c_sha1"]


if __name__ == "__main__":
    with open(GOLDEN, "w") as f:
        json.dump({f"{k}.{fmt}": cold_record(k, fmt) for k, fmt in PAIRS},
                  f, indent=1, sort_keys=True)
        f.write("\n")
