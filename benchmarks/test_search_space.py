"""Search-space statistics (paper Sections 4.2-4.3).

The paper counts the raw space for the running example — four groups of 7!
product spaces — and argues the heuristics make the search manageable.
This bench reports, per kernel/format: candidates generated, legal,
lowered and the distinct plans they lowered to, with the Section 4.3
same-path heuristic on and off, and times the whole compilation."""

import pytest

from repro.analysis import dependences
from repro.core import compile_kernel
from repro.formats import as_format
from repro.formats.generate import lower_triangular_of, random_sparse
from repro.ir.kernels import mvm, ts_lower
from repro.search import generate_candidates


def _lower():
    return lower_triangular_of(random_sparse(16, 16, 0.3, seed=3))


def test_search_space_table(capsys):
    lower = _lower()
    rect = random_sparse(12, 14, 0.3, seed=4)
    rows = []
    cases = [
        ("ts_lower", ts_lower(), "L", as_format(lower, "jad")),
        ("ts_lower", ts_lower(), "L", as_format(lower, "csr")),
        ("ts_lower", ts_lower(), "L", as_format(lower, "msr")),
        ("mvm", mvm(), "A", as_format(rect, "csr")),
        ("mvm", mvm(), "A", as_format(rect, "msr")),
    ]
    for name, prog, arr, fmt in cases:
        deps = dependences(prog)
        pruned = sum(1 for _ in generate_candidates(prog, {arr: fmt}, deps))
        full = sum(1 for _ in generate_candidates(
            prog, {arr: fmt}, deps, same_matrix_same_path=False))
        k = compile_kernel(prog, {arr: fmt})
        s = k.result.stats
        rows.append((name, fmt.format_name, full, pruned, s.legal, s.lowered,
                     s.distinct))
    with capsys.disabled():
        print("\n== search space (paper Sections 4.2-4.3) ==")
        print(f"{'kernel':10s} {'format':7s} {'full':>6s} {'heuristic':>10s} "
              f"{'legal':>6s} {'lowered':>8s} {'distinct':>9s}")
        for r in rows:
            print(f"{r[0]:10s} {r[1]:7s} {r[2]:6d} {r[3]:10d} {r[4]:6d} {r[5]:8d} "
                  f"{r[6]:9d}")
    for name, fmtn, full, pruned, legal, lowered, distinct in rows:
        assert pruned <= full
        assert lowered >= distinct >= 1


@pytest.mark.parametrize("fmt_name", ["csr", "jad", "msr"])
def test_compile_time(benchmark, fmt_name):
    """Wall-clock compilation cost per format (search + legality + lowering
    + cost + codegen)."""
    lower = _lower()

    def compile_once():
        fmt = as_format(lower, fmt_name)
        k = compile_kernel(ts_lower(), {"L": fmt})
        k.callable()
        return k

    k = benchmark.pedantic(compile_once, rounds=1, iterations=1)
    benchmark.extra_info["candidates"] = k.result.stats.generated
