"""Cost model (paper Figure 11) and the search driver (Sections 4.2-4.3)."""

import numpy as np
import pytest

from repro.analysis import dependences
from repro.core import compile_kernel
from repro.cost.model import plan_cost, step_totals
from repro.formats import as_format
from repro.ir.kernels import mvm, ts_lower
from repro.search import generate_candidates, search
from repro.search.candidates import _path_choices


class TestStepTotals:
    def test_csr(self, small_rect):
        f = as_format(small_rect, "csr")
        assert step_totals(f, "rows") == [6, f.nnz]

    def test_csc(self, small_rect):
        f = as_format(small_rect, "csc")
        assert step_totals(f, "cols") == [8, f.nnz]

    def test_coo(self, small_rect):
        f = as_format(small_rect, "coo")
        assert step_totals(f, "flat") == [f.nnz]

    def test_jad(self, small_rect):
        f = as_format(small_rect, "jad")
        assert step_totals(f, "flat") == [f.nnz]
        assert step_totals(f, "rows") == [6, f.nnz]

    def test_dense(self, small_rect):
        f = as_format(small_rect, "dense")
        assert step_totals(f, "rowmajor") == [6, 48]


def _skyline():
    """The user format of ``examples/custom_format.py``."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "examples" / "custom_format.py"
    spec = importlib.util.spec_from_file_location("custom_format", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SkylineMatrix


def _wall_matrices():
    from repro.formats.coo import CooMatrix
    from repro.formats.generate import (
        banded, block_structured, can_1072_like, laplacian_2d, power_law_rows,
        random_sparse,
    )

    return {
        "uniform": random_sparse(60, 60, 0.05, seed=1),
        "banded": banded(60, bandwidth=2, seed=0),
        "powerlaw": power_law_rows(60, 60, seed=0),
        "block": block_structured(60, block_size=4, seed=0),
        "laplacian": laplacian_2d(8),
        "can_1072": can_1072_like(),
        "rect": random_sparse(20, 34, 0.1, seed=3),
        "empty": CooMatrix.from_coo([], [], [], (6, 6)),
    }


class TestDeclaredTotals:
    """Wall: the closed forms :meth:`LevelRuntime.totals` sums from a
    declaration equal the walk over every stored entry
    (``tests/oracles/walk.py``) for every built-in format and path, the
    skyline example and the declared user format, at both index widths —
    up to the one rule the walk does not know: a level holding slots, or
    a ``Range``, reports at least 1, and a ``Dense`` level multiplies that."""

    @staticmethod
    def _floored(fmt, decl, walked):
        from repro.formats.levels import Dense, Perm, Size

        def extent(level):
            size = next(a for a in decl.args
                        if isinstance(a, Size) and a.local == level.extent)
            value = getattr(fmt, size.attr)
            return len(value) if size.kind == "len" else int(value)

        out = []
        for level, total in zip(decl.levels, walked):
            level = level.stored if isinstance(level, Perm) else level
            if isinstance(level, Dense):
                out.append((out[-1] if out else 1) * extent(level))
            else:
                out.append(max(1, total))
        return out

    @pytest.fixture(scope="class")
    def instances(self):
        from repro.formats.base import coo_dedup_sort
        from repro.formats.convert import FORMATS
        from tests.conftest import at_width
        from tests.test_custom_format import DeclaredCoo

        classes = dict(FORMATS, sky=_skyline(), cscoo=DeclaredCoo)
        out = []
        for mname, mat in _wall_matrices().items():
            rows, cols, vals = mat.to_coo_arrays()
            if mat.nrows == mat.ncols:   # SYM gets the symmetric part
                sym = coo_dedup_sort(np.concatenate([rows, cols]),
                                     np.concatenate([cols, rows]),
                                     np.concatenate([vals, vals]), mat.shape)
            for fname, cls in classes.items():
                if fname == "sym" and mat.nrows != mat.ncols:
                    continue
                triples = sym if fname == "sym" else (rows, cols, vals)
                inst = cls.from_coo(*triples, mat.shape)
                for width in (np.int32, np.int64):
                    out.append((f"{mname}/{fname}/{width.__name__}",
                                at_width(inst, width)))
        return out

    def test_closed_forms_equal_the_walk(self, instances):
        from repro.formats.base import LevelRuntime
        from tests.oracles.walk import walk_totals

        checked = set()
        for label, fmt in instances:
            for p in fmt.paths():
                decl = fmt.storage(p.path_id)
                rt = fmt.runtime(p.path_id)
                assert isinstance(rt, LevelRuntime), label
                walked = walk_totals(rt)
                declared = rt.totals()
                assert declared == self._floored(fmt, decl, walked), \
                    (label, p.path_id, walked)
                if min(walked) >= 1:
                    assert declared == walked, (label, p.path_id)
                assert step_totals(fmt, p.path_id) == declared
                checked.add((label.split("/")[1], p.path_id))
        assert len(checked) == 17   # every path of every format

    def test_an_undeclared_format_has_no_totals(self, small_rect):
        from tests.test_custom_format import Undeclared

        f = Undeclared.of(small_rect)
        with pytest.raises(ValueError, match="'cscoo_undeclared': no declaration"):
            step_totals(f, "flat")


class TestPlanCost:
    def test_cost_positive(self, small_rect):
        f = as_format(small_rect, "csr")
        k = compile_kernel(mvm(), {"A": f})
        assert k.cost > 0

    def test_best_not_worse_than_worst(self, lower_tri):
        f = as_format(lower_tri, "jad")
        best = compile_kernel(ts_lower(), {"L": f}, pick="best")
        worst = compile_kernel(ts_lower(), {"L": f}, pick="worst")
        assert best.cost <= worst.cost

    def test_cost_scales_with_nnz(self):
        from repro.formats.generate import random_sparse

        small = as_format(random_sparse(10, 10, 0.1, seed=1), "csr")
        big = as_format(random_sparse(100, 100, 0.1, seed=1), "csr")
        k_small = compile_kernel(mvm(), {"A": small})
        k_big = compile_kernel(mvm(), {"A": big})
        assert k_big.cost > k_small.cost


class TestSearch:
    def test_stats_consistent(self, lower_tri):
        f = as_format(lower_tri, "jad")
        deps = dependences(ts_lower())
        res = search(ts_lower(), {"L": f}, deps)
        s = res.stats
        assert s.generated >= s.legal >= s.lowered >= 1
        assert len(res.ranked) == s.lowered
        costs = [c for c, _, _ in res.ranked]
        assert costs == sorted(costs)

    def test_pick_first_stops_early(self, lower_tri):
        f = as_format(lower_tri, "jad")
        deps = dependences(ts_lower())
        res = search(ts_lower(), {"L": f}, deps, pick="first")
        assert res.stats.lowered == 1

    def test_heuristic_prunes_path_choices(self, lower_tri):
        """Section 4.3: one enumeration per matrix — the same-path
        heuristic collapses the per-reference path cross product."""
        f = as_format(lower_tri, "jad")
        with_h = list(_path_choices(ts_lower(), {"L": f}, True))
        without = list(_path_choices(ts_lower(), {"L": f}, False))
        assert len(with_h) == 2    # flat / rows, both references together
        assert len(without) == 4   # 2 refs x 2 paths

    def test_heuristics_shrink_candidates(self, lower_tri):
        f = as_format(lower_tri, "jad")
        deps = dependences(ts_lower())
        pruned = sum(1 for _ in generate_candidates(
            ts_lower(), {"L": f}, deps))
        full = sum(1 for _ in generate_candidates(
            ts_lower(), {"L": f}, deps, same_matrix_same_path=False))
        assert pruned < full

    def test_jad_chooses_rows_perspective_for_ts(self, lower_tri):
        """The flat perspective cannot satisfy the solve's ordering; the
        search must land on the rows perspective (the paper's conclusion
        for the running example)."""
        f = as_format(lower_tri, "jad")
        k = compile_kernel(ts_lower(), {"L": f})
        ref_paths = {r.path.path_id for c in k.plan.space.copies
                     for r in c.refs}
        assert ref_paths == {"rows"}

    def test_jad_mvm_prefers_flat(self, small_rect):
        """For an order-free accumulation the flat (fast) perspective wins
        on cost."""
        f = as_format(small_rect, "jad")
        k = compile_kernel(mvm(), {"A": f})
        ref_paths = {r.path.path_id for c in k.plan.space.copies
                     for r in c.refs}
        assert ref_paths == {"flat"}
