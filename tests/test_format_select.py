"""Automatic format selection (paper Section 6 future work, implemented)."""

import numpy as np
import pytest

from repro.core.plan import PlanError
from repro.formats import as_format
from repro.formats.generate import banded, lower_triangular_of, random_sparse
from repro.ir.kernels import mvm, ts_lower
from repro.search import select_format


class TestModelMode:
    def test_ranks_all_candidates(self):
        m = random_sparse(12, 12, 0.2, seed=8)
        res = select_format(mvm(), "A", m, candidates=("csr", "coo", "jad"))
        assert len(res.choices) == 3
        assert all(c.ok for c in res.choices)
        scores = [c.score for c in res.choices]
        assert scores == sorted(scores)

    def test_banded_matrix_prefers_dia(self):
        """For a tight band, DIA's two-level (diagonal, offset) walk is the
        cheapest structure under the Figure 11 model."""
        m = banded(64, bandwidth=1, seed=0)
        res = select_format(mvm(), "A", m,
                            candidates=("csr", "coo", "dia", "jad"))
        name, inst, kernel = res.best
        assert name == "dia"

    def test_ts_excludes_dia(self):
        """DIA has no legal TS plan; it must be reported, not crash."""
        L = lower_triangular_of(random_sparse(12, 12, 0.2, seed=9))
        res = select_format(ts_lower(), "L", L,
                            candidates=("csr", "dia", "jad"))
        dia_choice = next(c for c in res.choices if c.format_name == "dia")
        assert not dia_choice.ok
        assert res.best[0] in ("csr", "jad")

    def test_all_illegal_raises(self):
        L = lower_triangular_of(random_sparse(10, 10, 0.2, seed=10))
        with pytest.raises(PlanError):
            select_format(ts_lower(), "L", L, candidates=("dia",))

    def test_table_renders(self):
        m = random_sparse(10, 10, 0.2, seed=11)
        res = select_format(mvm(), "A", m, candidates=("csr", "coo"))
        t = res.table()
        assert "csr" in t and "coo" in t

    def test_accepts_dense_input(self):
        d = random_sparse(8, 8, 0.3, seed=12).to_dense()
        res = select_format(mvm(), "A", d, candidates=("csr", "coo"))
        assert res.best[0] in ("csr", "coo")

    def test_bad_mode(self):
        m = random_sparse(8, 8, 0.3, seed=13)
        with pytest.raises(ValueError):
            select_format(mvm(), "A", m, mode="psychic")

    def test_empirical_needs_workload(self):
        m = random_sparse(8, 8, 0.3, seed=13)
        with pytest.raises(ValueError):
            select_format(mvm(), "A", m, mode="empirical")


class TestSelectionRunsCcOnlyForWhatItReturns:
    """Ranking stops at the plan and its cost; the toolchain runs for the
    choice that is returned (or measured), not for the ones rejected."""

    CANDIDATES = ("csr", "csc", "dia", "ell")

    def test_model_mode_compiles_the_winner_alone(self):
        from repro.core import backend as be
        from repro.core.cache import clear_compile_cache
        from repro.instrument import INSTR

        if be.find_compiler() is None:
            pytest.skip("no C toolchain")
        m = banded(48, bandwidth=2, seed=21)
        clear_compile_cache()
        be.reset_toolchain_cache(scratch=True)
        compiles = INSTR.get("native.compiles")
        emitted = INSTR.get("codegen.compiles")
        res = select_format(mvm(), "A", m, mode="model", backend="c",
                            candidates=self.CANDIDATES)
        assert INSTR.get("native.compiles") == compiles + 1
        assert INSTR.get("codegen.compiles") == emitted + 1
        assert len([c for c in res.choices if c.ok]) == 4
        name, inst, kernel = res.best
        assert kernel.backend_used == "c"
        # a rejected candidate is still a kernel: it binds when first run
        loser = res.choices[-1]
        assert loser.kernel.backend == "c" and "pending" in repr(loser.kernel)
        x = np.random.default_rng(1).random(48)
        y, y2 = np.zeros(48), np.zeros(48)
        kernel({"A": inst, "x": x, "y": y}, {"m": 48, "n": 48})
        loser.kernel({"A": res.instances[loser.format_name], "x": x,
                      "y": y2}, {"m": 48, "n": 48})
        assert loser.kernel.backend_used == "c"
        assert INSTR.get("native.compiles") == compiles + 2
        assert np.allclose(y, y2) and np.allclose(y, m.to_dense() @ x)

    def test_empirical_mode_binds_what_it_measures(self):
        from repro.core import backend as be

        if be.find_compiler() is None:
            pytest.skip("no C toolchain")
        m = banded(48, bandwidth=2, seed=22)
        res = select_format(mvm(), "A", m, mode="empirical", backend="c",
                            workload="mvm", candidates=("csr", "dia"),
                            repeats=1)
        assert [c.backend_used for c in res.choices] == ["c", "c"]


class TestEmpiricalMode:
    def test_measures_and_winner_runs(self):
        m = random_sparse(32, 32, 0.15, seed=14)
        n = 32
        x = np.random.default_rng(0).random(n)

        def workload(fmt):
            return ({"A": fmt, "x": x, "y": np.zeros(n)}, {"m": n, "n": n})

        res = select_format(mvm(), "A", m, candidates=("csr", "coo", "jad"),
                            mode="empirical", workload=workload, repeats=2)
        assert all(c.score > 0 for c in res.choices if c.ok)
        name, inst, kernel = res.best
        y = np.zeros(n)
        kernel({"A": inst, "x": x, "y": y}, {"m": n, "n": n})
        assert np.allclose(y, m.to_dense() @ x)

    def test_empirical_rejects_dense_for_sparse_band(self):
        """Empirically, walking 382 stored entries must beat walking all
        16384 dense positions — whatever the constant factors."""
        m = banded(128, bandwidth=1, seed=1)
        n = 128
        x = np.random.default_rng(1).random(n)

        def workload(fmt):
            return ({"A": fmt, "x": x, "y": np.zeros(n)}, {"m": n, "n": n})

        res = select_format(mvm(), "A", m, candidates=("coo", "dense"),
                            mode="empirical", workload=workload, repeats=2)
        assert res.best[0] == "coo"

    def test_model_and_measurement_can_disagree(self):
        """The Figure 11 model counts abstract enumeration steps; measured
        time includes the backend's constant factors.  For a tridiagonal
        matrix the model prefers DIA's two-level walk while the generated
        Python favours COO's single flat loop — exactly the gap the paper's
        ATLAS-style empirical mode exists to close (Section 6)."""
        m = banded(128, bandwidth=1, seed=1)
        n = 128
        x = np.random.default_rng(1).random(n)

        def workload(fmt):
            return ({"A": fmt, "x": x, "y": np.zeros(n)}, {"m": n, "n": n})

        res_m = select_format(mvm(), "A", m, candidates=("dia", "coo"))
        res_e = select_format(mvm(), "A", m, candidates=("dia", "coo"),
                              mode="empirical", workload=workload, repeats=2)
        assert res_m.best[0] == "dia"
        # both winners are correct, whichever they are
        for res in (res_m, res_e):
            name, inst, kernel = res.best
            y = np.zeros(n)
            kernel({"A": inst, "x": x, "y": y}, {"m": n, "n": n})
            assert np.allclose(y, m.to_dense() @ x)


class TestChoiceRobustness:
    """Selection-layer bugfixes: None scores must neither crash __repr__
    nor TypeError the ranking sort, and inapplicable formats (BSR with
    indivisible dims, SYM on a non-symmetric matrix) are reported as
    skip-with-reason choices instead of crashing the search."""

    def test_repr_with_none_score(self):
        from repro.search.format_select import FormatChoice

        c = FormatChoice("csr", kernel=object(), score=None)
        assert "unscored" in repr(c)
        assert "csr" in repr(c)

    def test_repr_with_error(self):
        from repro.search.format_select import FormatChoice

        c = FormatChoice("dia", None, None, "no plan here")
        assert "no plan here" in repr(c)

    def test_none_scores_sort_last(self):
        from repro.search.format_select import FormatChoice, SelectionResult

        choices = [
            FormatChoice("coo", object(), None),
            FormatChoice("csr", object(), 2.0),
            FormatChoice("jad", object(), 1.0),
        ]
        res = SelectionResult(choices, {"csr": None, "coo": None,
                                        "jad": None}, "model")
        assert [c.format_name for c in res.choices] == ["jad", "csr", "coo"]

    def test_table_renders_unscored(self):
        from repro.search.format_select import FormatChoice, SelectionResult

        res = SelectionResult(
            [FormatChoice("csr", object(), None)], {"csr": None}, "model")
        assert "unscored" in res.table()

    def test_default_candidates_include_bsr_and_sym(self):
        from repro.search.format_select import DEFAULT_CANDIDATES

        assert "bsr" in DEFAULT_CANDIDATES
        assert "sym" in DEFAULT_CANDIDATES

    def test_inapplicable_formats_skipped_with_reason(self):
        # 25x25 symmetric Laplacian: BSR (block_size=2) cannot tile 25,
        # SYM applies; a 12x12 non-symmetric: SYM inapplicable, BSR fine
        from repro.formats.generate import laplacian_2d

        res = select_format(mvm(), "A", laplacian_2d(5))
        by_name = {c.format_name: c for c in res.choices}
        assert not by_name["bsr"].ok
        assert "inapplicable" in by_name["bsr"].error
        assert by_name["sym"].ok
        assert "bsr" not in res.instances

        m = random_sparse(12, 12, 0.3, seed=3)
        res2 = select_format(mvm(), "A", m)
        by_name2 = {c.format_name: c for c in res2.choices}
        assert by_name2["bsr"].ok
        assert not by_name2["sym"].ok
        assert "inapplicable" in by_name2["sym"].error

    @staticmethod
    def _scattered(n=20_000, heavy=10_000):
        """A pattern that is cheap to store and ruinous to pad: a random
        permutation (one entry per row, ~n occupied diagonals) plus one
        row of ``heavy`` entries.  Dense DIA is ~n x n cells and dense ELL
        n x heavy — both computed below, neither ever allocated."""
        rng = np.random.default_rng(17)
        rows = np.concatenate([np.arange(n), np.zeros(heavy, dtype=np.int64)])
        cols = np.concatenate([rng.permutation(n), np.arange(heavy)])
        from repro.formats.csr import CsrMatrix

        return CsrMatrix.from_coo(rows, cols, np.ones(rows.size), (n, n))

    def test_unbuildable_padded_candidates_are_inapplicable(self, monkeypatch):
        """Regression (bench_e2e finding): ``DiaMatrix._from_canonical_coo``
        allocates ``ndiags x ncols`` doubles before anything can object,
        so the default candidates raised MemoryError on a scattered
        n = 100k matrix.  The padded size is now judged from the pattern's
        diagonal / row-length counts before any constructor runs."""
        from repro.formats.dia import DiaMatrix
        from repro.formats.ell import EllMatrix

        A = self._scattered()
        rows, cols, _ = A.to_coo_arrays()
        n = A.nrows
        dia_cells = np.unique(rows - cols).size * n
        ell_cells = n * int(np.diff(A.rowptr).max())
        assert dia_cells * 8 > 2 ** 31 and ell_cells * 8 > 2 ** 30

        def never(*a, **k):
            raise AssertionError("padded constructor reached")

        monkeypatch.setattr(DiaMatrix, "_from_canonical_coo", never)
        monkeypatch.setattr(EllMatrix, "_from_canonical_coo", never)
        res = select_format(mvm(), "A", A, candidates=("csr", "dia", "ell"))
        by_name = {c.format_name: c for c in res.choices}
        assert res.best[0] == "csr"
        for name, cells in (("dia", dia_cells), ("ell", ell_cells)):
            assert not by_name[name].ok
            assert by_name[name].error.startswith("inapplicable: ")
            assert f"{cells} cells" in by_name[name].error
            assert name not in res.instances

    def test_padded_refusal_at_small_n_with_patched_limit(self, monkeypatch):
        """The same refusal on an 8x8 pattern once the limits are patched
        down: the message names the would-be size and no constructor runs."""
        from repro.search import format_select as fs

        monkeypatch.setattr(fs, "_PAD_MIN_CELLS", 16)
        monkeypatch.setattr(fs, "_PAD_RATIO", 2)
        A = as_format(np.eye(8)[:, np.random.default_rng(3).permutation(8)], "csr")
        rows, cols, _ = A.to_coo_arrays()
        cells = np.unique(rows - cols).size * 8
        assert cells > 16
        res = select_format(mvm(), "A", A, candidates=("csr", "dia"))
        dia = {c.format_name: c for c in res.choices}["dia"]
        assert dia.error.startswith("inapplicable: dia would pad 8 stored entries")
        assert f"to {cells} cells" in dia.error

    def test_allocation_failure_in_a_builder_is_inapplicable(self, monkeypatch):
        """A constructor that runs out of memory anyway (under the padding
        limits but over what the machine has) is one more skipped
        candidate, not an uncaught MemoryError out of ``select_format``."""
        from repro.formats.dia import DiaMatrix

        def exhausted(*a, **k):
            raise MemoryError("Unable to allocate 106. GiB for an array")

        monkeypatch.setattr(DiaMatrix, "_from_canonical_coo", exhausted)
        m = random_sparse(12, 12, 0.3, seed=2)
        for mode in ("model", "auto"):
            res = select_format(mvm(), "A", m, candidates=("csr", "dia"),
                                mode=mode, autotune_cache="off")
            dia = {c.format_name: c for c in res.choices}["dia"]
            assert not dia.ok and "dia" not in res.instances
            assert dia.error == "inapplicable: Unable to allocate 106. GiB for an array"
            assert res.best[0] == "csr"

    def test_padding_guard_leaves_reasonable_patterns_alone(self):
        from repro.search.format_select import (_PAD_MIN_CELLS, _PAD_RATIO,
                                                check_padded_storage)

        # small or genuinely banded: padded formats stay candidates
        b = banded(64, bandwidth=1, seed=0)
        rows, cols, _ = b.to_coo_arrays()
        for name in ("dia", "ell", "csr", "jad"):
            check_padded_storage(name, rows, cols, b.shape)
        # one entry in a huge matrix pads to n cells: a large *ratio*,
        # but under the absolute floor nobody runs out of memory
        one = np.array([5], dtype=np.int64)
        check_padded_storage("dia", one, one, (_PAD_MIN_CELLS, _PAD_MIN_CELLS))
        # n entries down the diagonal plus n down an anti-diagonal walk:
        # 2 diagonals is fine, n diagonals is not
        n = _PAD_MIN_CELLS // 1024
        idx = np.arange(n, dtype=np.int64)
        check_padded_storage("dia", idx, idx, (n, n))
        assert n * n > max(_PAD_MIN_CELLS, _PAD_RATIO * n)
        with pytest.raises(ValueError, match="dia would pad"):
            check_padded_storage("dia", idx, idx[::-1].copy(), (n, n))

    def test_spgemm_output_format_falls_back_before_padding(self):
        """``spgemm(out_format=...)`` has the same guard: a requested DIA
        or ELL output the computed structure would blow up falls back to
        CSR observably instead of allocating it."""
        from repro.blas.api import spgemm
        from repro.instrument import INSTR

        A = self._scattered()
        want = spgemm(A, A)
        for name in ("dia", "ell"):
            before = INSTR.get("spgemm.output_fallbacks")
            C = spgemm(A, A, out_format=name)
            assert C.format_name == "csr"
            assert INSTR.get("spgemm.output_fallbacks") == before + 1
            assert np.array_equal(C.colind, want.colind)
            assert np.array_equal(C.values, want.values)

    def test_full_default_sweep_still_ranks(self):
        m = random_sparse(16, 16, 0.25, seed=4)
        res = select_format(mvm(), "A", m)
        name, inst, kernel = res.best
        assert kernel is not None
        x = np.random.default_rng(5).random(16)
        y = np.zeros(16)
        kernel({"A": inst, "x": x, "y": y}, {"m": 16, "n": 16})
        assert np.allclose(y, m.to_dense() @ x)

    def test_bsr_convert_kwargs_forwarded(self):
        m = random_sparse(12, 12, 0.3, seed=6)
        res = select_format(mvm(), "A", m, candidates=("csr", "bsr"),
                            block_size=3)
        bsr = next(c for c in res.choices if c.format_name == "bsr")
        assert bsr.ok
        assert res.instances["bsr"].block_size == 3
