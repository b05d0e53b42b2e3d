"""Programs with several sparse matrices, each in its own format, and
sparse-times-dense matrix multiplication."""

import numpy as np
import pytest

from repro.core import compile_kernel
from repro.formats import as_format
from repro.formats.generate import random_sparse
from repro.ir import execute_dense
from repro.ir.kernels import add_mvm, spmm
from tests.oracles.plan_interp import run_plan

_kernel_cache = {}


def _compiled(key, prog, bindings):
    if key not in _kernel_cache:
        _kernel_cache[key] = compile_kernel(prog, bindings)
    return _kernel_cache[key]


@pytest.fixture(scope="module")
def mats():
    Ad = random_sparse(6, 8, 0.3, seed=1).to_dense()
    Bd = random_sparse(6, 8, 0.25, seed=2).to_dense()
    return Ad, Bd


@pytest.mark.slow
class TestAddMvm:
    @pytest.mark.parametrize("fa,fb", [("csr", "csc"), ("coo", "dia")])
    def test_mixed_formats(self, fa, fb, mats):
        Ad, Bd = mats
        A = as_format(Ad, fa)
        B = as_format(Bd, fb)
        k = _compiled(("add", fa, fb), add_mvm(), {"A": A, "B": B})
        x = np.random.default_rng(0).random(8)
        y = np.full(6, 9.0)
        yd = y.copy()
        execute_dense(add_mvm(), {"A": Ad.copy(), "B": Bd.copy(), "x": x,
                                  "y": yd}, {"m": 6, "n": 8})
        k({"A": A, "B": B, "x": x, "y": y}, {"m": 6, "n": 8})
        assert np.allclose(y, yd)
        assert np.allclose(y, (Ad + Bd) @ x)

    def test_each_matrix_gets_own_enumeration(self, mats):
        Ad, Bd = mats
        A = as_format(Ad, "csr")
        B = as_format(Bd, "csc")
        k = _compiled(("add", "csr", "csc"), add_mvm(), {"A": A, "B": B})
        drivers = set()

        from repro.core import LoopNode

        def walk(nodes):
            for n in nodes:
                if isinstance(n, LoopNode):
                    drivers.add(n.method.driver.array)
                    walk(n.before)
                    walk(n.body)
                    walk(n.after)

        walk(k.plan.nodes)
        assert drivers == {"A", "B"}


class TestSpmm:
    @pytest.mark.parametrize("fa", ["csr", "csc", "coo", "jad"])
    def test_sparse_times_dense(self, fa, mats):
        Ad, _ = mats
        A = as_format(Ad, fa)
        X = np.random.default_rng(1).random((8, 5))
        Y = np.full((6, 5), 7.0)
        Yd = Y.copy()
        k = _compiled(("spmm", fa), spmm(), {"A": A})
        execute_dense(spmm(), {"A": Ad.copy(), "X": X, "Y": Yd},
                      {"m": 6, "n": 8, "k": 5})
        k({"A": A, "X": X, "Y": Y}, {"m": 6, "n": 8, "k": 5})
        assert np.allclose(Y, Yd)
        assert np.allclose(Y, Ad @ X)

    def test_interpreter_agrees(self, mats):
        Ad, _ = mats
        A = as_format(Ad, "csr")
        X = np.random.default_rng(2).random((8, 5))
        Y1 = np.zeros((6, 5))
        Y2 = np.zeros((6, 5))
        k = _compiled(("spmm", "csr"), spmm(), {"A": A})
        run_plan(k.plan, {"A": A, "X": X, "Y": Y1}, {"m": 6, "n": 8, "k": 5})
        k({"A": A, "X": X, "Y": Y2}, {"m": 6, "n": 8, "k": 5})
        assert np.allclose(Y1, Y2)

    def test_dmat_operand_cannot_be_bound(self, mats):
        Ad, _ = mats
        X = as_format(np.ones((8, 5)), "csr")
        with pytest.raises(ValueError, match="only matrices"):
            compile_kernel(spmm(), {"X": X})
