"""Symmetric storage: Union + Map composed (the mirror image of the stored
triangle)."""

import numpy as np
import pytest

from repro.core import compile_kernel
from repro.formats import SymMatrix, as_format
from repro.formats.generate import laplacian_2d, random_sparse
from repro.ir import execute_dense
from repro.ir.kernels import frobenius, mvm, row_sums
from tests.oracles.plan_interp import run_plan
from tests.oracles import hand_blas

_cache = {}


def _compiled(key, prog, bindings):
    if key not in _cache:
        _cache[key] = compile_kernel(prog, bindings)
    return _cache[key]


@pytest.fixture(scope="module")
def sym_pair():
    L = laplacian_2d(4)
    return as_format(L, "sym"), L.to_dense()


class TestStorage:
    def test_roundtrip(self, sym_pair):
        S, D = sym_pair
        assert np.allclose(S.to_dense(), D)

    def test_stores_only_lower(self, sym_pair):
        S, D = sym_pair
        assert S.stored_nnz < S.nnz
        full = int(np.count_nonzero(D))
        assert S.nnz == full

    def test_random_access_both_triangles(self, sym_pair):
        S, D = sym_pair
        assert S.get(1, 0) == pytest.approx(D[1, 0])
        assert S.get(0, 1) == pytest.approx(D[0, 1])
        local = S.copy()  # don't mutate the shared fixture
        local.set(0, 1, 7.0)  # writes the stored mirror element
        assert local.get(1, 0) == 7.0

    def test_rejects_asymmetric(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            SymMatrix.from_dense(a)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            SymMatrix.from_coo([0], [0], [1.0], (2, 3))

    def test_branches(self, sym_pair):
        S, _ = sym_pair
        assert S.union_branches() == ["u0", "u1"]
        lower = S.path("lower")
        mirror = S.path("mirror")
        assert lower.subs["r"].variables() == ("r",)
        # the mirror swaps the roles: logical r is the stored column
        assert mirror.subs["r"].variables() == ("cc",)
        assert mirror.subs["c"].variables() == ("rr",)


@pytest.mark.slow
class TestCompiled:
    def test_mvm_both_backends(self, sym_pair, rng):
        S, D = sym_pair
        k = _compiled("mvm", mvm(), {"A": S})
        x = rng.random(16)
        for runner in (lambda a, p: run_plan(k.plan, a, p), k):
            y = np.full(16, 3.0)
            runner({"A": S, "x": x, "y": y}, {"m": 16, "n": 16})
            assert np.allclose(y, D @ x)

    def test_mirror_branch_contributes(self, sym_pair, rng):
        """Zeroing the compiled kernel's mirror contribution must break the
        result — i.e. the upper triangle really flows through the Union's
        second branch."""
        S, D = sym_pair
        k = _compiled("mvm", mvm(), {"A": S})
        labels = {c.label for c in k.plan.space.copies}
        assert any("u1" in l for l in labels)

    def test_frobenius(self, sym_pair):
        S, D = sym_pair
        k = _compiled("frob", frobenius(), {"A": S})
        acc = np.array(0.0)
        k({"A": S, "acc": acc}, {"m": 16, "n": 16})
        assert np.allclose(acc, (D * D).sum())

    def test_row_sums(self, sym_pair):
        S, D = sym_pair
        k = _compiled("rs", row_sums(), {"A": S})
        s = np.full(16, 2.0)
        k({"A": S, "s": s}, {"m": 16, "n": 16})
        assert np.allclose(s, D.sum(axis=1))


class TestSpecializedBaseline:
    def test_sym_spmv(self, sym_pair, rng):
        S, D = sym_pair
        x = rng.random(16)
        y = np.zeros(16)
        hand_blas.mvm_sym(S, x, y)
        assert np.allclose(y, D @ x)

    def test_random_symmetric(self, rng):
        a = random_sparse(10, 10, 0.3, seed=55).to_dense()
        d = a + a.T
        S = as_format(d, "sym")
        x = rng.random(10)
        y = np.zeros(10)
        hand_blas.mvm_sym(S, x, y)
        assert np.allclose(y, d @ x)
