"""End-to-end compiler correctness: every kernel x format x backend against
the dense reference interpreter.

This is the core acceptance suite: the compiled sparse code (the plan, run
by the reference plan interpreter, and the generated specialized Python)
must compute exactly what the dense program computes on the densified
matrix.
"""

import numpy as np
import pytest

from repro.core import PlanError, compile_kernel
from repro.formats import as_format
from repro.formats.generate import (
    lower_triangular_of,
    random_sparse,
    upper_triangular_of,
)
from repro.ir import execute_dense
from repro.ir.kernels import ALL_KERNELS
from tests.conftest import compile_cached
from tests.oracles.plan_interp import run_plan

MVM_FORMATS = ["csr", "csc", "coo", "dense", "ell", "dia", "jad", "bsr", "msr"]
TS_FORMATS = ["csr", "csc", "coo", "jad", "msr", "ell", "dense"]
LIGHT_FORMATS = ["csr", "coo", "dia", "jad", "msr"]


def run_both_backends(kernel_name, fmt_name, matrix_coo, array_name,
                      make_arrays, params):
    """Compile once; execute dense reference, interpreter, and generated
    code; all three must agree."""
    kwargs = {"block_size": 2} if fmt_name == "bsr" else {}

    def instance():
        inst = as_format(matrix_coo, fmt_name, **kwargs)
        if inst is matrix_coo:
            # identity conversions return the instance itself; the
            # in-place kernels below need independent storage per backend
            inst = type(inst).from_coo(*matrix_coo.to_coo_arrays(),
                                       matrix_coo.shape, **kwargs)
        return inst

    fmt_i = instance()
    fmt_g = instance()
    dense = fmt_i.to_dense() if fmt_name in ("dia", "msr", "bsr", "dense") \
        else as_format(matrix_coo, "dense").data
    k = compile_cached(kernel_name, fmt_name, fmt_i, array_name)

    arrays_d = make_arrays(dense.copy())
    arrays_i = make_arrays(fmt_i)
    arrays_g = make_arrays(fmt_g)
    prog = ALL_KERNELS[kernel_name]()
    execute_dense(prog, arrays_d, params)
    run_plan(k.plan, arrays_i, params)      # plan interpreter
    k(arrays_g, params)                     # generated specialized code

    for name in arrays_d:
        if name == array_name:
            continue
        assert np.allclose(arrays_i[name], arrays_d[name]), \
            f"interp {kernel_name}/{fmt_name}/{name}"
        assert np.allclose(arrays_g[name], arrays_d[name]), \
            f"gen {kernel_name}/{fmt_name}/{name}"
    # in-place sparse writes: compare the matrices themselves
    if array_name in arrays_d:
        assert np.allclose(arrays_i[array_name].to_dense(), arrays_d[array_name]), \
            f"interp matrix {kernel_name}/{fmt_name}"
        assert np.allclose(arrays_g[array_name].to_dense(), arrays_d[array_name]), \
            f"gen matrix {kernel_name}/{fmt_name}"


@pytest.fixture(scope="module")
def rect():
    a = random_sparse(6, 8, density=0.3, seed=11)
    d = a.to_dense()
    d[3, :] = 0.0  # empty row
    d[:, 5] = 0.0  # empty column
    return as_format(d, "coo")


@pytest.fixture(scope="module")
def lower():
    return lower_triangular_of(random_sparse(8, 8, 0.3, seed=3))


@pytest.fixture(scope="module")
def upper():
    return upper_triangular_of(random_sparse(8, 8, 0.3, seed=4))


_rngs = np.random.default_rng(99)
_x8 = _rngs.random(8)
_x6 = _rngs.random(6)
_garbage6 = _rngs.random(6) * 10
_garbage8 = _rngs.random(8) * 10


class TestMvm:
    @pytest.mark.parametrize("fmt", MVM_FORMATS)
    def test_mvm(self, fmt, rect):
        run_both_backends(
            "mvm", fmt, rect, "A",
            lambda A: {"A": A, "x": _x8.copy(), "y": _garbage6.copy()},
            {"m": 6, "n": 8})

    @pytest.mark.parametrize("fmt", LIGHT_FORMATS)
    def test_mvm_acc(self, fmt, rect):
        run_both_backends(
            "mvm_acc", fmt, rect, "A",
            lambda A: {"A": A, "x": _x8.copy(), "y": _garbage6.copy()},
            {"m": 6, "n": 8})

    @pytest.mark.parametrize("fmt", MVM_FORMATS)
    def test_mvm_t(self, fmt, rect):
        run_both_backends(
            "mvm_t", fmt, rect, "A",
            lambda A: {"A": A, "x": _x6.copy(), "y": _garbage8.copy()},
            {"m": 6, "n": 8})

    @pytest.mark.parametrize("fmt", ["csr", "coo", "jad"])
    def test_two_references_share_enumeration(self, fmt, rect):
        run_both_backends(
            "smvm_two", fmt, rect, "A",
            lambda A: {"A": A, "x": _x8.copy(), "y": _garbage6.copy()},
            {"m": 6, "n": 8})


class TestTriangularSolve:
    @pytest.mark.parametrize("fmt", TS_FORMATS)
    def test_ts_lower(self, fmt, lower):
        b = np.random.default_rng(1).random(8)
        run_both_backends(
            "ts_lower", fmt, lower, "L",
            lambda L: {"L": L, "b": b.copy()},
            {"n": 8})

    @pytest.mark.parametrize("fmt", ["csr", "csc", "jad", "msr", "coo"])
    def test_ts_lower_row(self, fmt, lower):
        b = np.random.default_rng(2).random(8)
        run_both_backends(
            "ts_lower_row", fmt, lower, "L",
            lambda L: {"L": L, "b": b.copy()},
            {"n": 8})

    @pytest.mark.parametrize("fmt", ["csr", "csc", "jad", "coo"])
    def test_ts_upper(self, fmt, upper):
        b = np.random.default_rng(3).random(8)
        run_both_backends(
            "ts_upper", fmt, upper, "U",
            lambda U: {"U": U, "b": b.copy()},
            {"n": 8})

    def test_solution_actually_solves(self, lower):
        fmt = as_format(lower, "jad")
        k = compile_cached("ts_lower", "jad", fmt, "L")
        b = np.random.default_rng(4).random(8)
        bs = b.copy()
        k({"L": fmt, "b": bs}, {"n": 8})
        assert np.allclose(lower.to_dense() @ bs, b, atol=1e-10)


class TestOtherKernels:
    @pytest.mark.parametrize("fmt", LIGHT_FORMATS)
    def test_row_sums(self, fmt, rect):
        run_both_backends(
            "row_sums", fmt, rect, "A",
            lambda A: {"A": A, "s": _garbage6.copy()},
            {"m": 6, "n": 8})

    @pytest.mark.parametrize("fmt", LIGHT_FORMATS)
    def test_col_sums(self, fmt, rect):
        run_both_backends(
            "col_sums", fmt, rect, "A",
            lambda A: {"A": A, "s": _garbage8.copy()},
            {"m": 6, "n": 8})

    @pytest.mark.parametrize("fmt", LIGHT_FORMATS)
    def test_frobenius(self, fmt, rect):
        run_both_backends(
            "frobenius", fmt, rect, "A",
            lambda A: {"A": A, "acc": np.array(0.0)},
            {"m": 6, "n": 8})

    @pytest.mark.parametrize("fmt", LIGHT_FORMATS + ["ell", "csc"])
    def test_scale_in_place(self, fmt, rect):
        run_both_backends(
            "scale", fmt, rect, "A",
            lambda A: {"A": A},
            {"m": 6, "n": 8, "alpha": 3})

    @pytest.mark.parametrize("fmt", ["csr", "coo", "dia", "msr"])
    def test_diag_extract(self, fmt):
        sq = random_sparse(6, 6, density=0.4, seed=12)
        run_both_backends(
            "diag_extract", fmt, sq, "A",
            # zero-preservation contract: d is pre-initialized consistently
            lambda A: {"A": A, "d": np.zeros(6)},
            {"n": 6})


class TestCompilerApi:
    def test_unknown_binding_rejected(self, rect):
        from repro.ir.kernels import mvm

        with pytest.raises(KeyError):
            compile_kernel(mvm(), {"Z": as_format(rect, "csr")})

    def test_vector_binding_rejected(self, rect):
        from repro.ir.kernels import mvm

        with pytest.raises(ValueError):
            compile_kernel(mvm(), {"x": as_format(rect, "csr")})

    def test_non_format_binding_rejected(self, rect):
        from repro.ir.kernels import mvm

        with pytest.raises(TypeError):
            compile_kernel(mvm(), {"A": np.zeros((2, 2))})

    def test_missing_array_at_run(self, rect):
        fmt = as_format(rect, "csr")
        k = compile_cached("mvm", "csr", fmt, "A")
        with pytest.raises(KeyError):
            k({"A": fmt}, {"m": 6, "n": 8})

    def test_wrong_format_instance_at_run(self, rect):
        fmt = as_format(rect, "csr")
        k = compile_cached("mvm", "csr", fmt, "A")
        with pytest.raises(TypeError):
            k({"A": as_format(rect, "csc"), "x": _x8, "y": _garbage6.copy()},
              {"m": 6, "n": 8})

    def test_kernel_reusable_across_matrices(self):
        """A kernel compiled for one CSR matrix runs on another CSR matrix
        of different size (the format, not the instance, is the contract)."""
        from repro.ir.kernels import mvm

        a1 = random_sparse(6, 8, 0.3, seed=1)
        f1 = as_format(a1, "csr")
        k = compile_kernel(mvm(), {"A": f1})
        a2 = random_sparse(9, 4, 0.4, seed=2)
        f2 = as_format(a2, "csr")
        x = np.random.default_rng(0).random(4)
        y = np.zeros(9)
        k({"A": f2, "x": x, "y": y}, {"m": 9, "n": 4})
        assert np.allclose(y, a2.to_dense() @ x)

    def test_repr(self, rect):
        fmt = as_format(rect, "csr")
        k = compile_cached("mvm", "csr", fmt, "A")
        assert "mvm" in repr(k) and "csr" in repr(k)


class TestParamInference:
    """Default ``param_values`` are derived per declared array dimension
    (not from whichever binding happens to iterate first)."""

    def test_single_matrix_mvm(self):
        from repro.core.compiler import infer_param_values
        from repro.ir.kernels import mvm

        fmt = as_format(random_sparse(6, 8, 0.3, seed=1), "csr")
        pv = infer_param_values(mvm(), {"A": fmt})
        assert pv == {"m": 6, "n": 8}

    def test_transposed_access(self):
        """A program reading A[j][i] with i: 0..m, j: 0..n pins n to the
        row count and m to the column count; the legacy first-binding
        heuristic (m=rows, n=cols always) got this wrong for rectangular
        matrices."""
        from repro.core.compiler import infer_param_values
        from repro.ir.parser import parse_program

        prog = parse_program(
            """
            tmvm(m, n; A: matrix, x: vector, y: vector) {
                for i = 0 : m {
                    y[i] = 0;
                    for j = 0 : n {
                        y[i] = y[i] + A[j][i] * x[j];
                    }
                }
            }
            """
        )
        fmt = as_format(random_sparse(6, 8, 0.3, seed=1), "csr")
        pv = infer_param_values(prog, {"A": fmt})
        assert pv["n"] == 6 and pv["m"] == 8

    def test_conflicting_shapes_raise(self):
        """Two bindings implying different values for one parameter is a
        real shape mismatch and must not be guessed over silently."""
        from repro.ir.kernels import add_mvm

        A = as_format(random_sparse(6, 8, 0.3, seed=1), "csr")
        B = as_format(random_sparse(6, 5, 0.3, seed=2), "csr")
        with pytest.raises(ValueError, match="conflicting"):
            compile_kernel(add_mvm(), {"A": A, "B": B}, cache="off")

    def test_multi_matrix_consistent_shapes(self):
        from repro.core.compiler import infer_param_values
        from repro.ir.kernels import add_mvm

        A = as_format(random_sparse(6, 8, 0.3, seed=1), "csr")
        B = as_format(random_sparse(6, 8, 0.3, seed=2), "csc")
        pv = infer_param_values(add_mvm(), {"A": A, "B": B})
        assert pv == {"m": 6, "n": 8}

    def test_explicit_param_values_bypass_inference(self):
        from repro.ir.kernels import add_mvm

        A = as_format(random_sparse(6, 8, 0.3, seed=1), "csr")
        B = as_format(random_sparse(6, 5, 0.3, seed=2), "csr")
        # conflicting shapes, but explicit sizes silence the inference
        k = compile_kernel(add_mvm(), {"A": A, "B": B},
                           param_values={"m": 6, "n": 8}, cache="off")
        assert k.plan is not None

    def test_square_diag_extract_still_infers(self):
        from repro.core.compiler import infer_param_values
        from repro.ir.kernels import diag_extract

        fmt = as_format(random_sparse(6, 6, 0.4, seed=3), "csr")
        pv = infer_param_values(diag_extract(), {"A": fmt})
        assert pv["n"] == 6


class TestCallParams:
    def test_numpy_integer_params_accepted(self, rect):
        """A kernel call coerces NumPy integer params to ``int`` and
        computes what the plan interpreter does with plain ones."""
        fmt = as_format(rect, "csr")
        k = compile_cached("mvm", "csr", fmt, "A")
        x = np.random.default_rng(1).random(8)
        y_plan = np.zeros(6)
        y_call = np.zeros(6)
        run_plan(k.plan, {"A": fmt, "x": x, "y": y_plan}, {"m": 6, "n": 8})
        k({"A": fmt, "x": x, "y": y_call},
          {"m": np.int64(6), "n": np.int64(8)})
        assert np.allclose(y_call, fmt.to_dense() @ x)
        assert np.allclose(y_plan, y_call)
