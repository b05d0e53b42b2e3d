"""Error handling and diagnostics across the compiler: rejected
embeddings carry reasons, plan errors name the offending dimension,
the interpreter reports broken inputs."""

import numpy as np
import pytest

from repro.analysis import dependences
from repro.core import (
    AT,
    DimEmbedding,
    PlanError,
    ProductDim,
    ProductSpace,
    SpaceEmbedding,
    analyze_order,
    build_copies,
    build_plan,
    compile_kernel,
)
from repro.core.embedding import BEFORE
from repro.core.facts import SearchFacts
from repro.formats import as_format
from repro.formats.generate import lower_triangular_of, random_sparse
from repro.ir.kernels import mvm, ts_lower
from repro.polyhedra.linexpr import LinExpr
from tests.oracles.plan_interp import run_plan


@pytest.fixture(scope="module")
def lower16():
    return lower_triangular_of(random_sparse(16, 16, 0.25, seed=6))


class TestOrderAnalysisDiagnostics:
    def test_illegal_reports_reason(self, lower16):
        """A column-major data order for the forward solve conflicts: the
        analysis reports a conflicting or negative component."""
        fmt = as_format(lower16, "csr")
        prog = ts_lower()
        copies = build_copies(prog, {"L": fmt}, {})
        s1, s2 = copies
        r1, r2 = s1.refs[0], s2.refs[0]
        v = LinExpr.variable
        # deliberately swap the data dims (c before r violates the CSR
        # nesting and the solve ordering cannot be repaired)
        dims = [
            ProductDim("g0.c", members=[(r1, "c"), (r2, "c")]),
            ProductDim("g0.r", members=[(r1, "r"), (r2, "r")]),
            ProductDim("it.S1.j", owner_var=s1.qual("j")),
            ProductDim("it.S2.j", owner_var=s2.qual("j")),
            ProductDim("it.S2.i", owner_var=s2.qual("i")),
        ]
        space = ProductSpace(dims, copies)
        per_copy = {
            "S1": [DimEmbedding(AT, v(r1.axis_var("c"))),
                   DimEmbedding(AT, v(r1.axis_var("r"))),
                   DimEmbedding(AT, v(s1.qual("j"))),
                   DimEmbedding(AT, v(s1.qual("j"))),
                   DimEmbedding(AT, v(s1.qual("j")))],
            "S2": [DimEmbedding(AT, v(r2.axis_var("c"))),
                   DimEmbedding(AT, v(r2.axis_var("r"))),
                   DimEmbedding(AT, v(s2.qual("j"))),
                   DimEmbedding(AT, v(s2.qual("j"))),
                   DimEmbedding(AT, v(s2.qual("i")))],
        }
        emb = SpaceEmbedding(space, per_copy)
        deps = dependences(prog)
        oa = analyze_order(emb, deps)
        # column-then-row IS legal as an order (it is Figure 5's shape);
        # but building the plan against the CSR rows path must fail: the
        # driver's inner step cannot be enumerated before its outer step
        assert oa.legal
        with pytest.raises(PlanError) as ei:
            build_plan(space, emb, oa, SearchFacts({"n": 16}))
        assert "before its outer steps" in str(ei.value)

    def test_embedding_requires_full_coverage(self, lower16):
        fmt = as_format(lower16, "csr")
        copies = build_copies(ts_lower(), {"L": fmt}, {})
        space = ProductSpace([ProductDim("it.x", owner_var=copies[0].qual("j"))],
                             copies)
        with pytest.raises(ValueError):
            SpaceEmbedding(space, {"S1": []})

    def test_at_requires_value(self):
        with pytest.raises(ValueError):
            DimEmbedding(AT)

    def test_bad_placement(self):
        with pytest.raises(ValueError):
            DimEmbedding(7)


class TestPlanErrors:
    def test_ts_dia_error_is_planerror(self, lower16):
        with pytest.raises(PlanError) as ei:
            compile_kernel(ts_lower(), {"L": as_format(lower16, "dia")})
        assert "no legal plan" in str(ei.value)

    def test_totality_violation_rejected(self, lower16):
        """Fusing the initialization into a stored-only enumeration must be
        rejected (instances on empty rows would vanish): in the chosen COO
        MVM plan the initialization never binds into the flat enumeration —
        it runs as its own interval loop."""
        rect = random_sparse(6, 8, 0.3, seed=1)
        fmt = as_format(rect, "coo")
        k = compile_kernel(mvm(), {"A": fmt})
        from repro.core import LoopNode, VarLoopNode

        varloops = []
        fused_s1 = []

        def walk(nodes):
            for n in nodes:
                if isinstance(n, VarLoopNode):
                    varloops.append(n)
                    walk(n.body)
                elif isinstance(n, LoopNode):
                    fused_s1.extend(b for b in n.binds if b.copy_label == "S1")
                    walk(n.before)
                    walk(n.body)
                    walk(n.after)

        walk(k.plan.nodes)
        assert varloops, "initialization must get its own interval loop"
        assert not fused_s1, "initialization must not fuse into the COO walk"


class TestInterpreterDiagnostics:
    def test_params_required_when_guards_reference_them(self, lower16):
        # without guard pruning the domain tests reference n; running with
        # no parameters must fail loudly, not silently skip statements
        fmt = as_format(lower16, "csr")
        k = compile_kernel(ts_lower(), {"L": fmt}, simplify_guards=False)
        with pytest.raises(Exception):
            run_plan(k.plan, {"L": fmt, "b": np.zeros(16)}, {})
        with pytest.raises(KeyError):
            k({"L": fmt, "b": np.zeros(16)}, {})

    def test_pruned_kernel_is_param_light(self, lower16):
        """After guard simplification the CSR TS kernel genuinely needs no
        size parameter — every remaining test is structural."""
        fmt = as_format(lower16, "csr")
        k = compile_kernel(ts_lower(), {"L": fmt})
        b = np.random.default_rng(0).random(16)
        out = b.copy()
        k({"L": fmt, "b": out}, {"n": 16})
        assert np.allclose(fmt.to_dense() @ out, b, atol=1e-9)


class TestDeterminism:
    def test_same_compile_same_source(self, lower16):
        fmt = as_format(lower16, "jad")
        k1 = compile_kernel(ts_lower(), {"L": fmt})
        k2 = compile_kernel(ts_lower(), {"L": fmt})
        assert k1.source == k2.source
        assert k1.cost == k2.cost
        assert k1.result.candidate.descr == k2.result.candidate.descr

    def test_pseudocode_stable(self, lower16):
        fmt = as_format(lower16, "csr")
        k1 = compile_kernel(ts_lower(), {"L": fmt})
        k2 = compile_kernel(ts_lower(), {"L": fmt})
        assert k1.pseudocode() == k2.pseudocode()
