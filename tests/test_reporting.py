"""Human-facing outputs: plan pseudocode, dependence summaries, generated
source headers, selection tables — the artifacts the examples print."""

import numpy as np
import pytest

from repro.analysis import dependence_summary
from repro.core import annotate_c_source
from repro.formats import as_format
from repro.formats.generate import lower_triangular_of, random_sparse
from repro.ir.kernels import mvm, ts_lower
from tests.conftest import compile_cached


@pytest.fixture(scope="module")
def lower8():
    return lower_triangular_of(random_sparse(8, 8, 0.3, seed=3))


class TestPseudocode:
    def test_ts_structure(self, lower8):
        k = compile_cached("ts_lower", "csr", as_format(lower8, "csr"), "L")
        text = k.pseudocode()
        assert "for (g0.r)" in text
        assert "for (g0.c)" in text
        assert text.index("execute S1") < text.index("execute S2")

    def test_before_segment_labelled(self, lower8):
        rect = as_format(random_sparse(6, 8, 0.3, seed=11), "csr")
        k = compile_cached("mvm", "csr", rect, "A")
        text = k.pseudocode()
        # the initialization is either a before-segment or a standalone loop
        assert "before the" in text or "for it." in text

    def test_jad_mentions_interval(self, lower8):
        k = compile_cached("ts_lower", "jad", as_format(lower8, "jad"), "L")
        assert "interval-enumerate" in k.pseudocode()


class TestDependenceSummary:
    def test_ts_summary(self):
        text = dependence_summary(ts_lower())
        assert "flow" in text
        assert "S1 -> S2" in text and "S2 -> S1" in text

    def test_counts_line(self):
        text = dependence_summary(mvm())
        assert text.splitlines()[0].startswith("dependences of mvm:")


class TestGeneratedSourceCosmetics:
    def test_source_has_prologue_sections(self, lower8):
        k = compile_cached("ts_lower", "csr", as_format(lower8, "csr"), "L")
        src = k.source
        assert "def kernel(arrays, params):" in src
        assert "arrays['L']" in src or 'arrays["L"]' in src

    def test_omp_annotation_balanced(self, lower8):
        k = compile_cached("ts_lower", "csr", as_format(lower8, "csr"), "L")
        c = annotate_c_source(k, flavour="strict")
        assert c.count("{") == c.count("}")
