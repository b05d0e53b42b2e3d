"""Constructor validation and less-travelled format paths."""

import numpy as np
import pytest

from repro.formats import (
    BsrMatrix,
    CooMatrix,
    CscMatrix,
    CsrMatrix,
    DiaMatrix,
    EllMatrix,
    JadMatrix,
    MsrMatrix,
    as_format,
)
from repro.formats.base import coo_dedup_sort
from repro.formats.generate import random_sparse


class TestCooDedupSort:
    def test_row_major_order(self):
        r, c, v = coo_dedup_sort([1, 0, 0], [0, 1, 0], [1.0, 2.0, 3.0], (2, 2),
                                 order="row")
        assert list(zip(r, c)) == [(0, 0), (0, 1), (1, 0)]

    def test_col_major_order(self):
        r, c, v = coo_dedup_sort([1, 0, 0], [0, 1, 0], [1.0, 2.0, 3.0], (2, 2),
                                 order="col")
        assert list(zip(r, c)) == [(0, 0), (1, 0), (0, 1)]

    def test_duplicates_summed(self):
        r, c, v = coo_dedup_sort([0, 0], [0, 0], [1.0, 2.5], (1, 1))
        assert v.tolist() == [3.5]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            coo_dedup_sort([0], [0, 1], [1.0], (2, 2))

    def test_bad_order_keyword(self):
        with pytest.raises(ValueError):
            coo_dedup_sort([0], [0], [1.0], (1, 1), order="diag")


class TestConstructorValidation:
    def test_csc_validation(self):
        with pytest.raises(ValueError):
            CscMatrix(np.array([0, 1]), np.array([0]), np.array([1.0]), (2, 2))
        with pytest.raises(ValueError):
            CscMatrix(np.array([0, 2, 1]), np.array([0]), np.array([1.0]),
                      (2, 2))

    def test_dia_validation(self):
        with pytest.raises(ValueError):
            DiaMatrix(np.array([1, 0]), np.zeros((2, 3)), (3, 3))  # not sorted
        with pytest.raises(ValueError):
            DiaMatrix(np.array([0]), np.zeros((2, 3)), (3, 3))  # shape

    def test_ell_validation(self):
        with pytest.raises(ValueError):
            EllMatrix(np.zeros((2, 2), dtype=int), np.zeros((2, 3)),
                      np.zeros(2, dtype=int), (2, 4))
        with pytest.raises(ValueError):
            EllMatrix(np.zeros((2, 2), dtype=int), np.zeros((2, 2)),
                      np.array([3, 0]), (2, 4))  # rowlen > slots

    def test_jad_validation(self):
        with pytest.raises(ValueError):
            JadMatrix(np.array([0]), np.array([0, 1]), np.array([0]),
                      np.array([1.0]), (2, 2))  # iperm size
        # growing diagonal lengths are impossible in a JAD
        with pytest.raises(ValueError):
            JadMatrix(np.array([0, 1]), np.array([0, 1, 3]),
                      np.array([0, 0, 1]), np.array([1.0, 1.0, 1.0]), (2, 2))
        # every row once: ipermi would hold an unset entry, and the kernels
        # index rowcnt with it
        with pytest.raises(ValueError, match="iperm"):
            JadMatrix([0, 0, 1], [0, 3], [0, 1, 2], [1.0, 2.0, 3.0], (3, 3))
        # a diagonal has one entry per row at most: the flat walk would
        # read iperm past its end
        with pytest.raises(ValueError, match="dptr"):
            JadMatrix([0, 1, 2], [0, 5], [0, 1, 2, 0, 1], np.ones(5), (3, 3))

    def test_msr_validation(self):
        with pytest.raises(ValueError):
            MsrMatrix(np.zeros(1), np.array([0, 1]), np.array([0]),
                      np.array([1.0]), (2, 2))  # dvals size
        with pytest.raises(ValueError):
            # off-diagonal structure must not contain diagonal entries
            MsrMatrix(np.zeros(2), np.array([0, 1, 1]), np.array([0]),
                      np.array([1.0]), (2, 2))

    def test_bsr_validation(self):
        with pytest.raises(ValueError):
            BsrMatrix(np.array([0, 1]), np.array([0]),
                      np.zeros((1, 2, 2)), 2, (3, 4))  # 3 % 2 != 0
        with pytest.raises(ValueError):
            BsrMatrix(np.array([0]), np.array([0]),
                      np.zeros((1, 2, 2)), 2, (4, 4))  # indptr size

    def test_csr_negative_shape(self):
        with pytest.raises(ValueError):
            CsrMatrix(np.array([0]), np.zeros(0, dtype=int), np.zeros(0),
                      (-1, 2))


class TestLessTravelled:
    def test_coo_get_missing(self):
        m = CooMatrix.from_coo([0], [0], [1.0], (3, 3))
        assert m.get(2, 2) == 0.0
        with pytest.raises(KeyError):
            m.set(2, 2, 1.0)

    def test_jad_get_out_of_range(self):
        m = JadMatrix.from_coo([0], [0], [1.0], (2, 2))
        assert m.get(1, 1) == 0.0
        with pytest.raises(IndexError, match=r"\(-1, 0\) is outside the 2x2"):
            m.get(-1, 0)

    def test_dia_set_off_band(self):
        m = DiaMatrix.from_dense(np.eye(3))
        with pytest.raises(KeyError):
            m.set(0, 2, 1.0)

    def test_repr(self):
        m = as_format(random_sparse(4, 5, 0.3, seed=9), "csr")
        assert "csr" in repr(m) and "4x5" in repr(m)

    def test_empty_to_coo(self):
        for name in ["dia", "ell", "jad", "bsr"]:
            kwargs = {"block_size": 2} if name == "bsr" else {}
            m = as_format(np.zeros((4, 4)), name, **kwargs)
            r, c, v = m.to_coo_arrays()
            assert len(v) == 0

    def test_bsr_from_scipy_via_convert(self):
        import scipy.sparse as sps

        s = sps.random(6, 8, density=0.3, random_state=1, format="csr")
        m = as_format(s, "bsr", block_size=2)
        assert np.allclose(m.to_dense(), s.toarray())
