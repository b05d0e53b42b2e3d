"""Constructor validation and less-travelled format paths."""

import warnings

import numpy as np
import pytest

from repro.formats import (
    FORMATS,
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
from repro.formats.base import SparseFormat, coo_dedup_sort
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


def _kwargs(name):
    return {"block_size": 2} if name == "bsr" else {}


class TestConstructionBoundary:
    """What a cast would truncate is refused, with the value named; what
    it would keep (integer-valued floats, a zero imaginary part) is
    not."""

    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_fractional_coordinates_refused(self, name):
        with pytest.raises(ValueError, match=r"rows: 1\.5 is not a whole"):
            FORMATS[name].from_coo([1.5, 0.0], [0.0, 1.9], [3.0, 4.0], (2, 2),
                                   **_kwargs(name))
        with pytest.raises(ValueError, match=r"cols: 1\.9 is not a whole"):
            FORMATS[name].from_coo([1.0, 0.0], [0.0, 1.9], [3.0, 4.0], (2, 2),
                                   **_kwargs(name))
        with pytest.raises(ValueError, match="nan is not a whole"):
            FORMATS[name].from_coo([np.nan], [0], [3.0], (2, 2),
                                   **_kwargs(name))

    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_whole_float_coordinates_accepted(self, name):
        want = FORMATS[name].from_coo([1, 0], [0, 1], [3.0, 3.0], (2, 2),
                                      **_kwargs(name))
        got = FORMATS[name].from_coo([1.0, 0.0], [0.0, 1.0], [3.0, 3.0],
                                     (2, 2), **_kwargs(name))
        assert np.array_equal(got.to_dense(), want.to_dense())

    def test_fractional_index_arrays_refused(self):
        with pytest.raises(ValueError, match=r"rowptr: 1\.7 is not a whole"):
            CsrMatrix([0, 1.7, 2], [0, 1], [1.0, 2.0], (2, 2))
        with pytest.raises(ValueError, match=r"colind: 0\.2 is not a whole"):
            CsrMatrix([0, 1, 2], [0.2, 1.6], [1.0, 2.0], (2, 2))
        ok = CsrMatrix([0.0, 1.0, 2.0], [0.0, 1.0], [1.0, 2.0], (2, 2))
        assert ok.colind.tolist() == [0, 1]

    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_complex_values_refused(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\(3\+2j\) has an imaginary"):
                FORMATS[name].from_coo([0], [0], [3 + 2j], (2, 2),
                                       **_kwargs(name))
            with pytest.raises(ValueError, match="imaginary"):
                as_format(np.array([[1j, 0], [0, 1]]), name, **_kwargs(name))
            real = as_format(np.array([[2 + 0j, 0], [0, 1]]), name,
                             **_kwargs(name))
        assert np.array_equal(real.to_dense(), [[2.0, 0], [0, 1]])

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_complex_scipy_values_refused(self, fmt):
        sps = pytest.importorskip("scipy.sparse")
        S = sps.csr_matrix(np.array([[1 + 1j, 0], [0, 2]])).asformat(fmt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in ("csr", "csc", "ell"):
                with pytest.raises(ValueError, match="imaginary"):
                    as_format(S, name)

    def test_fractional_shape_refused(self):
        with pytest.raises(ValueError, match=r"bad shape \(2\.7, 2\)"):
            SparseFormat((2.7, 2))
        with pytest.raises(ValueError, match="bad shape"):
            CsrMatrix.from_coo([], [], [], (3, 1.5))
        assert CsrMatrix.from_coo([], [], [], (2.0, 3)).shape == (2, 3)


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
