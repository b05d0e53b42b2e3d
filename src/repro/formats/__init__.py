"""Sparse-format substrate: format declarations (the index structure of
paper Figure 6 as levels), concrete compressed formats (paper Figures 1,
2, 14), conversions, I/O and generators.

Formats implemented: dense, COO, CSR, CSC, DIA, ELL, JAD, BSR, MSR
(diagonal U off-diagonal aggregation) and SYM.  Each declares its access
paths; the high-level random-access API and the access-path/runtime API
the compiler consumes are read from the declaration.
"""

from repro.formats.base import LevelRuntime, SparseFormat
from repro.formats.views import (
    AccessPath,
    Axis,
    AxisView,
    Step,
    INCREASING,
    DECREASING,
    UNORDERED,
    NOSEARCH,
    LINEAR,
    BINARY,
    DIRECT,
)
from repro.formats.dense import DenseMatrix
from repro.formats.coo import CooMatrix
from repro.formats.csr import CsrMatrix
from repro.formats.csc import CscMatrix
from repro.formats.dia import DiaMatrix
from repro.formats.ell import EllMatrix
from repro.formats.jad import JadMatrix
from repro.formats.bsr import BsrMatrix
from repro.formats.msr import MsrMatrix
from repro.formats.sym import SymMatrix
from repro.formats.convert import FORMATS, as_format, convert
from repro.formats.io import read_matrix_market, write_matrix_market, read_coo_text
from repro.formats import generate

__all__ = [
    "LevelRuntime",
    "SparseFormat",
    "AccessPath",
    "Axis",
    "AxisView",
    "Step",
    "INCREASING",
    "DECREASING",
    "UNORDERED",
    "NOSEARCH",
    "LINEAR",
    "BINARY",
    "DIRECT",
    "DenseMatrix",
    "CooMatrix",
    "CsrMatrix",
    "CscMatrix",
    "DiaMatrix",
    "EllMatrix",
    "JadMatrix",
    "BsrMatrix",
    "MsrMatrix",
    "SymMatrix",
    "FORMATS",
    "as_format",
    "convert",
    "read_matrix_market",
    "write_matrix_market",
    "read_coo_text",
    "generate",
]
