"""Matrix file I/O.

- MatrixMarket coordinate files (the format the Harwell–Boeing collection is
  distributed in via math.nist.gov/MatrixMarket, paper Section 5): a plain
  reader/writer independent of scipy, so real inputs like ``can_1072`` can be
  dropped into the benchmark harness when available.
- A tiny ``.coo`` text format (one ``r c v`` triple per line) for test
  fixtures.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from repro.formats.coo import CooMatrix

PathLike = Union[str, Path]


def read_matrix_market(path_or_text: Union[PathLike, io.StringIO]) -> CooMatrix:
    """Read a MatrixMarket coordinate file (real/integer/pattern, general or
    symmetric) into a :class:`CooMatrix`."""
    if isinstance(path_or_text, io.StringIO):
        lines = path_or_text.getvalue().splitlines()
    else:
        lines = Path(path_or_text).read_text().splitlines()
    if not lines:
        raise ValueError("empty MatrixMarket input")
    header = lines[0].strip().lower().split()
    if len(header) < 5 or header[0] != "%%matrixmarket" or header[1] != "matrix":
        raise ValueError(f"not a MatrixMarket header: {lines[0]!r}")
    storage, field, symmetry = header[2], header[3], header[4]
    if storage != "coordinate":
        raise ValueError(f"only coordinate storage is supported, got {storage!r}")
    if field not in ("real", "integer", "pattern"):
        raise ValueError(f"unsupported field {field!r}")
    if symmetry not in ("general", "symmetric", "skew-symmetric"):
        raise ValueError(f"unsupported symmetry {symmetry!r}")

    body = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise ValueError("missing size line")
    m, n, nz = (int(x) for x in body[0].split())
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    for ln in body[1:]:
        parts = ln.split()
        r, c = int(parts[0]) - 1, int(parts[1]) - 1
        v = 1.0 if field == "pattern" else float(parts[2])
        rows.append(r)
        cols.append(c)
        vals.append(v)
        if symmetry != "general" and r != c:
            rows.append(c)
            cols.append(r)
            vals.append(-v if symmetry == "skew-symmetric" else v)
    if len([1 for ln in body[1:]]) != nz:
        raise ValueError(f"entry count mismatch: header says {nz}, found {len(body) - 1}")
    return CooMatrix.from_coo(np.array(rows), np.array(cols), np.array(vals), (m, n))


def write_matrix_market(matrix, path: PathLike) -> None:
    """Write any format instance as a general real coordinate MatrixMarket
    file."""
    rows, cols, vals = matrix.to_coo_arrays()
    with open(path, "w") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        f.write(f"% written by repro (Bernoulli sparse compiler reproduction)\n")
        f.write(f"{matrix.nrows} {matrix.ncols} {len(vals)}\n")
        for r, c, v in zip(rows, cols, vals):
            f.write(f"{int(r) + 1} {int(c) + 1} {v:.17g}\n")


def read_coo_text(path: PathLike, shape: Tuple[int, int]) -> CooMatrix:
    """Read the tiny test-fixture format: lines of ``r c v`` (0-based)."""
    rows, cols, vals = [], [], []
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        r, c, v = ln.split()
        rows.append(int(r))
        cols.append(int(c))
        vals.append(float(v))
    # COO triples for from_coo: exchange width
    return CooMatrix.from_coo(np.array(rows, dtype=np.int64),
                              np.array(cols, dtype=np.int64),
                              np.array(vals), shape)
