"""The format-designer story (paper Section 2): define a brand-new format
by one declaration of its index structure and where its arrays are, and
compile existing kernels for it — to C — without touching them.

The format: "banded skyline by rows" — each row stores a contiguous column
segment [first[r], first[r]+length[r]), the profile storage used by skyline
solvers.  Its index structure is

    r -> c -> v     with r an interval and c an interval per row

which its one path declares as two levels: the rows are dense, the
columns of row r are the range first[r] .. first[r]+length[r] — an
*interval*, not a compressed list, which is what distinguishes it from
CSR — and the value of (r, c) sits at data[start[r] + c - first[r]].  The
levels' kinds give each axis its order and search.  From the declaration
the compiler derives the loops, the searches and the C, and the library the
matrix's own get/set/to_coo_arrays, the runtime its enumerations walk it
through, and its assembly: from_dense
and from_coo solve the Range's bounds for first and length (per row the
first and one past the last column) and scatter data through the
declared value index.  A format designer writes the declaration, the
constructor and nnz.

Run:  python examples/custom_format.py
"""

import numpy as np

from repro import compile_kernel, kernels
from repro.formats.base import SparseFormat
from repro.formats.levels import Dense, Path, Range, Size, Storage, at


class SkylineMatrix(SparseFormat):
    """Row-profile storage: per row a dense segment of columns."""

    format_name = "sky"

    def __init__(self, first, length, data, shape):
        super().__init__(shape)
        self.first = np.asarray(first, dtype=np.int64)    # (m,)
        self.length = np.asarray(length, dtype=np.int64)  # (m,)
        self.data = np.asarray(data, dtype=np.float64)    # the rows, end to end
        self.start = np.concatenate(([0], np.cumsum(self.length)[:-1]))

    @property
    def nnz(self):
        return int(self.data.size)

    # -- the low-level API the compiler consumes -----------------------
    def declaration(self):
        # r -> c -> v, both intervals: rows are random access, each row's
        # columns are a contiguous, searchable segment
        lo = at("first", "r")              # first[<state of axis r>]
        return {"rows": Path(("r", "c"), Storage(
            levels=(Dense("m"), Range(lo, ("+", lo, at("length", "r")))),
            value=("data", ("+", at("start", "r"), ("-", "c", lo))),
            args=("first", "length", "start", "data", Size("m", "nrows"))))}


def main():
    rng = np.random.default_rng(4)
    # a banded-profile matrix
    n = 40
    dense = np.zeros((n, n))
    for r in range(n):
        lo = max(0, r - rng.integers(1, 4))
        hi = min(n, r + rng.integers(1, 4))
        dense[r, lo:hi] = rng.random(hi - lo) + 0.5

    A = SkylineMatrix.from_dense(dense)
    # the assembly, get and to_coo_arrays (behind to_dense) are read from
    # the declaration
    assert np.array_equal(A.to_dense(), dense) and A.get(5, 5) == dense[5, 5]
    print(f"skyline matrix: {n}x{n}, nnz={A.nnz}")
    print("access paths:", A.paths())

    x = rng.random(n)
    for kname in ["mvm", "row_sums", "frobenius"]:
        program = getattr(kernels, kname)()
        kernel = compile_kernel(program, {"A": A}, backend="c")
        if kname == "mvm":
            y = np.zeros(n)
            kernel({"A": A, "x": x, "y": y}, {"m": n, "n": n})
            assert np.allclose(y, dense @ x)
        elif kname == "row_sums":
            s = np.zeros(n)
            kernel({"A": A, "s": s}, {"m": n, "n": n})
            assert np.allclose(s, dense.sum(axis=1))
        else:
            acc = np.array(0.0)
            kernel({"A": A, "acc": acc}, {"m": n, "n": n})
            assert np.allclose(acc, (dense * dense).sum())
        print(f"  {kname:10s} compiled backend={kernel.backend_used!r} and "
              f"verified ({kernel.result.stats.generated} candidates searched)")

    k = compile_kernel(kernels.mvm(), {"A": A})
    print("\nMVM plan for the new format:")
    print(k.pseudocode())


if __name__ == "__main__":
    main()
