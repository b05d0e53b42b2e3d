"""The format-designer story (paper Section 2): define a brand-new format
with the view grammar, say where its arrays are, and compile existing
kernels for it — to C — without touching them.

The format: "banded skyline by rows" — each row stores a contiguous column
segment [first[r], first[r]+length[r]), the profile storage used by skyline
solvers.  Its index structure is

    r -> c -> v     with r an interval and c an interval per row

which the grammar expresses directly; the columns being an *interval* (not
a compressed list) is what distinguishes it from CSR.  The storage
declaration names the arrays behind the two levels: the rows are dense,
the columns of row r are the range first[r] .. first[r]+length[r], and the
value of (r, c) sits at data[start[r] + c - first[r]].  From the two the
compiler derives the loops, the searches and the C — and the runtime the
plan interpreter (``kernel.run``) walks the matrix through.

Run:  python examples/custom_format.py
"""

import numpy as np

from repro import compile_kernel, kernels
from repro.formats.base import SparseFormat, coo_dedup_sort
from repro.formats.levels import Dense, Range, Size, Storage, at
from repro.formats.views import Nest, Term, Value, interval_axis


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

    def _slot(self, r, c):
        o = c - self.first[r]
        return int(self.start[r] + o) if 0 <= o < self.length[r] else None

    def get(self, r, c):
        k = self._slot(r, c)
        return 0.0 if k is None else float(self.data[k])

    def set(self, r, c, v):
        k = self._slot(r, c)
        if k is None:
            raise KeyError((r, c))
        self.data[k] = v

    def to_coo_arrays(self):
        rows = np.repeat(np.arange(self.nrows), self.length)
        cols = np.arange(self.nnz) - self.start[rows] + self.first[rows]
        return rows, cols, self.data.copy()

    @classmethod
    def from_coo(cls, rows, cols, vals, shape):
        rows, cols, vals = coo_dedup_sort(rows, cols, vals, shape, order="row")
        m = shape[0]
        first = np.zeros(m, dtype=np.int64)
        length = np.zeros(m, dtype=np.int64)
        for r in range(m):
            mine = cols[rows == r]
            if mine.size:
                first[r], length[r] = mine.min(), mine.max() + 1 - mine.min()
        self = cls(first, length, np.zeros(int(length.sum())), shape)
        self.data[self.start[rows] + cols - first[rows]] = vals
        return self

    # -- the low-level API the compiler consumes -----------------------
    def view(self) -> Term:
        # r -> c -> v, both intervals: rows are random access, each row's
        # columns are a contiguous, searchable segment
        return Nest(interval_axis("r"), Nest(interval_axis("c"), Value()))

    def storage(self, path_id) -> Storage:
        lo = at("first", "r")
        return Storage(
            (Dense("m"), Range(lo, ("+", lo, at("length", "r")))),
            ("data", ("+", at("start", "r"), ("-", "c", lo))),
            ("first", "length", "start", "data", Size("m", "nrows")))

    def path_ids(self):
        return ["rows"]


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
    print(f"skyline matrix: {n}x{n}, nnz={A.nnz}")
    print("index structure:", A.view())

    x = rng.random(n)
    for kname in ["mvm", "row_sums", "frobenius"]:
        program = getattr(kernels, kname)()
        kernel = compile_kernel(program, {"A": A}, backend="c")
        if kname == "mvm":
            y = np.zeros(n)
            kernel({"A": A, "x": x, "y": y}, {"m": n, "n": n})
            assert np.allclose(y, dense @ x)
            y_run = np.zeros(n)     # the same plan, interpreted
            kernel.run({"A": A, "x": x, "y": y_run}, {"m": n, "n": n})
            assert np.array_equal(y, y_run)
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
