"""The paper's running example, end to end: triangular solve on JAD.

The dense program (paper Figure 4) walks L by columns; JAD storage offers
fast diagonal-major enumeration or row access through a permutation.  The
compiler must discover the row-centric restructuring (paper Figure 8) and
realize the row access through the inverse permutation (paper Figure 9).

Run:  python examples/triangular_solve_jad.py
"""

import time

import numpy as np

from repro import as_format, compile_kernel, kernels, program_to_text
from repro.blas import specialized
from repro.codegen.native import lower_kernel
from repro.formats.generate import can_1072_like, lower_triangular_of


def main():
    program = kernels.ts_lower()
    print("the dense program (paper Figure 4):")
    print(program_to_text(program))

    # the paper's matrix: can_1072 (synthetic stand-in, same profile)
    L_coo = lower_triangular_of(can_1072_like())
    n = L_coo.nrows

    L = as_format(L_coo, "jad")
    print(f"\nL: {n}x{n} lower triangular, nnz={L.nnz}, stored as JAD "
          f"({L.ndiags} jagged diagonals)")
    print("JAD index structure:", L.view())

    kernel = compile_kernel(program, {"L": L})
    stats = kernel.result.stats
    print(f"\nsearch: {stats.generated} candidates, {stats.legal} legal, "
          f"{stats.lowered} lowered")
    chosen = {r.path.path_id for c in kernel.plan.space.copies for r in c.refs}
    print(f"chosen perspective: {chosen} "
          f"(the flat perspective cannot honour the solve's ordering)")

    print("\ndata-centric plan:")
    print(kernel.pseudocode())

    print("\ngenerated code (the C translation unit backend=\"c\" compiles — "
          "the paper's Figure 9 analog):")
    print(lower_kernel(kernel).c_source)

    # run it against the hand-written kernels
    rng = np.random.default_rng(1)
    b = rng.random(n)

    out_gen = b.copy()
    fn = kernel.callable()
    t0 = time.perf_counter()
    fn({"L": L, "b": out_gen}, {"n": n})
    t_gen = time.perf_counter() - t0

    out_hand = b.copy()
    t0 = time.perf_counter()
    specialized.ts_lower_jad(L, out_hand)
    t_hand = time.perf_counter() - t0

    assert np.allclose(out_gen, out_hand)
    assert np.allclose(L_coo.to_dense() @ out_gen, b, atol=1e-8)
    print(f"\ngenerated: {t_gen*1e3:.2f} ms, hand-written: {t_hand*1e3:.2f} ms "
          f"-> solution verified against L x = b")


if __name__ == "__main__":
    main()
