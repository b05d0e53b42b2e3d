"""Quickstart: compile one dense kernel for several sparse formats.

The generic-programming workflow of the paper (Figure 4): write matrix-
vector multiplication once, as though A were dense; bind A to any format;
the compiler synthesizes data-centric sparse code for that format.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import as_format, compile_kernel, kernels

def main():
    rng = np.random.default_rng(0)

    # a small sparse matrix
    dense = rng.random((8, 10))
    dense[dense < 0.7] = 0.0

    # the dense program — written once (see repro/ir/kernels.py; you can
    # also parse your own with repro.parse_program)
    program = kernels.mvm()
    print("high-level (dense) program:")
    from repro import program_to_text

    print(program_to_text(program))

    x = rng.random(10)
    expected = dense @ x

    for fmt_name in ["csr", "csc", "coo", "dia", "ell", "jad", "msr"]:
        A = as_format(dense, fmt_name)
        kernel = compile_kernel(program, {"A": A})
        y = np.zeros(8)
        kernel({"A": A, "x": x, "y": y}, {"m": 8, "n": 10})
        ok = np.allclose(y, expected)
        print(f"  {fmt_name:5s}: compiled "
              f"(searched {kernel.result.stats.generated} candidates, "
              f"estimated cost {kernel.cost:9.1f})  result "
              f"{'matches numpy' if ok else 'WRONG'}")
        assert ok

    # look at what was generated for CSR
    A = as_format(dense, "csr")
    kernel = compile_kernel(program, {"A": A})
    print("\ndata-centric plan (paper Figures 5/8 style):")
    print(kernel.pseudocode())
    print("\ngenerated specialized Python (kernel body):")
    body = kernel.source.split("def kernel", 1)[1]
    print("def kernel" + body)

    # annotate_c_source prints the C translation unit with OpenMP pragmas
    # on the provably parallel loops — printing needs no toolchain
    from repro.core import annotate_c_source
    print("\nC translation unit with OpenMP annotations (strict DOALL):")
    print(annotate_c_source(kernel, flavour="strict"))

    # backend="c" compiles and *executes* the real thing (falling back to
    # the Python kernel, with a warning, when no C compiler is installed)
    import warnings
    from repro.core import NativeBackendWarning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NativeBackendWarning)
        native = compile_kernel(program, {"A": A}, backend="c",
                                parallel="strict")
    y = np.zeros(8)
    native({"A": A, "x": x, "y": y}, {"m": 8, "n": 10})
    assert np.array_equal(y, dense @ x) or np.allclose(y, dense @ x)
    print(f"\nnative backend: {native!r}")
    if native.c_source is not None:
        print("compiled C translation unit (first lines):")
        print("\n".join(native.c_source.splitlines()[:12]))


if __name__ == "__main__":
    main()
