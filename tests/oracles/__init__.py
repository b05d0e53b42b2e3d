"""Reference implementations the differential tests compare against.

Nothing under ``src/`` imports them:

- :mod:`~tests.oracles.plan_interp` — the reference plan interpreter: runs
  an enumeration plan against the format runtimes (``run_plan(k.plan,
  arrays, params)`` next to ``k(arrays, params)``);
- :mod:`~tests.oracles.dense_ref` — NumPy ground truth for every BLAS
  operation;
- :mod:`~tests.oracles.hand_blas` and :mod:`~tests.oracles.generic_blas` —
  the hand-written per-format kernels and the format-agnostic ones
  (``iter_nonzeros``): the NIST C and Fortran analogs the paper's
  generated code is measured against;
- :mod:`~tests.oracles.data_plane` — per-element loop versions of the
  format constructions, extractions and the triangular split;
- :mod:`~tests.oracles.assembly` — the hand-written constructors and
  ``convert`` routes the declaration-derived assembly replaced;
- :mod:`~tests.oracles.solvers_reference` — ``cg`` and ``bicgstab`` as
  they were before the vector steps moved into :mod:`repro.solvers.vecops`;
- :mod:`~tests.oracles.fraction_polyhedra` — the ``Fraction``-everywhere
  polyhedral core the integer one replaced;
- :mod:`~tests.oracles.views` — the view grammar of paper Figure 6 and
  its walk into access paths, which the formats' declarations replaced.
"""
