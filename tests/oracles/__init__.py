"""Reference implementations the differential tests compare against.

Nothing under ``src/`` imports them:

- :mod:`~tests.oracles.plan_interp` — the reference plan interpreter: runs
  an enumeration plan against the format runtimes (``run_plan(k.plan,
  arrays, params)`` next to ``k(arrays, params)``);
- :mod:`~tests.oracles.dense_ref` — NumPy ground truth for every BLAS
  operation;
- :mod:`~tests.oracles.data_plane` — per-element loop versions of the
  format constructions, extractions and the triangular split;
- :mod:`~tests.oracles.solvers_reference` — ``cg`` and ``bicgstab`` as
  they were before the vector steps moved into :mod:`repro.solvers.vecops`;
- :mod:`~tests.oracles.fraction_polyhedra` — the ``Fraction``-everywhere
  polyhedral core the integer one replaced.
"""
