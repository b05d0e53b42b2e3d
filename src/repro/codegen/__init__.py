"""Code generation from enumeration plans: one loop IR per kernel
(:mod:`~repro.codegen.loopir`, built by :mod:`~repro.codegen.pysource`
through the declaration-driven :mod:`~repro.codegen.emitters`) with two
printers — specialized Python source and the C99 translation unit of
:mod:`~repro.codegen.native`."""
