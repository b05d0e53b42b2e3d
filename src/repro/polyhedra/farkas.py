"""Affine form of Farkas' lemma.

The paper (Section 3.1, problem 2, citing Feautrier) computes the set of all
legal embedding functions by applying Farkas' lemma to each dependence class:
an affine function ``f`` is non-negative everywhere on a non-empty polyhedron
``P = {x : A_i x + b_i >= 0}`` iff it can be written

    f(x) ≡ λ₀ + Σᵢ λᵢ (Aᵢ x + bᵢ),      λ₀, λᵢ ≥ 0

(multipliers for equality constraints are unrestricted in sign).  Matching
coefficients of each variable turns this into a *linear* system over the
multipliers and any unknown coefficients of ``f`` — which is how the space of
legal embeddings becomes a polyhedron itself.

This module provides both directions:

- :func:`farkas_nonneg_system` builds that linear system for an ``f`` whose
  coefficients are symbolic unknowns (used to *synthesize* legal embeddings).
- :func:`farkas_certificate` checks a concrete ``f`` and returns multipliers
  (used in tests to cross-validate the Fourier–Motzkin legality decisions).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.polyhedra.fm import sample_point
from repro.polyhedra.linexpr import Coeffish, LinExpr
from repro.polyhedra.system import Constraint, System, EQ, GE


def farkas_nonneg_system(
    poly: System,
    f_coeffs: Mapping[str, LinExpr],
    f_const: LinExpr,
    lambda_prefix: str = "lam",
) -> System:
    """Linear constraints over multipliers (and any unknowns inside
    ``f_coeffs``/``f_const``) equivalent to: the affine function with
    coefficient ``f_coeffs[v]`` on each polyhedron variable ``v`` and constant
    ``f_const`` is non-negative everywhere on ``poly``.

    ``f_coeffs`` / ``f_const`` may be plain constants (wrapped in LinExpr) or
    expressions over unknown-coefficient variables; the returned system is
    over those unknowns plus fresh multiplier variables ``{prefix}0``,
    ``{prefix}1``, ….
    """
    poly_vars = poly.variables()
    constraints: List[Constraint] = []
    # multiplier λ0 (the affine constant)
    lam0 = f"{lambda_prefix}0"
    multipliers: List[Tuple[str, Constraint]] = []
    for idx, c in enumerate(poly.constraints, start=1):
        multipliers.append((f"{lambda_prefix}{idx}", c))

    # λ ≥ 0 for inequality multipliers and λ0
    constraints.append(Constraint(LinExpr({lam0: 1}), GE))
    for name, c in multipliers:
        if c.kind == GE:
            constraints.append(Constraint(LinExpr({name: 1}), GE))

    # coefficient matching per polyhedron variable
    for v in poly_vars:
        lhs = LinExpr.coerce(f_coeffs.get(v, LinExpr.constant(0)))
        rhs = LinExpr({name: c.expr.coeff(v) for name, c in multipliers})
        constraints.append(Constraint(lhs - rhs, EQ))
    # variables mentioned by f but absent from the polyhedron must have
    # coefficient zero (no multiplier can produce them)
    for v, coeff in f_coeffs.items():
        if v not in poly_vars:
            constraints.append(Constraint(LinExpr.coerce(coeff), EQ))

    # constant matching
    const_rhs = LinExpr({lam0: 1}) + LinExpr({name: c.expr.const for name, c in multipliers})
    constraints.append(Constraint(LinExpr.coerce(f_const) - const_rhs, EQ))
    return System(constraints)


def farkas_certificate(poly: System, f: LinExpr) -> Optional[Dict[str, Coeffish]]:
    """Multipliers certifying ``f >= 0`` over ``poly``, or None if no
    certificate exists (over the rationals)."""
    coeffs = {v: LinExpr.constant(f.coeff(v)) for v in set(f.variables()) | set(poly.variables())}
    sys_ = farkas_nonneg_system(poly, coeffs, LinExpr.constant(f.const))
    return sample_point(sys_)


def legal_coefficient_space(
    poly: System,
    delta_coeffs: Mapping[str, LinExpr],
    delta_const: LinExpr,
) -> System:
    """The polyhedron of unknown embedding coefficients making the (single
    dimension) delta non-negative over the dependence class.

    Thin wrapper with a descriptive name: this is exactly "the set of all
    legal embedding functions" computation of paper Section 3.1 for one
    product-space dimension, before lexicographic weakening.
    """
    return farkas_nonneg_system(poly, delta_coeffs, delta_const, lambda_prefix="mu")
