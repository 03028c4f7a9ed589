"""Test-side oracles, kept out of the library and read by the unit tests:
claims of the paper that no production route computes, and independent
evaluations of quantities that one does."""

import numpy as np
import scipy.linalg


def phq_nonzero_check(psi) -> float:
    """‖(1-θ)·(-ħ²/2m)∂²ₓ(θψ)‖ on the grid: the amplitude the kinetic term
    moves across the cut at x = 0 in one application, so PHQ ≠ 0.

    Grid convention: the inner cut keeps x ≥ 0, the outer keeps x ≤ 0; both
    contain the cut node, where the distributional weight (δ, δ') of the
    product lives.  For ψ(0) ≠ 0 the norm grows like dx^{-3/2} under
    refinement, for odd ψ (ψ(0) = 0, ψ'(0) ≠ 0) like dx^{-1/2}.
    """
    if not psi.grid.is_symmetric():
        raise ValueError("the cut needs a grid symmetric about x = 0 "
                         "with x = 0 on a node")
    j0 = psi.grid.n // 2
    dx = psi.grid.dx
    inner = psi.samples.copy()
    inner[:j0] = 0.0                       # keep x >= 0
    d2 = np.zeros_like(inner)
    d2[1:-1] = (inner[:-2] - 2 * inner[1:-1] + inner[2:]) / dx ** 2
    out = -0.5 * d2
    out[j0 + 1:] = 0.0                     # keep x <= 0
    return float(np.sqrt(np.sum(np.abs(out) ** 2) * dx))


def restricted_generator(h, q, t) -> np.ndarray:
    """Q exp(-i QHQ t/ħ) Q, the Zeno limit of Q [U(t/n) Q]ⁿ, through scipy's
    Padé exponential rather than the library's eigendecomposition."""
    return q @ scipy.linalg.expm(-1j * (q @ h @ q) * t) @ q
