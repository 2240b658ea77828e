"""Test oracles: values computed by routes the package's kernels never take.

The atoms of the geometric staircase come from its jump formula, and v from
their Stieltjes sum, v(x) = sum of loc^beta * jump over the atoms up to x,
with no use of the h kernel or of the tail function.
"""

from __future__ import annotations

import math


def geometric_atoms(beta_g: float, p: float, lo: float,
                    hi: float) -> list[tuple[float, float]]:
    """(location, jump) of every atom of make_geometric_tail(beta_g, p) in
    [lo, hi]: the atom at p^k, k >= 1, carries p^(-beta_g k) (p^beta_g - 1).
    """
    beta_g, p = float(beta_g), float(p)
    scale = p ** beta_g - 1.0
    atoms = []
    k = 1
    while p ** k <= hi:
        if p ** k >= lo:
            atoms.append((p ** k, p ** (-beta_g * k) * scale))
        k += 1
    return atoms


def atom_sum_v(atoms: list[tuple[float, float]], beta: float) -> float:
    """Stieltjes moment of a purely atomic law: fsum of loc^beta * jump."""
    return math.fsum(loc ** beta * jump for loc, jump in atoms)
