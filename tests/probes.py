"""Probes of package internals at points a test chooses."""

from __future__ import annotations

import math

import numpy as np

from tailmoments.asymptotics import _centered


def centered_pi_ratio(tail, x, lam: float):
    """The de Haan test's centered ratio (sf(lam x) - sf(x/lam)) /
    (sf(e x) - sf(x/e)) at each of the points x; nan where the base step
    vanishes."""
    x = np.asarray(x, dtype=float)
    return _centered(tail(lam * x), tail(x / lam), tail(x), tail(math.e * x),
                     tail(x / math.e))[()]
