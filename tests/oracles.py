"""Independent references for the library's closed forms, computed with
numpy, math and mpmath only.

Each oracle works at 40 significant digits and shares no code with
``scalar_ab``, so a test that compares the library against one checks the
library's numerics, not a copy of them.
"""

import mpmath
import numpy as np


def landscape_extrema(e_inductive, e_josephson, lo, hi, n_bracket=2001):
    """The extrema of U(phi) = E_L phi^2/2 - E_J cos(phi) in [lo, hi]
    (energies in J), as two lists of (phi, U) in mpmath numbers sorted by
    phi: the minima and the maxima.

    They are the roots of U'(phi) = E_L phi + E_J sin(phi): each sign change
    of U' on an ``n_bracket``-point grid, evaluated at 40 digits, brackets
    one root, which ``mpmath.findroot`` refines; U'' > 0 marks a minimum.
    """
    with mpmath.workdps(40):
        e_l, e_j = mpmath.mpf(e_inductive), mpmath.mpf(e_josephson)

        def u(phi):
            return e_l * phi ** 2 / 2 - e_j * mpmath.cos(phi)

        def du(phi):
            return e_l * phi + e_j * mpmath.sin(phi)

        grid = [mpmath.mpf(x) for x in np.linspace(lo, hi, n_bracket)]
        slopes = [du(x) for x in grid]
        roots = [x for x, d in zip(grid, slopes) if d == 0]
        roots += [mpmath.findroot(du, (a, b), solver="anderson")
                  for a, b, da, db in zip(grid, grid[1:], slopes, slopes[1:])
                  if da * db < 0]
        minima, maxima = [], []
        for root in sorted(roots):
            (minima if e_l + e_j * mpmath.cos(root) > 0 else maxima).append((root, u(root)))
        return minima, maxima
