"""Reference computations the tests compare the package against.

`sigma_enum` and `sigma_fsum` evaluate sigma_k by subset enumeration, which
shares no code with the coefficient DP of `symcone.symfun`.  `in_gamma` is
the membership test of the samplers written out on one table: the exact
sign of each computed sigma_m, no tolerance.
"""

import itertools
import math

import numpy as np

from symcone.symfun import batch_coeffs


def sigma_enum(k: int, kappa) -> float:
    """Subset-enumeration oracle; O(C(n, k)), intended for n <= 12."""
    vals = [float(v) for v in kappa]
    if k == 0:
        return 1.0
    if k < 0 or k > len(vals):
        return 0.0
    return float(sum(math.prod(c) for c in itertools.combinations(vals, k)))


def sigma_fsum(k: int, kappa) -> float:
    """Compensated-summation evaluation (exact-rounded sum of term products).

    Each subset product carries its own rounding, but the summation itself
    is exact.  Exact values come from the batched kernels run on `Fraction`
    object arrays.
    """
    vals = [float(v) for v in kappa]
    if k == 0:
        return 1.0
    if k < 0 or k > len(vals):
        return 0.0
    return math.fsum(math.prod(c) for c in itertools.combinations(vals, k))


def in_gamma(kappa, k: int, barred: bool = False) -> bool:
    """kappa in Gamma_k: sigma_1..sigma_k > 0.  The barred cone allows
    sigma_k = 0."""
    c = batch_coeffs(np.asarray(kappa, dtype=float)[None, :])[0]
    if barred:
        return bool(np.all(c[1:k] > 0.0) and c[k] >= 0.0)
    return bool(np.all(c[1 : k + 1] > 0.0))
