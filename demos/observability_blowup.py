"""
Observability cost blow-up as the horizon shrinks
=================================================

Estimates certified lower bounds on the observability constant of the
fractional heat semigroup from the modal exponents alone, recomputes each
bound on the witness coefficients that achieve it, and sweeps the horizon
to expose the exponential blow-up as T -> 0.  Writes the swept curve
(T, C_lower, C_envelope) to blowup_curve.csv in the current directory.
"""

import numpy as np

import fracheat as fh

# modal exponents of the case-study operator (unit normalization)
grid = fh.build_grid(20)
op = fh.build_operator(grid, s=0.8, normalization="unit")
basis = fh.eigendecompose(op, k_max=8)
mu = basis.eigenvalues
print("modal exponents:", np.array2string(mu, precision=3))

# sweep the horizon from long to short; the envelope is nonincreasing
# in T and the short-horizon bounds grow explosively
horizons = np.geomspace(4.0, 0.05, 10)
curve = fh.blowup_curve(mu, horizons)

# each bound is certified by its witness: the ratio of the weighted final
# value to the L1 norm of the exponential sum, recomputed on the witness
print(f"\n{'T':>8} {'C_lower':>13} {'on witness':>13} {'envelope':>13}")
for t, c, e, w in zip(curve.T_values, curve.C_lower, curve.C_envelope, curve.witnesses):
    ratio = float(np.abs(w) @ np.exp(-mu * t)) / fh.l1_norm_exp_sum(w, mu, t)
    print(f"{t:>8.4f} {c:>13.6g} {ratio:>13.6g} {e:>13.6g}")

# the horizons decrease, so the last three are the smallest
slope = np.polyfit(1.0 / curve.T_values[-3:], np.log(curve.C_lower[-3:]), 1)[0]
print(f"slope of log C against 1/T near T = 0: {slope:.4f}")
print(
    f"cost ratio C(0.05) / C(1.0): "
    f"{curve.C_envelope[-1] / np.interp(1.0, curve.T_values[::-1], curve.C_envelope[::-1]):.3g}"
)

fh.blowup_curve_to_csv(curve, "blowup_curve.csv")
print("\nwrote blowup_curve.csv")
