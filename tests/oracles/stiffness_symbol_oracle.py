"""High-precision oracle for fractional-Laplacian stiffness entries.

For hat functions on a uniform grid the energy form equals the Fourier-side
integral

    E(psi_i, psi_j) = (1/pi) int_0^inf xi^{2s} h^2 sinc^4(h xi / 2)
                       cos((i-j) h xi) d xi,

valid for interior hats extended by zero (the form on compactly supported
functions coincides with the whole-line form).  Expanding
sin^4(z) cos(2 m z) into pure cosines and using the regularized identity
int_0^inf z^{beta-1} cos(w z) dz = Gamma(beta) cos(pi beta / 2) w^{-beta}
(finite-part continuation; the divergent parts cancel because the cosine
weights annihilate the z^0 and z^2 terms) gives the closed form evaluated
here with 50-digit arithmetic.  A direct numerical quadrature of the
Fourier integral double-checks the continuation.

Run directly to print the frozen values used in tests/test_assembly.py.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 50


def entry_closed_form(s, h, m):
    """E(psi_i, psi_j) for |i - j| = m on a grid of spacing h (exact)."""
    s = mp.mpf(s)
    h = mp.mpf(h)
    m = int(m)
    beta = 2 * s - 3
    weights = [
        (2 * m, mp.mpf(3) / 8),
        (2 * m + 2, -mp.mpf(1) / 4),
        (2 * m - 2, -mp.mpf(1) / 4),
        (2 * m + 4, mp.mpf(1) / 16),
        (2 * m - 4, mp.mpf(1) / 16),
    ]
    acc = mp.mpf(0)
    for w, c in weights:
        if w != 0:
            acc += c * mp.power(abs(w), -beta)
    total = mp.gamma(beta) * mp.cos(mp.pi * beta / 2) * acc
    return 2 ** (2 * s + 1) * h ** (1 - 2 * s) / mp.pi * total


def entry_quadrature(s, h, m, periods=4000):
    """Same entry by direct quadrature of the Fourier integral."""
    s = mp.mpf(s)
    h = mp.mpf(h)

    def f(z):
        if z == 0:
            return mp.mpf(0)
        return z ** (2 * s) * (mp.sin(z) / z) ** 4 * mp.cos(2 * m * z)

    pieces = mp.linspace(0, periods * mp.pi, periods + 1)
    val = mp.quad(f, pieces)
    return 2 ** (2 * s + 1) * h ** (1 - 2 * s) / mp.pi * val


def main():
    cases = [
        (0.8, 20, 0),
        (0.8, 20, 1),
        (0.8, 20, 2),
        (0.8, 20, 5),
        (0.8, 20, 17),
        (0.55, 20, 0),
        (0.55, 20, 3),
        (0.4, 10, 0),
        (0.4, 10, 2),
        (0.95, 10, 1),
        (0.5, 20, 0),
        (0.5, 20, 4),
        # the ends and the middle of the admissible range of s, where the
        # fixed element-pair rules are least accurate
        (0.01, 10, 0),
        (0.01, 10, 1),
        (0.01, 10, 2),
        (0.2, 10, 0),
        (0.2, 10, 1),
        (0.2, 10, 2),
        (0.99, 10, 0),
        (0.99, 10, 1),
        (0.99, 10, 2),
    ]
    print("# (s, n_x, |i-j|) -> E(psi_i, psi_j), grid h = 2/n_x")
    for s, n_x, m in cases:
        h = mp.mpf(2) / n_x
        if s == 0.5:
            # beta = -2 is a Gamma pole with a removable limit; evaluate by
            # two-sided approach.
            lo = entry_closed_form(mp.mpf("0.4999999999"), h, m)
            hi = entry_closed_form(mp.mpf("0.5000000001"), h, m)
            val = (lo + hi) / 2
        else:
            val = entry_closed_form(s, h, m)
        print(f"({s}, {n_x}, {m}): {mp.nstr(val, 17)},")


if __name__ == "__main__":
    main()
