"""High-precision oracle for the density gamma of the correction term G.

Evaluates the printed formula directly with mpmath nested quadrature at
30 significant digits, independent of the package's trapezoid rule: the
inner integral in r is split at the removable singularity r = 1/y.  Every
value printed here is frozen into the spectral tests.

Checks the analytic mass identity: the total integral of gamma equals
sin((1-s) pi / 4), which is the xi -> 0 limit of G, the Laplace transform
of gamma.

Run: python3 tests/oracles/g_transform_oracle.py
"""

import mpmath as mp

mp.mp.dps = 30


def gamma_oracle(y, s):
    y = mp.mpf(y)
    s = mp.mpf(s)

    def integrand(r):
        num = 1 - (r * y) ** (2 * s)
        den = 1 - (r * y) ** 2
        if num == 0 or den == 0:
            return mp.log(s) / (1 + r * r)
        return mp.log(num / den) / (1 + r * r)

    inner = mp.quad(integrand, [0, 1 / y, 2 / y, mp.inf])
    z = y ** (2 * s)
    pref = (
        mp.sqrt(4 * s)
        * mp.sin(s * mp.pi)
        * z
        / (2 * mp.pi * (1 + z * z - 2 * z * mp.cos(s * mp.pi)))
    )
    return pref * mp.exp(inner / mp.pi)


def gamma_mass(s):
    return mp.quad(lambda y: gamma_oracle(y, s), [0, mp.mpf(1) / 2, 1, 2, 5, 20, mp.inf])


if __name__ == "__main__":
    for s in (mp.mpf("0.8"), mp.mpf("0.5")):
        mass = gamma_mass(s)
        target = mp.sin((1 - s) * mp.pi / 4)
        print(f"s={float(s)}: integral of gamma = {mp.nstr(mass, 12)}, "
              f"sin((1-s)pi/4) = {mp.nstr(target, 12)}, diff = {mp.nstr(abs(mass-target), 3)}")
    print()
    for (y, s) in [
        ("0.5", "0.8"), ("2.0", "0.8"), ("1.0", "0.5"), ("0.05", "0.3"),
        ("1.0", "0.01"), ("0.3", "0.05"),
    ]:
        v = gamma_oracle(mp.mpf(y), mp.mpf(s))
        print(f"gamma({y}, s={s}) = {mp.nstr(v, 17)}")
