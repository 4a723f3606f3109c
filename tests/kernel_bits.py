"""SHA-256 over the wave kernels' results on seeded systems of 1 to
UNROLL_LIMIT species, one digest on every interpreter.

Each line is the repr of the residual maxima of a seeded sine profile, or of
an integrate_rows trajectory, for n = 1..UNROLL_LIMIT and each exponent
class "1", "int" and "frac" of m - 1 and of every l_i.  Rows of up to
UNROLL_LIMIT products are + chains, which no interpreter's builtin sum
rounds, so the digest does not depend on the Python version.  Imports
neither numpy nor pytest, so it runs as a plain script:

    PYTHONPATH=src python tests/kernel_bits.py
"""

import hashlib
import math
import random

from nbarrier import Profile, ReactionSpec, SystemSpec, residual
from nbarrier.kernels import UNROLL_LIMIT
from nbarrier.waves import integrate_rows

# (m, l) per exponent class of m - 1 and of l_i.
CLASSES = {"1": (2.0, 1.0), "int": (3.0, 2.0), "frac": (1.5, 1.5)}
GRID = [-2.0 + k * 0.1 for k in range(41)]


def seeded_case(n, m, l, seed):
    """A system with n species, exponent m and every l_i = l, a sine profile
    u_i = a_i + b_i sin(c_i x) and its initial state at x = 0, from seed."""
    rng = random.Random(seed)
    spec = SystemSpec(
        n=n, m=m, d=tuple(rng.uniform(0.3, 3.0) for _ in range(n)), l=(l,) * n,
        theta=rng.uniform(-1.0, 1.0),
        reaction=ReactionSpec(
            sigma=tuple(rng.uniform(0.5, 2.0) for _ in range(n)),
            C=tuple(tuple(rng.uniform(0.1, 2.0) for _ in range(n)) for _ in range(n))))
    harmonics = tuple((rng.uniform(1.0, 2.0), rng.uniform(-0.5, 0.5), rng.uniform(0.5, 3.0))
                      for _ in range(n))

    def derivs(x):
        return tuple((a + b * math.sin(c * x), b * c * math.cos(c * x),
                      -b * c * c * math.sin(c * x)) for a, b, c in harmonics)

    u0 = tuple(a for a, _, _ in harmonics)
    w0 = tuple(rng.uniform(-0.5, 0.5) for _ in range(n))
    return spec, Profile.of(n, m, derivs), u0, w0


def lines():
    """One repr per result, in a fixed order."""
    for n in range(1, UNROLL_LIMIT + 1):
        for c, (m, l) in enumerate(CLASSES.values()):
            for k in range(3):
                spec, profile, u0, w0 = seeded_case(n, m, l, 100 * n + 10 * c + k)
                yield repr(residual(spec, profile, GRID))
                xs, ys, _, reason = integrate_rows(spec, u0, w0, (0.0, 0.5), 0.01)
                yield repr((xs, ys, reason))


def digest():
    return hashlib.sha256("\n".join(lines()).encode()).hexdigest()


if __name__ == "__main__":
    print(digest())
