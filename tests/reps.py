"""Clock-and-shift *-representations of the sphere factors.

An arbiter that shares nothing with the preset loader or the rewriting
engine: it reads no ``q`` line and rewrites no word.  For N >= 2 let U
be the clock matrix diag(1, lam, ..., lam^(N-1)) and V the cyclic shift
e_i -> e_(i+1) on N-vectors, so that U V = lam V U.  A factor with
generators g, g*, h, h* is sent to

    rho(g) = c U,   rho(h) = s V,   rho(g*) = rho(g)^dagger,   rho(h*) = rho(h)^dagger,

with c^2 + s^2 = 1, so that rho(g) rho(g*) + rho(h) rho(h*) = 1, and
h g = lam^-1 g h holds as the bundled tables say.  Matrix entries lie
in the group ring Q[Z_N x Z_N], whose two generators are the images of
the scalar letters L and M; the factor's lam is fixed here, L on A and
M on P.  The dagger is the transpose with every group element g sent
to g^-1, the image of the scalar star.

A ring element is a map {(i, j): Fraction} with i, j in Z_N and no
zero coefficients, standing for the sum of c L^i M^j; a matrix is a
list of rows of them.  The only engine values read are the public
``generators`` of a presentation and the ``terms`` of its elements and
scalars.
"""

from __future__ import annotations

from fractions import Fraction

# per factor: its generators g, g*, h, h* in engine order, the scalar
# letter its lam is (0 for L, 1 for M), and (c, s)
FACTORS = {
    "A": (("a", "a'", "b", "b'"), 0, (Fraction(3, 5), Fraction(4, 5))),
    "P": (("x", "x'", "y", "y'"), 1, (Fraction(5, 13), Fraction(12, 13))),
}


def _ring_sum(xs):
    out = {}
    for x in xs:
        for key, c in x.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _ring_mul(x, y, n):
    return _ring_sum(
        {((i + k) % n, (j + l) % n): c * d} for (i, j), c in x.items() for (k, l), d in y.items()
    )


class ClockShift:
    """rho of one factor ("A" or "P") on N-vectors."""

    def __init__(self, factor: str, n: int):
        names, letter, (c, s) = FACTORS[factor]
        self.n = n
        clock = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            clock[i][i] = {(i, 0) if letter == 0 else (0, i): c}
        shift = [[{(0, 0): s} if i == (j + 1) % n else {} for j in range(n)] for i in range(n)]
        g, g_star, h, h_star = names
        self.images = {g: clock, g_star: self.dagger(clock), h: shift, h_star: self.dagger(shift)}

    def mul(self, x, y):
        n = self.n
        return [
            [_ring_sum(_ring_mul(x[i][k], y[k][j], n) for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    def dagger(self, x):
        """The transpose, each group element g sent to g^-1."""
        n = self.n
        return [
            [{(-i % n, -j % n): c for (i, j), c in x[col][row].items()} for col in range(n)]
            for row in range(n)
        ]

    def word(self, word):
        """rho of a product of generators, taken left to right."""
        n = self.n
        out = [[{(0, 0): Fraction(1)} if i == j else {} for j in range(n)] for i in range(n)]
        for g in word:
            out = self.mul(out, self.images[g])
        return out

    def element(self, x):
        """rho of an engine element: the sum of rho(c) rho(m) over its
        terms c m, each exponent of c read mod N and m read as its word in
        generator order."""
        n, gens = self.n, x.presentation.generators
        out = [[{} for _ in range(n)] for _ in range(n)]
        for m, c in x.terms.items():
            scalar = _ring_sum({(i % n, j % n): Fraction(e)} for (i, j), e in c.terms.items())
            word = self.word([g for g, e in zip(gens, m) for _ in range(e)])
            out = [
                [_ring_sum((total, _ring_mul(scalar, entry, n))) for total, entry in zip(r, w)]
                for r, w in zip(out, word)
            ]
        return out
