"""Checks for the benchmark's outputs, computed apart from knotbench.

Each check takes plain data (integer matrices, coefficient dicts,
rational enclosures as Fraction pairs) and raises CheckFailed on a wrong
result.  None of them calls into the program:

* exact integer determinants by Bareiss elimination, so that
  det(V - t V^T) = t^g Delta(t) can be compared at 2g + 1 integer points;
* float signatures from numpy ``eigvalsh`` at an interior point of each
  arc, float jump angles from the unit-circle roots of Delta found by
  ``numpy.roots``;
* closed forms for torus knots T(p, q): Delta, jumps exactly at k/(pq)
  with p and q not dividing k, Litherland's arc values, and
  rho0 = -(p^2 - 1)(q^2 - 1)/(3pq) (Collins, arXiv:1001.1329);
* Vassiliev dimensions 1, 1, 1 in degrees 1-3 (Bar-Natan, Topology 34,
  1995); Magnus depth and grope class both equal the bracket weight;
* properties of the diagram algebra: AS and IHX keep the trivalent and
  leg counts, so each relation row lives in one (trivalent, leg) cell
  and the two gradings must agree on every cell both cover.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

VASSILIEV_DIMS = {1: 1, 2: 1, 3: 1}

# numpy.roots splits an m-fold root by about eps^(1/m); unit-circle roots
# closer than this are one jump angle
_CLUSTER = 1e-6
# allowed error of a float jump angle (cluster mean) and of the float rho0
_ANGLE_TOL = 1e-9


class CheckFailed(Exception):
    """A program output disagrees with its oracle."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# exact linear algebra


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix, fraction-free."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank_q(rows, n_cols: int) -> int:
    """Rank over Q of a dense list of rational rows."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(n_cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / p[c]
                m[i] = [x - f * y for x, y in zip(m[i], p)]
        rank += 1
    return rank


def _v_minus_t_vt(v, t: int):
    n = len(v)
    return [[v[i][j] - t * v[j][i] for j in range(n)] for i in range(n)]


def knot_determinant(v) -> int:
    """|det(V + V^T)| = |Delta(-1)|."""
    return abs(bareiss_det(_v_minus_t_vt(v, -1)))


# ---------------------------------------------------------------------------
# classical invariants of a Seifert matrix V (2g x 2g)


def check_alexander(v, delta: dict) -> None:
    """delta maps exponent -> coefficient of the symmetric Alexander
    polynomial; det(V - t V^T) must equal t^g Delta(t) identically, which
    2g + 1 sample points decide for polynomials of degree at most 2g."""
    g = len(v) // 2
    _require(all(-g <= e <= g for e in delta),
             f"Delta has span above 2g = {2 * g}")
    for t in [-1] + list(range(2, 2 * g + 2)):
        lhs = bareiss_det(_v_minus_t_vt(v, t))
        rhs = sum(c * t ** (e + g) for e, c in delta.items())
        _require(lhs == rhs, f"det(V - {t} V^T) = {lhs}, t^g Delta = {rhs}")


def check_determinant(v, det: int) -> None:
    want = knot_determinant(v)
    _require(det == want, f"determinant {det}, oracle {want}")


def check_arf(v, arf: int) -> None:
    """Levine: Arf = 0 iff |Delta(-1)| = +-1 mod 8."""
    want = 0 if knot_determinant(v) % 8 in (1, 7) else 1
    _require(arf == want, f"Arf {arf}, oracle {want}")


def check_fox_milnor(v, passes: bool) -> None:
    """One-way: Delta = f(t) f(1/t) forces |Delta(-1)| = f(-1)^2."""
    if passes:
        d = knot_determinant(v)
        _require(math.isqrt(d) ** 2 == d,
                 f"Fox-Milnor holds but the determinant {d} is no square")


# ---------------------------------------------------------------------------
# signature function and rho0 by floating point


def float_jump_angles(v, delta: dict) -> list:
    """Sorted angles in (0, 1) of the distinct unit-circle roots of Delta."""
    g = len(v) // 2
    coeffs = [delta.get(e, 0) for e in range(g, -g - 1, -1)]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) < 2:
        return []
    angles = sorted(
        (np.angle(r) / (2 * np.pi)) % 1.0
        for r in np.roots(coeffs) if abs(abs(r) - 1.0) < _CLUSTER)
    clusters: list = []
    for a in angles:
        if clusters and a - clusters[-1][-1] < _CLUSTER:
            clusters[-1].append(a)
        else:
            clusters.append([a])
    return [float(np.mean(c)) for c in clusters]


def float_signature(v, theta: float) -> int:
    """Signature of (1 - w) V + (1 - conj w) V^T at w = exp(2 pi i theta)."""
    if not v:
        return 0
    m = np.array(v, dtype=float)
    w = np.exp(2j * np.pi * theta)
    h = (1 - w) * m + (1 - np.conj(w)) * m.T
    eig = np.linalg.eigvalsh(h)
    scale = max(1.0, float(np.max(np.abs(eig))))
    _require(bool(np.min(np.abs(eig)) > 1e-9 * scale),
             f"oracle form is singular at theta = {theta}")
    return int(np.sum(eig > 0) - np.sum(eig < 0))


def check_signature_function(v, delta: dict, values, jumps) -> list:
    """jumps are (lo, hi) enclosures of the jump angles.  Returns the
    float jump angles for the rho0 check."""
    angles = float_jump_angles(v, delta)
    _require(len(jumps) == len(angles),
             f"{len(jumps)} jumps, numpy finds {len(angles)} unit roots")
    _require(len(values) == len(angles) + 1,
             f"{len(values)} arc values for {len(angles)} jumps")
    for a, (lo, hi) in zip(angles, jumps):
        _require(float(lo) - _ANGLE_TOL <= a <= float(hi) + _ANGLE_TOL,
                 f"jump enclosure [{float(lo)}, {float(hi)}] misses {a}")
    cuts = [0.0] + angles + [1.0]
    for k, val in enumerate(values):
        want = float_signature(v, (cuts[k] + cuts[k + 1]) / 2)
        _require(val == want, f"arc {k}: signature {val}, oracle {want}")
    return angles


def check_rho_float(values, angles, lo: Fraction, hi: Fraction,
                    width: Fraction) -> None:
    _require(hi - lo <= width, f"rho0 enclosure wider than {width}")
    cuts = [0.0] + list(angles) + [1.0]
    rho = sum(val * (cuts[k + 1] - cuts[k]) for k, val in enumerate(values))
    _require(float(lo) - _ANGLE_TOL <= rho <= float(hi) + _ANGLE_TOL,
             f"rho0 in [{float(lo)}, {float(hi)}], oracle {rho}")


# ---------------------------------------------------------------------------
# torus knots T(p, q), p, q coprime


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div_exact(a, b):
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for k in range(len(out) - 1, -1, -1):
        out[k], r = divmod(a[k + len(b) - 1], b[-1])
        _require(r == 0, "inexact division")
        for j, y in enumerate(b):
            a[k + j] -= out[k] * y
    _require(not any(a[:len(b) - 1]), "inexact division")
    return out


def torus_alexander(p: int, q: int) -> dict:
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), centred at t^0."""
    def tn_minus_1(n):
        return [-1] + [0] * (n - 1) + [1]
    num = _poly_mul(tn_minus_1(p * q), tn_minus_1(1))
    coeffs = _poly_div_exact(_poly_div_exact(num, tn_minus_1(p)),
                             tn_minus_1(q))
    g = (p - 1) * (q - 1) // 2
    return {k - g: c for k, c in enumerate(coeffs) if c}


def torus_jumps(p: int, q: int) -> list:
    return [Fraction(k, p * q) for k in range(1, p * q) if k % p and k % q]


def torus_signature(p: int, q: int, theta: Fraction) -> int:
    """Litherland: with S = {i/p + j/q : 0 < i < p, 0 < j < q}, sigma is
    minus (#S inside (theta, theta + 1) - #S outside), for the positive
    braid closure."""
    inside = outside = 0
    for i in range(1, p):
        for j in range(1, q):
            s = Fraction(i, p) + Fraction(j, q)
            if theta < s < theta + 1:
                inside += 1
            else:
                outside += 1
    return outside - inside


def torus_rho0(p: int, q: int) -> Fraction:
    return Fraction(-(p * p - 1) * (q * q - 1), 3 * p * q)


def check_torus(p: int, q: int, delta: dict, values, jumps,
                lo: Fraction, hi: Fraction, width: Fraction) -> None:
    """Exact checks; jumps are (lo, hi) rational enclosures."""
    _require(delta == torus_alexander(p, q), f"T({p},{q}): wrong Delta")
    want = torus_jumps(p, q)
    _require(len(jumps) == len(want) == (p - 1) * (q - 1),
             f"T({p},{q}): {len(jumps)} jumps, expected {len(want)}")
    for x, (jlo, jhi) in zip(want, jumps):
        _require(jlo <= x <= jhi, f"T({p},{q}): jump enclosure misses {x}")
    _require(len(values) == len(want) + 1, f"T({p},{q}): wrong arc count")
    cuts = [Fraction(0)] + want + [Fraction(1)]
    for k, val in enumerate(values):
        w = torus_signature(p, q, (cuts[k] + cuts[k + 1]) / 2)
        _require(val == w, f"T({p},{q}) arc {k}: signature {val}, oracle {w}")
    _require(hi - lo <= width, f"T({p},{q}): rho0 enclosure too wide")
    rho = torus_rho0(p, q)
    _require(lo <= rho <= hi, f"T({p},{q}): rho0 enclosure misses {rho}")


# ---------------------------------------------------------------------------
# grope calculus


def check_equal(what: str, got, want) -> None:
    _require(got == want, f"{what}: got {got}, expected {want}")


def diagram_cell(vertices) -> tuple:
    """(trivalent count, leg count) of a diagram given by its rotations."""
    tri = sum(1 for r in vertices if len(r) == 3)
    return tri, len(vertices) - tri


def cell_degree(cell, grading: str) -> int:
    t, u = cell
    # connected: 2E = 3t + u, so b1 = (t - u)/2 + 1 and grope = t + 1
    return (t + u) // 2 if grading == "vassiliev" else t + 1


def check_rows_homogeneous(rows, column_cells, degree: int,
                           grading: str) -> None:
    """Every AS/IHX row stays inside one cell, of the row's degree."""
    for r, row in enumerate(rows):
        cells = {column_cells[c] for c in row}
        _require(len(cells) <= 1, f"row {r} mixes cells {sorted(cells)}")
        for cell in cells:
            _require(cell_degree(cell, grading) == degree,
                     f"row {r} lies in cell {cell}, not in degree {degree}")


def cell_dimensions(rows, column_cells) -> dict:
    """{cell: number of generators minus rank of the rows in that cell}."""
    out = {}
    for cell in set(column_cells):
        cols = [c for c, x in enumerate(column_cells) if x == cell]
        index = {c: k for k, c in enumerate(cols)}
        dense = []
        for row in rows:
            if row and column_cells[next(iter(row))] == cell:
                line = [0] * len(cols)
                for c, val in row.items():
                    line[index[c]] = val
                dense.append(line)
        out[cell] = len(cols) - rank_q(dense, len(cols))
    return out


def check_cells_agree(grope_cells: dict, vassiliev_cells: dict) -> None:
    shared = set(grope_cells) & set(vassiliev_cells)
    _require(bool(shared), "the gradings share no cell")
    for cell in sorted(shared):
        check_equal(f"dimension of cell {cell} (grope vs Vassiliev)",
                    grope_cells[cell], vassiliev_cells[cell])


def relabelled(vertices, pairing, rng) -> tuple:
    """The same diagram with shuffled half-edge ids and vertex order and
    each rotation started at a random half-edge (its cyclic order kept)."""
    n = len(pairing)
    perm = list(range(n))
    rng.shuffle(perm)
    new_vertices = []
    for rot in vertices:
        s = rng.randrange(len(rot))
        new_vertices.append(tuple(perm[h] for h in rot[s:] + rot[:s]))
    rng.shuffle(new_vertices)
    new_pairing = [0] * n
    for h, p in enumerate(pairing):
        new_pairing[perm[h]] = perm[p]
    return new_vertices, new_pairing
