import functools
import json
import random
from pathlib import Path

import pytest

from knotbench.braids import BraidWord, seifert_matrix_from_braid
from knotbench.seifert import KnotTableEntry, SeifertMatrix, load_knot_table

TABLE_PATH = Path(__file__).resolve().parents[1] / "src" / "knotbench" / "data" / "knots.json"


@pytest.fixture(scope="session")
def knot_table():
    return load_knot_table(str(TABLE_PATH))


@pytest.fixture(scope="session")
def corpus(knot_table):
    """name -> SeifertMatrix for every bundled knot."""
    return {e.name: e.seifert_matrix() for e in knot_table}


@pytest.fixture(scope="session")
def trefoil():
    return seifert_matrix_from_braid(BraidWord(2, [1, 1, 1]))


@pytest.fixture(scope="session")
def figure_eight():
    return seifert_matrix_from_braid(BraidWord(3, [1, -2, 1, -2]))


def torus(p, q):
    """The Seifert matrix of T(p, q), the closure of (s_1 ... s_(p-1))^q."""
    return seifert_matrix_from_braid(BraidWord(p, list(range(1, p)) * q))


@functools.lru_cache(maxsize=None)
def torus_step_function(p, q):
    """``signature_function`` of T(p, q), computed once per session; up to
    T(2, 49) these take seconds in all."""
    from knotbench.invariants import signature_function

    return signature_function(torus(p, q))


def random_unimodular(rng, n):
    """A random n x n integer matrix of determinant 1: the identity after
    2n attempted row additions p[b] += +-p[a]."""
    p = [[1 if i == k else 0 for k in range(n)] for i in range(n)]
    for _ in range(2 * n):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        c = rng.choice((-1, 1))
        for k in range(n):
            p[b][k] += c * p[a][k]
    return p


def random_unimodular_skew(rng, n):
    """P^T J P for the standard symplectic J and a random unimodular P."""
    j = [[0] * n for _ in range(n)]
    for k in range(0, n, 2):
        j[k][k + 1] = 1
        j[k + 1][k] = -1
    p = random_unimodular(rng, n)
    pt_j = [[sum(p[k][i] * j[k][l] for k in range(n)) for l in range(n)]
            for i in range(n)]
    return [[sum(pt_j[i][k] * p[k][l] for k in range(n)) for l in range(n)]
            for i in range(n)]


def random_seifert(rng, genus):
    """Random integer matrix with unimodular skew part (a valid Seifert
    matrix of the given surface genus)."""
    n = 2 * genus
    skew = random_unimodular_skew(rng, n)
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        v[i][i] = rng.randint(-3, 3)
        for jj in range(i + 1, n):
            v[i][jj] = rng.randint(-3, 3)
            v[jj][i] = v[i][jj] - skew[i][jj]
    return SeifertMatrix(v)


def random_knot_braid(rng, max_strands=5, max_len=12):
    """A random braid word whose closure is a knot with connected surface."""
    from knotbench.braids import closure_is_knot

    while True:
        n = rng.randint(2, max_strands)
        length = rng.randint(n, max_len)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]
        b = BraidWord(n, word)
        if not closure_is_knot(b):
            continue
        if any(i not in {abs(x) for x in word} for i in range(1, n)):
            continue
        return b
