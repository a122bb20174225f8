import random
from fractions import Fraction

import numpy as np
import pytest

from knotbench.errors import PossiblySingularError
from knotbench.hermitian import hermitian_signature
from knotbench.invariants import (
    _arc_point,
    _arc_signature,
    _laurent_to_x,
    alexander_polynomial,
)
from knotbench.polynomials import count_roots_halfopen, sturm_sequence
from knotbench.seifert import integer_determinant

from conftest import random_seifert
from oracles import (
    charpoly_signature,
    realified_arc_signature,
    realified_hermitian_signature,
)


def symmetric_signature(rows):
    """The signature of a real symmetric matrix: the case im = 0."""
    return hermitian_signature(rows, [[0] * len(rows) for _ in rows])


def arc_points(v):
    """One point r = tan(pi theta) per arc of theta in (0, 1/2], as
    ``signature_function`` evaluates them; None is theta = 1/2."""
    chain = sturm_sequence(_laurent_to_x(alexander_polynomial(v)))
    return [_arc_point(chain, k)
            for k in range(count_roots_halfopen(chain, -2, 2) + 1)]


def eigen_signature(re, im):
    h = np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
    ev = np.linalg.eigvalsh(h)
    return int((ev > 1e-9).sum()) - int((ev < -1e-9).sum())


class TestExactMatrices:
    def test_mixed_diagonal(self):
        assert symmetric_signature([[2, 0], [0, -3]]) == 0

    def test_positive_definite(self):
        assert symmetric_signature([[1, 0], [0, 1]]) == 2

    def test_zero_matrix_possibly_singular(self):
        with pytest.raises(PossiblySingularError, match="possibly singular"):
            symmetric_signature([[0, 0], [0, 0]])

    def test_hyperbolic_block_needs_two_by_two_pivot(self):
        assert symmetric_signature([[0, 1], [1, 0]]) == 0
        assert symmetric_signature([[0, 2, 0], [2, 0, 0], [0, 0, 5]]) == 1

    def test_singular_submatrix_detected(self):
        with pytest.raises(PossiblySingularError):
            symmetric_signature([[0, 1, 0], [1, 0, 0], [0, 0, 0]])

    def test_empty(self):
        assert hermitian_signature([], []) == 0


class TestZeroDiagonal:
    """All-zero diagonals, where e_k becomes e_k + c e_l: c = 1 when
    Re h_kl != 0, c = i when h_kl is purely imaginary."""

    CASES = [
        # [[0, 1], [1, 0]]: eigenvalues +-1
        ([[0, 1], [1, 0]], [[0, 0], [0, 0]], 0),
        # [[0, i], [-i, 0]]: eigenvalues +-1
        ([[0, 0], [0, 0]], [[0, 1], [-1, 0]], 0),
        # [[0, 1 + 2i], [1 - 2i, 0]]
        ([[0, 1], [1, 0]], [[0, 2], [-2, 0]], 0),
        # purely imaginary pair first, then a positive pivot left over
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]],
         [[0, 3, 0], [-3, 0, 0], [0, 0, 0]], None),
        ([[0, 0, 1], [0, 0, 0], [1, 0, 4]],
         [[0, 2, 0], [-2, 0, 0], [0, 0, 0]], 1),
        ([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
         [[0, 2, 0, -1], [-2, 0, 1, 0], [0, -1, 0, 3], [1, 0, -3, 0]], 0),
        # a zero diagonal reached only after the first pivot
        ([[1, 1, 0], [1, 1, 0], [0, 0, 0]],
         [[0, 0, 1], [0, 0, -2], [-1, 2, 0]], 1),
        ([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
         [[0, 1, 1, 0], [-1, 0, 0, 1], [-1, 0, 0, 1], [0, -1, -1, 0]],
         None),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_against_realification_and_eigenvalues(self, case):
        re, im, expected = self.CASES[case]
        if expected is None:
            with pytest.raises(PossiblySingularError):
                hermitian_signature(re, im)
            with pytest.raises(PossiblySingularError):
                realified_hermitian_signature(re, im)
            return
        assert hermitian_signature(re, im) == expected
        assert realified_hermitian_signature(re, im) == expected
        assert eigen_signature(re, im) == expected

    def test_inputs_unchanged(self):
        re, im = [[0, 0], [0, 0]], [[0, 1], [-1, 0]]
        hermitian_signature(re, im)
        assert (re, im) == ([[0, 0], [0, 0]], [[0, 1], [-1, 0]])


class TestSingular:
    @pytest.mark.parametrize("re, im", [
        ([[1, 0], [0, 1]], [[0, 1], [-1, 0]]),          # [[1, i], [-i, 1]]
        ([[2, 1], [1, 1]], [[0, 1], [-1, 0]]),          # det 2 - |1 + i|^2
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]],
         [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
        ([[1, 1, 1], [1, 1, 1], [1, 1, 1]],
         [[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
    ])
    def test_singular_hermitian_raises(self, re, im):
        with pytest.raises(PossiblySingularError, match="possibly singular"):
            hermitian_signature(re, im)


class TestOracleAgreement:
    def test_random_matrices_vs_charpoly_sturm(self):
        rng = random.Random(42)
        done = 0
        while done < 150:
            n = rng.randint(1, 6)
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = rng.randint(-4, 4)
            if integer_determinant(a) == 0:
                with pytest.raises(PossiblySingularError):
                    symmetric_signature(a)
                continue
            assert symmetric_signature(a) == charpoly_signature(a)
            done += 1

    def test_corpus_symmetric_parts(self, corpus):
        for name, v in corpus.items():
            if v.size == 0 or v.size > 6:
                continue
            sym = v.symmetric_part()
            assert symmetric_signature(sym) == charpoly_signature(sym)

    def test_random_hermitian_vs_realification(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 6)
            re = [[0] * n for _ in range(n)]
            im = [[0] * n for _ in range(n)]
            sparse = rng.random() < 0.5
            for i in range(n):
                if not sparse:
                    re[i][i] = rng.randint(-3, 3)
                for j in range(i + 1, n):
                    re[i][j] = re[j][i] = rng.randint(-3, 3)
                    im[i][j] = rng.randint(-3, 3)
                    im[j][i] = -im[i][j]
            try:
                expected = realified_hermitian_signature(re, im)
            except PossiblySingularError:
                with pytest.raises(PossiblySingularError):
                    hermitian_signature(re, im)
                continue
            assert hermitian_signature(re, im) == expected
            assert eigen_signature(re, im) == expected


class TestArcSignature:
    """``_arc_signature`` on the n x n form over Z[i] against the
    realified 2n x 2n form."""

    def test_bundled_knots_every_arc(self, corpus):
        for name, v in corpus.items():
            if v.size == 0:
                continue
            for r in arc_points(v):
                assert _arc_signature(v, r) == realified_arc_signature(v, r), \
                    (name, r)

    @pytest.mark.parametrize("genus", [1, 2, 3, 4])
    def test_random_forms_every_arc(self, genus):
        rng = random.Random(100 + genus)
        for _ in range(12):
            v = random_seifert(rng, genus)
            for r in arc_points(v):
                assert _arc_signature(v, r) == realified_arc_signature(v, r)

    @pytest.mark.parametrize("genus", [1, 2, 3, 4])
    def test_random_forms_random_points(self, genus):
        rng = random.Random(200 + genus)
        for _ in range(10):
            v = random_seifert(rng, genus)
            for _ in range(6):
                r = Fraction(rng.randint(1, 60), rng.randint(1, 60))
                try:
                    expected = realified_arc_signature(v, r)
                except PossiblySingularError:
                    with pytest.raises(PossiblySingularError):
                        _arc_signature(v, r)
                    continue
                assert _arc_signature(v, r) == expected
