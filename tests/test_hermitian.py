import random

import pytest

from knotbench.errors import PossiblySingularError
from knotbench.hermitian import rational_symmetric_signature
from knotbench.seifert import integer_determinant

from oracles import charpoly_signature


class TestExactMatrices:
    def test_mixed_diagonal(self):
        assert rational_symmetric_signature([[2, 0], [0, -3]]) == 0

    def test_positive_definite(self):
        assert rational_symmetric_signature([[1, 0], [0, 1]]) == 2

    def test_zero_matrix_possibly_singular(self):
        with pytest.raises(PossiblySingularError, match="possibly singular"):
            rational_symmetric_signature([[0, 0], [0, 0]])

    def test_hyperbolic_block_needs_two_by_two_pivot(self):
        assert rational_symmetric_signature([[0, 1], [1, 0]]) == 0
        assert rational_symmetric_signature([[0, 2, 0], [2, 0, 0], [0, 0, 5]]) == 1

    def test_singular_submatrix_detected(self):
        with pytest.raises(PossiblySingularError):
            rational_symmetric_signature([[0, 1, 0], [1, 0, 0], [0, 0, 0]])

    def test_empty(self):
        assert rational_symmetric_signature([]) == 0


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
                    rational_symmetric_signature(a)
                continue
            assert rational_symmetric_signature(a) == charpoly_signature(a)
            done += 1

    def test_corpus_symmetric_parts(self, corpus):
        for name, v in corpus.items():
            if v.size == 0 or v.size > 6:
                continue
            sym = v.symmetric_part()
            assert rational_symmetric_signature(sym) == charpoly_signature(sym)

