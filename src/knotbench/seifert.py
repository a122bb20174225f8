"""Seifert matrices and knot-table ingestion."""

from __future__ import annotations

import io
import os
from collections import namedtuple
from collections.abc import Mapping, Sequence

from .errors import InputError, as_integer, parse_json, read_text, record


def integer_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination that leaves
    alone the rows with a zero in the pivot column.

    Write p_k for the pivot of step k, and p_(-1) = 1.  Step k replaces
    the entries j > k of each row i > k by (a_ij p_k - a_ik a_kj) / p_(k-1),
    which is a minor of the row-permuted matrix, so the division is exact.
    Where a_ik = 0, the step only multiplies row i by p_k / p_(k-1), so
    the row is not touched: ``den[i]`` keeps p_(s-1), the divisor of the
    step s at which the row was last exact.  After steps s, ..., k - 1
    have skipped it, the stored row is the true one times
    p_(s-1) / p_(k-1), a nonzero factor, so a zero test on it is exact.
    Updating it at step k with the divisor p_(s-1) in place of p_(k-1)
    gives the true new row, and the division is exact as the result is
    again a minor.  A stale pivot row, swapped in or not, and the last
    entry are scaled by p_(k-1) / p_(s-1) once, exactly for the same
    reason.  A dense matrix skips no row and runs the classical
    elimination.
    """
    n = len(rows)
    if n == 0:
        return 1
    a = [[int(v) for v in row] for row in rows]
    den = [1] * n
    prev = 1  # p_(k-1)
    sign = 1
    for k in range(n - 1):
        ak = a[k]
        if ak[k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], ak
                    den[k], den[i] = den[i], den[k]
                    ak = a[k]
                    sign = -sign
                    break
            else:
                return 0
        d = den[k]
        if d != prev:
            for j in range(k, n):
                ak[j] = ak[j] * prev // d
        pk = ak[k]
        for i in range(k + 1, n):
            row = a[i]
            aik = row[k]
            if aik == 0:
                continue
            d = den[i]
            for j in range(k + 1, n):
                row[j] = (row[j] * pk - aik * ak[j]) // d
            den[i] = pk
        prev = pk
    return sign * (a[n - 1][n - 1] * prev // den[n - 1])


def _array(x):
    """``x``, unless it is a string or a mapping, which iterate but hold
    no rows or entries."""
    if isinstance(x, (str, bytes, Mapping)):
        raise InputError("Seifert matrix must be an array of rows")
    return x


class SeifertMatrix(record("SeifertMatrix", "rows")):
    """Integer Seifert matrix V with unimodular skew part V - V^T.

    The size is 2g for the genus g of the underlying surface; the skew
    part being unimodular is exactly the condition that V is the Seifert
    pairing of a genus-g surface with one boundary circle.
    """

    __slots__ = ()

    def __new__(cls, rows: Sequence[Sequence[int]]):
        try:
            rows = tuple(tuple(as_integer(v, "Seifert entry")
                               for v in _array(row)) for row in _array(rows))
        except TypeError:
            raise InputError("Seifert matrix must be an array of rows") from None
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise InputError("Seifert matrix must be square")
        if n % 2:
            raise InputError("Seifert matrix must have even size")
        skew = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
        if integer_determinant(skew) != 1:
            raise InputError("det(V - V^T) != 1: not a Seifert matrix")
        return super().__new__(cls, rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def genus(self) -> int:
        return len(self.rows) // 2

    def symmetric_part(self):
        """V + V^T as plain rows (not itself a Seifert matrix)."""
        n = self.size
        return [[self.rows[i][j] + self.rows[j][i] for j in range(n)]
                for i in range(n)]

    def __repr__(self):
        return f"SeifertMatrix({[list(r) for r in self.rows]!r})"


def connected_sum(a: SeifertMatrix, b: SeifertMatrix) -> SeifertMatrix:
    """Block-diagonal sum, the Seifert matrix of the connected sum."""
    n, m = a.size, b.size
    rows = [[0] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = a.rows[i][j]
    for i in range(m):
        for j in range(m):
            rows[n + i][n + j] = b.rows[i][j]
    return SeifertMatrix(rows)


def mirror(v: SeifertMatrix) -> SeifertMatrix:
    """Seifert matrix -V^T of the mirror image knot."""
    n = v.size
    return SeifertMatrix([[-v.rows[j][i] for j in range(n)] for i in range(n)])


UNKNOT = SeifertMatrix([])


class KnotTableEntry(namedtuple("KnotTableEntry",
                                "name braid seifert expected")):
    """A named knot given by a braid word and/or a Seifert matrix."""

    __slots__ = ()

    def seifert_matrix(self) -> SeifertMatrix:
        if self.seifert is not None:
            return self.seifert
        from .braids import seifert_matrix_from_braid
        return seifert_matrix_from_braid(self.braid)


def _entry_from_record(rec: dict, where: str) -> KnotTableEntry:
    from .braids import BraidWord

    if not isinstance(rec, dict) or "name" not in rec:
        raise InputError(f"{where}: entry must be an object with a 'name'")
    name = str(rec["name"])
    braid = None
    seifert = None
    if "braid" in rec:
        spec = rec["braid"]
        try:
            braid = BraidWord(spec["strands"], spec["word"])
        except (KeyError, TypeError, InputError) as e:
            raise InputError(f"entry {name!r}: bad braid ({e})") from None
    if "seifert" in rec:
        try:
            seifert = SeifertMatrix(rec["seifert"])
        except (TypeError, InputError) as e:
            raise InputError(f"entry {name!r}: bad Seifert matrix ({e})") from None
    if braid is None and seifert is None:
        raise InputError(f"entry {name!r}: needs 'braid' or 'seifert'")
    expected = rec.get("expected", {})
    if not isinstance(expected, dict):
        raise InputError(f"entry {name!r}: 'expected' must be an object")
    return KnotTableEntry(name, braid, seifert, dict(expected))


def load_knot_table(path: str | os.PathLike) -> list:
    """Load a knot table (JSON array, or CSV with name,strands,word)."""
    path = os.fspath(path)
    text = read_text(path)
    if path.endswith(".csv"):
        return _load_csv(text)
    data = parse_json(text, path) if text.strip() else []
    if not isinstance(data, list):
        raise InputError(f"{path}: top level must be a JSON array")
    return [_entry_from_record(rec, f"{path}[{i}]")
            for i, rec in enumerate(data)]


def _load_csv(text: str) -> list:
    import csv

    from .braids import BraidWord

    out = []
    reader = csv.DictReader(io.StringIO(text))
    for lineno, row in enumerate(reader, start=2):
        try:
            name = row["name"]
            strands = int(row["strands"])
            word = [int(x) for x in row["word"].split()]
        except (KeyError, TypeError, ValueError, AttributeError):
            # AttributeError: DictReader fills a short row's cells with None
            raise InputError(f"line {lineno}: expected name,strands,word") from None
        try:
            out.append(KnotTableEntry(name, BraidWord(strands, word), None, {}))
        except InputError as e:
            raise InputError(f"line {lineno} ({name!r}): {e}") from None
    return out
