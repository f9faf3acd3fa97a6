"""Rank, kernel, determinant and adjugate by cross products against
references.

``fibration.matrix_kernel`` reduces only matrices with three columns, so it
reads the rank and the kernel off cross and dot products of the rows.  The
general Gaussian elimination it replaced is kept below as the reference, and
both are run on seeded 3-column matrices over Z, Q and Q(sqrt 2) in shapes
1x3 to 9x3 with ranks 0 to 3.  Ranks agree and kernels span the same space;
at rank at most 1, and for ``line_span``, the vectors are the reference's
own, since certificate frames and fibre lines print them.

``bipoly.det3`` is the triple product of the rows and ``bipoly.adjugate3``
the transpose of the cross products of row pairs; the cofactor expansions
they replaced are kept as references and run on the 3x3 matrices above, on
seeded full matrices and on fibre pencils, whose entries are binary forms.
"""

import random
from fractions import Fraction

import pytest

from biquadric.bipoly import BiPoly, adjugate3, all_monomials, det3
from biquadric.fibration import fibre_matrix, line_span, matrix_kernel, matrix_rank
from biquadric.scalars import NumberFieldElement, is_zero_scalar, scalar_inv

SQRT2 = NumberFieldElement((-2, 0, 1), (0, 1))


def reference_row_reduce(m):
    """Reduced row echelon form of a small matrix: (rows, pivot columns).
    The elimination ``fibration`` used before; kept here as the reference."""
    rows = [list(r) for r in m]
    pivots = []
    for col in range(len(rows[0])):
        rank = len(pivots)
        if rank == len(rows):
            break
        pivot = next((r for r in range(rank, len(rows)) if not is_zero_scalar(rows[r][col])), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = scalar_inv(rows[rank][col])
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not is_zero_scalar(rows[r][col]):
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows, pivots


def reference_kernel(m):
    """The kernel basis read off the reduced row echelon form: one vector per
    free column."""
    rows, pivots = reference_row_reduce(m)
    basis = []
    for fc in range(len(rows[0])):
        if fc in pivots:
            continue
        vec = [0] * len(rows[0])
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(tuple(vec))
    return basis


def _exact(vectors):
    """Vectors with each entry's type, so that 1 and Fraction(1) differ."""
    return [tuple((type(c), c) for c in v) for v in vectors]


FIELDS = {
    "Z": lambda rng: rng.randint(-4, 4),
    "Q": lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    "Q(sqrt2)": lambda rng: rng.randint(-3, 3) + rng.randint(-2, 2) * SQRT2,
}


def _matrix(rng, field, nrows, rank, zero_first):
    """A seeded nrows x 3 matrix of the given rank over the field: random
    combinations of `rank` independent rows, with the first row zero if
    `zero_first`.  Retries until the reference confirms the rank."""
    entry = FIELDS[field]
    while True:
        basis = [tuple(entry(rng) for _ in range(3)) for _ in range(rank)]
        rows = []
        for i in range(nrows):
            coeffs = [0 if zero_first and i == 0 else entry(rng) for _ in basis]
            rows.append(tuple(sum((c * b[k] for c, b in zip(coeffs, basis)), 0) for k in range(3)))
        if len(reference_row_reduce(rows)[1]) == rank:
            return rows


def _cases():
    rng = random.Random(20)
    out = []
    for field in FIELDS:
        for nrows in range(1, 10):
            for rank in range(min(nrows, 3) + 1):
                for zero_first in (False, True) if 0 < rank < nrows else (False,):
                    for _ in range(3):
                        out.append((field, rank, _matrix(rng, field, nrows, rank, zero_first)))
    return out


CASES = _cases()


def _spans(vectors, target):
    """True iff the vectors are independent and span the same space as the
    independent vectors of `target`."""
    if len(vectors) != len(target):
        return False
    if not vectors:
        return True
    both = list(vectors) + list(target)
    return len(reference_row_reduce(both)[1]) == len(target) \
        and len(reference_row_reduce(vectors)[1]) == len(vectors)


def test_cases_cover_every_shape_rank_and_field():
    covered = {(field, len(m), rank) for field, rank, m in CASES}
    assert covered == {(field, nrows, rank) for field in FIELDS for nrows in range(1, 10)
                       for rank in range(min(nrows, 3) + 1)}
    assert any(rank == 1 and not any(m[0]) for _field, rank, m in CASES)


@pytest.mark.parametrize("field", list(FIELDS))
def test_rank_and_kernel_match_the_reference(field):
    for case_field, rank, m in CASES:
        if case_field != field:
            continue
        kernel, expected = matrix_kernel(m), reference_kernel(m)
        assert matrix_rank(m) == rank == 3 - len(expected), m
        assert _spans(kernel, expected), m
        assert all(all(is_zero_scalar(sum((r[k] * v[k] for k in range(3)), 0)) for r in m)
                   for v in kernel), m
        if rank <= 1:
            assert _exact(kernel) == _exact(expected), m


def test_line_span_is_the_reference_kernel_of_the_line():
    for _field, rank, m in CASES:
        if rank == 1:
            line = next(r for r in m if any(not is_zero_scalar(c) for c in r))
            assert _exact(line_span(line)) == _exact(reference_kernel((line, (0, 0, 0), (0, 0, 0))))
    with pytest.raises(ValueError, match="degenerate line"):
        line_span((0, 0, 0))


def test_integer_rank_two_kernels_are_integers():
    # the cross product of two integer rows; the elimination divided by pivots
    kernels = [matrix_kernel(m)[0] for field, rank, m in CASES if field == "Z" and rank == 2]
    assert kernels
    assert all(type(c) is int for v in kernels for c in v)


def reference_det3(m):
    """The cofactor expansion along the first row."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def reference_adjugate3(m):
    """The transpose of the matrix of signed 2x2 minors."""
    def cof(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [c for c in range(3) if c != j]
        minor = m[rows[0]][cols[0]] * m[rows[1]][cols[1]] - m[rows[0]][cols[1]] * m[rows[1]][cols[0]]
        return minor if (i + j) % 2 == 0 else -minor

    return tuple(tuple(cof(j, i) for j in range(3)) for i in range(3))


def _square_cases():
    """The 3x3 matrices of every rank above, and seeded full ones."""
    rng = random.Random(25)
    out = [(field, m) for field, _rank, m in CASES if len(m) == 3]
    out += [(field, [[FIELDS[field](rng) for _ in range(3)] for _ in range(3)])
            for field in FIELDS for _ in range(30)]
    return out


def _pencils():
    """Fibre pencils of seeded (2,2)-forms, sparse and dense, with integer
    and rational coefficients."""
    rng = random.Random(25)
    out = []
    for keep in (0.3, 0.6, 1.0):
        for coefficient in (lambda: rng.randint(-3, 3), lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))):
            for _ in range(8):
                terms = {m: coefficient() for m in all_monomials() if rng.random() < keep}
                f = BiPoly((2, 2), terms)
                if not f.is_zero():
                    out.append(fibre_matrix(f).entries)
    return out


@pytest.mark.parametrize("field", list(FIELDS))
def test_determinant_and_adjugate_match_the_cofactors(field):
    cases = [m for case_field, m in _square_cases() if case_field == field]
    assert len(cases) > 30
    for m in cases:
        assert _exact([(det3(m),)]) == _exact([(reference_det3(m),)]), m
        assert _exact(adjugate3(m)) == _exact(reference_adjugate3(m)), m


def test_pencil_determinant_and_adjugate_match_the_cofactors():
    pencils = _pencils()
    assert len(pencils) > 40
    for m in pencils:
        assert det3(m) == reference_det3(m), m
        assert adjugate3(m) == reference_adjugate3(m), m
        assert det3(m).d == 6 and all(b.d == 4 for row in adjugate3(m) for b in row)
