"""Presentation export, Smith normal form, and coset enumeration probes."""

import json
from fractions import Fraction

import pytest
from coset_enumeration import Exceeded, todd_coxeter
from label_oracle import act, presentation_of, relators, table

from trigon.cli import present
from trigon.grouptools import Abelianization, abelianization, export_presentation
from trigon.permgrp import Perm
from trigon.singer import singer_datum
from trigon.tripres import TrianglePresentation

SQUARE_T = TrianglePresentation.from_labels((1, 2), [(1, 1, 2), (2, 2, 2)])

GAP_SQUARE = "F := FreeGroup(2);\nG := F / [ F.1*F.1*F.2, F.2*F.2*F.2 ];\n"
JSON_SQUARE = '{"n": 2, "relators": [[1, 1, 2], [2, 2, 2]]}\n'


def relation_matrix(T):
    rows = []
    for orbit in relators(T):
        row = [0] * T.n
        for x in orbit:
            row[x - 1] += 1
        rows.append(row)
    return rows


def determinant(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for cc in range(c, n):
                m[r][cc] -= f * m[c][cc]
    return det


def test_doc_one_relator_per_orbit():
    doc = json.loads(export_presentation(SQUARE_T))
    assert doc == {"n": 2, "relators": [[1, 1, 2], [2, 2, 2]]}
    assert len(doc["relators"]) == len(relators(SQUARE_T))
    fano = json.loads(export_presentation(table(3)))
    assert fano["n"] == 7 and len(fano["relators"]) == 7
    assert fano["relators"][0] == [1, 2, 4]


def test_export_byte_exact():
    assert "".join(present(SQUARE_T, None, "gap")) == GAP_SQUARE
    assert export_presentation(SQUARE_T) == JSON_SQUARE
    with pytest.raises(ValueError):
        present(SQUARE_T, None, "magma-like")


def test_square_abelianization():
    # rows 2a+b and 3b; 2x2 determinant 6 matches the single factor
    ab = abelianization(SQUARE_T)
    assert ab == Abelianization(factors=(6,), free_rank=0)
    assert determinant(relation_matrix(SQUARE_T)) in (6, -6)


def test_free_ranks():
    assert abelianization(presentation_of((1, 2), ())) == (
        Abelianization(factors=(), free_rank=2)
    )
    assert abelianization(presentation_of((1,), ())).free_rank == 1


def test_fano_abelianization_baseline():
    ab = abelianization(table(3))
    assert ab == Abelianization(factors=(2, 2, 6), free_rank=0)
    product = 1
    for d in ab.factors:
        product *= d
    assert abs(determinant(relation_matrix(table(3)))) == product == 24


@pytest.mark.parametrize("sign", [1, -1])
def test_abelianization_invariant_under_translation(sign):
    d = singer_datum(2)
    T = d.signs().build({1: sign})
    base = abelianization(T)
    m = d.G.n
    for g in range(1, m):
        shift = Perm(tuple((i + g) % m for i in range(m)))
        assert abelianization(act(T, shift)) == base


def test_coset_enumeration_square():
    assert todd_coxeter(SQUARE_T, (), 1000) == 6
    assert todd_coxeter(SQUARE_T, ((1,),), 1000) == 1
    assert todd_coxeter(SQUARE_T, ((2,),), 1000) == 2
    # a1*a1 generates the same subgroup as a2 inverse
    assert todd_coxeter(SQUARE_T, ((1, 1),), 1000) == 2


def test_coset_enumeration_free_group():
    free1 = presentation_of((1,), ())
    assert todd_coxeter(free1, ((1,),), 10) == 1
    assert todd_coxeter(free1, (), 10) == Exceeded(10)


def test_coset_enumeration_infinite_lattice_exceeds():
    assert todd_coxeter(table(3), (), 10**5) == Exceeded(10**5)


def test_coset_enumeration_deterministic():
    runs = {todd_coxeter(table(3), ((1,), (2,)), 2000) for _ in range(2)}
    assert len(runs) == 1
