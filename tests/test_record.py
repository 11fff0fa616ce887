"""The package's frozen records: each keeps the fields, the immutability and
the equality it had as a frozen dataclass."""

from fractions import Fraction

import pytest

from coset_enumeration import Exceeded
from trigon.census import AutFull, TClass
from trigon.documents import Document
from trigon.exoticity import Bounds, Certificate, ExoticProbe
from trigon.ffield import FieldSpec
from trigon.fgroup import Datum, FiniteGroup, SignFamily, SubgroupDatum, make_cyclic
from trigon.grouptools import Abelianization
from trigon.linkgraph import GraphMetrics
from trigon.oppmodel import A2Model, PropertyReport
from trigon.pairset import FSet, LinkGraph
from trigon.permgrp import Perm, bsgs_build
from trigon.singer import singer_datum
from trigon.tripres import TrianglePresentation, Violation

FANO = singer_datum(2)
# rows as tuples, so that the records hash; the builders' lists do not, as
# they did not in the dataclasses
SQUARE_F = FSet((1, 2), ((0, 1), (0, 1)))
SQUARE_T = TrianglePresentation((1, 2), ((0,), (1,)), ((1,), (0,)))
LINK = LinkGraph(((2,), (3,), (0,), (1,)))

# per record: its fields in order, and for a value record one field changed
VALUE = [
    (Document, {"F": SQUARE_F, "T": SQUARE_T},
     {"T": TrianglePresentation((1, 2), ((1,), (1,)), ((1,), (1,)))}),
    (Certificate, {"q": 2, "kappa": ((1, 1),), "sigma": Perm((1, 2, 0)), "member": True},
     {"member": False}),
    (Bounds, {"exotic_kappa_lower": -40, "qi_class_lower": Fraction(-5, 12),
              "vacuous": True},
     {"qi_class_lower": Fraction(-5, 13)}),
    (FieldSpec, {"p": 2, "e": 2, "modulus": (1, 1, 1), "primitive": True},
     {"modulus": (1, 1, 0)}),
    (Abelianization, {"factors": (2, 4), "free_rank": 0}, {"free_rank": 1}),
    (Exceeded, {"max_cosets": 10}, {"max_cosets": 11}),
    (FSet, {"labels": (1, 2), "out": ((0, 1), (0, 1))}, {"out": ((0, 1), (1,))}),
    (GraphMetrics, {"connected": True, "girth": 6, "diameter": 3,
                    "degree_profile": ((3, 14),), "biregular": (3, 3)},
     {"girth": 4}),
    (PropertyReport, {"q": 2, "rows": (("girth", 6, 6, True),), "gap": 0.5,
                      "zuk": False},
     {"gap": 0.25}),
    (TrianglePresentation, {"labels": (1, 2), "out": ((0,), (1,)),
                            "third": ((1,), (0,))},
     {"third": ((0,), (0,))}),
    (Violation, {"axiom": 3, "data": (1, 2, 2)}, {"axiom": 2}),
]
IDENTITY = [
    (ExoticProbe, {"datum": FANO, "q0": bsgs_build(3, []), "family": FANO.signs()}),
    (FiniteGroup, {"n": 7, "translation": make_cyclic(7).translation}),
    (SubgroupDatum, {"parent": FANO.G, "members": FANO.H.members,
                     "coset_index": FANO.H.coset_index}),
    (Datum, {"q": 2, "G": FANO.G, "S": FANO.S, "H": FANO.H, "lam": FANO.lam}),
    (SignFamily, {"G": FANO.G, "S": FANO.S, "lam": FANO.lam, "H": FANO.H}),
    (LinkGraph, {"adj": LINK.adj}),
    (AutFull, {"generators": (), "order": 1, "witness": None}),
    (A2Model, {"graph": LINK, "points": ((0, 0, 1), (0, 1, 0))}),
    (TClass, {"thirds": (1, 0), "orbit_size": 1, "aut_order": 2}),
]


CASES = VALUE + [(cls, fields, None) for cls, fields in IDENTITY]


@pytest.mark.parametrize("cls, fields, changed", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_fields_immutability_and_equality(cls, fields, changed):
    """Built by position or by keyword with the same fields; no attribute
    can be set or deleted; a value record (changed given) is equal, with
    equal hashes, exactly when its fields are, an identity record only to
    itself."""
    a, b = cls(*fields.values()), cls(**fields)
    for name, value in fields.items():
        assert getattr(a, name) is value and getattr(b, name) is value
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    if changed is None:
        assert a == a and a != b and len({a, b}) == 2
    else:
        assert a == b and hash(a) == hash(b) and not a != b
        c = cls(**{**fields, **changed})
        assert a != c and not a == c


def test_document_with_mismatched_labels_is_refused():
    with pytest.raises(ValueError, match="share one label list"):
        Document(SQUARE_F, TrianglePresentation((1, 3), ((0,), (1,)), ((1,), (0,))))
