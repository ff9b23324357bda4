"""The package's value classes against the frozen dataclasses they were.

Each of the 24 value classes is rebuilt below as the dataclass it was
(`ORACLE_SPECS`: its fields in order, the defaults of its constructor, and
its dataclass options), and compared with the class on sample values:
repr, ==, != and hash, immutability, and the TypeError of a missing, extra
or repeated argument.  A fresh interpreter must start the command line
without importing `dataclasses`.
"""
import dataclasses
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sieveforest import cli, trees
from sieveforest.bijections import Dissection, NonCrossingPartition
from sieveforest.csp import (CspInstance, Theorem, VerificationReport,
                             build_instance, verify)
from sieveforest.maps import (BT, BTDeg, BTreeWord, CubicHamiltonianMap, NCM,
                              NonCrossingMatching, TMDeg, TMij, TMn,
                              TreeRootedMap)
from sieveforest.qseries import QPolynomial, QProductExpr
from sieveforest.rotations import FixQuery
from sieveforest.trees import (LEAF, ORDINARY, AllTrees, ByDegrees,
                               ByLeaves, CentralEdge, CentralVertex,
                               InternalRooted, InternalRootedDeg, LeafRooted,
                               LeafRootedDeg, MarkedTree, PlaneTree, RootDegree,
                               RotationKind, TreeStats, degree_kind,
                               family_fields)

SRC = Path(__file__).resolve().parent.parent / "src"
NO_DEFAULT = dataclasses.MISSING

# The 24 dataclasses: (class, concrete classes that inherit it as is,
# fields with their constructor defaults, dataclass options).
ORACLE_SPECS = [
    (trees._TourWord, (PlaneTree, BTreeWord, NonCrossingMatching,
                       TreeRootedMap, NonCrossingPartition),
     [("word", "")], dict(order=True)),
    (TreeStats, (), [("edges", NO_DEFAULT), ("leaves", NO_DEFAULT),
                     ("degrees", NO_DEFAULT), ("root_degree", NO_DEFAULT),
                     ("corners", NO_DEFAULT)], {}),
    (RotationKind, (), [("name", NO_DEFAULT), ("delta", 0)], {}),
    (AllTrees, (), [("n", NO_DEFAULT)], {}),
    (trees._ByLeafCount, (ByLeaves, LeafRooted, InternalRooted),
     [("n", NO_DEFAULT), ("k", NO_DEFAULT)], {}),
    (trees._ByDegreeCounts, (ByDegrees, LeafRootedDeg, InternalRootedDeg),
     [("degrees", NO_DEFAULT)], {}),
    (RootDegree, (), [("degrees", NO_DEFAULT), ("delta", NO_DEFAULT)], {}),
    (CentralVertex, (), [("corner", NO_DEFAULT), ("corners", NO_DEFAULT)], {}),
    (CentralEdge, (), [("position", NO_DEFAULT), ("arc", NO_DEFAULT)], {}),
    (MarkedTree, (), [("tree", NO_DEFAULT), ("mark", NO_DEFAULT)], {}),
    (BT, (), [("b", NO_DEFAULT), ("n", NO_DEFAULT)], {}),
    (BTDeg, (), [("b", NO_DEFAULT), ("degrees", NO_DEFAULT)], {}),
    (TMij, (), [("i", NO_DEFAULT), ("j", NO_DEFAULT)], {}),
    (TMn, (), [("n", NO_DEFAULT)], {}),
    (TMDeg, (), [("j", NO_DEFAULT), ("degrees", NO_DEFAULT)], {}),
    (NCM, (), [("j", NO_DEFAULT)], {}),
    (CubicHamiltonianMap, (), [("n", NO_DEFAULT), ("inner", NO_DEFAULT),
                               ("outer", NO_DEFAULT), ("root", 0)], {}),
    (FixQuery, (), [("family", NO_DEFAULT), ("kind", NO_DEFAULT),
                    ("e", NO_DEFAULT)], {}),
    (QPolynomial, (), [("coeffs", ())], {}),
    (QProductExpr, (), [("shift", 0), ("num", ()), ("den", ()),
                        ("scalar", Fraction(1))], {}),
    (Theorem, (), [("family", NO_DEFAULT), ("qproduct", NO_DEFAULT)], {}),
    (CspInstance, (), [("theorem", NO_DEFAULT), ("params", NO_DEFAULT),
                       ("family", NO_DEFAULT), ("kind", NO_DEFAULT),
                       ("order", NO_DEFAULT), ("expr", NO_DEFAULT)], {}),
    (VerificationReport, (), [("theorem", NO_DEFAULT), ("params", NO_DEFAULT),
                              ("rows", NO_DEFAULT), ("overall", NO_DEFAULT),
                              ("seconds", NO_DEFAULT)], dict(frozen=False)),
    (Dissection, (), [("k", NO_DEFAULT), ("diagonals", NO_DEFAULT)], {}),
]


def oracle(cls, fields, options):
    """The dataclass `cls` was, under the name it shows."""
    spec = [(name, object, dataclasses.field(
                default=default, hash=False if name == "params"
                and cls is CspInstance else None))
            for name, default in fields]
    return dataclasses.make_dataclass(cls.__name__, spec,
                                      **{"frozen": True, **options})


def _qproduct(f):
    return QProductExpr(den=(f.n + 1,))


ORD3 = build_instance("ord", n=3)
# Arguments of sample values; equal ones are included on purpose (after
# normalisation where the constructor normalises).
SAMPLES = {
    PlaneTree: [("(())",), ("()()",), ("",), ("(())",)],
    BTreeWord: [("(b)",), ("b(b)",), ("(b)",)],
    NonCrossingMatching: [("(())",), ("()()",), ("(())",)],
    TreeRootedMap: [("ENSW",), ("NEWS",), ("ENSW",)],
    NonCrossingPartition: [("(())",), ("()()",)],
    TreeStats: [(3, 2, (2, 1, 1), 1, 6), (3, 2, (2, 1, 1), 2, 6),
                (3, 2, (2, 1, 1), 1, 6)],
    RotationKind: [("ordinary",), ("degree", 2), ("degree", 3), ("degree", 2)],
    AllTrees: [(3,), (4,), (3,)],
    ByLeaves: [(4, 2), (4, 3), (4, 2)],
    LeafRooted: [(4, 2), (5, 2)],
    InternalRooted: [(4, 2), (5, 2)],
    ByDegrees: [((2, 1, 1),), ((3, 0, 1),), ((2, 1, 1, 0),)],
    LeafRootedDeg: [((2, 1, 1),), ((3, 0, 1),)],
    InternalRootedDeg: [((2, 1, 1),), ((3, 0, 1),)],
    RootDegree: [((2, 1, 1), 1), ((2, 1, 1), 3), ((2, 1, 1, 0), 1)],
    CentralVertex: [(0, frozenset({0, 2})), (1, frozenset()),
                    (0, frozenset({2, 0}))],
    CentralEdge: [(0, (0, 3)), (1, (1, 2)), (0, (0, 3))],
    MarkedTree: [(PlaneTree("(())"), 1), (PlaneTree("()()"), 1),
                 (PlaneTree("(())"), 1)],
    BT: [(1, 2), (2, 1), (1, 2)],
    BTDeg: [(2, (0, 3)), (0, (2, 1, 1)), (2, (0, 3, 0))],
    TMij: [(1, 2), (2, 1), (1, 2)],
    TMn: [(2,), (3,), (2,)],
    TMDeg: [(1, (2,)), (1, (2, 0)), (2, (2,))],
    NCM: [(2,), (3,), (2,)],
    CubicHamiltonianMap: [(1, [(0, 1)], [], 0), (1, [(0, 1)], [], 1),
                          (2, [(1, 0)], [(2, 3)])],
    FixQuery: [(AllTrees(3), ORDINARY, 2), (NCM(2), None, 1),
               (AllTrees(3), ORDINARY, 2)],
    QPolynomial: [((1, 2, 0),), ((1, 2),), ((),)],
    QProductExpr: [(0, (2, 1), (1,), Fraction(1, 2)), (1,),
                   (0, [1, 2], (1,), 0.5)],
    Theorem: [(AllTrees, _qproduct), (NCM, _qproduct), (AllTrees, _qproduct)],
    CspInstance: [(ORD3.theorem, params, ORD3.family, ORD3.kind, ORD3.order,
                   ORD3.expr) for params in ({"n": 3}, {"n": 4})],
    VerificationReport: [("ord", {"n": 3}, [{"e": 0}], True, 0.5),
                         ("ord", {"n": 3}, [{"e": 0}], False, 0.5),
                         ("ord", {"n": 3}, [{"e": 0}], True, 0.5)],
    Dissection: [(4, [(0, 2)]), (4, [(1, 3)]), (5, []), (4, [(2, 0)])],
}

# (concrete class, fields, options): each class, or the subclasses that
# inherit it as is
CASES = [(concrete, fields, options)
         for base, subclasses, fields, options in ORACLE_SPECS
         for concrete in subclasses or (base,)]
PARAMETRIZE = pytest.mark.parametrize("concrete,fields,options", CASES,
                                      ids=[c.__name__ for c, _, _ in CASES])


def pairs(concrete, fields, options):
    """(value, its oracle) for every sample of `concrete`, the first twice."""
    cls = oracle(concrete, fields, options)
    out = []
    for args in SAMPLES[concrete] + SAMPLES[concrete][:1]:
        value = concrete(*args)
        out.append((value, cls(*(getattr(value, f) for f, _ in fields))))
    return out


def test_the_specs_cover_24_classes_and_every_concrete_one():
    assert len(ORACLE_SPECS) == 24
    assert {c for c, _, _ in CASES} == set(SAMPLES)
    for base, _, fields, _ in ORACLE_SPECS:
        assert family_fields(base) == tuple(f for f, _ in fields), base


@PARAMETRIZE
def test_repr_eq_and_hash_match_the_dataclass(concrete, fields, options):
    values = pairs(concrete, fields, options)
    for value, ref in values:
        assert repr(value) == repr(ref)
        if options.get("frozen", True):
            assert hash(value) == hash(ref)
    for (a, ref_a), (b, ref_b) in itertools.product(values, repeat=2):
        assert (a == b) == (ref_a == ref_b), (a, b)
        assert (a != b) == (ref_a != ref_b), (a, b)
    assert values[0][0] == values[-1][0] and values[0][0] is not values[-1][0]


@PARAMETRIZE
def test_bad_arguments_raise_type_error_as_the_dataclass(concrete, fields,
                                                         options):
    ref = oracle(concrete, fields, options)
    args = SAMPLES[concrete][0]
    first = fields[0][0]
    for call in (lambda c: c(), lambda c: c(*args, None),
                 lambda c: c(*args, **{first: args[0]}),
                 lambda c: c(*args, unknown=1)):
        try:
            call(ref)
        except TypeError:
            with pytest.raises(TypeError):
                call(concrete)
        else:  # a constructor whose every field has a default
            call(concrete)


@PARAMETRIZE
def test_fields_cannot_be_assigned_or_deleted(concrete, fields, options):
    # any other name is refused too; the dataclasses refused it only on the
    # decorated class itself, not on subclasses such as ByLeaves or PlaneTree
    if not options.get("frozen", True):
        return
    value = concrete(*SAMPLES[concrete][0])
    for name in [f for f, _ in fields] + ["other"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    for name, _ in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert hasattr(value, name)


def test_keyword_construction_and_defaults():
    assert BT(b=1, n=2) == BT(1, n=2) == BT(1, 2)
    assert TreeStats(edges=1, leaves=1, degrees=(1,), root_degree=1,
                     corners=2) == TreeStats(1, 1, (1,), 1, 2)
    assert RotationKind("ordinary") == RotationKind(name="ordinary", delta=0)
    assert degree_kind(2) == RotationKind("degree", delta=2)
    assert PlaneTree() == PlaneTree(word="") == PlaneTree("")
    assert RootDegree(delta=1, degrees=(2, 1, 1)) == RootDegree((2, 1, 1), 1)


def test_families_equal_only_their_own_class():
    for a, b in [(AllTrees(3), NCM(3)), (AllTrees(3), TMn(3)), (NCM(3), TMn(3)),
                 (BT(2, 3), TMij(2, 3)), (ByLeaves(4, 2), LeafRooted(4, 2)),
                 (ByDegrees((2, 1, 1)), LeafRootedDeg((2, 1, 1))),
                 (PlaneTree("()"), NonCrossingMatching("()")),
                 (PlaneTree("()"), "()"), (LEAF, "leaf")]:
        assert a != b and not a == b and b != a, (a, b)
    # equal hashes, so only equality keeps the census cache keys apart
    assert hash(AllTrees(3)) == hash(NCM(3))
    assert {AllTrees(3): 1, NCM(3): 2, TMn(3): 3}[NCM(3)] == 2


def test_family_fields_keep_their_order():
    expected = {"all_trees": ("n",), "by_leaves": ("n", "k"),
                "leaf_rooted": ("n", "k"), "internal_rooted": ("n", "k"),
                "by_degrees": ("degrees",), "leaf_rooted_deg": ("degrees",),
                "internal_rooted_deg": ("degrees",),
                "root_degree": ("degrees", "delta"), "bt": ("b", "n"),
                "bt_deg": ("b", "degrees"), "tm_ij": ("i", "j"), "tm_n": ("n",),
                "tm_deg": ("j", "degrees"), "ncm": ("j",)}
    assert {name: family_fields(cls)
            for name, cls in trees.FAMILIES.items()} == expected
    assert cli.FIELDS == ("n", "k", "degrees", "delta", "b", "i", "j")
    assert RootDegree((2, 1, 1), 1).descriptor() == {
        "family": "root_degree", "degrees": [2, 1, 1], "delta": 1}


def test_csp_instance_with_a_dict_is_hashable():
    a, b = build_instance("ord", n=3), build_instance("ord", n=3)
    assert isinstance(a.params, dict)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    other = CspInstance(a.theorem, {"n": 4}, a.family, a.kind, a.order, a.expr)
    assert other != a and hash(other) == hash(a)


def test_verification_report_is_mutable_and_unhashable():
    report = verify(build_instance("ord", n=3))
    copy = VerificationReport(report.theorem, report.params, report.rows,
                              report.overall, report.seconds)
    assert copy == report
    copy.overall = not report.overall
    assert copy != report
    del copy.seconds
    assert not hasattr(copy, "seconds")
    with pytest.raises(TypeError):
        hash(report)


def test_tour_words_order_by_word_within_one_class():
    words = ["(())()", "()(())", "((()))", "()()()", "(()())"]
    tree_oracle = oracle(PlaneTree, [("word", "")], dict(order=True))
    trees_ = [PlaneTree(w) for w in words]
    refs = [tree_oracle(w) for w in words]
    assert [t.word for t in sorted(trees_)] == [r.word for r in sorted(refs)]
    for (a, ra), (b, rb) in itertools.product(zip(trees_, refs), repeat=2):
        assert ((a < b), (a <= b), (a > b), (a >= b)) \
            == ((ra < rb), (ra <= rb), (ra > rb), (ra >= rb))
    with pytest.raises(TypeError):
        PlaneTree("()") < NonCrossingMatching("(())")
    assert max(trees_) == PlaneTree("()()()")


def test_the_command_line_starts_without_dataclasses():
    """A fresh `import sieveforest.cli` loads `dataclasses` only if the
    standard modules it imports already do, which none does up to 3.13."""
    code = ("import sys, argparse, collections, fractions, functools, json, "
            "math, operator, time\n"
            "stdlib = 'dataclasses' in sys.modules\n"
            "import sieveforest.cli\n"
            "print(stdlib, 'dataclasses' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    stdlib, loaded = out.split()
    assert loaded == stdlib

