"""Value semantics of the package's immutable report and input classes:
equality and hashing by field, no equality across classes, no assignment or
deletion, a fixed repr, and construction by position, keyword and default
through the one base constructor."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import fptkit
from fptkit.bounds import BoundReport, GapBound, PerturbationReport, QMaxResult, SumCandidate
from fptkit.coeffsets import CoeffSet, DsetSlice
from fptkit.frobenius import FPurityCheck, LineArrangement, NuRecord, NuWalk, OracleBudget
from fptkit.pairs import Certificate, P1Classification, P1Pair
from fptkit.slopes import INF
from fptkit.thresholds import MultiplicityProfile, T0Report, WeightedArrangement
from fptkit.values import Value

F = Fraction
PARTS = (F(1, 2), F(2, 3), F(4, 5))
PARTS_REPR = "(Fraction(1, 2), Fraction(2, 3), Fraction(4, 5))"
CANDIDATE_REPR = f"SumCandidate(total=Fraction(59, 30), parts={PARTS_REPR})"


def candidate():
    return SumCandidate(total=F(59, 30), parts=PARTS)


# one pinned instance per class: (factory, field names in order, repr)
INSTANCES = {
    "SumCandidate": (candidate, ("total", "parts"), CANDIDATE_REPR),
    "QMaxResult": (
        lambda: QMaxResult(q=F(59, 30), witness=PARTS, candidates=(candidate(),)),
        ("q", "witness", "candidates"),
        f"QMaxResult(q=Fraction(59, 30), witness={PARTS_REPR}, candidates=({CANDIDATE_REPR},))",
    ),
    "BoundReport": (
        lambda: BoundReport(
            epsilon=F(1, 2), q=F(59, 30), witness=PARTS, p0_exact=F(60), trace=(candidate(),)
        ),
        ("epsilon", "q", "witness", "p0_exact", "trace"),
        f"BoundReport(epsilon=Fraction(1, 2), q=Fraction(59, 30), witness={PARTS_REPR}, "
        f"p0_exact=Fraction(60, 1), trace=({CANDIDATE_REPR},))",
    ),
    "GapBound": (
        lambda: GapBound(n=3, gap=F(1, 15), per_d=((3, F(1, 2), F(1, 6)), (4, F(1, 3), F(1, 6)))),
        ("n", "gap", "per_d"),
        "GapBound(n=3, gap=Fraction(1, 15), per_d=((3, Fraction(1, 2), Fraction(1, 6)), "
        "(4, Fraction(1, 3), Fraction(1, 6))))",
    ),
    "PerturbationReport": (
        lambda: PerturbationReport(x=F(1, 2), intervals=((F(1, 3), F(1, 2)),)),
        ("x", "intervals"),
        "PerturbationReport(x=Fraction(1, 2), intervals=((Fraction(1, 3), Fraction(1, 2)),))",
    ),
    "CoeffSet": (
        lambda: CoeffSet((F(1, 2), F(1, 3))),
        ("elements",),
        "CoeffSet(elements=(Fraction(1, 3), Fraction(1, 2)))",
    ),
    "DsetSlice": (
        lambda: DsetSlice((F(0), F(1, 3), F(1, 2))),
        ("elements",),
        "DsetSlice(elements=(Fraction(0, 1), Fraction(1, 3), Fraction(1, 2)))",
    ),
    "OracleBudget": (
        lambda: OracleBudget(max_e=3, max_ops=1000),
        ("max_e", "max_ops"),
        "OracleBudget(max_e=3, max_ops=1000)",
    ),
    "LineArrangement": (
        lambda: LineArrangement(5, (INF, 6, 0), (1, 2, 3)),
        ("p", "slopes", "mults"),
        "LineArrangement(p=5, slopes=(0, 1, inf), mults=(3, 2, 1))",
    ),
    "NuRecord": (
        lambda: NuRecord(7, 1, 7, 3),
        ("p", "e", "q", "nu"),
        "NuRecord(p=7, e=1, q=7, nu=3)",
    ),
    "FPurityCheck": (
        lambda: FPurityCheck(witness_e=None, records=(NuRecord(2, 1, 2, 0),), required=(1,)),
        ("witness_e", "records", "required"),
        "FPurityCheck(witness_e=None, records=(NuRecord(p=2, e=1, q=2, nu=0),), required=(1,))",
    ),
    "P1Pair": (lambda: P1Pair(PARTS), ("coeffs",), f"P1Pair(coeffs={PARTS_REPR})"),
    "P1Classification": (
        lambda: P1Classification(klt=True, log_fano=False),
        ("klt", "log_fano"),
        "P1Classification(klt=True, log_fano=False)",
    ),
    "Certificate": (
        lambda: Certificate("hara_monsky_rule", {"c": 30, "lambda": F(1, 30)}),
        ("reason", "details"),
        "Certificate(reason='hara_monsky_rule', details={'c': 30, 'lambda': Fraction(1, 30)})",
    ),
    "MultiplicityProfile": (
        lambda: MultiplicityProfile((2, 1, 1)),
        ("mults",),
        "MultiplicityProfile(mults=(2, 1, 1))",
    ),
    "WeightedArrangement": (
        lambda: WeightedArrangement(PARTS, slopes=(0, 1, INF)),
        ("weights", "slopes"),
        f"WeightedArrangement(weights={PARTS_REPR}, slopes=(0, 1, inf))",
    ),
    "T0Report": (
        lambda: T0Report(value=F(1, 6), witness_d=3, witness_lambda=F(1, 2)),
        ("value", "witness_d", "witness_lambda"),
        "T0Report(value=Fraction(1, 6), witness_d=3, witness_lambda=Fraction(1, 2))",
    ),
}
CASES = pytest.mark.parametrize("make,fields,text", INSTANCES.values(), ids=INSTANCES)


def test_every_value_class_is_covered():
    # every public class the package defines, apart from its errors, the
    # value base itself and `NuWalk`, whose instances change as a ladder
    # walk climbs
    found = set()
    for info in pkgutil.walk_packages(fptkit.__path__, "fptkit."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                if not (name.startswith("_") or issubclass(obj, Exception)):
                    found.add(name)
    assert found - {"Value", "NuWalk"} == set(INSTANCES) and len(INSTANCES) == 17
    assert not issubclass(NuWalk, Value)


@CASES
def test_equal_fields_equal_objects(make, fields, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if isinstance(a, Certificate):  # `details` is a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@CASES
def test_other_class_with_same_fields_is_unequal(make, fields, text):
    a = make()
    twin_class = type("Twin", (type(a),), {})
    twin = twin_class.__new__(twin_class)
    # built by the base, past any checks the class's own __init__ makes
    Value.__init__(twin, *(getattr(a, name) for name in fields))
    assert all(getattr(twin, name) is getattr(a, name) for name in fields)
    assert a != twin and twin != a and not a == twin


def test_classes_sharing_field_names_are_unequal():
    elems = (F(1, 3), F(1, 2))
    assert CoeffSet(elems) != DsetSlice(elems)


@CASES
def test_fields_refuse_assignment_and_deletion(make, fields, text):
    a = make()
    for name in fields:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.extra = 1


@CASES
def test_repr_is_pinned(make, fields, text):
    assert repr(make()) == text


@CASES
def test_copy_and_pickle_keep_the_value(make, fields, text):
    a = make()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and repr(b) == text


def test_keyword_and_default_construction():
    assert OracleBudget() == OracleBudget(5, 10**8)
    assert OracleBudget(max_ops=10) == OracleBudget(max_e=5, max_ops=10)
    ws = WeightedArrangement(PARTS)
    assert ws.slopes is None and ws == WeightedArrangement(weights=PARTS, slopes=None)
    res = P1Classification(klt=True, log_fano=False)
    assert (res.klt, res.log_fano) == (True, False)
    assert NuRecord(p=7, e=1, q=7, nu=3) == NuRecord(7, 1, 7, 3)


@CASES
def test_position_and_keyword_construction_agree(make, fields, text):
    a = make()
    cls, values = type(a), [getattr(a, name) for name in fields]
    by_name = dict(zip(fields, values))
    assert cls(*values) == cls(**by_name) == a
    # part by position, the rest by name
    assert cls(values[0], **dict(list(by_name.items())[1:])) == a
    blank = cls.__new__(cls)
    Value.__init__(blank, **by_name)
    assert blank == a and repr(blank) == text


def test_a_repr_with_an_int_past_the_digit_limit_does_not_raise():
    # str() of such an int raises ValueError; the repr names it by its bit
    # length, inside tuples, dicts and Fractions too, and prints ints up to
    # 14280 bits whole
    huge = 10**5000
    arr = LineArrangement(2, (0,), (huge,))
    assert repr(arr) == "LineArrangement(p=2, slopes=(0,), mults=(an int of 16610 bits,))"
    assert arr.describe() == "p=2: 0^an int of 16610 bits"
    assert repr(NuRecord(2, 1, huge, 2**14280 - 1)) == (
        f"NuRecord(p=2, e=1, q=an int of 16610 bits, nu={2**14280 - 1})"
    )
    assert repr(Certificate("r", {"c": huge, "f": Fraction(1, huge)})) == (
        "Certificate(reason='r', details={'c': an int of 16610 bits, "
        "'f': Fraction(1, an int of 16610 bits)})"
    )
    assert repr(P1Pair((Fraction(1, huge),))) == (
        "P1Pair(coeffs=(Fraction(1, an int of 16610 bits),))"
    )


@CASES
def test_missing_extra_or_repeated_field_is_refused(make, fields, text):
    a = make()
    cls, values = type(a), [getattr(a, name) for name in fields]
    first = {fields[0]: values[0]}
    bad = [
        (values[:-1], {}),  # missing by position
        ((), dict(zip(fields[1:], values[1:]))),  # missing by name
        ((*values, values[0]), {}),  # extra by position
        (values, {"extra": 1}),  # extra by name
        (values, first),  # repeated
    ]
    for args, kwargs in bad:
        with pytest.raises(TypeError):
            Value.__init__(cls.__new__(cls), *args, **kwargs)
    # through the class itself, unless its own __init__ gives a default
    if cls.__init__ is Value.__init__:
        for args, kwargs in bad:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, **first)
