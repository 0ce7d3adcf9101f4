"""The value types are immutable named tuples; the validating ones check every build."""

import copy
import inspect
import math
import pickle
import re

import pytest

from segci import (
    BetaFamily,
    CaseResult,
    ConfidenceInterval,
    ConstantFamily,
    GlmFit,
    MethodResult,
    PaperRecord,
    SampleSummary,
    SimSpec,
    TrainingPair,
)

METHOD = MethodResult("m", 0.9)
FAMILY = BetaFamily(8.0, 2.0)

# (constructor, arguments, the message); rows are only appended, so case ids stay stable
REFUSED = [
    (MethodResult, ("m", -0.1), "mean_dsc must lie in [0, 1], got -0.1"),
    (MethodResult, ("m", 0.5, math.nan), "reported_sd must be finite and >= 0, got nan"),
    (PaperRecord, ("p", 1, (METHOD,)), "test_n must be an integer >= 2, got 1"),
    (PaperRecord, ("p", "10", (METHOD,)), "test_n must be an integer >= 2, got '10'"),
    (PaperRecord, ("p", 10, ()), "paper p carries no methods"),
    (BetaFamily, (0.0, 2.0), "beta parameters must be positive and finite, got (0.0, 2.0)"),
    (BetaFamily, (math.inf, 2.0), "beta parameters must be positive and finite, got (inf, 2.0)"),
    (ConstantFamily, (1.5,), "constant DSC must lie in [0, 1], got 1.5"),
    (SimSpec, (0,), "all SimSpec counts must be >= 1"),
    (PaperRecord, ("p", 10, (METHOD, METHOD._replace(mean_dsc=0.5))),
     "paper p lists a method id twice"),
    (SimSpec, (2.5,), "SimSpec counts must be integers, got (2.5, 19, 50)"),
    (SimSpec, (10, 19, 50, FAMILY, 1.5), "seed must be an integer in [0, 2**64), got 1.5"),
    (SimSpec, (10, 19, 50, FAMILY, -1), "seed must be an integer in [0, 2**64), got -1"),
    # 42 + 2**64 gave the rows of seed 42
    (SimSpec, (10, 19, 50, FAMILY, 42 + 2**64),
     "seed must be an integer in [0, 2**64), got 18446744073709551658"),
    # (0.0, 1.5) counted in len() as an excluded group, but matched no (task, method)
    (SimSpec, (1, 2, 3, FAMILY, 42, ((0.0, 1.5),)),
     "excluded pair (0.0, 1.5) is not a pair of integers"),
    (SimSpec, (1, 2, 3, FAMILY, 42, ((1,),)), "excluded pair (1,) is not a pair of integers"),
    (SimSpec, (1, 2, 3, FAMILY, 42, (1,)), "excluded pair 1 is not a pair of integers"),
]


# Case ids number from 6: rows 0-5 checked a value type that no longer exists, and
# each remaining row keeps the id it has always run under.
@pytest.mark.parametrize("cls, args, message", REFUSED,
                         ids=[f"{cls.__name__}{i}"
                              for i, (cls, _, _) in enumerate(REFUSED, start=6)])
def test_validating_classes_refuse_bad_values(cls, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(*args)


VALID = [
    MethodResult("m", 0.9, 0.1),
    PaperRecord("p", 10, (METHOD,)),
    BetaFamily(8.0, 2.0),
    ConstantFamily(0.5),
    SimSpec(n_tasks=2),
]


@pytest.mark.parametrize("value", VALID, ids=lambda v: type(v).__name__)
def test_validating_classes_check_replace_and_pickle(value):
    bad = next(args for cls, args, _ in REFUSED if cls is type(value))
    with pytest.raises(ValueError):
        value._replace(**dict(zip(value._fields, bad)))
    with pytest.raises(ValueError):
        type(value)._make(bad)
    assert value._replace() == value
    assert type(value._replace()) is type(value)
    assert pickle.loads(pickle.dumps(value)) == value
    for copied in (copy.copy(value), copy.deepcopy(value)):
        assert copied == value
        assert type(copied) is type(value)


@pytest.mark.parametrize("value", [
    *VALID,
    CaseResult("t", "m", "c", 0.5),
    ConfidenceInterval(0.1, 0.2, 0.05, "parametric_t"),
    GlmFit((1.0, 0.0, 0.0), None, None, 0, None, None),
    SampleSummary(1, 0.5, None, 0.5, 0.5, 0.5, 0.5, 0.5),
    TrainingPair(80.0, 5.0),
], ids=lambda v: type(v).__name__)
def test_value_types_are_immutable(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert not hasattr(value, "__dict__")


def test_defaults_keywords_repr_and_hash():
    spec = SimSpec()
    assert spec == SimSpec(10, 19, 50, BetaFamily(8.0, 2.0), 42, ())
    assert spec.family is SimSpec(seed=1).family  # one shared, immutable default
    assert SimSpec(seed=7, exclude=((0, 1),)) == SimSpec(10, 19, 50, spec.family, 7, ((0, 1),))
    assert MethodResult("m", 0.5).reported_sd is None
    assert repr(MethodResult("m", 0.5)) == "MethodResult(method_id='m', mean_dsc=0.5, reported_sd=None)"
    assert repr(ConstantFamily(0.5)) == "ConstantFamily(value=0.5)"
    assert hash(PaperRecord("p", 10, (METHOD,))) == hash(PaperRecord("p", 10, (METHOD,)))
    assert PaperRecord("p", 10, (METHOD,))._asdict() == {
        "paper_id": "p", "test_n": 10, "methods": (METHOD,)}
    assert SimSpec._field_defaults == {
        "n_tasks": 10, "methods_per_task": 19, "cases_per_task": 50,
        "family": BetaFamily(8.0, 2.0), "seed": 42, "exclude": ()}
    assert MethodResult._field_defaults == {"reported_sd": None}
    for cls in (MethodResult, PaperRecord, BetaFamily, ConstantFamily, SimSpec):
        assert cls.__bases__ == (tuple,)
        params = inspect.signature(cls).parameters.values()
        assert [p.name for p in params] == list(cls._fields)
        assert {p.name: p.default for p in params if p.default is not p.empty} == (
            cls._field_defaults)
