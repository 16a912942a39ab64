"""The package's one record rule: a record that checks nothing is a
``NamedTuple``; a record that checks its fields is a ``werner._Record``; no
package class is a dataclass."""

import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil

import numpy as np
import pytest

import repeaterlab
from repeaterlab.chain import ChainConfig, FidelityTrace, ScheduleRound, TraceStep
from repeaterlab.cli import RunConfig
from repeaterlab.dmsim import EppResult, EsResult, MeasurementBranch
from repeaterlab.noise import LinkModel, MemoryModel
from repeaterlab.rates import RateCurve, RatePoint, ScalingFit, ThresholdResult
from repeaterlab.werner import FixedPoints, GateNoiseParams, _Record, _setattr

#: One instance of each record and the ``repr`` its dataclass form printed.
RECORDS = [
    (ScheduleRound(1, (1, 3), (2,)),
     "ScheduleRound(level=1, swap_checkpoints=(1, 3), purify_checkpoints=(2,))"),
    (TraceStep(0, "init", 0.96, 0.0, 1),
     "TraceStep(level=0, stage='init', fidelity=0.96, elapsed_seconds=0.0, pairs_consumed=1)"),
    (ThresholdResult(math.inf, None, 0.5, None),
     "ThresholdResult(distance_km=inf, level=None, f_min=0.5, crossing_fidelity=None)"),
    (ScalingFit("polynomial", 1.0, 1.0, 1.0, 1.0, 0.01, 0.9),
     "ScalingFit(kind='polynomial', parameter=1.0, goodness=1.0, polynomial_degree=1.0, "
     "polynomial_goodness=1.0, exponential_constant_per_km=0.01, exponential_goodness=0.9)"),
    (MeasurementBranch(0, 1.0, np.eye(1)),
     "MeasurementBranch(outcome=0, probability=1.0, state=array([[1.]]))"),
    (EsResult(0.9, {(0, 0): 1.0}),
     "EsResult(fidelity=0.9, outcome_probabilities={(0, 0): 1.0})"),
    (EppResult(0.9, 0.5), "EppResult(f_out=0.9, success_probability=0.5)"),
    (RunConfig(None, None, None, range(1, 9), 0.8, None),
     "RunConfig(chain=None, gates=None, memory=None, sweep=range(1, 9), query_f=0.8, "
     "f_useful=None)"),
]

POINT = RatePoint(25.0, 0.5, "resource_normalized")
FAR = RatePoint(50.0, 0.25, "resource_normalized")

#: One instance of each validated record, the ``repr`` its dataclass form
#: printed, and a change its checks refuse with the given error.
VALIDATED = [
    (GateNoiseParams(0.99, 0.98, 0.97), "GateNoiseParams(p1=0.99, p2=0.98, eta=0.97)",
     {"eta": 0.5}, ValueError, "^eta must lie in"),
    (FixedPoints(0.5, 1.0), "FixedPoints(f_min=0.5, f_max=1.0, marginal=False)",
     {"f_max": 0.4}, ValueError, "^f_max must lie in"),
    (LinkModel(), "LinkModel(d_km=25.0, f0=0.96, alpha_db_per_km=0.2, c_signal_km_s=200000.0)",
     {"d_km": "25"}, TypeError, "^d_km must be a number"),
    (MemoryModel.exponential(0.5), "MemoryModel(mode='exponential', tau_s=0.5)",
     {"tau_s": None}, ValueError, "requires tau_s"),
    (ChainConfig(2, 3, LinkModel(d_km=10.0, f0=0.9)),
     "ChainConfig(l=2, n=3, link=LinkModel(d_km=10.0, f0=0.9, alpha_db_per_km=0.2, "
     "c_signal_km_s=200000.0), epp_rounds_per_level=1)",
     {"l": True}, TypeError, "^l must be a number"),
    (FidelityTrace((TraceStep(0, "init", 0.96, 0.0, 1),)),
     "FidelityTrace(steps=(TraceStep(level=0, stage='init', fidelity=0.96, "
     "elapsed_seconds=0.0, pairs_consumed=1),))",
     {"steps": ()}, ValueError, "^steps must hold at least one step"),
    (POINT, "RatePoint(distance_km=25.0, rate=0.5, metric='resource_normalized')",
     {"rate": 0.0}, ValueError, "^rate must lie in"),
    (RateCurve("direct", (POINT, FAR)),
     "RateCurve(regime='direct', points=(RatePoint(distance_km=25.0, rate=0.5, "
     "metric='resource_normalized'), RatePoint(distance_km=50.0, rate=0.25, "
     "metric='resource_normalized')))",
     {"points": (FAR, POINT)}, ValueError, "must increase strictly"),
]


def package_classes():
    for info in pkgutil.iter_modules(repeaterlab.__path__):
        module = importlib.import_module(f"repeaterlab.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield cls


def test_each_record_follows_the_record_rule():
    classes = list(package_classes())
    assert not [cls for cls in classes if dataclasses.is_dataclass(cls)]
    validated = {cls for cls in classes if issubclass(cls, _Record) and cls is not _Record}
    assert validated == {type(record) for record, *_ in VALIDATED}
    plain = {cls for cls in classes if issubclass(cls, tuple) and hasattr(cls, "_fields")}
    assert plain == {type(record) for record, _ in RECORDS} | {repeaterlab.RepeaterRate}


@pytest.mark.parametrize("record, text, bad, error, message", VALIDATED,
                         ids=[type(r).__name__ for r, *_ in VALIDATED])
def test_validated_records_keep_the_dataclass_behaviour(record, text, bad, error, message):
    cls = type(record)
    names = cls.__slots__
    values = tuple(getattr(record, name) for name in names)
    assert repr(record) == text
    assert cls.__match_args__ == names

    # Equal by value within one class only: never a tuple, nor a subclass
    # built from the same values.
    twin = cls(*values)
    assert twin == record and hash(twin) == hash(record) and twin is not record
    assert record != values and values != record
    other = type("Other", (cls,), {})(*values)
    assert record != other and other != record
    for name in names:  # every field counts, as it did in the dataclass
        changed = copy.copy(record)
        _setattr(changed, name, object())
        assert changed != record and record != changed

    for name in names:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1

    assert record._replace() == record
    with pytest.raises(TypeError):
        record._replace(no_such_field=1)
    with pytest.raises(error, match=message):
        record._replace(**bad)

    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                  copy.deepcopy(record)):
        assert type(clone) is cls and clone == record and repr(clone) == text

    match record:
        case cls(first):
            assert first == values[0]
        case _:
            pytest.fail("positional match failed")


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_plain_records_are_named_tuples_with_their_old_repr(record, text):
    cls = type(record)
    assert cls.__bases__ == (tuple,) and hasattr(cls, "_fields")
    assert not dataclasses.is_dataclass(cls)
    assert repr(record) == text


# A branch's array field has no truth value, so its equality is not one.
@pytest.mark.parametrize("record", [r for r, _ in RECORDS if type(r) is not MeasurementBranch],
                         ids=lambda r: type(r).__name__)
def test_plain_records_are_equal_exactly_when_their_fields_are(record):
    assert record == type(record)(*record)
    for name in record._fields:
        assert record != record._replace(**{name: object()})
