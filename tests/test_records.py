"""The package's one record rule: a record that checks nothing is a
``NamedTuple``; a frozen dataclass is kept only where ``__post_init__``
checks its fields."""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import repeaterlab
from repeaterlab.chain import ScheduleRound, TraceStep
from repeaterlab.cli import RunConfig
from repeaterlab.dmsim import EppResult, EsResult, MeasurementBranch
from repeaterlab.rates import ScalingFit, ThresholdResult

#: A dataclass that checks nothing, kept so: a tuple of one field would
#: have ``len`` 1 and iterate once, over its steps.
UNCHECKED_DATACLASSES = {"FidelityTrace"}

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


def package_classes():
    for info in pkgutil.iter_modules(repeaterlab.__path__):
        module = importlib.import_module(f"repeaterlab.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield cls


def test_every_dataclass_checks_its_fields():
    unchecked = {
        cls.__name__ for cls in package_classes()
        if dataclasses.is_dataclass(cls) and "__post_init__" not in vars(cls)
    }
    assert unchecked == UNCHECKED_DATACLASSES


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
