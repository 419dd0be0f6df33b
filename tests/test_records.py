"""The value records of regvar: construction, defaults, validation, equality, hashing, mutability and repr."""
from __future__ import annotations

import copy
import math
import pickle
import re

import pytest

from regvar.asymptotics import EstimationResult, LimitScheme, goldie_sum
from regvar.haar import Interval, beurling_convolution
from regvar.kernels import GoldieAux, KernelParams
from regvar.popa import DomainError, PopaParam, PopaPoint, power
from regvar.quadrature import QuadratureResult, QuadratureSpec
from regvar.subadd import GridSpec, SubaddReport, sandwich_bound_check

P1, P2 = PopaParam(1.0), PopaParam(2.0)

# Each count parameter, given a value: an integer at least its bound, within the budget of one call where it has one.
COUNTS = [
    ("max_subdivisions", lambda v: QuadratureSpec(max_subdivisions=v)),
    ("max_steps", lambda v: LimitScheme(max_steps=v)),
    ("stability_window", lambda v: LimitScheme(stability_window=v)),
    ("n", lambda v: GridSpec(0.0, 1.0, v)),
    ("probes", lambda v: sandwich_bound_check(lambda x: x, P1, P1, 1.0, 4.0, 0.5, 1.0, probes=v)),
]

# Each parameter read by popa._finite, given a value.
FINITE = [
    ("kappa", lambda v: KernelParams(P1, P1, v)),
    ("gamma", lambda v: GoldieAux(P1, v)),
    ("x", lambda v: beurling_convolution(lambda t: 1.0, lambda t: 1.0, lambda t: 1.0, v)),
]

# One row per record: (class, positional args, keyword args of the same record, args of an unequal record, repr).
RECORDS = [
    (PopaParam, (1.0,), {"rho": 1.0}, (2.0,), "PopaParam(rho=1.0)"),
    (PopaPoint, (P1, 2.0), {"param": P1, "value": 2.0}, (P2, 2.0),
     "PopaPoint(param=PopaParam(rho=1.0), value=2.0)"),
    (QuadratureSpec, (1e-8, 1e-7, 100, 5.0), {"abs_tol": 1e-8, "rel_tol": 1e-7, "max_subdivisions": 100,
                                             "truncation": 5.0}, (1e-8, 1e-7, 100, 6.0),
     "QuadratureSpec(abs_tol=1e-08, rel_tol=1e-07, max_subdivisions=100, truncation=5.0)"),
    (QuadratureResult, (1.5, 1e-9, True, 33), {"value": 1.5, "error": 1e-9, "converged": True, "evaluations": 33},
     (1.5, 1e-9, False, 33), "QuadratureResult(value=1.5, error=1e-09, converged=True, evaluations=33)"),
    (Interval, (P1, 0.0, 1.0), {"param": P1, "lo": 0.0, "hi": 1.0}, (P1, 0.0, 2.0),
     "Interval(param=PopaParam(rho=1.0), lo=0.0, hi=1.0)"),
    (KernelParams, (P1, P2, 0.5), {"rho": P1, "sigma": P2, "kappa": 0.5}, (P2, P1, 0.5),
     "KernelParams(rho=PopaParam(rho=1.0), sigma=PopaParam(rho=2.0), kappa=0.5)"),
    (GoldieAux, (P1, 0.5), {"rho": P1, "gamma": 0.5}, (P1, 1.5), "GoldieAux(rho=PopaParam(rho=1.0), gamma=0.5)"),
    (LimitScheme, (5.0, 3.0, 10, 1e-4, 4), {"x0": 5.0, "ratio": 3.0, "max_steps": 10, "tol": 1e-4,
                                            "stability_window": 4}, (5.0, 3.0, 10, 1e-4, 5),
     "LimitScheme(x0=5.0, ratio=3.0, max_steps=10, tol=0.0001, stability_window=4)"),
    (EstimationResult, (1.0, True, 1e-7, 3), {"value": 1.0, "converged": True, "last_delta": 1e-7, "steps_used": 3},
     (1.0, True, 1e-7, 4), "EstimationResult(value=1.0, converged=True, last_delta=1e-07, steps_used=3)"),
    (GridSpec, (0.0, 1.0, 5, "linear"), {"lo": 0.0, "hi": 1.0, "n": 5, "spacing": "linear"}, (0.1, 1.0, 5, "geometric"),
     "GridSpec(lo=0.0, hi=1.0, n=5, spacing='linear')"),
    (SubaddReport, (True, 0.0, (1.0, 2.0), 10, 2), {"holds": True, "worst_violation": 0.0, "worst_pair": (1.0, 2.0),
                                                    "pairs_checked": 10, "pairs_skipped": 2},
     (False, 0.0, (1.0, 2.0), 10, 2),
     "SubaddReport(holds=True, worst_violation=0.0, worst_pair=(1.0, 2.0), pairs_checked=10, pairs_skipped=2)"),
]
MUTABLE = {QuadratureResult, EstimationResult, SubaddReport}
ids = [row[0].__name__ for row in RECORDS]


@pytest.mark.parametrize("cls,args,kwargs,other,text", RECORDS, ids=ids)
def test_positional_and_keyword_construction_agree(cls, args, kwargs, other, text):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert a != cls(*other) and not a == cls(*other)
    assert a != args and a != object()
    for name, value in kwargs.items():
        assert getattr(a, name) == value


@pytest.mark.parametrize("cls,args,kwargs,other,text", RECORDS, ids=ids)
def test_repr_names_every_field(cls, args, kwargs, other, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls,args,kwargs,other,text", [r for r in RECORDS if r[0] not in MUTABLE],
                         ids=[i for r, i in zip(RECORDS, ids) if r[0] not in MUTABLE])
def test_frozen_records_hash_and_refuse_assignment(cls, args, kwargs, other, text):
    a = cls(*args)
    assert hash(a) == hash(cls(**kwargs))
    table = {a: "a", cls(*other): "other"}
    assert table[cls(*args)] == "a" and len(table) == 2
    name = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(a, name))
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == cls(*args)


@pytest.mark.parametrize("cls,args,kwargs,other,text", [r for r in RECORDS if r[0] in MUTABLE],
                         ids=[i for r, i in zip(RECORDS, ids) if r[0] in MUTABLE])
def test_results_are_assignable_and_unhashable(cls, args, kwargs, other, text):
    a = cls(*args)
    for name, value in zip(kwargs, other):
        setattr(a, name, value)
    assert a == cls(*other)
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("cls,args,kwargs,other,text", RECORDS, ids=ids)
def test_records_copy_and_pickle(cls, args, kwargs, other, text):
    a = cls(*args)
    assert copy.copy(a) == a and copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_defaults():
    assert QuadratureSpec() == QuadratureSpec(1e-9, 1e-9, 4000, 30.0)
    assert QuadratureSpec(truncation=5) == QuadratureSpec(1e-9, 1e-9, 4000, 5)
    assert LimitScheme() == LimitScheme(10.0, 2.0, 40, 1e-6, 3)
    scheme = {"x0": 4.0, "tol": 1e-3}
    assert LimitScheme(**scheme) == LimitScheme(4.0, 2.0, 40, 1e-3, 3)
    assert GridSpec(0.0, 1.0, 3).spacing == "linear"
    assert SubaddReport(True, 0.0, (0.0, 0.0), 4).pairs_skipped == 0


def test_values_are_normalised():
    p = PopaParam(2)
    assert type(p.rho) is float and p == P2
    iv = Interval(P1, 0, 1)
    assert type(iv.lo) is float and type(iv.hi) is float
    assert type(PopaPoint(P1, 3).value) is float


def test_missing_and_extra_arguments_raise_type_error():
    for make in (lambda: PopaParam(), lambda: PopaPoint(P1), lambda: QuadratureResult(1.0, 0.0, True),
                 lambda: QuadratureSpec(1e-9, 1e-9, 4000, 30.0, 1), lambda: GridSpec(0.0, 1.0, 3, spacing="linear",
                                                                                      step=1),
                 lambda: LimitScheme(x1=3.0)):
        with pytest.raises(TypeError):
            make()


@pytest.mark.parametrize("make,exc,match", [
    (lambda: PopaParam(-1.0), DomainError, r"group parameter must be 0, positive or inf, got -1\.0"),
    (lambda: PopaParam(math.nan), DomainError, "group parameter must be 0, positive or inf, got nan"),
    (lambda: PopaParam(True), DomainError, "group parameter must be 0, positive or inf, got True"),
    (lambda: PopaPoint(P1, math.inf), DomainError, "point must be finite, got inf"),
    (lambda: PopaPoint(P1, -1.0), DomainError, r"point -1\.0 violates 1 \+ 1\.0\*t > 0"),
    (lambda: PopaPoint(PopaParam(math.inf), 0.0), DomainError, r"point 0\.0 outside \(0, inf\)"),
    (lambda: QuadratureSpec(abs_tol=math.inf), DomainError, "^abs_tol must be positive and finite, got inf$"),
    (lambda: QuadratureSpec(rel_tol=math.nan), ValueError, "rel_tol must be finite, got nan"),
    (lambda: QuadratureSpec(rel_tol=math.inf), DomainError, "^rel_tol must be finite, got inf$"),
    (lambda: QuadratureSpec(abs_tol=0.0), DomainError, r"^abs_tol must be positive and finite, got 0\.0$"),
    (lambda: QuadratureSpec(rel_tol=-1.0), DomainError, r"^rel_tol must be >= 0, got -1\.0$"),
    (lambda: QuadratureSpec(max_subdivisions=0), ValueError, "max_subdivisions must be >= 1"),
    (lambda: QuadratureSpec(truncation=0.0), ValueError, "truncation must be positive with a finite span"),
    (lambda: QuadratureSpec(truncation=1e308), ValueError, "truncation must be positive with a finite span"),
    (lambda: Interval(P1, 1.0, 1.0), DomainError, r"interval needs lo < hi, got \(1\.0, 1\.0\)"),
    (lambda: Interval(P1, -2.0, 1.0), DomainError, "violates"),
    (lambda: KernelParams(P1, P1, math.inf), DomainError, "kappa must be finite, got inf"),
    (lambda: GoldieAux(PopaParam(0.0), 1.0), DomainError, "goldie auxiliary requires a finite positive rho"),
    (lambda: GoldieAux(P1, math.nan), DomainError, "gamma must be finite, got nan"),
    (lambda: LimitScheme(x0=0.0), ValueError, "x0 must be positive"),
    (lambda: LimitScheme(ratio=1.0), ValueError, "ratio must exceed 1"),
    (lambda: LimitScheme(max_steps=0), ValueError, "max_steps must be >= 1"),
    (lambda: LimitScheme(tol=0.0), ValueError, "tol must be positive"),
    (lambda: LimitScheme(tol=math.inf), ValueError, "tol must be positive and finite, got inf"),
    (lambda: LimitScheme(stability_window=1), ValueError, "stability_window must be >= 2"),
    (lambda: GridSpec(1.0, 1.0, 3), ValueError, r"need lo < hi, got \(1\.0, 1\.0\)"),
    (lambda: GridSpec(-1e308, 1e308, 3), ValueError, "overflows"),
    (lambda: GridSpec(0.0, 1.0, 1), ValueError, "n must be >= 2"),
    (lambda: GridSpec(0.0, 1.0, 3, "log"), ValueError, "spacing must be 'linear' or 'geometric', got 'log'"),
    (lambda: GridSpec(0.0, 1.0, 3, "geometric"), ValueError, "geometric spacing needs lo > 0"),
    (lambda: QuadratureSpec(max_subdivisions=3276801), DomainError,
     "^too many splits in max_subdivisions: 3276801, more than 3276800, the budget of one call$"),
    *[(lambda make=make, v=v: make(v), ValueError, rf"^{name} must be an integer, got {re.escape(repr(v))}$")
      for name, make in COUNTS for v in (2.5, math.nan, math.inf, -math.inf, 4000.0, "4", None)],
    # goldie_sum's count of terms is read by the same rule
    *[(lambda v=v: goldie_sum(1.0, lambda t: 1.0, P1, 0.1, v), ValueError,
       rf"^i must be an integer, got {re.escape(repr(v))}$") for v in (2.7, "3", None)],
    *[(lambda make=make, v=v: make(v), DomainError, rf"^{name} must be finite, got {v!r}$")
      for name, make in FINITE for v in (math.nan, -math.inf)],
    # so is power's n, which may be negative
    *[(lambda v=v: power(P1, 2.0, v), ValueError, rf"^n must be an integer, got {re.escape(repr(v))}$")
      for v in (2.7, math.nan, "3", None)],
])
def test_validation_messages(make, exc, match):
    with pytest.raises(exc, match=match):
        make()
