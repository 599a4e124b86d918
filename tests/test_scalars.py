"""Scalar normalization, parsing/formatting, and mode-based equality."""

from __future__ import annotations

import inspect
import math
from fractions import Fraction

import pytest

import ein2lie
from ein2lie import (
    BRANCHES_BY_LABEL,
    BranchSpec,
    ExpectedLambdas,
    FamilyParams,
    Mode,
    StructureConstants,
    as_scalar,
    format_scalar,
    from_raw,
    parse_scalar,
)
from ein2lie.scalars import is_exact

F = Fraction


def test_as_scalar_normalizes():
    assert as_scalar(3) == F(3) and isinstance(as_scalar(3), F)
    assert as_scalar(F(1, 2)) == F(1, 2)
    assert as_scalar("3/2") == F(3, 2)
    assert as_scalar("0.25") == F(1, 4)
    assert as_scalar(0.5) == 0.5 and isinstance(as_scalar(0.5), float)
    with pytest.raises(TypeError):
        as_scalar(True)
    with pytest.raises(TypeError):
        as_scalar(None)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_float_is_no_scalar(value):
    # Both entry points reject it before any geometry reads it.
    with pytest.raises(ValueError, match="^not a finite number: "):
        FamilyParams("G1", alpha=value, beta=0.0)
    table = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    table[0][0][0] = value
    with pytest.raises(ValueError, match="^not a finite number: "):
        from_raw(table, Mode.approx())


def test_parse_scalar_rejects_junk():
    with pytest.raises(ValueError):
        parse_scalar("nope")
    with pytest.raises(ValueError):
        parse_scalar("1/0")


def test_format_scalar_roundtrip():
    assert format_scalar(F(3, 2)) == "3/2"
    assert format_scalar(F(-4)) == "-4"
    assert parse_scalar(format_scalar(F(-22, 7))) == F(-22, 7)
    assert format_scalar(0.1) == "0.10000000000000001"
    assert float(format_scalar(0.1)) == 0.1  # 17 significant digits round-trip


def test_mode_exact_vs_approx():
    exact = Mode.exact()
    assert exact.is_zero(F(0)) and not exact.is_zero(F(1, 10**9))
    approx = Mode.approx(1e-9)
    assert approx.is_zero(1e-10) and not approx.is_zero(1e-8)
    assert approx.is_zero(1.0 - (1.0 + 1e-12))
    with pytest.raises(ValueError):
        Mode.approx(0.0)
    with pytest.raises(ValueError):
        Mode("weird")


def test_exact_mode_admits_no_tolerance():
    with pytest.raises(ValueError, match="^exact mode admits no tolerance$"):
        Mode("exact", 1e-9)


def test_only_ints_and_fractions_are_exact():
    assert is_exact(3) and is_exact(F(1, 3))
    assert not is_exact(0.5) and not is_exact("1/2") and not is_exact(None)


def test_the_caller_states_every_mode():
    """No public function and no BranchSpec method defaults its mode, and
    nothing infers a mode from the values."""
    functions = [getattr(ein2lie, name) for name in ein2lie.__all__]
    functions += [value for value in vars(BranchSpec).values() if callable(value)]
    defaulted = [
        function.__qualname__
        for function in functions
        if inspect.isfunction(function)
        and (mode := inspect.signature(function).parameters.get("mode")) is not None
        and mode.default is not inspect.Parameter.empty
    ]
    assert defaulted == []
    assert not hasattr(Mode, "for_values")
    assert not hasattr(FamilyParams, "mode")


def test_value_types_compare_and_hash_by_their_fields():
    stated = BRANCHES_BY_LABEL["2.5"]
    brackets = ((1, 0, 0), (0, F(1, 2), 0), (0, 0, 0))
    cases = [
        (Mode.approx(), Mode("approx", 1e-9), ("approx", 1e-9)),
        (Mode.exact(), Mode(), ("exact", 0.0)),
        (
            StructureConstants(brackets),
            StructureConstants(((F(1), 0, 0), (0, F(1, 2), 0), (0, 0, 0))),
            (brackets,),
        ),
        (ExpectedLambdas.point(F(1), 0), ExpectedLambdas("point", 1, F(0)), ("point", 1, 0)),
        (
            stated,
            BranchSpec(stated.label, stated.constraints, stated.free, stated.lambdas),
            (stated.label, stated.constraints, stated.free, stated.lambdas, "", ""),
        ),
    ]
    for value, equal, fields in cases:
        assert value is not equal
        assert value == equal and not value != equal
        assert hash(value) == hash(equal)
        # the tuple of its fields is another value
        assert value != fields and fields != value
    assert Mode.approx() != Mode.approx(1e-6)
    assert ExpectedLambdas.point(1, 0) != ExpectedLambdas.point(0, 1)
    assert len({Mode.exact(), Mode(), Mode.approx()}) == 2


def test_mode_repr_is_the_field_text():
    assert repr(Mode.approx()) == "Mode(kind='approx', tolerance=1e-09)"
    assert repr(Mode.exact()) == "Mode(kind='exact', tolerance=0.0)"
