"""The default scenario's values for tests that build objects by hand, the
boundary that refuses the values the physics laws cannot take, and the
floats a law is compared on bit for bit."""

import math
import struct
from dataclasses import replace

import pytest
from hypothesis import strategies as st

from blowdown.errors import InvariantViolation
from blowdown.scenario_io import default_scenario, parse_scenario
from blowdown.state import Parameters


def parameters(**overrides) -> Parameters:
    """The shipped default parameters with `overrides`, not validated."""
    return replace(default_scenario().parameters, **overrides)


def refused(document: dict, message: str) -> None:
    """`parse_scenario(document)` raises InvariantViolation with `message`.

    The physics laws check none of their arguments: a scenario document is
    validated once, here, before any law runs.
    """
    with pytest.raises(InvariantViolation) as info:
        parse_scenario(document)
    assert str(info.value) == message


#: Any float: ±0.0, subnormals, ±inf, NaN and 10^±300 drawn often.
WIDE = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e300, -1e300,
    1e-300, -1e-300]) | st.floats()


def bits(law, *args):
    """The bytes of `law(*args)`, so that -0.0 and NaN count, or the type of
    the ArithmeticError it raises. Every NaN is one: which of two NaN
    operands an operation returns, and so its sign, depends on whether
    CPython has specialized that operation yet, not on the law."""
    try:
        value = law(*args)
    except ArithmeticError as exc:
        return type(exc)
    return struct.pack("d", math.nan if value != value else value)
