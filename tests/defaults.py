"""The default scenario's values for tests that build objects by hand, and
the boundary that refuses the values the physics laws cannot take."""

from dataclasses import replace

import pytest

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
