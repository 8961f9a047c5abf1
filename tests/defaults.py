"""The default scenario's values for tests that build objects by hand."""

from dataclasses import replace

from blowdown.scenario_io import default_scenario
from blowdown.state import Parameters


def parameters(**overrides) -> Parameters:
    """The shipped default parameters with `overrides`, not validated."""
    return replace(default_scenario().parameters, **overrides)
