"""Workload generation: user populations, access/update traffic, scenarios."""

from .generators import (
    AccessWorkload,
    AuthorizationOracle,
    FlashCrowdWorkload,
    ObservedDecision,
    PeriodicWorkload,
    UpdateWorkload,
)
from .population import DiurnalRate, UserPopulation
from .scenarios import Scenario, steady_state_scenario

__all__ = [
    "AccessWorkload",
    "AuthorizationOracle",
    "DiurnalRate",
    "FlashCrowdWorkload",
    "ObservedDecision",
    "PeriodicWorkload",
    "Scenario",
    "UpdateWorkload",
    "UserPopulation",
    "steady_state_scenario",
]
