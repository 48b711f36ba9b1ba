"""repro — reproduction of *Access Control in Wide-Area Networks*
(Hiltunen & Schlichting, ICDCS 1997).

The package implements the paper's cached, quorum-coordinated access
control protocol with time-bounded revocation, together with the full
substrate it needs (discrete-event WAN simulation, drifting clocks,
partitions, host failures, authentication) and the analysis that
produces the paper's Figure 5 and Tables 1–2.

Quick tour
----------
* ``repro.core`` — the protocol: hosts, managers, policies, the wrapper.
* ``repro.analysis`` — closed-form availability/security (``PA``/``PS``).
* ``repro.sim`` — the simulation substrate.
* ``repro.auth`` — toy public-key authentication.
* ``repro.baselines`` — comparison designs from the paper's Section 3/4.2.
* ``repro.workloads`` / ``repro.metrics`` — drive and measure simulations.
* ``repro.experiments`` — one runner per paper table/figure.

>>> from repro import AccessControlSystem, AccessPolicy
>>> from repro.analysis import availability, security
>>> round(availability(10, 4, 0.2), 5)
0.99914
"""

from .analysis import availability, security  # noqa: F401
from .core import (  # noqa: F401
    AccessControlHost,
    AccessControlList,
    AccessControlManager,
    AccessControlSystem,
    AccessDecision,
    AccessPolicy,
    Application,
    ApplicationHost,
    DecisionReason,
    ExhaustedAction,
    QueryStrategy,
    Right,
    UserClient,
)

__version__ = "1.0.0"

__all__ = [
    "AccessControlHost",
    "AccessControlList",
    "AccessControlManager",
    "AccessControlSystem",
    "AccessDecision",
    "AccessPolicy",
    "Application",
    "ApplicationHost",
    "DecisionReason",
    "ExhaustedAction",
    "QueryStrategy",
    "Right",
    "UserClient",
    "availability",
    "security",
    "__version__",
]
