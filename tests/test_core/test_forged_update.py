"""A forged peer update must not outlive a revocation (ROADMAP 1(a)(ii)).

A registered node that is not a manager sends ``m0`` a well-formed
``UpdateMsg`` granting ``u`` under a version counter far ahead of every
real one, claiming ``m1`` as its origin.  ``m1`` then revokes ``u``.  The
centralised ACL would deny ``u`` from then on (Chaudhuri: the
distributed system admits nothing the central ACL would refuse), so
after the revocation has settled every manager must deny and so must
the host's check.  Today ``m0`` keeps the forged grant, because its
counter beats the revocation's, and the host's highest-version combiner
picks it: the check is allowed.  The fix is ROADMAP 1(c), authenticated
manager traffic with a cap on forged counters.
"""

from __future__ import annotations

import pytest

from repro.core.messages import AclUpdate, UpdateMsg
from repro.core.rights import Right, Version
from repro.sim.node import Node

from .test_manager import APP, ManagerHarness, policy


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP 1(c)")
def test_forged_update_does_not_outlive_a_revocation():
    harness = ManagerHarness(policy(check_quorum=2, expiry_bound=100.0))
    harness.grant_everywhere("u")
    forger = harness.network.register(Node("x9"))
    forger.send("m0", UpdateMsg(AclUpdate(
        update_id="x9:1", application=APP, user="u", right=Right.USE,
        grant=True, version=Version(2**62, "m1"), origin="m1",
    )))
    harness.managers[1].revoke(APP, "u")
    harness.run(300.0)

    assert [m.acl(APP).check("u", Right.USE) for m in harness.managers] == [
        False, False, False,
    ]
    check = harness.hosts[0].request_access(APP, "u")
    harness.run(10.0)
    assert not check.value.allowed, check.value
