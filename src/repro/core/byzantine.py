"""Byzantine-manager extension (the paper's footnote 2).

"The failure model of managers could be extended to Byzantine failures
[13] by using ideas from secure membership protocols [21]."  The paper
itself assumes managers "always provide correct information or do not
provide any information at all"; this module supplies what is needed to
drop that assumption:

* Adversary models — :class:`LyingManager` variants that return
  *plausible but false* answers (granting revoked users with inflated
  versions, denying everyone, or flipping verdicts), while following
  the rest of the protocol so they are indistinguishable by timing.

* The defence lives in the regular components: managers sign their
  responses (a manager's ``principal``), hosts verify
  them (``manager_authenticator=...``) so a liar cannot impersonate an
  honest manager, and ``AccessPolicy(byzantine_f=f)`` makes hosts
  require ``f + 1`` managers vouching for the same (verdict, version)
  pair before believing it.

Sizing: to tolerate ``f`` liars the check quorum must satisfy
``C >= f + 1`` for safety (a fabrication needs f + 1 voices) and, for
the verdict to be decidable when liars answer too, the honest managers
in any answering set must still out-vouch them; :func:`required_quorum`
gives the standard ``2f + 1``-style sizing against ``M`` managers.
"""

from __future__ import annotations

from typing import Optional

from ..auth.identity import Principal
from ..sim.node import Address
from .manager import AccessControlManager
from .messages import QueryRequest, QueryResponse, Verdict
from .policy import AccessPolicy
from .rights import Version

__all__ = [
    "LyingManager",
    "GRANT_ALL",
    "DENY_ALL",
    "FLIP",
    "required_quorum",
]

#: Lying modes.
GRANT_ALL = "grant_all"  # fabricate grants (e.g. for revoked users)
DENY_ALL = "deny_all"  # censor: deny every query
FLIP = "flip"  # invert whatever the truthful answer would be


def required_quorum(f: int) -> int:
    """Check-quorum size needed to decide against ``f`` liars.

    ``2f + 1`` responses guarantee at least ``f + 1`` honest matching
    answers whenever the honest managers agree, so a verdict is always
    both *safe* (no believed fabrication) and *live* (decidable).
    """
    if f < 0:
        raise ValueError("f must be non-negative")
    return 2 * f + 1


class LyingManager(AccessControlManager):
    """A manager under adversary control.

    It participates in update dissemination and sync normally (so its
    state stays plausible) but answers access queries falsely according
    to ``mode``.  Fabricated grants carry an inflated version so that,
    without Byzantine vouching, the host's highest-version combine
    would believe them — exactly the attack ``byzantine_f`` defeats.
    """

    def __init__(
        self,
        address: Address,
        policy: AccessPolicy,
        mode: str = GRANT_ALL,
        principal: Optional[Principal] = None,
        collude_as: Optional[str] = None,
    ):
        if mode not in (GRANT_ALL, DENY_ALL, FLIP):
            raise ValueError(f"unknown lying mode {mode!r}")
        super().__init__(address, policy, principal=principal)
        self.mode = mode
        #: Colluding liars share this fake version origin so their
        #: fabrications vouch for each other; independent liars use
        #: their own address and never match.
        self.collude_as = collude_as
        self.lies_told = 0

    def _answer_query(self, src: Address, request: QueryRequest) -> None:
        if request.application not in self.acls:
            return
        policy = self.policy_for(request.application)
        acl = self.acl(request.application)
        truthful = acl.check(request.user, request.right)
        if self.mode == GRANT_ALL:
            verdict = Verdict.GRANT
        elif self.mode == DENY_ALL:
            verdict = Verdict.DENY
        else:
            verdict = Verdict.DENY if truthful else Verdict.GRANT
        if (verdict == Verdict.GRANT) != truthful:
            self.lies_told += 1
        # Inflate the version so the lie would win a naive combine.
        # Use a fixed counter offset (not highest+offset) so colluding
        # liars with slightly divergent state still fabricate
        # *identical* versions.
        fake_version = Version(10**15, self.collude_as or self.address)
        response = QueryResponse(
            query_id=request.query_id,
            application=request.application,
            user=request.user,
            right=request.right,
            verdict=verdict,
            te=policy.te_local,
            version=fake_version,
            manager=self.address,
        )
        if self.principal is not None:
            self.send(src, self.principal.sign(response))
        else:
            self.send(src, response)
