"""Regression guard: the public API of the node shells is frozen.

The protocol-strategy refactor must not change how callers construct
hosts and managers or invoke the paper's operations.  These tests pin
the public names and their exact signatures; if a refactor changes
either, this fails before any downstream experiment does.
"""

from __future__ import annotations

import inspect

from repro.core.host import AccessControlHost, AccessDecision, DecisionReason
from repro.core.manager import AccessControlManager, UpdateHandle
from repro.core.rights import Right


def params(func):
    return list(inspect.signature(func).parameters)


class TestHostSurface:
    def test_constructor_signature(self):
        assert params(AccessControlHost.__init__) == [
            "self", "address", "policy", "managers",
            "clock", "manager_authenticator", "interner", "shard_router",
        ]

    def test_check_access_signature(self):
        signature = inspect.signature(AccessControlHost.check_access)
        assert list(signature.parameters) == [
            "self", "application", "user", "right"
        ]
        assert signature.parameters["right"].default is Right.USE

    def test_request_access_signature(self):
        assert params(AccessControlHost.request_access) == [
            "self", "application", "user", "right"
        ]

    def test_configuration_methods_exist(self):
        for name in ("policy_for", "set_policy", "set_managers", "manager_addrs_for",
                     "cache_for"):
            assert callable(getattr(AccessControlHost, name))

    def test_check_access_is_a_generator(self):
        assert inspect.isgeneratorfunction(AccessControlHost.check_access)

    def test_decision_fields(self):
        fields = AccessDecision.__dataclass_fields__
        assert list(fields) == [
            "application", "user", "right", "allowed", "reason",
            "attempts", "responses", "latency",
        ]

    def test_decision_reasons_frozen(self):
        assert {
            name: value
            for name, value in vars(DecisionReason).items()
            if not name.startswith("_")
        } == {
            "CACHE": "cache",
            "VERIFIED": "verified",
            "DENIED": "denied",
            "DENY_CACHED": "deny_cache",
            "DEFAULT_ALLOW": "default_allow",
            "EXHAUSTED": "exhausted",
            "HOST_CRASHED": "host_crashed",
            "NO_MANAGERS": "no_managers",
        }


class TestManagerSurface:
    def test_constructor_signature(self):
        assert params(AccessControlManager.__init__) == [
            "self", "address", "policy", "principal", "store",
            "admin_authenticator", "interner",
        ]

    def test_add_signature(self):
        signature = inspect.signature(AccessControlManager.add)
        assert list(signature.parameters) == [
            "self", "application", "user", "right"
        ]
        assert signature.parameters["right"].default is Right.USE

    def test_revoke_signature(self):
        assert params(AccessControlManager.revoke) == [
            "self", "application", "user", "right"
        ]

    def test_operations_return_update_handles(self):
        assert set(UpdateHandle.__dataclass_fields__) == {
            "update", "quorum", "complete"
        }

    def test_configuration_methods_exist(self):
        for name in (
            "manage", "policy_for", "set_policy", "applications", "acl",
            "manager_set_size", "bootstrap",
        ):
            assert callable(getattr(AccessControlManager, name))
