"""The record contract: every protocol record behaves as a frozen dataclass.

Records (:mod:`repro.core.records`) are built by a generated constructor,
so this suite pins what callers rely on for each of them: refused
assignment and deletion, value equality and hashing that tell types
apart, pickle, copy and ``dataclasses.replace``, the dataclass ``repr``,
and the field order, which is the binary wire contract.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.auth.identity import SignedMessage
from repro.auth.signatures import Signature, Tag
from repro.core import messages
from repro.core.admin import AdminResult
from repro.core.cache import CacheEntry
from repro.core.client import InvokeResult
from repro.core.manager import UpdateHandle
from repro.core.rights import AclEntry, Version
from repro.protocols.decision import AccessDecision
from repro.sim.trace import TraceRecord
from repro.workloads.generators import ObservedDecision

#: Field names in declaration order, as recorded before records replaced
#: the frozen dataclasses.  The binary codec sends fields by position.
FIELDS = {
    messages.AdminRequest: ("request_id", "application", "subject", "right", "grant", "admin"),
    messages.AdminResponse: ("request_id", "accepted", "reason", "update_id"),
    messages.QueryRequest: (
        "query_id", "application", "user", "right", "key_id", "wrapped_key",
    ),
    messages.QueryResponse: (
        "query_id", "application", "user", "right", "verdict", "te", "version", "manager",
    ),
    messages.AclUpdate: (
        "update_id", "application", "user", "right", "grant", "version", "origin",
    ),
    messages.UpdateMsg: ("update",),
    messages.UpdateAck: ("update_id", "acker"),
    messages.RevokeNotify: ("application", "user", "right", "version", "notify_id"),
    messages.RevokeNotifyAck: ("notify_id", "host"),
    messages.SyncRequest: ("requester", "applications"),
    messages.SyncResponse: ("responder", "snapshots"),
    messages.Ping: ("nonce", "sender"),
    messages.Pong: ("nonce", "sender"),
    messages.AppRequest: ("request_id", "application", "user", "payload"),
    messages.AppResponse: ("request_id", "application", "allowed", "result", "reason"),
    SignedMessage: ("payload", "signature"),
    Signature: ("signer", "value"),
    Tag: ("signer", "key_id", "value"),
    Version: ("counter", "origin"),
    AclEntry: ("user", "right", "granted", "version"),
    AccessDecision: (
        "application", "user", "right", "allowed", "reason", "attempts", "responses", "latency",
    ),
    ObservedDecision: ("time", "host", "user", "application", "decision", "authorized"),
    CacheEntry: ("user", "right", "limit", "version"),
    InvokeResult: ("allowed", "result", "reason", "latency", "timed_out"),
    AdminResult: ("accepted", "reason", "update_id", "latency", "timed_out"),
    UpdateHandle: ("update", "quorum", "complete"),
    TraceRecord: ("time", "kind", "source", "data"),
}

RECORDS = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


def values(cls, tag="v"):
    """Stand-in field values: a record checks no types."""
    return tuple(f"{tag}{i}" for i in range(len(FIELDS[cls])))


@RECORDS
def test_fields_keep_their_order(cls):
    assert dataclasses.is_dataclass(cls)
    assert tuple(field.name for field in dataclasses.fields(cls)) == FIELDS[cls]


@RECORDS
def test_assignment_and_deletion_raise(cls):
    instance = cls(*values(cls))
    for name in FIELDS[cls]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, name, "other")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(instance, name)
    assert instance == cls(*values(cls))


@RECORDS
def test_equal_fields_are_equal_and_hash_alike(cls):
    first, second = cls(*values(cls)), cls(*values(cls))
    assert first == second and hash(first) == hash(second)
    assert first != cls(*values(cls, tag="w"))
    assert first != values(cls)
    for other in FIELDS:
        if other is not cls and len(FIELDS[other]) == len(FIELDS[cls]):
            assert first != other(*values(cls))


@RECORDS
def test_keyword_construction_and_defaults(cls):
    names = FIELDS[cls]
    assert cls(**dict(zip(names, values(cls)))) == cls(*values(cls))
    required = [field.name for field in dataclasses.fields(cls)
                if field.default is dataclasses.MISSING
                and field.default_factory is dataclasses.MISSING]
    built = cls(*values(cls)[: len(required)])
    for field in dataclasses.fields(cls)[len(required):]:
        if field.default_factory is not dataclasses.MISSING:
            assert getattr(built, field.name) == field.default_factory()
            assert getattr(built, field.name) is not getattr(
                cls(*values(cls)[: len(required)]), field.name
            )
        else:
            assert getattr(built, field.name) == field.default


@RECORDS
def test_pickle_copy_and_replace_round_trip(cls):
    instance = cls(*values(cls))
    for twin in (pickle.loads(pickle.dumps(instance)), copy.copy(instance),
                 copy.deepcopy(instance)):
        assert type(twin) is cls and twin == instance
    first = FIELDS[cls][0]
    changed = dataclasses.replace(instance, **{first: "changed"})
    assert type(changed) is cls and getattr(changed, first) == "changed"
    assert dataclasses.replace(changed, **{first: values(cls)[0]}) == instance


@RECORDS
def test_repr_is_the_dataclass_repr(cls):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(FIELDS[cls], values(cls)))
    assert repr(cls(*values(cls))) == f"{cls.__qualname__}({fields})"


@RECORDS
def test_an_attribute_that_is_not_a_field_is_refused_too(cls):
    instance = cls(*values(cls))
    with pytest.raises(dataclasses.FrozenInstanceError):
        instance.not_a_field = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del instance.not_a_field
