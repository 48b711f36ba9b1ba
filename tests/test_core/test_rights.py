"""Tests for rights, versions, and entries."""

from __future__ import annotations

import pytest

from repro.core.rights import AclEntry, Right, Version, ZERO_VERSION


class TestVersion:
    def test_counter_dominates(self):
        assert Version(2, "a") > Version(1, "z")

    def test_origin_breaks_ties(self):
        assert Version(1, "b") > Version(1, "a")
        assert Version(1, "a") < Version(1, "b")

    def test_total_order(self):
        versions = [Version(2, "a"), Version(1, "b"), Version(1, "a"), Version(3, "c")]
        ordered = sorted(versions)
        assert ordered == [
            Version(1, "a"),
            Version(1, "b"),
            Version(2, "a"),
            Version(3, "c"),
        ]

    def test_equality_and_hash(self):
        assert Version(1, "m") == Version(1, "m")
        assert hash(Version(1, "m")) == hash(Version(1, "m"))
        assert Version(1, "m") != Version(2, "m")

    def test_zero_version_precedes_all_real(self):
        assert ZERO_VERSION < Version(1, "")
        assert ZERO_VERSION < Version(1, "any")

    def test_str(self):
        assert str(Version(3, "m1")) == "3@m1"


class TestRight:
    def test_two_rights(self):
        assert {Right.USE, Right.MANAGE} == set(Right)

    def test_str(self):
        assert str(Right.USE) == "use"
        assert str(Right.MANAGE) == "manage"


class TestAclEntry:
    def test_dominates_by_version(self):
        older = AclEntry("u", Right.USE, True, Version(1, "a"))
        newer = AclEntry("u", Right.USE, False, Version(2, "a"))
        assert newer.version > older.version
        assert not older.version > newer.version

    def test_equal_versions_do_not_dominate(self):
        a = AclEntry("u", Right.USE, True, Version(1, "a"))
        b = AclEntry("u", Right.USE, True, Version(1, "a"))
        assert not a.version > b.version

    def test_frozen(self):
        entry = AclEntry("u", Right.USE, True, Version(1, "a"))
        with pytest.raises(AttributeError):
            entry.granted = False  # type: ignore[misc]
