"""Interner and packed-key behaviour (`core/ids.py`)."""

import pytest

from repro.core.ids import (
    RIGHT_INDEX,
    RIGHTS,
    Interner,
    dense_index,
    pack_key,
    unpack_key,
)
from repro.core.rights import Right


class TestInterner:
    def test_ids_are_dense_and_stable(self):
        ids = Interner()
        assert ids.intern("alice") == 0
        assert ids.intern("bob") == 1
        assert ids.intern("alice") == 0
        assert len(ids) == 2

    def test_get_never_creates(self):
        ids = Interner()
        assert ids.get("ghost") is None
        assert len(ids) == 0
        ids.intern("real")
        assert ids.get("real") == 0

    def test_name_of_roundtrip(self):
        ids = Interner()
        for name in ["m0", "m1", "h0", "alice"]:
            assert ids.name_of(ids.intern(name)) == name

    def test_name_of_unknown_raises(self):
        with pytest.raises(KeyError):
            Interner().name_of(0)

    def test_contains_and_iter(self):
        ids = Interner()
        ids.intern("a")
        ids.intern("b")
        assert "a" in ids and "c" not in ids
        assert list(ids) == ["a", "b"]


class TestDensePrefix:
    def test_dense_names_map_arithmetically(self):
        ids = Interner(dense_prefix="u", dense_count=1000)
        assert ids.intern("u0") == 0
        assert ids.intern("u999") == 999
        assert ids.get("u500") == 500
        assert ids.name_of(123) == "u123"
        assert len(ids) == 1000

    def test_dense_block_stores_nothing(self):
        ids = Interner(dense_prefix="u", dense_count=10**6)
        for i in (0, 1, 999_999):
            assert ids.intern(f"u{i}") == i
        assert len(ids._ids) == 0  # arithmetic, not stored

    def test_extras_offset_past_dense_block(self):
        ids = Interner(dense_prefix="u", dense_count=100)
        assert ids.intern("m0") == 100
        assert ids.intern("u5") == 5
        assert ids.intern("m1") == 101
        assert ids.name_of(101) == "m1"

    def test_out_of_range_dense_name_is_an_extra(self):
        ids = Interner(dense_prefix="u", dense_count=10)
        assert ids.intern("u10") == 10  # first extra slot, coincidentally
        assert ids.intern("u11") == 11
        assert ids.name_of(10) == "u10"

    def test_non_canonical_digits_do_not_alias(self):
        ids = Interner(dense_prefix="u", dense_count=100)
        assert ids.intern("u01") != ids.intern("u1")
        assert ids.name_of(ids.intern("u01")) == "u01"

    @pytest.mark.parametrize("name", ["u²", "u٣", "u１", "u01", "u-1", "u+1", "u 1", "u"])
    def test_only_canonical_ascii_decimals_are_dense(self, name):
        # ``str.isdigit`` alone let "u٣" land in u3's slot (a different
        # principal sharing its ACL/cache entries) and "u²" raise
        # ValueError out of ``intern``.
        assert dense_index(name, "u") == -1
        ids = Interner(dense_prefix="u", dense_count=10)
        assert ids.get(name) is None
        uid = ids.intern(name)
        assert uid >= 10 and ids.name_of(uid) == name
        assert ids.get(name) == uid

    def test_dense_index_reads_exactly_the_canonical_spelling(self):
        assert dense_index("u0", "u") == 0
        assert dense_index("u1234567", "u") == 1234567
        assert dense_index("user12", "user") == 12
        assert dense_index("v1", "u") == -1

    def test_dense_count_requires_prefix(self):
        with pytest.raises(ValueError):
            Interner(dense_count=5)
        with pytest.raises(ValueError):
            Interner(dense_prefix="u", dense_count=-1)


class TestPackedKeys:
    def test_pack_unpack_roundtrip(self):
        for uid in (0, 1, 7, 10**6):
            for index in (0, 1):
                assert unpack_key(pack_key(uid, index)) == (uid, index)

    def test_right_index_covers_all_rights(self):
        assert set(RIGHT_INDEX) == set(Right)
        assert RIGHTS[RIGHT_INDEX[Right.USE]] is Right.USE
        assert RIGHTS[RIGHT_INDEX[Right.MANAGE]] is Right.MANAGE

    def test_keys_are_collision_free(self):
        seen = {pack_key(uid, index) for uid in range(100) for index in (0, 1)}
        assert len(seen) == 200
