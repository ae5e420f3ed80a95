"""Unit + property tests for FlexKey order encoding (Chapter 3)."""

import copyreg
import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flexkeys import (FlexKey, FlexKeyError, atom_after, atom_before,
                            atom_between, atom_for_insert, compare, compose,
                            compose_values, order_of, sibling_atom)

#: Atoms as the generator produces them (never ending in 'a').
atoms = st.integers(min_value=0, max_value=500).map(sibling_atom)


class TestFlexKeyBasics:
    def test_parse_and_repr(self):
        key = FlexKey.parse("b.f.b")
        assert key.value == "b.f.b"
        assert str(key) == "b.f.b"

    def test_parse_with_override(self):
        key = FlexKey.parse("b.f[a.c]")
        assert key.value == "b.f"
        assert key.override.value == "a.c"

    def test_parse_rejects_bad_chars(self):
        with pytest.raises(FlexKeyError):
            FlexKey.parse("b.1")

    def test_empty_is_rejected(self):
        with pytest.raises(FlexKeyError):
            FlexKey("")

    def test_child_and_parent(self):
        key = FlexKey("b").child("f")
        assert key.value == "b.f"
        assert key.parent() == FlexKey("b")
        assert FlexKey("b").parent() is None

    def test_local_and_depth(self):
        key = FlexKey.parse("b.f.d")
        assert key.local() == "d"
        assert key.depth == 3

    def test_ancestor_descendant(self):
        root = FlexKey("b")
        deep = FlexKey("b.f.b")
        assert root.is_ancestor_of(deep)
        assert not root.is_ancestor_of(FlexKey("bb"))  # no prefix confusion
        assert not root.is_ancestor_of(root)

    def test_equality_ignores_override(self):
        assert FlexKey("b.f") == FlexKey("b.f").with_override(FlexKey("a"))
        assert hash(FlexKey("b.f")) == hash(
            FlexKey("b.f").with_override(FlexKey("a")))

    def test_ordering_uses_override(self):
        plain = FlexKey("b.b")
        overridden = FlexKey("b.f").with_override(FlexKey("a.a"))
        assert overridden < plain
        assert compare(overridden, plain) == -1

    def test_without_override(self):
        key = FlexKey("b.f").with_override(FlexKey("a"))
        assert key.without_override().override is None

    def test_order_of(self):
        assert order_of(FlexKey("b.f")) == "b.f"
        assert order_of(FlexKey("b.f").with_override(FlexKey("a.c"))) == "a.c"

    def test_nested_override_resolution(self):
        inner = FlexKey("c").with_override(FlexKey("a"))
        outer = FlexKey("z").with_override(inner)
        assert order_of(outer) == "a"


class TestPickling:
    def test_a_key_pickled_as_slot_state_unpickles_equal(self):
        """Checkpoints written while the identity slots were ``_value``
        / ``_override`` hold keys as slot-state dicts, not constructor
        calls; they must still restore, order token included."""

        class SlotStatePickler(pickle.Pickler):
            def reducer_override(self, obj):
                if type(obj) is not FlexKey:
                    return NotImplemented
                return (copyreg.__newobj__, (FlexKey,),
                        (None, {"_value": obj.value,
                                "_override": obj.override,
                                "_atoms": None, "_order": None}))

        key = FlexKey("b.f").with_override(
            FlexKey("c").with_override(FlexKey("a.c")))
        buffer = io.BytesIO()
        SlotStatePickler(buffer, protocol=2).dump([key, FlexKey("b.d")])
        assert b"_override" in buffer.getvalue()
        restored, plain = pickle.loads(buffer.getvalue())
        assert restored == key and hash(restored) == hash(key)
        assert restored.override.override.value == "a.c"
        assert restored.order_token() == "a.c"
        assert repr(restored) == repr(key)
        assert plain.override is None and plain.order_token() == "b.d"
        assert sorted([plain, restored]) == [restored, plain]
        # and a key pickled today round-trips through its constructor
        assert pickle.loads(pickle.dumps(key)).order_token() == "a.c"


class TestCompose:
    def test_compose(self):
        key = compose(FlexKey("b.b"), FlexKey("e.f"))
        assert key.value == "b.b..e.f"
        assert key.is_composed

    def test_composed_has_no_parent(self):
        with pytest.raises(FlexKeyError):
            compose(FlexKey("b"), FlexKey("c")).parent()

    def test_compose_values(self):
        assert compose_values(["1994", "b.b"]) == "1994..b.b"

    def test_compose_empty_rejected(self):
        with pytest.raises(FlexKeyError):
            compose()

    def test_compose_order_extends_prefix(self):
        # A composed key sorts right after its first component's subtree,
        # consistent with major/minor ordering.
        assert compose(FlexKey("b.b"), FlexKey("e.f")) < compose(
            FlexKey("b.d"), FlexKey("e.b"))


class TestAtomGeneration:
    def test_sibling_atoms_monotone_unique(self):
        seq = [sibling_atom(i) for i in range(50_001)]
        assert all(a < b for a, b in zip(seq, seq[1:]))   # hence unique
        assert not any(atom.endswith("a") for atom in seq)
        assert all(a < atom_between(a, b) < b for a, b in zip(seq, seq[1:]))

    def test_sibling_atoms_iterator(self):
        """A document's first children take the gapped atoms in order."""
        assert [sibling_atom(i) for i in range(3)] == ["b", "d", "f"]

    def test_rollover(self):
        # z, a length-class letter, that many base-12 gapped digits.
        assert sibling_atom(11) == "x"
        assert [sibling_atom(i) for i in (12, 13, 23)] == ["zbb", "zbd", "zbx"]
        assert [sibling_atom(i) for i in (24, 25, 167)] == ["zcbb", "zcbd",
                                                            "zcxx"]
        assert sibling_atom(168) == "zdbbb"

    def test_atom_length_is_logarithmic(self):
        assert len(sibling_atom(8000)) <= 8
        assert len(sibling_atom(12 ** 9)) <= 12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sibling_atom(-1)

    def test_between_simple(self):
        assert atom_between("b", "d") == "c"

    def test_between_adjacent(self):
        mid = atom_between("b", "c")
        assert "b" < mid < "c"

    def test_between_requires_order(self):
        with pytest.raises(FlexKeyError):
            atom_between("d", "b")
        with pytest.raises(FlexKeyError):
            atom_between("b", "b")

    def test_after_before(self):
        assert atom_after("b") > "b"
        assert "" < atom_before("b") < "b"

    def test_before_smallest_rejected(self):
        with pytest.raises(FlexKeyError):
            atom_before("a")

    def test_atom_for_insert_bounds(self):
        assert atom_for_insert(None, None) == sibling_atom(0)
        assert atom_for_insert("b", None) > "b"
        assert atom_for_insert(None, "b") < "b"
        mid = atom_for_insert("b", "d")
        assert "b" < mid < "d"

    @given(atoms, atoms)
    def test_between_property(self, a, b):
        if a == b:
            return
        low, high = sorted((a, b))
        mid = atom_between(low, high)
        assert low < mid < high
        assert not mid.endswith("a")

    @given(atoms)
    def test_after_property(self, a):
        result = atom_after(a)
        assert result > a
        assert not result.endswith("a")

    @given(atoms)
    def test_before_property(self, a):
        result = atom_before(a)
        assert "" < result < a
        assert not result.endswith("a")

    @settings(max_examples=25)
    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                    max_size=60))
    def test_skewed_insert_storm(self, positions):
        """Chapter 3.4.4: no relabeling even under skewed insertions."""
        atoms_list = ["b", "d"]
        for pos in positions:
            index = pos % (len(atoms_list) + 1)
            low = atoms_list[index - 1] if index > 0 else None
            high = atoms_list[index] if index < len(atoms_list) else None
            new = atom_for_insert(low, high)
            atoms_list.insert(index, new)
        assert atoms_list == sorted(atoms_list)
        assert len(set(atoms_list)) == len(atoms_list)
