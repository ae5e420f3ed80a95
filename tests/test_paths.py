"""Tests for location paths."""

import pytest

from repro.xat.paths import CHILD, DESCENDANT, Path, PathError, Step


class TestPathParse:
    def test_child_steps(self):
        path = Path.parse("bib/book/title")
        assert [s.axis for s in path.steps] == [CHILD] * 3
        assert [s.test for s in path.steps] == ["bib", "book", "title"]

    def test_leading_slash_optional(self):
        assert Path.parse("/a/b").steps == Path.parse("a/b").steps

    def test_descendant(self):
        path = Path.parse("site//city")
        assert path.steps[1].axis == DESCENDANT

    def test_attribute_and_text(self):
        path = Path.parse("book/@year")
        assert path.steps[-1].is_attribute
        assert path.steps[-1].attribute_name == "year"
        path = Path.parse("price/text()")
        assert path.steps[-1].is_text

    def test_attribute_then_text_allowed(self):
        path = Path.parse("book/@year/text()")
        assert path.ends_in_value

    def test_value_must_be_last(self):
        with pytest.raises(PathError):
            Path.parse("a/@x/b")

    def test_empty_step_rejected(self):
        with pytest.raises(PathError):
            Path.parse("a//")

    def test_empty_path(self):
        path = Path.parse("")
        assert str(path) == "."

    def test_str_roundtrip(self):
        text = "/bib/book//title"
        assert str(Path.parse(text)) == text

    def test_element_and_value_split(self):
        path = Path.parse("a/b/@x")
        assert [s.test for s in path.element_steps()] == ["a", "b"]
        assert [s.test for s in path.value_steps()] == ["@x"]

    def test_as_pairs(self):
        assert Path.parse("a//b").as_pairs() == [("child", "a"),
                                                 ("descendant", "b")]

    def test_step_str(self):
        assert str(Step(CHILD, "a")) == "/a"
        assert str(Step(DESCENDANT, "a")) == "//a"
