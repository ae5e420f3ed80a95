"""Tests for the XML node model, parser and serializer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlmodel import (XmlDocument, XmlNode, XmlParseError,
                            parse_document, parse_fragment, serialize)


class TestNode:
    def test_element_constructor(self):
        node = XmlNode.element("book", {"year": "1994"},
                               [XmlNode.text("hello")])
        assert node.is_element
        assert node.attributes["year"] == "1994"
        assert node.children[0].is_text
        assert node.children[0].parent is node

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            XmlNode("attribute")

    def test_text_value_concatenates(self):
        node = parse_document("<a><b>x</b>y<c><d>z</d></c></a>")
        assert node.text_value() == "xyz"

    def test_descendants_document_order(self):
        node = parse_document("<a><b><c/></b><c/></a>")
        tags = [d.tag for d in node.descendants()]
        assert tags == ["b", "c", "c"]
        assert len(node.descendants("c")) == 2

    def test_subtree_size(self):
        node = parse_document("<a><b>x</b><c/></a>")
        assert node.subtree_size() == 4  # a, b, text, c

    def test_insert_remove_detach(self):
        parent = XmlNode.element("p")
        a = parent.append(XmlNode.element("a"))
        b = XmlNode.element("b")
        parent.insert(0, b)
        assert [c.tag for c in parent.children] == ["b", "a"]
        parent.remove(b)
        assert b.parent is None
        a.detach()
        assert not parent.children

    def test_deep_copy_and_structure_equal(self):
        node = parse_document('<a x="1"><b>t</b></a>')
        clone = node.deep_copy()
        assert node.structure_equal(clone)
        clone.children[0].children[0].value = "u"
        assert not node.structure_equal(clone)


class TestParser:
    def test_attributes_and_entities(self):
        node = parse_document('<a x="1&amp;2" y=\'&#65;&#x42;\'/>')
        assert node.attributes == {"x": "1&2", "y": "AB"}

    def test_text_entities(self):
        node = parse_document("<a>&lt;tag&gt; &amp; more</a>")
        assert node.text_value() == "<tag> & more"

    def test_whitespace_between_elements_dropped(self):
        node = parse_document("<a>\n  <b/>\n  <c/>\n</a>")
        assert len(node.children) == 2

    def test_cdata(self):
        node = parse_document("<a><![CDATA[<raw>&]]></a>")
        assert node.text_value() == "<raw>&"

    def test_comments_and_pi_skipped(self):
        node = parse_document(
            "<?xml version='1.0'?><!-- c --><a><!-- x --><b/></a>")
        assert len(node.children) == 1

    def test_doctype_skipped(self):
        node = parse_document("<!DOCTYPE a><a/>")
        assert node.tag == "a"

    def test_fragment(self):
        nodes = parse_fragment("<a/><b>t</b>")
        assert [n.tag for n in nodes] == ["a", "b"]

    @pytest.mark.parametrize("bad", [
        "<a>", "<a></b>", "<a", "<a x=1/>", "<a x='1'", "text<a/>extra<",
        "<a>&unknown;</a>",
    ])
    def test_malformed(self, bad):
        with pytest.raises(XmlParseError):
            parse_document(bad)

    def test_trailing_content_rejected(self):
        with pytest.raises(XmlParseError):
            parse_document("<a/><b/>")


# (entry point, input, tree | ("error", message, offset)) — recorded from the
# character-loop parser this lexer replaced; a tree is text or
# [tag, attributes, children].
PARSER_TABLE = [
    ('document', '<a/>',
     ['a', {}, []]),
    ('document', '<a></a>',
     ['a', {}, []]),
    ('document', '<a>x</a>',
     ['a', {}, ['x']]),
    ('document', '<a><b>x</b>y<c><d>z</d></c></a>',
     ['a', {}, [['b', {}, ['x']], 'y', ['c', {}, [['d', {}, ['z']]]]]]),
    ('document', '<a x="1" y=\'2\'/>',
     ['a', {'x': '1', 'y': '2'}, []]),
    ('document', '<a x = "1"\n\ty\r=\n\'2\' >t</a >',
     ['a', {'x': '1', 'y': '2'}, ['t']]),
    ('document', '<a x="1"y="2"/>',
     ['a', {'x': '1', 'y': '2'}, []]),
    ('document', '<a x="<>&amp;\'" y=\'"&lt;\'/>',
     ['a', {'x': "<>&'", 'y': '"<'}, []]),
    ('document', '<a x="1" x="2"/>',
     ['a', {'x': '2'}, []]),
    ('document', '<a x=""/>',
     ['a', {'x': ''}, []]),
    ('document', '<a><!-- c --><b/><!----></a>',
     ['a', {}, [['b', {}, []]]]),
    ('document', '<a><!--></a>',
     ['a', {}, []]),
    ('document', '<a><!---></a>',
     ['a', {}, []]),
    ('document', '<a><!-- -- --></a>',
     ['a', {}, []]),
    ('document', '<a><![CDATA[<raw>&]]></a>',
     ['a', {}, ['<raw>&']]),
    ('document', '<a><![CDATA[]]></a>',
     ['a', {}, ['']]),
    ('document', '<a><![CDATA[  ]]>x</a>',
     ['a', {}, ['  ', 'x']]),
    ('document', '<a>x<![CDATA[y]]>z</a>',
     ['a', {}, ['x', 'y', 'z']]),
    ('document', '<a><?pi data?><b/><?></a>',
     ['a', {}, [['b', {}, []]]]),
    ('document', "<?xml version='1.0'?><!-- c --><!DOCTYPE a><a/><!-- after --><?pi?>\n",
     ['a', {}, []]),
    ('document', '<!DOCTYPE a [ <!ELEMENT a ANY> ]><a/>',
     ('error', "expected '<'", 31)),
    ('document', '  \n<a/>\n  ',
     ['a', {}, []]),
    ('document', '<a>\n  <b/>\n  <c/>\n</a>',
     ['a', {}, [['b', {}, []], ['c', {}, []]]]),
    ('document', '<a>  x  y  </a>',
     ['a', {}, ['x  y']]),
    ('document', '<a> \t\r\n </a>',
     ['a', {}, []]),
    ('document', '<a>&#32;x&#32;</a>',
     ['a', {}, ['x']]),
    ('document', '<a>\xa0x\xa0</a>',
     ['a', {}, ['x']]),
    ('document', '<a>&lt;tag&gt; &amp; &quot;more&apos;</a>',
     ['a', {}, ['<tag> & "more\'']]),
    ('document', "<a y='&#65;&#x42;&#X43;'/>",
     ['a', {'y': 'ABC'}, []]),
    ('document', '<a>&#x0x41;&#+65;&# 65 ;</a>',
     ['a', {}, ['AAA']]),
    ('document', '<a.b:c-d_e><1/><-x/></a.b:c-d_e>',
     ['a.b:c-d_e', {}, [['1', {}, []], ['-x', {}, []]]]),
    ('document', '<élément ä="1">中</élément>',
     ['élément', {'ä': '1'}, ['中']]),
    ('document', '<a><a><a/></a></a>',
     ['a', {}, [['a', {}, [['a', {}, []]]]]]),
    ('document', '<a><b></b><b/></a>',
     ['a', {}, [['b', {}, []], ['b', {}, []]]]),
    ('document', '',
     ('error', "expected '<'", 0)),
    ('document', '   ',
     ('error', "expected '<'", 3)),
    ('document', 'text',
     ('error', "expected '<'", 0)),
    ('document', 'text<a/>',
     ('error', "expected '<'", 0)),
    ('document', '<',
     ('error', 'expected a name', 1)),
    ('document', '<a',
     ('error', 'expected a name', 2)),
    ('document', '<a ',
     ('error', 'expected a name', 3)),
    ('document', '<a>',
     ('error', 'unterminated element <a>', 3)),
    ('document', '<a><b>',
     ('error', 'unterminated element <b>', 6)),
    ('document', '<a></b>',
     ('error', 'mismatched close tag </b> for <a>', 6)),
    ('document', '<a></a',
     ('error', "expected '>'", 6)),
    ('document', '<a></a x>',
     ('error', "expected '>'", 7)),
    ('document', '<a></>',
     ('error', 'expected a name', 5)),
    ('document', '<a></ a>',
     ('error', 'expected a name', 5)),
    ('document', '</a>',
     ('error', 'expected a name', 1)),
    ('document', '<a/><b/>',
     ('error', 'trailing content after document element', 4)),
    ('document', '<a/>x',
     ('error', 'trailing content after document element', 4)),
    ('document', '<a/><',
     ('error', 'trailing content after document element', 4)),
    ('document', '<a></a></a>',
     ('error', 'trailing content after document element', 7)),
    ('document', '<a x>',
     ('error', "expected '='", 4)),
    ('document', '<a x=>',
     ('error', 'expected quoted attribute value', 5)),
    ('document', '<a x=1/>',
     ('error', 'expected quoted attribute value', 5)),
    ('document', "<a x='1'",
     ('error', 'expected a name', 8)),
    ('document', "<a x='1",
     ('error', 'unterminated attribute value', 6)),
    ('document', '<a x="1\'>',
     ('error', 'unterminated attribute value', 6)),
    ('document', "<a x ='1' y>",
     ('error', "expected '='", 11)),
    ('document', '<a/ >',
     ('error', 'expected a name', 2)),
    ('document', '<a / >',
     ('error', 'expected a name', 3)),
    ('document', "<a\xa0x='1'/>",
     ('error', 'expected a name', 2)),
    ('document', "<a\x0cx='1'/>",
     ('error', 'expected a name', 2)),
    ('document', "<a x='&bad;' y>",
     ('error', 'unknown entity &bad;', 6)),
    ('document', "<a x='&amp' y='1'/>",
     ('error', 'unterminated entity reference', 6)),
    ('document', "<a x='1' y='&nope;'/>",
     ('error', 'unknown entity &nope;', 12)),
    ('document', '<a>&unknown;</a>',
     ('error', 'unknown entity &unknown;', 12)),
    ('document', '<a>&amp</a>',
     ('error', 'unterminated entity reference', 7)),
    ('document', '<a>x &a&b; y</a>',
     ('error', 'unknown entity &a&b;', 12)),
    ('document', '<a>&;</a>',
     ('error', 'unknown entity &;', 5)),
    ('document', '<a>ok &lt; then &bad; <b/></a>',
     ('error', 'unknown entity &bad;', 22)),
    ('document', '<a><!-- x</a>',
     ('error', 'unterminated comment', 3)),
    ('document', '<a><![CDATA[x</a>',
     ('error', 'unterminated CDATA', 3)),
    ('document', '<a><?pi</a>',
     ('error', 'unterminated PI', 3)),
    ('document', '<!-- x',
     ('error', 'unterminated comment', 0)),
    ('document', '<?xml',
     ('error', 'unterminated processing instruction', 0)),
    ('document', '<!DOCTYPE a',
     ('error', 'unterminated DOCTYPE', 0)),
    ('document', '<a/><!-- x',
     ('error', 'unterminated comment', 4)),
    ('document', '<a/><?x',
     ('error', 'unterminated processing instruction', 4)),
    ('document', '<a><!x></a>',
     ('error', 'expected a name', 4)),
    ('document', '<a><![CDATA x]]></a>',
     ('error', 'expected a name', 4)),
    ('document', '<![CDATA[x]]>',
     ('error', 'expected a name', 1)),
    ('document', '<!a/>',
     ('error', 'expected a name', 1)),
    ('document', '<a>< b/></a>',
     ('error', 'expected a name', 4)),
    ('document', '<a><b/ ></a>',
     ('error', 'expected a name', 5)),
    ('fragment', '',
     []),
    ('fragment', '   ',
     []),
    ('fragment', 'x',
     ['x']),
    ('fragment', '  x  ',
     ['x']),
    ('fragment', '<a/>',
     [['a', {}, []]]),
    ('fragment', '<a/><b>t</b>',
     [['a', {}, []], ['b', {}, ['t']]]),
    ('fragment', 'x<a/>y<b/>z',
     ['x', ['a', {}, []], 'y', ['b', {}, []], 'z']),
    ('fragment', '<a/> <b/>',
     [['a', {}, []], ['b', {}, []]]),
    ('fragment', '<a>1</a>\n<a>2</a>',
     [['a', {}, ['1']], ['a', {}, ['2']]]),
    ('fragment', '<!-- c --><a/><?pi?><![CDATA[raw]]>',
     [['a', {}, []], 'raw']),
    ('fragment', '<![CDATA[]]>',
     ['']),
    ('fragment', '&lt;&amp;',
     ['<&']),
    ('fragment', '<person id="p1"><name>N</name><emailaddress>m@x</emailaddress><address><city>C</city></address></person>',
     [['person', {'id': 'p1'}, [['name', {}, ['N']], ['emailaddress', {}, ['m@x']], ['address', {}, [['city', {}, ['C']]]]]]]),
    ('fragment', '<a><a>x</a></a>',
     [['a', {}, [['a', {}, ['x']]]]]),
    ('fragment', '</a>',
     ('error', 'unexpected close tag', 0)),
    ('fragment', '<a/></a>',
     ('error', 'unexpected close tag', 4)),
    ('fragment', '<a>',
     ('error', 'unterminated element <a>', 3)),
    ('fragment', '<a><b></a>',
     ('error', 'mismatched close tag </a> for <b>', 9)),
    ('fragment', '<a></a',
     ('error', "expected '>'", 6)),
    ('fragment', 'x<',
     ('error', 'expected a name', 2)),
    ('fragment', '<a x=1/>',
     ('error', 'expected quoted attribute value', 5)),
    ('fragment', '&bad;',
     ('error', 'unknown entity &bad;', 5)),
    ('fragment', '&amp',
     ('error', 'unterminated entity reference', 4)),
    ('fragment', 'x &bad; <a/>',
     ('error', 'unknown entity &bad;', 8)),
    ('fragment', '<!-- x',
     ('error', 'unterminated comment', 0)),
    ('fragment', '<![CDATA[x',
     ('error', 'unterminated CDATA', 0)),
    ('fragment', '<?x',
     ('error', 'unterminated PI', 0)),
    ('fragment', '<!x>',
     ('error', 'expected a name', 1)),
    ('fragment', '<a></b >',
     ('error', 'mismatched close tag </b> for <a>', 6)),
    ('fragment', '<a>< /a>',
     ('error', 'expected a name', 4)),
]


def _tree(node: XmlNode):
    if node.is_text:
        return node.value
    return [node.tag, dict(node.attributes), [_tree(c) for c in node.children]]


class TestLexerReproducesTheParserItReplaced:
    @pytest.mark.parametrize(
        "entry,text,expected", PARSER_TABLE,
        ids=[f"{row:03d}-{entry[0]}" for row, entry in enumerate(PARSER_TABLE)])
    def test_table(self, entry, text, expected):
        parse = parse_document if entry == "document" else parse_fragment
        if isinstance(expected, tuple):
            _error, message, offset = expected
            with pytest.raises(XmlParseError) as caught:
                parse(text)
            assert str(caught.value) == f"{message} (at offset {offset})"
            assert caught.value.position == offset
        elif entry == "document":
            assert _tree(parse(text)) == expected
        else:
            nodes = parse(text)
            assert [_tree(node) for node in nodes] == expected
            assert all(node.parent is None for node in nodes)

    def test_deep_nesting_does_not_recurse(self):
        depth = 5000
        node = parse_document("<a>" * depth + "x" + "</a>" * depth)
        for _ in range(depth - 1):
            [node] = node.children
        assert _tree(node) == ["a", {}, ["x"]]

    @pytest.mark.parametrize("text,offset", ids=range(6), argvalues=[
        ("<a>&#xZZ;</a>", 9), ("<a>&#1114112;</a>", 13), ("<a>&#;</a>", 6),
        ("<a>&#-1;</a>", 8), ("<a>&#99999999999999999999;</a>", 26),
        ("<a x='&#xZZ;'/>", 6),
    ])
    def test_bad_character_reference_is_a_parse_error(self, text, offset):
        """Used to escape as the bare ValueError / OverflowError of
        ``int()`` / ``chr()``, with no offset."""
        reference = text[text.index("&"):text.index(";") + 1]
        message = (f"invalid character reference {reference} "
                   f"(at offset {offset})")
        for parse in (parse_document, parse_fragment):
            with pytest.raises(XmlParseError) as caught:
                parse(text)
            assert str(caught.value) == message
        from repro.api import Database
        db = Database()
        db.load("doc.xml", "<doc/>")
        with pytest.raises(XmlParseError) as caught:
            db.update("doc.xml").at("/doc").insert(text, position="into")
        assert str(caught.value) == message
        assert db.storage.node(db.storage.root_key("doc.xml")).children == []


class TestSerializer:
    def test_roundtrip_compact(self):
        text = '<a x="1"><b>t&amp;u</b><c/></a>'
        assert serialize(parse_document(text)) == text

    def test_pretty_print(self):
        out = serialize(parse_document("<a><b>t</b></a>"), indent=2)
        assert "\n" in out and "  <b>t</b>" in out

    def test_fragment_serialization(self):
        nodes = parse_fragment("<a/><b/>")
        assert "".join(map(serialize, nodes)) == "<a/><b/>"

    def test_attr_escaping(self):
        node = XmlNode.element("a", {"x": 'say "hi" & <go>'})
        out = serialize(node)
        assert "&quot;" in out and "&amp;" in out and "&lt;" in out


# -- property: parse(serialize(tree)) is identity on our model -----------------

_tags = st.sampled_from(["a", "b", "c", "item", "x-y"])
_texts = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"),
                           whitelist_characters=" &<>\"'"),
    min_size=1, max_size=12).filter(lambda s: s.strip())


def _trees(depth: int):
    if depth == 0:
        return st.builds(XmlNode.text, _texts)
    return st.one_of(
        st.builds(XmlNode.text, _texts),
        st.builds(
            XmlNode.element,
            _tags,
            st.dictionaries(_tags, _texts, max_size=2),
            st.lists(_trees(depth - 1), max_size=3),
        ),
    )


@settings(max_examples=60)
@given(st.builds(XmlNode.element, _tags,
                 st.dictionaries(_tags, _texts, max_size=2),
                 st.lists(_trees(2), max_size=3)))
def test_serialize_parse_roundtrip(tree):
    parsed = parse_document(serialize(tree))
    # Whitespace-only text nodes are dropped by the parser; our generator
    # never produces them, and adjacent text nodes merge — compare the
    # canonical re-serialization instead of node identity.
    assert serialize(parsed) == serialize(parse_document(serialize(parsed)))


class TestDocument:
    def test_from_string(self):
        doc = XmlDocument.from_string("d.xml", "<a><b/></a>")
        assert doc.name == "d.xml"
        assert doc.node_count() == 2
        assert "XmlDocument" in repr(doc)

    def test_root_must_be_element(self):
        with pytest.raises(ValueError):
            XmlDocument("d", XmlNode.text("x"))
