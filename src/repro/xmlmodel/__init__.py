"""XML data model, parser, and serializer (Section 2.2.1)."""

from .node import ELEMENT, TEXT, XmlNode
from .document import XmlDocument
from .parser import XmlParseError, parse_document, parse_fragment
from .serializer import serialize

__all__ = [
    "ELEMENT",
    "TEXT",
    "XmlDocument",
    "XmlNode",
    "XmlParseError",
    "parse_document",
    "parse_fragment",
    "serialize",
]
