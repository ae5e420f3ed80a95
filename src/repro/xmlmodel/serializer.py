"""Serialization of :class:`XmlNode` trees back to XML text."""

from __future__ import annotations

from .node import XmlNode


def escape_text(value: str) -> str:
    return (value.replace("&", "&amp;")
                 .replace("<", "&lt;")
                 .replace(">", "&gt;"))


def escape_attr(value: str) -> str:
    return escape_text(value).replace('"', "&quot;")


def serialize(node: XmlNode, indent: int | None = None) -> str:
    """Serialize a node subtree.

    ``indent=None`` produces compact output; an integer pretty-prints with
    that many spaces per level.
    """
    parts: list[str] = []
    _write(node, parts, indent, 0)
    return "".join(parts)


def serialize_fragment(nodes: list[XmlNode], indent: int | None = None) -> str:
    parts: list[str] = []
    for i, node in enumerate(nodes):
        if indent is not None and i > 0:
            parts.append("\n")
        _write(node, parts, indent, 0)
    return "".join(parts)


def _write(node: XmlNode, parts: list[str], indent: int | None,
           depth: int) -> None:
    pad = "" if indent is None else " " * (indent * depth)
    newline = "" if indent is None else "\n"
    if node.is_text:
        parts.append(pad + escape_text(node.value or ""))
        return
    attrs = "".join(f' {name}="{escape_attr(value)}"'
                    for name, value in node.attributes.items())
    if not node.children:
        parts.append(f"{pad}<{node.tag}{attrs}/>")
        return
    only_text = all(child.is_text for child in node.children)
    if only_text:
        text = "".join(escape_text(child.value or "")
                       for child in node.children)
        parts.append(f"{pad}<{node.tag}{attrs}>{text}</{node.tag}>")
        return
    parts.append(f"{pad}<{node.tag}{attrs}>{newline}")
    for i, child in enumerate(node.children):
        _write(child, parts, indent, depth + 1)
        parts.append(newline)
    parts.append(f"{pad}</{node.tag}>")
