"""Recursive-descent parser for the XQuery subset of Fig 2.1.

Character-level (no separate lexer) because element constructors switch the
language mode mid-stream: ``<result>{ FLWOR }</result>`` mixes XML content
with query expressions inside ``{ }``.
"""

from __future__ import annotations

import sys

from .ast import (BoolAnd, Comparison, ElementConstructor, Expression,
                  FLWOR, ForClause, FunctionCall, LetClause, NumberLiteral,
                  PathExpr, PredicateExpr, Sequence, StringLiteral,
                  TextContent, VarRef)

_KEYWORDS = {"for", "let", "where", "order", "by", "return", "in", "and"}
_FUNCTIONS = {"distinct-values", "count", "sum", "avg", "min", "max"}
_COMPARE_OPS = ("!=", "<=", ">=", "=", "<", ">")


class XQueryParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def parse_query(text: str) -> Expression:
    """Parse a complete query expression."""
    parser = XQueryParser(text)
    expr = parser.parse_expression()
    parser.skip_ws()
    if not parser.at_end():
        raise XQueryParseError("trailing input after query", parser.pos)
    return expr


class XQueryParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    # -- low level ------------------------------------------------------------------

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.text[idx] if idx < len(self.text) else ""

    def skip_ws(self) -> None:
        while not self.at_end():
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif self.text.startswith("(:", self.pos):
                end = self.text.find(":)", self.pos)
                if end < 0:
                    raise XQueryParseError("unterminated comment", self.pos)
                self.pos = end + 2
            else:
                return

    def error(self, message: str) -> XQueryParseError:
        return XQueryParseError(message, self.pos)

    def expect(self, token: str) -> None:
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def try_token(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def peek_keyword(self, word: str) -> bool:
        """Case-insensitive keyword lookahead (paper figures use FOR/WHERE)."""
        self.skip_ws()
        if self.text[self.pos:self.pos + len(word)].lower() != word.lower():
            return False
        after = self.peek(len(word))
        return not (after.isalnum() or after in "_-")

    def take_keyword(self, word: str) -> bool:
        if self.peek_keyword(word):
            self.pos += len(word)
            return True
        return False

    def parse_name(self) -> str:
        self.skip_ws()
        start = self.pos
        while not self.at_end():
            ch = self.text[self.pos]
            if ch.isalnum() or ch in "_-.":
                self.pos += 1
            else:
                break
        if self.pos == start:
            raise self.error("expected a name")
        return sys.intern(self.text[start:self.pos])   # as documents' are

    def parse_string(self) -> str:
        self.skip_ws()
        quote = self.peek()
        pairs = {"'": "'", '"': '"', "“": "”"}
        if quote not in pairs:
            raise self.error("expected a string literal")
        self.pos += 1
        end = self.text.find(pairs[quote], self.pos)
        if end < 0:
            raise self.error("unterminated string literal")
        value = self.text[self.pos:end]
        self.pos = end + 1
        return value

    # -- expressions -------------------------------------------------------------------

    def parse_expression(self) -> Expression:
        self.skip_ws()
        if self.peek_keyword("for") or self.peek_keyword("let"):
            return self.parse_flwor()
        return self.parse_single()

    def parse_single(self) -> Expression:
        self.skip_ws()
        ch = self.peek()
        if ch == "<":
            return self.parse_constructor()
        if ch == "(":
            self.pos += 1
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if ch in ("'", '"'):
            return StringLiteral(self.parse_string())
        if ch.isdigit() or (ch == "-" and self.peek(1).isdigit()):
            return self.parse_number()
        if ch == "$":
            return self.parse_var_path()
        # function call or doc(...) path
        save = self.pos
        name = self.parse_name()
        self.skip_ws()
        if name in ("doc", "document") and self.peek() == "(":
            return self.parse_doc_path()
        if name in _FUNCTIONS and self.peek() == "(":
            self.expect("(")
            argument = self.parse_expression()
            self.expect(")")
            # allow a trailing path on distinct-values(doc(..)/a/@b) form
            return FunctionCall(name, argument)
        self.pos = save
        raise self.error(f"unexpected token near {self.text[self.pos:self.pos+20]!r}")

    def parse_number(self) -> NumberLiteral:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while not self.at_end() and (self.peek().isdigit() or self.peek() == "."):
            self.pos += 1
        return NumberLiteral(self.text[start:self.pos])

    # -- paths -----------------------------------------------------------------------

    def parse_var_path(self) -> Expression:
        self.expect("$")
        name = self.parse_name()
        path, predicates = self._parse_relative_path()
        if not path:
            return VarRef(name)
        return PathExpr(VarRef(name), path, predicates)

    def parse_doc_path(self) -> PathExpr:
        self.expect("(")
        doc_name = self.parse_string()
        self.expect(")")
        path, predicates = self._parse_relative_path()
        return PathExpr(doc_name, path, predicates)

    def _parse_relative_path(self) -> tuple[str, dict[int, list[PredicateExpr]]]:
        """Steps after the entry point; returns (path text, predicates)."""
        parts: list[str] = []
        predicates: dict[int, list[PredicateExpr]] = {}
        step_index = -1
        while True:
            if self.text.startswith("//", self.pos):
                self.pos += 2
                sep = "//"
            elif self.peek() == "/":
                self.pos += 1
                sep = "/"
            else:
                break
            # step name: @name, text(), or element name
            if self.peek() == "@":
                self.pos += 1
                name = "@" + self.parse_name()
            else:
                name = self.parse_name()
                if name == "text" and self.peek() == "(":
                    self.expect("(")
                    self.expect(")")
                    name = "text()"
            parts.append(("//" if sep == "//" else "/") + name)
            step_index += 1
            while self.peek() == "[":
                predicates.setdefault(step_index, []).append(
                    self._parse_predicate())
        return "".join(parts), predicates

    def _parse_predicate(self) -> PredicateExpr:
        self.expect("[")
        self.skip_ws()
        if self.peek().isdigit():
            # positional predicate: only allowed in update targets
            start = self.pos
            while self.peek().isdigit():
                self.pos += 1
            position = self.text[start:self.pos]
            self.expect("]")
            return PredicateExpr("position()", "=", position)
        path_parts = []
        while True:
            if self.peek() == "@":
                self.pos += 1
                path_parts.append("@" + self.parse_name())
            else:
                name = self.parse_name()
                if name == "text" and self.peek() == "(":
                    self.expect("(")
                    self.expect(")")
                    name = "text()"
                path_parts.append(name)
            if self.peek() == "/":
                self.pos += 1
                continue
            break
        self.skip_ws()
        for op in _COMPARE_OPS:
            if self.try_token(op):
                self.skip_ws()
                value = self.parse_string() if self.peek() in "'\"" \
                    else self.parse_number().value
                self.expect("]")
                return PredicateExpr("/".join(path_parts), op, value)
        raise self.error("expected comparison operator in predicate")

    # -- FLWOR -------------------------------------------------------------------------

    def parse_flwor(self) -> FLWOR:
        fors: list[ForClause] = []
        lets: list[LetClause] = []
        while True:
            if self.take_keyword("for"):
                while True:
                    self.expect("$")
                    var = self.parse_name()
                    if not (self.take_keyword("in") or self.take_keyword("IN")):
                        raise self.error("expected 'in'")
                    fors.append(ForClause(var, self.parse_single()))
                    if not self.try_token(","):
                        break
                    self.skip_ws()
                    # a comma may also start another "for $x in"-style binding
                    if self.peek_keyword("for"):
                        self.take_keyword("for")
                continue
            if self.take_keyword("let"):
                while True:
                    self.expect("$")
                    var = self.parse_name()
                    self.expect(":=")
                    lets.append(LetClause(var, self.parse_single()))
                    if not self.try_token(","):
                        break
                continue
            break
        where = None
        if self.take_keyword("where"):
            where = self.parse_condition()
        order_by: list[Expression] = []
        if self.take_keyword("order"):
            if not self.take_keyword("by"):
                raise self.error("expected 'by'")
            while True:
                order_by.append(self.parse_single())
                if not self.try_token(","):
                    break
        if not self.take_keyword("return"):
            raise self.error("expected 'return'")
        ret = self.parse_return_expr()
        return FLWOR(fors, lets, where, order_by, ret)

    def parse_condition(self) -> Expression:
        conjuncts = [self.parse_comparison()]
        while self.take_keyword("and"):
            conjuncts.append(self.parse_comparison())
        if len(conjuncts) == 1:
            return conjuncts[0]
        return BoolAnd(conjuncts)

    def parse_comparison(self) -> Comparison:
        left = self.parse_single()
        self.skip_ws()
        for op in _COMPARE_OPS:
            if self.try_token(op):
                right = self.parse_single()
                return Comparison(left, "=" if op == "==" else op, right)
        raise self.error("expected comparison operator")

    def parse_return_expr(self) -> Expression:
        self.skip_ws()
        items = [self.parse_expression()]
        while self.try_token(","):
            items.append(self.parse_expression())
        # Adjacent { } groups in return clauses arrive via constructors;
        # a bare juxtaposition like {$a} {$b} only occurs inside content.
        if len(items) == 1:
            return items[0]
        return Sequence(items)

    # -- element constructors --------------------------------------------------------------

    def parse_constructor(self) -> ElementConstructor:
        self.expect("<")
        tag = self.parse_name()
        attributes: list[tuple[str, Expression]] = []
        while True:
            self.skip_ws()
            if self.try_token("/>"):
                return ElementConstructor(tag, attributes, [])
            if self.try_token(">"):
                break
            attr = self.parse_name()
            self.expect("=")
            self.skip_ws()
            quote = self.peek()
            if quote not in ("'", '"', "“"):
                raise self.error("expected quoted attribute value")
            self.pos += 1
            value = self._parse_attribute_value(quote)
            attributes.append((attr, value))
        content = self._parse_content(tag)
        return ElementConstructor(tag, attributes, content)

    def _parse_attribute_value(self, quote: str) -> Expression:
        closer = "”" if quote == "“" else quote
        parts: list[Expression] = []
        buffer: list[str] = []
        while True:
            if self.at_end():
                raise self.error("unterminated attribute value")
            ch = self.peek()
            if ch == closer or (quote == "“" and ch == "“"):
                self.pos += 1
                break
            if ch == "{":
                if buffer:
                    parts.append(TextContent("".join(buffer)))
                    buffer = []
                self.pos += 1
                parts.append(self.parse_expression())
                self.expect("}")
                continue
            buffer.append(ch)
            self.pos += 1
        if buffer:
            text = "".join(buffer)
            if text.strip():
                parts.append(TextContent(text))
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return TextContent("")
        return Sequence(parts)

    def _parse_content(self, tag: str) -> list[Expression]:
        content: list[Expression] = []
        buffer: list[str] = []

        def flush():
            if buffer:
                text = "".join(buffer).strip()
                if text:
                    content.append(TextContent(text))
                buffer.clear()

        while True:
            if self.at_end():
                raise self.error(f"unterminated constructor <{tag}>")
            if self.text.startswith("</", self.pos):
                flush()
                self.pos += 2
                name = self.parse_name()
                if name != tag:
                    raise self.error(
                        f"mismatched close tag </{name}> for <{tag}>")
                self.expect(">")
                return content
            ch = self.peek()
            if ch == "{":
                flush()
                self.pos += 1
                content.append(self.parse_expression())
                self.expect("}")
                continue
            if ch == "<":
                # A nested constructor, or a FLWOR keyword would have been
                # inside braces; bare '<' means nested element.
                flush()
                content.append(self.parse_constructor())
                continue
            # Bare FLWOR inside element content (the paper writes
            # <books> FOR ... </books> without braces).  peek_keyword skips
            # whitespace as a side effect, so save/restore the position.
            if not "".join(buffer).strip():
                saved = self.pos
                if self.peek_keyword("for"):
                    flush()
                    content.append(self.parse_flwor())
                    continue
                self.pos = saved
            buffer.append(ch)
            self.pos += 1
