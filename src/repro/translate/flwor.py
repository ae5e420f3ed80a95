"""Translation of normalized XQuery ASTs into decorrelated XAT plans.

The paper translates FLWOR blocks into Map-based plans (Fig 2.3) and then
removes the Map operators by pushing them to the linking operators, where
they rewrite into joins (Section 2.4).  This translator produces the
*decorrelated* form directly — the same plans the Rainbow optimizer would
emit — because only decorrelated plans are incrementally maintainable:

* every ``for``/``distinct-values`` clause becomes a Source + Navigate
  chain (its *source unit*);
* WHERE conjuncts linking two units become join conditions, conjuncts
  local to one unit become selections, and conjuncts referencing an
  enclosing block's variables become the LOJ condition that decorrelates
  the nested FLWOR (Left Outer Join so that empty groups keep their shell);
* a correlated inner FLWOR used as element content becomes
  ``GroupBy(outer binders, Combine(result))`` above that LOJ — exactly the
  Fig 2.2 plan shape for the running example;
* ``order by`` becomes an Order By operator above the assembled block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from ..xat import (Aggregate, And, ColumnRef, Combine, Comparison, Distinct,
                   Expose, GroupBy, Join, LeftOuterJoin, Literal,
                   NavigateCollection, NavigateUnnest, Merge, OrderBy, Path,
                   Pattern, Select, Source, Tagger, XatOperator)
from ..xquery import ast
from ..xquery.normalize import normalize


class TranslationError(ValueError):
    """Raised for query shapes outside the supported subset."""


@dataclass
class Block:
    """A translated FLWOR block: plan, variable environment, binder cols."""

    plan: Optional[XatOperator]
    env: dict[str, str] = field(default_factory=dict)
    binders: list[str] = field(default_factory=list)


@dataclass
class _SourceUnit:
    plan: XatOperator
    vars: set[str]
    binder_col: str


class Translator:
    """Stateful translator (fresh column name generation)."""

    def __init__(self):
        self._counter = itertools.count(1)

    def fresh(self, prefix: str = "$col") -> str:
        return f"{prefix}{next(self._counter)}"

    # -- public entry point --------------------------------------------------------

    def translate(self, expr: ast.Expression) -> XatOperator:
        """Translate a parsed query into a prepared, Expose-rooted plan."""
        expr = normalize(expr)
        if isinstance(expr, ast.ElementConstructor):
            block, col = self._constructor_single(expr)
            return Expose(block.plan, col).prepare()
        if isinstance(expr, ast.FLWOR):
            block, col = self.translate_flwor(expr, outer=None)
            combined = Combine(block.plan, col)
            return Expose(combined, col).prepare()
        raise TranslationError(
            f"unsupported top-level expression {type(expr).__name__}")

    # -- single-tuple (top level) context ---------------------------------------------

    def _constructor_single(self, ec: ast.ElementConstructor
                            ) -> tuple[Block, str]:
        """A constructor in single-tuple context (the document element)."""
        block = Block(plan=None)
        content_entries: list[Union[str, tuple[str, str]]] = []
        for entry in ec.content:
            if isinstance(entry, ast.TextContent):
                content_entries.append(("literal", entry.text))
                continue
            sub_block, col = self._single_tuple_content(entry)
            block = self._merge_blocks(block, sub_block)
            content_entries.append(col)
        attributes = []
        for name, value in ec.attributes:
            if isinstance(value, (ast.TextContent, ast.StringLiteral)):
                text = value.text if isinstance(value, ast.TextContent) \
                    else value.value
                attributes.append((name, Literal(text)))
            else:
                raise TranslationError(
                    "top-level constructor attributes must be literals")
        if block.plan is None:
            raise TranslationError("constructor with no query content")
        out = self.fresh()
        tagger = Tagger(block.plan, Pattern(ec.tag, tuple(attributes),
                                            tuple(content_entries)), out)
        return Block(tagger, dict(block.env), list(block.binders)), out

    def _single_tuple_content(self, expr: ast.Expression
                              ) -> tuple[Block, str]:
        """Translate one content expression into a single-tuple block."""
        if isinstance(expr, ast.FLWOR):
            inner, col = self.translate_flwor(expr, outer=None)
            combined = Combine(inner.plan, col)
            return Block(combined), col
        if isinstance(expr, ast.ElementConstructor):
            return self._constructor_single(expr)
        if isinstance(expr, ast.PathExpr) and expr.from_document:
            unit = self._document_unit(expr, self.fresh("$S"), self.fresh())
            combined = Combine(unit.plan, unit.binder_col)
            return Block(combined), unit.binder_col
        if isinstance(expr, ast.FunctionCall):
            return self._aggregate_single(expr)
        raise TranslationError(
            f"unsupported top-level content {type(expr).__name__}")

    def _aggregate_single(self, call: ast.FunctionCall) -> tuple[Block, str]:
        if call.name == "distinct-values":
            raise TranslationError("distinct-values only in for clauses")
        if isinstance(call.argument, ast.FLWOR):
            inner, col = self.translate_flwor(call.argument, outer=None)
            out = self.fresh()
            return Block(Aggregate(inner.plan, call.name, col, out)), out
        if isinstance(call.argument, ast.PathExpr) \
                and call.argument.from_document:
            unit = self._document_unit(call.argument, self.fresh("$S"),
                                       self.fresh())
            out = self.fresh()
            return Block(Aggregate(unit.plan, call.name,
                                   unit.binder_col, out)), out
        raise TranslationError("unsupported aggregate argument")

    def _merge_blocks(self, left: Block, right: Block) -> Block:
        if left.plan is None:
            return right
        if right.plan is None:
            return left
        merged = Merge(left.plan, right.plan)
        env = dict(left.env)
        env.update(right.env)
        return Block(merged, env, left.binders + right.binders)

    # -- FLWOR translation ----------------------------------------------------------------

    def translate_flwor(self, flwor: ast.FLWOR, outer: Optional[Block]
                        ) -> tuple[Block, str]:
        """Translate a FLWOR; ``outer`` is the enclosing (correlated) block.

        When ``outer`` is given, the result block *includes* the outer plan:
        it is ``GroupBy(outer binders, Combine(result))`` over
        ``LOJ(outer, inner)`` and replaces the outer block upstream.
        """
        units: list[_SourceUnit] = []
        env: dict[str, str] = {}
        binders: list[str] = []

        def unit_of_var(var: str) -> Optional[_SourceUnit]:
            for unit in units:
                if var in unit.vars:
                    return unit
            return None

        for clause in flwor.fors:
            self._add_for_clause(clause, units, env, binders,
                                 unit_of_var, outer)

        # Classify WHERE conjuncts.
        local_selects: list[tuple[_SourceUnit, Comparison]] = []
        join_conds: list[tuple[_SourceUnit, _SourceUnit, Comparison]] = []
        linking: list[Comparison] = []
        for conj in _conjuncts(flwor.where):
            sides = []
            for operand in (conj.left, conj.right):
                sides.append(self._operand_info(operand, env,
                                                outer.env if outer else {}))
            (l_kind, l_ref), (r_kind, r_ref) = sides
            comparison = self._build_comparison(conj, sides, env,
                                                unit_of_var, outer)
            kinds = {l_kind, r_kind}
            if "outer" in kinds:
                linking.append(comparison)
            else:
                involved = {ref for kind, ref in sides if kind == "inner"}
                involved_units = {id(unit_of_var(v)) for v in involved}
                if len(involved_units) >= 2:
                    a = unit_of_var(next(iter(involved)))
                    b = None
                    for v in involved:
                        candidate = unit_of_var(v)
                        if candidate is not a:
                            b = candidate
                    join_conds.append((a, b, comparison))
                else:
                    unit = unit_of_var(next(iter(involved)))
                    local_selects.append((unit, comparison))

        # Apply local selections, then assemble units via joins.
        for unit, comparison in local_selects:
            unit.plan = Select(unit.plan, comparison)
        plan = self._assemble_units(units, join_conds)
        block = Block(plan, env, binders)

        # Order by (applies within the block; Order Schema propagates).
        if flwor.order_by:
            block = self._apply_order_by(block, flwor.order_by)

        # Return clause.
        block, result_col = self._translate_return(block, flwor.ret)

        if outer is None:
            return block, result_col
        # Decorrelate: LOJ(outer, inner) + GroupBy(outer binders, Combine).
        if block.plan is None:
            raise TranslationError("correlated FLWOR with no sources")
        condition = _combine_conditions(linking)
        if condition is None:
            raise TranslationError(
                "correlated FLWOR without a linking condition")
        loj = LeftOuterJoin(outer.plan, block.plan, condition)
        grouped = GroupBy(loj, tuple(outer.binders), combine_col=result_col)
        merged_env = dict(outer.env)
        new_block = Block(grouped, merged_env, list(outer.binders))
        return new_block, result_col

    # -- for clauses ---------------------------------------------------------------------

    def _add_for_clause(self, clause, units, env, binders,
                        unit_of_var, outer: Optional[Block]) -> None:
        binding = clause.binding
        col = self.fresh(f"${clause.var}_")
        if isinstance(binding, ast.FunctionCall) \
                and binding.name == "distinct-values":
            arg = binding.argument
            if not (isinstance(arg, ast.PathExpr) and arg.from_document):
                raise TranslationError(
                    "distinct-values requires a document path")
            if not Path.parse(arg.path).ends_in_value:
                # distinct-values atomizes: bind the nodes' string values.
                arg = ast.PathExpr(arg.source, arg.path + "/text()",
                                   arg.predicates)
            unit = self._document_unit(arg, self.fresh("$S"), col)
            unit.plan = Distinct(unit.plan, col)
            unit.vars.add(clause.var)
            units.append(unit)
            env[clause.var] = col
            binders.append(col)
            return
        if isinstance(binding, ast.PathExpr) and binding.from_document:
            unit = self._document_unit(binding, self.fresh("$S"), col)
            unit.vars.add(clause.var)
            units.append(unit)
            env[clause.var] = col
            binders.append(col)
            return
        if isinstance(binding, ast.PathExpr):
            var = binding.source.name
            unit = unit_of_var(var)
            if unit is not None:
                unit.plan = self._navigate_binding(unit.plan, f"${var}",
                                                   binding, col,
                                                   keep_empty=False)
                unit.vars.add(clause.var)
                env[clause.var] = col
                binders.append(col)
                return
            if outer is not None and var in outer.env:
                raise TranslationError(
                    "for-bindings from an outer variable are supported via "
                    "path content, not as inner for clauses")
            raise TranslationError(f"unbound variable ${var} in for clause")
        raise TranslationError(
            f"unsupported for binding {type(binding).__name__}")

    def _document_unit(self, path_expr: ast.PathExpr, source_col: str,
                       out_col: str) -> _SourceUnit:
        source = Source(path_expr.source, source_col)
        plan = self._navigate_binding(source, source_col, path_expr, out_col,
                                      keep_empty=False)
        return _SourceUnit(plan, set(), out_col)

    def _navigate_binding(self, plan: XatOperator, from_col: str,
                          path_expr: ast.PathExpr, out_col: str,
                          keep_empty: bool) -> XatOperator:
        """Navigate (unnest), lifting step predicates into selections."""
        steps = Path.parse(path_expr.path).steps
        predicates = path_expr.predicates
        current_col = from_col
        segment: list = []
        for index, step in enumerate(steps):
            segment.append(step)
            if index in predicates:
                mid_col = (out_col if index == len(steps) - 1
                           else self.fresh())
                plan = NavigateUnnest(plan, current_col, Path(tuple(segment)),
                                      mid_col, keep_empty=keep_empty)
                for pred in predicates[index]:
                    plan = self._apply_predicate(plan, mid_col, pred)
                current_col = mid_col
                segment = []
        if segment:
            plan = NavigateUnnest(plan, current_col, Path(tuple(segment)),
                                  out_col, keep_empty=keep_empty)
        return plan

    def _apply_predicate(self, plan: XatOperator, col: str,
                         pred: ast.PredicateExpr) -> XatOperator:
        if pred.path == "position()":
            raise TranslationError(
                "positional predicates are only supported in update targets")
        probe = self.fresh()
        plan = NavigateCollection(plan, col, Path.parse(pred.path), probe)
        return Select(plan, Comparison(ColumnRef(probe), pred.op,
                                       Literal(pred.literal)))

    # -- WHERE helpers ----------------------------------------------------------------------

    def _operand_info(self, operand, env: dict[str, str],
                      outer_env: dict[str, str]):
        if isinstance(operand, (ast.StringLiteral, ast.NumberLiteral)):
            return ("literal", operand.value)
        if isinstance(operand, ast.VarRef):
            if operand.name in env:
                return ("inner", operand.name)
            if operand.name in outer_env:
                return ("outer", operand.name)
            raise TranslationError(f"unbound variable ${operand.name}")
        if isinstance(operand, ast.PathExpr) and not operand.from_document:
            var = operand.source.name
            if var in env:
                return ("inner", var)
            if var in outer_env:
                return ("outer", var)
            raise TranslationError(f"unbound variable ${var}")
        raise TranslationError("unsupported WHERE operand")

    def _build_comparison(self, conj: ast.Comparison, sides,
                          env: dict[str, str], unit_of_var,
                          outer: Optional[Block]) -> Comparison:
        operands = []
        for operand, (kind, ref) in zip((conj.left, conj.right), sides):
            if kind == "literal":
                operands.append(Literal(ref))
                continue
            if isinstance(operand, ast.VarRef):
                col = outer.env[ref] if kind == "outer" else env[ref]
                operands.append(ColumnRef(col))
                continue
            # PathExpr from a variable: add a Navigate Collection.
            var = operand.source.name
            probe = self.fresh()
            path = Path.parse(operand.path)
            if kind == "outer":
                outer.plan = NavigateCollection(outer.plan, outer.env[var],
                                                path, probe)
            else:
                unit = unit_of_var(var)
                unit.plan = NavigateCollection(unit.plan, env[var], path,
                                               probe)
            operands.append(ColumnRef(probe))
        return Comparison(operands[0], conj.op, operands[1])

    def _assemble_units(self, units: list[_SourceUnit],
                        join_conds) -> Optional[XatOperator]:
        if not units:
            return None
        remaining = list(units)
        conds = list(join_conds)
        current = remaining.pop(0)
        plan = current.plan
        merged_units = {id(current)}
        while remaining:
            progressed = False
            for index, (a, b, comparison) in enumerate(conds):
                ids = {id(a), id(b)}
                inside = ids & merged_units
                outside = ids - merged_units
                if inside and outside:
                    next_unit = a if id(a) in outside else b
                    remaining.remove(next_unit)
                    plan = Join(plan, next_unit.plan, comparison)
                    merged_units.add(id(next_unit))
                    conds.pop(index)
                    progressed = True
                    break
                if inside and not outside:
                    plan = Select(plan, comparison)
                    conds.pop(index)
                    progressed = True
                    break
            if not progressed:
                from ..xat import CartesianProduct
                next_unit = remaining.pop(0)
                plan = CartesianProduct(plan, next_unit.plan)
                merged_units.add(id(next_unit))
        for _a, _b, comparison in conds:
            plan = Select(plan, comparison)
        return plan

    # -- ORDER BY ---------------------------------------------------------------------------

    def _apply_order_by(self, block: Block,
                        order_exprs: list[ast.Expression]) -> Block:
        cols = []
        plan = block.plan
        for expr in order_exprs:
            if isinstance(expr, ast.VarRef):
                cols.append(block.env[expr.name])
            elif isinstance(expr, ast.PathExpr) \
                    and not expr.from_document:
                probe = self.fresh()
                plan = NavigateCollection(plan, block.env[expr.source.name],
                                          Path.parse(expr.path), probe)
                cols.append(probe)
            else:
                raise TranslationError("unsupported order-by expression")
        return Block(OrderBy(plan, cols), block.env, block.binders)

    # -- RETURN -----------------------------------------------------------------------------

    def _translate_return(self, block: Block, ret: ast.Expression
                          ) -> tuple[Block, str]:
        if isinstance(ret, ast.VarRef):
            return block, block.env[ret.name]
        if isinstance(ret, ast.PathExpr) and not ret.from_document:
            probe = self.fresh()
            plan = NavigateCollection(block.plan,
                                      block.env[ret.source.name],
                                      Path.parse(ret.path), probe)
            return Block(plan, block.env, block.binders), probe
        if isinstance(ret, ast.ElementConstructor):
            return self._constructor_tuple(block, ret)
        if isinstance(ret, ast.Sequence):
            cols = []
            for item in ret.items:
                block, col = self._translate_return(block, item)
                cols.append(col)
            out = cols[0]
            from ..xat import XmlUnion
            for other in cols[1:]:
                merged = self.fresh()
                block = Block(XmlUnion(block.plan, out, other, merged),
                              block.env, block.binders)
                out = merged
            return block, out
        raise TranslationError(
            f"unsupported return expression {type(ret).__name__}")

    def _constructor_tuple(self, block: Block, ec: ast.ElementConstructor
                           ) -> tuple[Block, str]:
        """A constructor evaluated once per tuple of ``block``."""
        attributes = []
        for name, value in ec.attributes:
            block, operand = self._attribute_operand(block, value)
            attributes.append((name, operand))
        content_entries: list[Union[str, tuple[str, str]]] = []
        for entry in ec.content:
            if isinstance(entry, ast.TextContent):
                content_entries.append(("literal", entry.text))
                continue
            block, col = self._content_column(block, entry)
            content_entries.append(col)
        out = self.fresh()
        tagger = Tagger(block.plan, Pattern(ec.tag, tuple(attributes),
                                            tuple(content_entries)), out)
        return Block(tagger, block.env, block.binders), out

    def _attribute_operand(self, block: Block, value: ast.Expression):
        if isinstance(value, (ast.TextContent, ast.StringLiteral)):
            text = value.text if isinstance(value, ast.TextContent) \
                else value.value
            return block, Literal(text)
        if isinstance(value, ast.VarRef):
            return block, ColumnRef(block.env[value.name])
        if isinstance(value, ast.PathExpr) and not value.from_document:
            probe = self.fresh()
            plan = NavigateCollection(block.plan,
                                      block.env[value.source.name],
                                      Path.parse(value.path), probe)
            return (Block(plan, block.env, block.binders),
                    ColumnRef(probe))
        raise TranslationError("unsupported attribute value expression")

    def _content_column(self, block: Block, entry: ast.Expression
                        ) -> tuple[Block, str]:
        if isinstance(entry, ast.VarRef):
            return block, block.env[entry.name]
        if isinstance(entry, ast.PathExpr) and not entry.from_document:
            probe = self.fresh()
            plan = NavigateCollection(block.plan,
                                      block.env[entry.source.name],
                                      Path.parse(entry.path), probe)
            return Block(plan, block.env, block.binders), probe
        if isinstance(entry, ast.ElementConstructor):
            return self._constructor_tuple(block, entry)
        if isinstance(entry, ast.FLWOR):
            inner_block, col = self.translate_flwor(entry, outer=block)
            return inner_block, col
        if isinstance(entry, ast.FunctionCall):
            if isinstance(entry.argument, ast.FLWOR):
                # aggregate over a correlated FLWOR: GroupBy with aggregate
                return self._correlated_aggregate(block, entry)
            if isinstance(entry.argument, ast.PathExpr) \
                    and not entry.argument.from_document:
                from ..xat.grouping import TupleFunction
                probe = self.fresh()
                arg = entry.argument
                plan = NavigateCollection(block.plan,
                                          block.env[arg.source.name],
                                          Path.parse(arg.path), probe)
                out = self.fresh()
                plan = TupleFunction(plan, entry.name, probe, out)
                return Block(plan, block.env, block.binders), out
        raise TranslationError(
            f"unsupported content expression {type(entry).__name__}")

    def _correlated_aggregate(self, block: Block, call: ast.FunctionCall
                              ) -> tuple[Block, str]:
        flwor = call.argument
        inner = self._inner_for_aggregate(flwor, block)
        inner_block, result_col, linking = inner
        condition = _combine_conditions(linking)
        if condition is None:
            raise TranslationError(
                "correlated aggregate FLWOR needs a linking condition")
        loj = LeftOuterJoin(block.plan, inner_block.plan, condition)
        out = self.fresh()
        grouped = GroupBy(loj, tuple(block.binders),
                          agg=(call.name, result_col, out))
        return Block(grouped, dict(block.env), list(block.binders)), out

    def _inner_for_aggregate(self, flwor: ast.FLWOR, outer: Block):
        """Like translate_flwor(outer=...) but stopping before grouping."""
        saved = outer.binders
        # Reuse translate_flwor machinery by intercepting: translate with
        # outer=None, collecting linking conditions manually.
        units: list[_SourceUnit] = []
        env: dict[str, str] = {}
        binders: list[str] = []

        def unit_of_var(var):
            for unit in units:
                if var in unit.vars:
                    return unit
            return None

        for clause in flwor.fors:
            self._add_for_clause(clause, units, env, binders,
                                 unit_of_var, outer)
        local_selects = []
        join_conds = []
        linking = []
        for conj in _conjuncts(flwor.where):
            sides = [self._operand_info(op, env, outer.env)
                     for op in (conj.left, conj.right)]
            comparison = self._build_comparison(conj, sides, env,
                                                unit_of_var, outer)
            if any(kind == "outer" for kind, _ in sides):
                linking.append(comparison)
            else:
                involved = {ref for kind, ref in sides if kind == "inner"}
                involved_units = {id(unit_of_var(v)) for v in involved}
                if len(involved_units) >= 2:
                    values = list(involved)
                    a = unit_of_var(values[0])
                    b = next(unit_of_var(v) for v in values
                             if unit_of_var(v) is not a)
                    join_conds.append((a, b, comparison))
                else:
                    local_selects.append(
                        (unit_of_var(next(iter(involved))), comparison))
        for unit, comparison in local_selects:
            unit.plan = Select(unit.plan, comparison)
        plan = self._assemble_units(units, join_conds)
        inner_block = Block(plan, env, binders)
        inner_block, result_col = self._translate_return(inner_block,
                                                         flwor.ret)
        outer.binders = saved
        return inner_block, result_col, linking


def _conjuncts(where: Optional[ast.Expression]) -> list[ast.Comparison]:
    if where is None:
        return []
    if isinstance(where, ast.BoolAnd):
        result = []
        for c in where.conjuncts:
            result.extend(_conjuncts(c))
        return result
    if isinstance(where, ast.Comparison):
        return [where]
    raise TranslationError("unsupported WHERE expression")


def _combine_conditions(comparisons: list[Comparison]):
    if not comparisons:
        return None
    if len(comparisons) == 1:
        return comparisons[0]
    return And(tuple(comparisons))


def translate_query(text: str) -> XatOperator:
    """Parse + normalize + translate an XQuery string into a prepared plan."""
    from ..xquery.parser import parse_query

    return Translator().translate(parse_query(text))
