"""Source-level XQuery normalization (Section 2.3.1).

* **Rule 1** — let-variables are inlined: every occurrence of the variable
  is substituted with its binding expression (the algebraic plan later
  shares the common subexpression, turning the tree into a DAG).
* **Rule 2** — multi-variable for clauses are already kept as ordered
  clause lists by the parser; nothing further is needed.
* **Rule 3** — XPath predicates referring to the navigation's own steps are
  carried on :class:`PathExpr` and lifted into selections by the
  translator.
"""

from __future__ import annotations

from .ast import (BoolAnd, Comparison, ElementConstructor, Expression,
                  FLWOR, ForClause, FunctionCall, NumberLiteral, PathExpr,
                  Sequence, StringLiteral, TextContent, VarRef)


def normalize(expr: Expression) -> Expression:
    """Apply the normalization rules to a parsed query."""
    return _inline_lets(expr, {})


def _inline_lets(expr: Expression, env: dict[str, Expression]) -> Expression:
    if isinstance(expr, FLWOR):
        new_env = dict(env)
        # Let-variables are visible to the whole block (the parser hoists
        # clause order); inline them first, then let for-vars shadow.
        for let in expr.lets:
            new_env[let.var] = _inline_lets(let.binding, new_env)
        fors = []
        for clause in expr.fors:
            fors.append(ForClause(clause.var,
                                  _inline_lets(clause.binding, new_env)))
            new_env.pop(clause.var, None)  # for-vars shadow outer lets
        where = (_inline_lets(expr.where, new_env)
                 if expr.where is not None else None)
        order_by = [_inline_lets(e, new_env) for e in expr.order_by]
        ret = _inline_lets(expr.ret, new_env)
        return FLWOR(fors, [], where, order_by, ret)
    if isinstance(expr, VarRef):
        return env.get(expr.name, expr)
    if isinstance(expr, PathExpr):
        if isinstance(expr.source, VarRef) and expr.source.name in env:
            bound = env[expr.source.name]
            if isinstance(bound, PathExpr):
                merged_preds = dict(bound.predicates)
                offset = len([s for s in bound.path.split("/") if s])
                for idx, preds in expr.predicates.items():
                    merged_preds[idx + offset] = list(preds)
                # Path texts carry their leading slash: plain concatenation.
                merged_path = (bound.path + expr.path if expr.path
                               else bound.path)
                return PathExpr(bound.source, merged_path, merged_preds)
            raise ValueError(
                f"cannot inline let ${expr.source.name} under a path")
        return expr
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, _inline_lets(expr.argument, env))
    if isinstance(expr, Comparison):
        return Comparison(_inline_lets(expr.left, env), expr.op,
                          _inline_lets(expr.right, env))
    if isinstance(expr, BoolAnd):
        return BoolAnd([_inline_lets(c, env) for c in expr.conjuncts])
    if isinstance(expr, ElementConstructor):
        return ElementConstructor(
            expr.tag,
            [(name, _inline_lets(value, env))
             for name, value in expr.attributes],
            [_inline_lets(c, env) for c in expr.content])
    if isinstance(expr, Sequence):
        return Sequence([_inline_lets(i, env) for i in expr.items])
    if isinstance(expr, (StringLiteral, NumberLiteral, TextContent)):
        return expr
    raise TypeError(f"unexpected AST node {expr!r}")
