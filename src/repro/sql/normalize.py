"""Canonicalization of SQL queries for string-based comparison and caching.

Two canonicalizers live here, with different soundness contracts:

``normalize_sql`` maps semantically-irrelevant surface variation onto one
canonical text: keyword casing, whitespace, identifier casing, table alias
names (renamed positionally to ``t1``, ``t2``, ...), and redundant
projection aliases are all erased.  The exact-string-match metric compares
normalized forms, which is exactly the leniency the survey attributes to
"Exact String Match" tooling in practice (it still cannot see through
semantically equivalent but structurally different queries — that is the
documented disadvantage reproduced by the Table 3 benchmark).  It is
*lenient*: two queries sharing a normalized form may differ in output
column names or (for pathological alias shadowing) even results.

``canonical_query`` / ``canonical_cache_key`` are the **strict**
canonicalizer backing the result cache (:mod:`repro.sql.rescache`).  Its
contract is: ``canonical_cache_key(a) == canonical_cache_key(b)`` implies
``execute(a, db)`` and ``execute(b, db)`` are byte-identical — same
columns, same rows in the same order, same ``ordered`` flag — and that
``a`` raises iff ``b`` raises.  Every rewrite below is individually safe
under that contract:

- identifier/keyword case folding and whitespace (via the canonical
  unparser) — pure surface;
- capture-free table alias renaming: binding *names* are renamed by one
  injective map applied uniformly across all scopes (same original name →
  same fresh name everywhere), so qualified-reference resolution and
  cross-scope shadowing patterns are preserved exactly; fresh names avoid
  every unbound qualifier appearing in the query, so a dangling reference
  can never be captured into resolving;
- commutative reordering: AND/OR chains are flattened and sorted (both
  engines evaluate boolean operands eagerly, so error behaviour is
  order-invariant, and Kleene AND/OR are associative-commutative);
  ``=``/``<>``/``*`` operands are sorted (``compare_values`` is symmetric,
  numeric ``*`` is exactly commutative, and non-numeric ``*`` errors
  either way); ``>``/``>=`` fold to ``<``/``<=`` with swapped operands.
  ``+`` is deliberately *not* reordered (string concatenation);
- IN-list sorting and deduplication (``_eval_in`` scans the whole list on
  a non-match, so membership and the saw-NULL outcome are set properties);
- GROUP BY key sorting (the partition, first-seen group order, and
  projected rows are invariant under a consistent key permutation).

Because output column names derive from each projection item's *original*
surface text (and star expansion from the original binding names),
``canonical_cache_key`` pairs the canonical text with a name signature
computed from the unrewritten query; two queries share a cache key only
when both components agree.
"""

from __future__ import annotations

from repro.sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Exists,
    Expr,
    FromClause,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Join,
    Like,
    Literal,
    OrderItem,
    Query,
    ScalarSubquery,
    Select,
    SelectItem,
    SetOperation,
    Star,
    TableRef,
    UnaryOp,
    from_tables,
    walk,
)
from repro.sql.parser import parse_sql
from repro.sql.unparser import to_sql


def normalize_sql(sql: str) -> str:
    """Return the canonical text of *sql* (parse, canonicalize, unparse)."""
    return to_sql(normalize_query(parse_sql(sql)))


def normalize_query(query: Query) -> Query:
    """Canonicalize a parsed query AST (see module docstring)."""
    return _norm_query(query, parent_renames={})


def _norm_query(query: Query, parent_renames: dict[str, str]) -> Query:
    if isinstance(query, SetOperation):
        return SetOperation(
            op=query.op,
            left=_norm_query(query.left, parent_renames),
            right=_norm_query(query.right, parent_renames),
        )
    return _norm_select(query, parent_renames)


def _norm_select(select: Select, parent_renames: dict[str, str]) -> Select:
    # Build the alias renaming map: every table binding becomes t<i>, in
    # FROM order; single-table queries drop the alias entirely.
    tables = from_tables(select.from_)
    renames = dict(parent_renames)
    single = len(tables) == 1
    for index, ref in enumerate(tables, start=1):
        if single:
            renames[ref.binding] = ref.name.lower()
        else:
            renames[ref.binding] = f"t{index}"

    # qualifiers are droppable only for bindings local to this single-table
    # select; correlated references to outer tables keep their qualifier.
    droppable = {ref.binding for ref in tables} if single else set()

    from_ = _norm_from(select.from_, renames, droppable)
    return Select(
        items=tuple(
            SelectItem(expr=_norm_expr(item.expr, renames, droppable), alias=None)
            for item in select.items
        ),
        from_=from_,
        where=_norm_opt(select.where, renames, droppable),
        group_by=tuple(_norm_expr(e, renames, droppable) for e in select.group_by),
        having=_norm_opt(select.having, renames, droppable),
        order_by=tuple(
            OrderItem(
                expr=_norm_expr(o.expr, renames, droppable),
                descending=o.descending,
            )
            for o in select.order_by
        ),
        limit=select.limit,
        distinct=select.distinct,
    )


def _norm_from(
    clause: FromClause | None, renames: dict[str, str], droppable: set[str]
) -> FromClause | None:
    if clause is None:
        return None
    if isinstance(clause, TableRef):
        return _norm_table(clause, renames, droppable)
    return Join(
        left=_norm_from(clause.left, renames, droppable),
        right=_norm_table(clause.right, renames, droppable),
        kind=clause.kind,
        condition=(
            _norm_expr(clause.condition, renames, droppable)
            if clause.condition is not None
            else None
        ),
    )


def _norm_table(
    ref: TableRef, renames: dict[str, str], droppable: set[str]
) -> TableRef:
    name = ref.name.lower()
    new_alias = renames.get(ref.binding)
    if ref.binding in droppable or new_alias == name:
        return TableRef(name=name, alias=None)
    return TableRef(name=name, alias=new_alias)


def _norm_opt(
    expr: Expr | None, renames: dict[str, str], droppable: set[str]
) -> Expr | None:
    return None if expr is None else _norm_expr(expr, renames, droppable)


def _norm_expr(expr: Expr, renames: dict[str, str], droppable: set[str]) -> Expr:
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, ColumnRef):
        column = expr.column.lower()
        if expr.table is None:
            return ColumnRef(column=column)
        binding = expr.table.lower()
        if binding in droppable:
            return ColumnRef(column=column)
        return ColumnRef(column=column, table=renames.get(binding, binding))
    if isinstance(expr, Star):
        if expr.table is None:
            return expr
        binding = expr.table.lower()
        if binding in droppable:
            return Star()
        return Star(table=renames.get(binding, binding))
    if isinstance(expr, FuncCall):
        return FuncCall(
            name=expr.name.lower(),
            args=tuple(_norm_expr(a, renames, droppable) for a in expr.args),
            distinct=expr.distinct,
        )
    if isinstance(expr, BinaryOp):
        left = _norm_expr(expr.left, renames, droppable)
        right = _norm_expr(expr.right, renames, droppable)
        op = expr.op
        # order commutative comparisons/ops canonically: literal on the right
        if op in ("=", "<>", "+", "*", "and", "or"):
            if isinstance(left, Literal) and not isinstance(right, Literal):
                left, right = right, left
                if op in ("<", ">"):  # pragma: no cover - not commutative
                    pass
        return BinaryOp(op=op, left=left, right=right)
    if isinstance(expr, UnaryOp):
        return UnaryOp(op=expr.op, operand=_norm_expr(expr.operand, renames, droppable))
    if isinstance(expr, Between):
        return Between(
            expr=_norm_expr(expr.expr, renames, droppable),
            low=_norm_expr(expr.low, renames, droppable),
            high=_norm_expr(expr.high, renames, droppable),
            negated=expr.negated,
        )
    if isinstance(expr, InList):
        return InList(
            expr=_norm_expr(expr.expr, renames, droppable),
            items=tuple(_norm_expr(i, renames, droppable) for i in expr.items),
            negated=expr.negated,
        )
    if isinstance(expr, InSubquery):
        return InSubquery(
            expr=_norm_expr(expr.expr, renames, droppable),
            query=_norm_query(expr.query, renames),
            negated=expr.negated,
        )
    if isinstance(expr, Like):
        return Like(
            expr=_norm_expr(expr.expr, renames, droppable),
            pattern=_norm_expr(expr.pattern, renames, droppable),
            negated=expr.negated,
        )
    if isinstance(expr, IsNull):
        return IsNull(
            expr=_norm_expr(expr.expr, renames, droppable), negated=expr.negated
        )
    if isinstance(expr, Exists):
        return Exists(query=_norm_query(expr.query, renames), negated=expr.negated)
    if isinstance(expr, ScalarSubquery):
        return ScalarSubquery(query=_norm_query(expr.query, renames))
    return expr


# ======================================================================
# strict canonicalizer (result-cache contract — see module docstring)
# ======================================================================

#: comparison operators whose direction folds onto ``<`` / ``<=``
_FLIP = {">": "<", ">=": "<="}

#: binary operators whose operands may be sorted unconditionally: both
#: sides are always evaluated (no selection-vector refinement applies
#: inside a single comparison/product) and the value is symmetric.
_SORT_OPERANDS = {"=", "<>", "*"}


def canonical_sql(sql: str) -> str:
    """Return the strict canonical text of *sql* (parse + canonicalize)."""
    return to_sql(canonical_query(parse_sql(sql)))


def canonical_query(query: Query) -> Query:
    """Return the strictly-canonicalized AST of *query*.

    Two queries with equal canonical ASTs *and* equal
    :func:`name_signature` produce byte-identical results (or both
    raise) on any database, under any engine configuration.
    """
    return _rename_bindings(_c_query(query))


def canonical_cache_key(query: Query) -> tuple[str, tuple]:
    """Return the result-cache key component derived from *query* alone.

    A pair of the canonical SQL text and the output-name signature; the
    result cache (:mod:`repro.sql.rescache`) combines it with the
    database identity and per-table version tokens.
    """
    return (to_sql(canonical_query(query)), name_signature(query))


def name_signature(query: Query) -> tuple:
    """Signature of everything the output *column names* depend on.

    Result column names derive from the original surface text, not the
    canonical form: aliases keep their case, unaliased items use the
    lowercased unparse of the original expression, and ``*`` expands to
    ``binding.column`` names using the *original* FROM binding names.
    Canonical-text equality therefore does not imply equal column names;
    this signature restores the implication when it also matches.
    """
    if isinstance(query, SetOperation):
        # set-operation output names come from the left input
        return name_signature(query.left)
    items: list[tuple] = []
    any_star = False
    for item in query.items:
        if isinstance(item.expr, Star):
            any_star = True
            items.append(("*", (item.expr.table or "").lower()))
        elif item.alias:
            items.append(("a", item.alias))
        else:
            items.append(("e", to_sql(item.expr).lower()))
    if any_star:
        # star expansion names columns "<binding>.<column>" in FROM order
        bindings = tuple(ref.binding for ref in from_tables(query.from_))
        items.append(("from", bindings))
    return tuple(items)


# ---------------------------------------------------------------------
# stage A: case folding + order normalization (binding names untouched)
# ---------------------------------------------------------------------

def _c_query(query: Query) -> Query:
    if isinstance(query, SetOperation):
        # set-operation order is semantic: rows are emitted left-first
        return SetOperation(
            op=query.op, left=_c_query(query.left), right=_c_query(query.right)
        )
    return _c_select(query)


def _c_select(select: Select) -> Select:
    group_by = tuple(_c_expr(e) for e in select.group_by)
    if len(group_by) > 1 and all(_reorder_safe(e) for e in group_by):
        # the partition, first-seen group order, and projected rows are
        # invariant under a consistent permutation of the key exprs
        group_by = tuple(sorted(group_by, key=_masked_text))
    return Select(
        items=tuple(
            SelectItem(
                expr=_c_expr(item.expr),
                alias=item.alias.lower() if item.alias else None,
            )
            for item in select.items
        ),
        from_=_c_from(select.from_),
        where=_c_expr(select.where) if select.where is not None else None,
        group_by=group_by,
        having=_c_expr(select.having) if select.having is not None else None,
        order_by=tuple(
            OrderItem(expr=_c_expr(o.expr), descending=o.descending)
            for o in select.order_by
        ),
        limit=select.limit,
        distinct=select.distinct,
    )


def _c_from(clause: FromClause | None) -> FromClause | None:
    if clause is None:
        return None
    if isinstance(clause, TableRef):
        return TableRef(
            name=clause.name.lower(),
            alias=clause.alias.lower() if clause.alias else None,
        )
    return Join(
        left=_c_from(clause.left),
        right=_c_from(clause.right),
        kind=clause.kind,
        condition=(
            _c_expr(clause.condition) if clause.condition is not None else None
        ),
    )


def _c_expr(expr: Expr) -> Expr:
    if isinstance(expr, Literal):
        return expr  # literal-preserving: never fold literal case/type
    if isinstance(expr, ColumnRef):
        return ColumnRef(
            column=expr.column.lower(),
            table=expr.table.lower() if expr.table else None,
        )
    if isinstance(expr, Star):
        return Star(table=expr.table.lower() if expr.table else None)
    if isinstance(expr, FuncCall):
        return FuncCall(
            name=expr.name.lower(),
            args=tuple(_c_expr(a) for a in expr.args),
            distinct=expr.distinct,
        )
    if isinstance(expr, BinaryOp):
        if expr.op in ("and", "or"):
            return _c_bool_chain(expr)
        left = _c_expr(expr.left)
        right = _c_expr(expr.right)
        op = _FLIP.get(expr.op)
        if op is not None:
            left, right = right, left
        else:
            op = expr.op
        if op in _SORT_OPERANDS and _masked_text(right) < _masked_text(left):
            left, right = right, left
        return BinaryOp(op=op, left=left, right=right)
    if isinstance(expr, UnaryOp):
        return UnaryOp(op=expr.op, operand=_c_expr(expr.operand))
    if isinstance(expr, Between):
        return Between(
            expr=_c_expr(expr.expr),
            low=_c_expr(expr.low),
            high=_c_expr(expr.high),
            negated=expr.negated,
        )
    if isinstance(expr, InList):
        item_exprs = tuple(_c_expr(i) for i in expr.items)
        if all(isinstance(i, Literal) for i in item_exprs):
            # literal evaluation cannot fail, membership scans the whole
            # list, and duplicates change neither the match nor the
            # saw-NULL outcome — so sorting + dedup is behavior-free
            deduped: dict[str, Expr] = {}
            for item in item_exprs:
                deduped.setdefault(to_sql(item), item)
            item_exprs = tuple(deduped[text] for text in sorted(deduped))
        return InList(
            expr=_c_expr(expr.expr), items=item_exprs, negated=expr.negated
        )
    if isinstance(expr, InSubquery):
        return InSubquery(
            expr=_c_expr(expr.expr),
            query=_c_query(expr.query),
            negated=expr.negated,
        )
    if isinstance(expr, Like):
        return Like(
            expr=_c_expr(expr.expr),
            pattern=_c_expr(expr.pattern),
            negated=expr.negated,
        )
    if isinstance(expr, IsNull):
        return IsNull(expr=_c_expr(expr.expr), negated=expr.negated)
    if isinstance(expr, Exists):
        return Exists(query=_c_query(expr.query), negated=expr.negated)
    if isinstance(expr, ScalarSubquery):
        return ScalarSubquery(query=_c_query(expr.query))
    return expr


def _c_bool_chain(expr: BinaryOp) -> Expr:
    """Flatten an AND/OR chain, sort the operands, rebuild left-deep.

    Sorting is gated on every operand being statically error-free
    (:func:`_reorder_safe`): the reference engine evaluates eagerly, but
    the vectorized engine refines selection vectors operand-by-operand
    and the optimizer reorders pushed filters by selectivity, so an
    operand whose evaluation can *raise* data-dependently must keep its
    source position to preserve error behavior across engine configs.
    """
    op = expr.op
    operands: list[Expr] = []

    def flatten(node: Expr) -> None:
        if isinstance(node, BinaryOp) and node.op == op:
            flatten(node.left)
            flatten(node.right)
        else:
            operands.append(_c_expr(node))

    flatten(expr.left)
    flatten(expr.right)
    if all(_reorder_safe(o) for o in operands):
        operands.sort(key=_masked_text)
    result = operands[0]
    for operand in operands[1:]:
        result = BinaryOp(op=op, left=result, right=operand)
    return result


def _reorder_safe(expr: Expr) -> bool:
    """Whether evaluating *expr* can never raise, on any row, any engine.

    Comparisons resolve through ``compare_values`` (total, never
    raises), LIKE coerces operands with ``str()``, IS NULL and literal
    IN-lists are total; arithmetic, function calls, and subqueries can
    all fail data-dependently and therefore pin their source order.
    """
    if isinstance(expr, (Literal, ColumnRef)):
        return True
    if isinstance(expr, BinaryOp):
        if expr.op in ("=", "<>", "<", "<=", ">", ">=", "and", "or"):
            return _reorder_safe(expr.left) and _reorder_safe(expr.right)
        return False  # arithmetic may raise on non-numeric values
    if isinstance(expr, UnaryOp):
        return expr.op == "not" and _reorder_safe(expr.operand)
    if isinstance(expr, Between):
        return (
            _reorder_safe(expr.expr)
            and _reorder_safe(expr.low)
            and _reorder_safe(expr.high)
        )
    if isinstance(expr, InList):
        return _reorder_safe(expr.expr) and all(
            isinstance(i, Literal) for i in expr.items
        )
    if isinstance(expr, Like):
        return _reorder_safe(expr.expr) and _reorder_safe(expr.pattern)
    if isinstance(expr, IsNull):
        return _reorder_safe(expr.expr)
    return False  # FuncCall, subqueries, unknown nodes


# ---------------------------------------------------------------------
# sort keys: binding-name-insensitive unparse
# ---------------------------------------------------------------------
# Operands are ordered by the unparse of a copy whose table qualifiers
# and aliases are all replaced by "@".  Keys must not depend on binding
# names: stage B renames bindings *after* sorting, and a key that shifted
# under renaming would break idempotence (the second pass would sort the
# already-canonical tree differently).  Masked ties keep source order
# (sorts are stable), which is still deterministic and still canonical —
# it just means two queries differing only in the order of
# qualifier-distinct but otherwise identical predicates keep separate
# cache entries.

def _masked_text(expr: Expr) -> str:
    return to_sql(_mask_expr(expr))


def _mask_expr(expr: Expr) -> Expr:
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, ColumnRef):
        return ColumnRef(column=expr.column, table="@" if expr.table else None)
    if isinstance(expr, Star):
        return Star(table="@" if expr.table else None)
    if isinstance(expr, FuncCall):
        return FuncCall(
            name=expr.name,
            args=tuple(_mask_expr(a) for a in expr.args),
            distinct=expr.distinct,
        )
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            op=expr.op, left=_mask_expr(expr.left), right=_mask_expr(expr.right)
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(op=expr.op, operand=_mask_expr(expr.operand))
    if isinstance(expr, Between):
        return Between(
            expr=_mask_expr(expr.expr),
            low=_mask_expr(expr.low),
            high=_mask_expr(expr.high),
            negated=expr.negated,
        )
    if isinstance(expr, InList):
        return InList(
            expr=_mask_expr(expr.expr),
            items=tuple(_mask_expr(i) for i in expr.items),
            negated=expr.negated,
        )
    if isinstance(expr, InSubquery):
        return InSubquery(
            expr=_mask_expr(expr.expr),
            query=_mask_query(expr.query),
            negated=expr.negated,
        )
    if isinstance(expr, Like):
        return Like(
            expr=_mask_expr(expr.expr),
            pattern=_mask_expr(expr.pattern),
            negated=expr.negated,
        )
    if isinstance(expr, IsNull):
        return IsNull(expr=_mask_expr(expr.expr), negated=expr.negated)
    if isinstance(expr, Exists):
        return Exists(query=_mask_query(expr.query), negated=expr.negated)
    if isinstance(expr, ScalarSubquery):
        return ScalarSubquery(query=_mask_query(expr.query))
    return expr


def _mask_query(query: Query) -> Query:
    if isinstance(query, SetOperation):
        return SetOperation(
            op=query.op, left=_mask_query(query.left), right=_mask_query(query.right)
        )
    return Select(
        items=tuple(
            SelectItem(expr=_mask_expr(item.expr), alias=item.alias)
            for item in query.items
        ),
        from_=_mask_from(query.from_),
        where=_mask_expr(query.where) if query.where is not None else None,
        group_by=tuple(_mask_expr(e) for e in query.group_by),
        having=_mask_expr(query.having) if query.having is not None else None,
        order_by=tuple(
            OrderItem(expr=_mask_expr(o.expr), descending=o.descending)
            for o in query.order_by
        ),
        limit=query.limit,
        distinct=query.distinct,
    )


def _mask_from(clause: FromClause | None) -> FromClause | None:
    if clause is None:
        return None
    if isinstance(clause, TableRef):
        return TableRef(name=clause.name, alias="@" if clause.alias else None)
    return Join(
        left=_mask_from(clause.left),
        right=_mask_from(clause.right),
        kind=clause.kind,
        condition=(
            _mask_expr(clause.condition) if clause.condition is not None else None
        ),
    )


# ---------------------------------------------------------------------
# stage B: capture-free global binding rename
# ---------------------------------------------------------------------

def _rename_bindings(query: Query) -> Query:
    """Rename every table binding through one global injective map.

    The map is keyed by binding *name*, not by table occurrence: two
    bindings sharing a name (the same table referenced in two scopes, or
    deliberate shadowing) share one fresh name, so every
    qualifier-resolution and shadowing relationship in the original query
    is reproduced exactly in the renamed one.  Fresh names are drawn from
    ``t1, t2, ...`` skipping any qualifier token that is *not* a binding
    name — a dangling qualified reference must stay dangling, never be
    captured into resolving against a renamed binding.
    """
    bindings: list[str] = []
    seen: set[str] = set()
    qualifiers: set[str] = set()
    for node in walk(query):
        if isinstance(node, TableRef):
            if node.binding not in seen:
                seen.add(node.binding)
                bindings.append(node.binding)
        elif isinstance(node, (ColumnRef, Star)) and node.table:
            qualifiers.add(node.table.lower())
    taken = qualifiers - seen
    renames: dict[str, str] = {}
    counter = 0
    for binding in bindings:
        counter += 1
        while f"t{counter}" in taken:
            counter += 1
        renames[binding] = f"t{counter}"
    return _r_query(query, renames)


def _r_query(query: Query, renames: dict[str, str]) -> Query:
    if isinstance(query, SetOperation):
        return SetOperation(
            op=query.op,
            left=_r_query(query.left, renames),
            right=_r_query(query.right, renames),
        )
    return Select(
        items=tuple(
            SelectItem(expr=_r_expr(item.expr, renames), alias=item.alias)
            for item in query.items
        ),
        from_=_r_from(query.from_, renames),
        where=_r_expr(query.where, renames) if query.where is not None else None,
        group_by=tuple(_r_expr(e, renames) for e in query.group_by),
        having=_r_expr(query.having, renames) if query.having is not None else None,
        order_by=tuple(
            OrderItem(expr=_r_expr(o.expr, renames), descending=o.descending)
            for o in query.order_by
        ),
        limit=query.limit,
        distinct=query.distinct,
    )


def _r_from(clause: FromClause | None, renames: dict[str, str]) -> FromClause | None:
    if clause is None:
        return None
    if isinstance(clause, TableRef):
        fresh = renames[clause.binding]
        return TableRef(
            name=clause.name, alias=None if fresh == clause.name else fresh
        )
    return Join(
        left=_r_from(clause.left, renames),
        right=_r_from(clause.right, renames),
        kind=clause.kind,
        condition=(
            _r_expr(clause.condition, renames)
            if clause.condition is not None
            else None
        ),
    )


def _r_expr(expr: Expr, renames: dict[str, str]) -> Expr:
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, ColumnRef):
        if expr.table is None:
            return expr
        return ColumnRef(
            column=expr.column, table=renames.get(expr.table, expr.table)
        )
    if isinstance(expr, Star):
        if expr.table is None:
            return expr
        return Star(table=renames.get(expr.table, expr.table))
    if isinstance(expr, FuncCall):
        return FuncCall(
            name=expr.name,
            args=tuple(_r_expr(a, renames) for a in expr.args),
            distinct=expr.distinct,
        )
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            op=expr.op,
            left=_r_expr(expr.left, renames),
            right=_r_expr(expr.right, renames),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(op=expr.op, operand=_r_expr(expr.operand, renames))
    if isinstance(expr, Between):
        return Between(
            expr=_r_expr(expr.expr, renames),
            low=_r_expr(expr.low, renames),
            high=_r_expr(expr.high, renames),
            negated=expr.negated,
        )
    if isinstance(expr, InList):
        return InList(
            expr=_r_expr(expr.expr, renames),
            items=tuple(_r_expr(i, renames) for i in expr.items),
            negated=expr.negated,
        )
    if isinstance(expr, InSubquery):
        return InSubquery(
            expr=_r_expr(expr.expr, renames),
            query=_r_query(expr.query, renames),
            negated=expr.negated,
        )
    if isinstance(expr, Like):
        return Like(
            expr=_r_expr(expr.expr, renames),
            pattern=_r_expr(expr.pattern, renames),
            negated=expr.negated,
        )
    if isinstance(expr, IsNull):
        return IsNull(expr=_r_expr(expr.expr, renames), negated=expr.negated)
    if isinstance(expr, Exists):
        return Exists(query=_r_query(expr.query, renames), negated=expr.negated)
    if isinstance(expr, ScalarSubquery):
        return ScalarSubquery(query=_r_query(expr.query, renames))
    return expr
