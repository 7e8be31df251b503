"""A small SQL front end over the Section 4 planner.

Supports the query fragment the paper's planner handles -- conjunctive
select-project-join with grouping:

.. code-block:: sql

    SELECT dname, AVG(salary) AS avg_sal
    FROM emp JOIN dept ON emp.dept = dept.dept_id
    WHERE salary > 50000 AND name LIKE 'J%'
    GROUP BY dname

Grammar (case-insensitive keywords)::

    query     := SELECT [DISTINCT] items FROM tables [WHERE conj]
                 [GROUP BY columns]
    items     := '*' | item (',' item)*
    item      := aggregate '(' ('*' | column) ')' [AS name] | column
    tables    := name (',' name)* | name (JOIN name ON eq)*
    conj      := term (AND term)*                 -- top level is a conjunction
    term      := '(' orterm ')' | predicate | eq  -- eq = equijoin condition
    orterm    := predicate ((AND|OR) predicate)*  -- single-table only
    predicate := column op literal | column LIKE 'prefix%' | NOT predicate
    eq        := qualified '=' qualified

Bare column names resolve through the catalog (they must be unambiguous,
which the planner requires anyway).  ``LIKE`` supports prefix patterns
(``'J%'``) only -- the paper's ``emp.name = "J*"`` query.
"""

from __future__ import annotations

import re
from typing import Any, List, Optional, Tuple

from repro.errors import PlannerError
from repro.operators.aggregate import AggregateFunction, AggregateSpec
from repro.operators.selection import And, Comparison, Not, Or, Predicate, Prefix
from repro.planner.query import JoinClause, Query
from repro.storage.catalog import Catalog
from repro.storage.tuples import DataType


class SqlError(PlannerError):
    """Raised for syntax or resolution errors, with position context.

    ``position`` is the 0-based character offset of the offending token in
    the statement text (``None`` when the error has no single anchor, e.g.
    a GROUP BY / select-list mismatch).  The server protocol forwards it so
    clients can point at the exact spot in the statement they sent.
    """

    def __init__(self, message: str, position: Optional[int] = None) -> None:
        super().__init__(message)
        self.position = position


_KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "and", "or",
    "not", "join", "on", "as", "like",
}
_AGGREGATES = {
    "count": AggregateFunction.COUNT,
    "sum": AggregateFunction.SUM,
    "avg": AggregateFunction.AVG,
    "min": AggregateFunction.MIN,
    "max": AggregateFunction.MAX,
}

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<number>-?\d+\.\d+|-?\d+)
      | (?P<string>'(?:[^']|'')*')
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)?)
      | (?P<op><=|>=|!=|<>|=|<|>)
      | (?P<punct>[(),*])
    )
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: str, pos: int) -> None:
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self) -> str:
        return "%s(%r)" % (self.kind, self.value)


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise SqlError(
                "cannot tokenize SQL at position %d: %r"
                % (pos, text[pos:pos + 20]),
                position=pos,
            )
        pos = match.end()
        for kind in ("number", "string", "name", "op", "punct"):
            value = match.group(kind)
            if value is None:
                continue
            if kind == "name" and value.lower() in _KEYWORDS:
                tokens.append(_Token("keyword", value.lower(), match.start(kind)))
            else:
                tokens.append(_Token(kind, value, match.start(kind)))
            break
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    #: Deepest nesting of NOT and parentheses a predicate may have: the
    #: parser and the predicate algebra recurse once per level.
    max_depth = 100

    def __init__(self, text: str, catalog: Catalog) -> None:
        self.text = text
        self.catalog = catalog
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.tables: List[str] = []

    # -- token plumbing -----------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def ahead(self, k: int) -> _Token:
        """The token ``k`` places on; the end token past the end."""
        return self.tokens[min(self.i + k, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[_Token]:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> _Token:
        tok = self.accept(kind, value)
        if tok is None:
            got = self.peek()
            raise SqlError(
                "expected %s at position %d, got %r"
                % (value or kind, got.pos, got.value or "<end>"),
                position=got.pos,
            )
        return tok

    # -- resolution -----------------------------------------------------------------

    def resolve_column(
        self, name: str, pos: Optional[int] = None
    ) -> Tuple[str, str]:
        """Resolve ``col`` or ``table.col`` to (table, column)."""
        if "." in name:
            table, column = name.split(".", 1)
            if table not in self.tables:
                raise SqlError(
                    "unknown table %r in %r" % (table, name), position=pos
                )
            if not self.catalog.relation(table).schema.has_field(column):
                raise SqlError(
                    "table %r has no column %r" % (table, column),
                    position=pos,
                )
            return table, column
        owners = [
            t
            for t in self.tables
            if self.catalog.relation(t).schema.has_field(name)
        ]
        if not owners:
            raise SqlError("unknown column %r" % name, position=pos)
        if len(owners) > 1:
            raise SqlError(
                "ambiguous column %r (in tables %s)" % (name, sorted(owners)),
                position=pos,
            )
        return owners[0], name

    # -- grammar ---------------------------------------------------------------------

    def parse(self) -> Query:
        self.expect("keyword", "select")
        distinct = self.accept("keyword", "distinct") is not None
        items = self._select_items()
        self.expect("keyword", "from")
        joins = self._tables_and_joins()
        predicates: List[Tuple[str, Predicate]] = []
        if self.accept("keyword", "where"):
            more_joins = self._where(predicates)
            joins.extend(more_joins)
        group_by: List[str] = []
        group_tok = self.accept("keyword", "group")
        if group_tok is not None:
            self.expect("keyword", "by")
            group_by = self._column_list()
        self.expect("eof")
        return self._build_query(
            items,
            distinct,
            joins,
            predicates,
            group_by,
            group_pos=group_tok.pos if group_tok is not None else None,
        )

    def _select_items(self) -> List[Tuple[str, Any, int]]:
        """Each item is ('star', None, pos) | ('column', name, pos) |
        ('agg', raw aggregate, pos)."""
        star = self.accept("punct", "*")
        if star is not None:
            return [("star", None, star.pos)]
        items: List[Tuple[str, Any, int]] = []
        while True:
            tok = self.peek()
            if tok.kind == "name" and tok.value.lower() in _AGGREGATES:
                nxt = self.ahead(1)
                if nxt.kind == "punct" and nxt.value == "(":
                    items.append(("agg", self._aggregate(), tok.pos))
                else:
                    items.append(("column", self.next().value, tok.pos))
            elif tok.kind == "name":
                items.append(("column", self.next().value, tok.pos))
            else:
                raise SqlError(
                    "expected a column or aggregate at position %d" % tok.pos,
                    position=tok.pos,
                )
            if not self.accept("punct", ","):
                return items

    def _aggregate(self) -> Tuple[AggregateFunction, Optional[str], Optional[str]]:
        """Raw (func, column name, alias); the column resolves later,
        once FROM has populated the table list."""
        func_tok = self.next()
        func = _AGGREGATES[func_tok.value.lower()]
        self.expect("punct", "(")
        if self.accept("punct", "*"):
            if func is not AggregateFunction.COUNT:
                raise SqlError(
                    "%s(*) is not valid SQL here" % func.value,
                    position=func_tok.pos,
                )
            column: Optional[str] = None
        else:
            column = self.expect("name").value
        self.expect("punct", ")")
        alias = None
        if self.accept("keyword", "as"):
            alias = self.expect("name").value
        return func, column, alias

    def _resolved_column_name(self) -> str:
        tok = self.expect("name")
        _, column = self.resolve_column(tok.value, pos=tok.pos)
        return column

    def _tables_and_joins(self) -> List[JoinClause]:
        joins: List[JoinClause] = []
        self._register_table(self.expect("name"))
        while True:
            if self.accept("punct", ","):
                self._register_table(self.expect("name"))
            elif self.accept("keyword", "join"):
                self._register_table(self.expect("name"))
                self.expect("keyword", "on")
                joins.append(self._equijoin())
            else:
                return joins

    def _register_table(self, tok: _Token) -> None:
        name = tok.value
        if not self.catalog.has_relation(name):
            raise SqlError("unknown table %r" % name, position=tok.pos)
        if name in self.tables:
            raise SqlError(
                "table %r listed twice (aliases unsupported)" % name,
                position=tok.pos,
            )
        self.tables.append(name)

    def _equijoin(self) -> JoinClause:
        left = self.expect("name")
        self.expect("op", "=")
        right = self.expect("name")
        lt, lc = self.resolve_column(left.value, pos=left.pos)
        rt, rc = self.resolve_column(right.value, pos=right.pos)
        if lt == rt:
            raise SqlError(
                "join condition %s = %s stays within one table"
                % (left.value, right.value),
                position=left.pos,
            )
        return JoinClause(lt, lc, rt, rc)

    # -- WHERE ------------------------------------------------------------------------

    def _where(
        self, predicates: List[Tuple[str, Predicate]]
    ) -> List[JoinClause]:
        """Top-level conjunction of predicates and equijoin conditions."""
        joins: List[JoinClause] = []
        while True:
            self._where_term(predicates, joins)
            if not self.accept("keyword", "and"):
                return joins

    def _where_term(self, predicates, joins) -> None:
        # Lookahead: column op column (both names) is an equijoin.
        tok = self.peek()
        if tok.kind == "name":
            nxt, after = self.ahead(1), self.ahead(2)
            if (
                nxt.kind == "op"
                and nxt.value == "="
                and after.kind == "name"
                and after.value.lower() not in _KEYWORDS
            ):
                lt, _ = self.resolve_column(tok.value, pos=tok.pos)
                rt, _ = self.resolve_column(after.value, pos=after.pos)
                if lt != rt:
                    joins.append(self._equijoin())
                    return
        table, pred = self._predicate()
        predicates.append((table, pred))

    def _or_expression(self) -> Tuple[str, Predicate]:
        """Parenthesised OR/AND chain; all legs must hit one table."""
        table, pred = self._predicate()
        while True:
            if self.accept("keyword", "or"):
                combine = Or
            elif self.accept("keyword", "and"):
                combine = And
            else:
                return table, pred
            leg_pos = self.peek().pos
            table2, pred2 = self._predicate()
            if table2 != table:
                raise SqlError(
                    "predicates inside parentheses must reference one "
                    "table; got %r and %r" % (table, table2),
                    position=leg_pos,
                )
            pred = combine(pred, pred2)

    def _predicate(self) -> Tuple[str, Predicate]:
        tok = self.peek()
        if (tok.kind, tok.value) in (("keyword", "not"), ("punct", "(")):
            self.next()
            self.depth += 1
            if self.depth > self.max_depth:
                raise SqlError(
                    "predicate nested deeper than %d levels" % self.max_depth,
                    position=tok.pos,
                )
            if tok.value == "not":
                table, pred = self._predicate()
                pred = Not(pred)
            else:
                table, pred = self._or_expression()
                self.expect("punct", ")")
            self.depth -= 1
            return table, pred
        name_tok = self.expect("name")
        table, column = self.resolve_column(name_tok.value, pos=name_tok.pos)
        dtype = self.catalog.relation(table).schema.field(column).dtype
        like_tok = self.accept("keyword", "like")
        if like_tok is not None:
            if dtype is not DataType.STRING:
                raise SqlError(
                    "LIKE needs a string column; %r is %s"
                    % (name_tok.value, dtype.value),
                    position=like_tok.pos,
                )
            pattern_tok = self.expect("string")
            pattern = pattern_tok.value[1:-1].replace("''", "'")
            if not pattern.endswith("%") or "%" in pattern[:-1] or not pattern[:-1]:
                raise SqlError(
                    "only prefix LIKE patterns ('J%%') are supported; "
                    "got %r" % pattern,
                    position=pattern_tok.pos,
                )
            return table, Prefix(column, pattern[:-1])
        op_tok = self.expect("op")
        op = "!=" if op_tok.value == "<>" else op_tok.value
        literal_pos = self.peek().pos
        value = self._literal()
        if isinstance(value, str) != (dtype is DataType.STRING):
            # A string never compares with a number: an ordered index
            # would raise where a scan finds nothing.
            raise SqlError(
                "cannot compare %s column %r with %r"
                % (dtype.value, name_tok.value, value),
                position=literal_pos,
            )
        return table, Comparison(column, op, value)

    def _literal(self) -> Any:
        tok = self.next()
        if tok.kind == "number":
            return float(tok.value) if "." in tok.value else int(tok.value)
        if tok.kind == "string":
            return tok.value[1:-1].replace("''", "'")
        raise SqlError(
            "expected a literal at position %d" % tok.pos, position=tok.pos
        )

    def _column_list(self) -> List[str]:
        columns = [self._resolved_column_name()]
        while self.accept("punct", ","):
            columns.append(self._resolved_column_name())
        return columns

    # -- assembly -------------------------------------------------------------------------

    def _build_query(
        self, items, distinct, joins, predicates, group_by, group_pos=None
    ) -> Query:
        aggregates = [
            AggregateSpec(
                func,
                self.resolve_column(col, pos=pos)[1] if col is not None else None,
                alias,
            )
            for (func, col, alias), pos in (
                (v, p) for k, v, p in items if k == "agg"
            )
        ]
        column_items = [
            (self.resolve_column(name, pos=pos)[1], pos)
            for kind, name, pos in items
            if kind == "column"
        ]
        columns = [name for name, _ in column_items]
        is_star = any(kind == "star" for kind, _, _ in items)
        agg_positions = [p for k, _, p in items if k == "agg"]
        taken = set()
        for name, pos in sorted(
            column_items
            + [(a.output_name, p) for a, p in zip(aggregates, agg_positions)],
            key=lambda item: item[1],
        ):
            if name in taken:
                raise SqlError("output column %r named twice" % name, position=pos)
            taken.add(name)

        if aggregates:
            if is_star:
                star_pos = next(p for k, _, p in items if k == "star")
                raise SqlError(
                    "SELECT * cannot be mixed with aggregates",
                    position=star_pos,
                )
            implied = group_by or columns
            if sorted(columns) != sorted(implied if not group_by else group_by):
                if group_by and sorted(columns) != sorted(group_by):
                    offenders = [
                        pos
                        for name, pos in column_items
                        if name not in group_by
                    ]
                    raise SqlError(
                        "non-aggregated columns %r must match GROUP BY %r"
                        % (columns, group_by),
                        position=offenders[0] if offenders else group_pos,
                    )
            return Query(
                tables=self.tables,
                predicates=predicates,
                joins=joins,
                group_by=group_by or columns,
                aggregates=aggregates,
            )
        if group_by:
            raise SqlError(
                "GROUP BY without aggregates; add one or drop it",
                position=group_pos,
            )
        projection = None if is_star else columns
        return Query(
            tables=self.tables,
            predicates=predicates,
            joins=joins,
            projection=projection,
            distinct=distinct,
        )


def parse_sql(text: str, catalog: Catalog) -> Query:
    """Parse ``text`` into a :class:`~repro.planner.query.Query`."""
    return _Parser(text, catalog).parse()


__all__ = ["SqlError", "parse_sql"]
