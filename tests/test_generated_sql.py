"""Generated statements against sqlite3 -- ROADMAP item 6(a) at toy size.

A ``hypothesis`` strategy draws a small random database (two or three
tables, mixed column types, random indexes, a memory grant that may or
may not make joins spill -- the two-page one spills any build side of
more than a page -- ) and a handful of select / project / distinct /
join (2- and 3-way) / group-by statements over it, a lower and an upper
bound on one column -- the pair the planner folds into one ``Range`` and
probes an ordered index with -- among their predicates.  Every statement
must

* return the multiset of rows stdlib ``sqlite3`` returns for the same
  text over the same rows (the performance ledger's oracle idea,
  re-implemented here in a few lines);
* return the same rows, charge byte-identical counters and check its
  cancellation token as many times in the tuple-at-a-time specification
  arm and the production arm;
* carry up from each table exactly the columns the statement reads above
  that table's access path -- SELECT list, GROUP BY, aggregate inputs and
  join keys, never a column only a predicate names -- or one column when
  it reads none;
* plan identically below the top node however its SELECT list is ordered.

``--stateful-examples N`` (tests/conftest.py) sets the example budget; the
nightly CI job raises it.
"""

from __future__ import annotations

import re
import sqlite3
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DataType, MainMemoryDatabase
from repro.cost.counters import OperationCounters
from repro.governor import CancellationToken, QueryGuard
from repro.planner.plan import PlanContext
from repro.planner.sql import parse_sql
from tests.conftest import access_paths

SQLITE_TYPES = {
    DataType.INTEGER: "INTEGER", DataType.FLOAT: "REAL", DataType.STRING: "TEXT",
}
#: Small domains, so joins match, groups repeat and ranges select some rows.
VALUES = {
    DataType.INTEGER: st.integers(-2, 9),
    DataType.FLOAT: st.integers(-2, 9).map(lambda k: k * 0.5),
    DataType.STRING: st.sampled_from(["a", "ab", "abc", "b", "ba", "c"]),
}
FILLER = {
    DataType.INTEGER: int,
    DataType.FLOAT: lambda i: i * 0.5,
    DataType.STRING: lambda i: "abc"[i % 3] * (1 + i % 2),
}
INDEX_KINDS = ("btree", "avl", "hash", "paged-binary")


@dataclass
class Table:
    name: str
    columns: List[Tuple[str, DataType]]
    rows: List[tuple]
    indexes: List[Tuple[str, str]]

    @property
    def names(self) -> List[str]:
        return [name for name, _ in self.columns]


@dataclass
class Statement:
    tables: List[Table]
    joins: List[Tuple[str, str, str, str]]
    #: (SQL text, the columns it names) per top-level conjunct.
    where: List[Tuple[str, Set[str]]]
    select: Optional[List[str]]  # None is SELECT *
    distinct: bool = False
    group_by: List[str] = field(default_factory=list)
    aggregates: List[Tuple[str, Optional[str], str]] = field(default_factory=list)
    #: Shapes the strategy gave the statement on purpose (``range_pairs``).
    drawn: Set[str] = field(default_factory=set)

    def sql(self, select: Optional[List[str]] = None) -> str:
        items = list(self.group_by)
        items += [
            "%s(%s) AS %s" % (fn, column or "*", alias)
            for fn, column, alias in self.aggregates
        ]
        if not items:
            chosen = select if select is not None else self.select
            items = ["*"] if chosen is None else chosen
        text = "SELECT %s%s FROM %s" % (
            "DISTINCT " if self.distinct else "", ", ".join(items),
            self.tables[0].name,
        )
        for left, lcol, right, rcol in self.joins:
            text += " JOIN %s ON %s.%s = %s.%s" % (right, left, lcol, right, rcol)
        if self.where:
            text += " WHERE " + " AND ".join(p for p, _ in self.where)
        if self.group_by:
            text += " GROUP BY " + ", ".join(self.group_by)
        return text

    def read_above(self) -> Optional[Set[str]]:
        """Columns read above the access paths; None for SELECT *."""
        if self.aggregates:
            read = set(self.group_by)
            read.update(col for _, col, _ in self.aggregates if col)
        elif self.select is None:
            return None
        else:
            read = set(self.select)
        for _, lcol, _, rcol in self.joins:
            read.update((lcol, rcol))
        return read

    def shapes(self) -> Set[str]:
        """Which of the shapes the generator must reach this one has."""
        read = self.read_above()
        if read is None:
            return {"select_star"} | self.drawn
        keys = {c for _, lcol, _, rcol in self.joins for c in (lcol, rcol)}
        named = set().union(*(cols for _, cols in self.where)) if self.where else set()
        listed = set(self.select or self.group_by)
        found = set()
        if not read:
            found.add("count_star_reads_no_column")
        if named - read:
            found.add("column_only_in_a_predicate")
        if keys - listed - named:
            found.add("column_only_a_join_key")
        if named & listed:
            found.add("column_in_select_and_where")
        if len(self.joins) == 2:
            found.add("three_way_join")
        return found | self.drawn


# -- strategies ----------------------------------------------------------------


@st.composite
def tables(draw) -> List[Table]:
    out = []
    for t in range(draw(st.integers(2, 3))):
        # The first column is an integer (every table can be joined on it).
        dtypes = [DataType.INTEGER] + draw(
            st.lists(st.sampled_from(list(DataType)), min_size=1, max_size=4)
        )
        columns = [("%s%d" % ("pqr"[t], i), d) for i, d in enumerate(dtypes)]
        rows = draw(
            st.lists(st.tuples(*(VALUES[d] for d in dtypes)), max_size=25)
        )
        # Sometimes a table of many pages, so that a hash join is planned
        # and a small grant makes it spill: rows beyond the small domains
        # that any integer join matches one to one.
        for i in range(10, 10 + draw(st.sampled_from([0, 120]))):
            rows.append(tuple(FILLER[d](i) for d in dtypes))
        indexes = draw(st.lists(
            st.tuples(
                st.sampled_from([c for c, _ in columns]),
                st.sampled_from(INDEX_KINDS),
            ),
            max_size=2, unique_by=lambda pair: pair[0],
        ))
        out.append(Table("t%d" % t, columns, rows, indexes))
    return out


def literal(value) -> str:
    return "'%s'" % value if isinstance(value, str) else repr(value)


@st.composite
def comparisons(draw, table: Table) -> Tuple[str, Set[str]]:
    column, dtype = draw(st.sampled_from(table.columns))
    if dtype is DataType.STRING and draw(st.booleans()):
        prefix = draw(st.sampled_from(["a", "ab", "b", "z"]))
        return "%s LIKE '%s%%'" % (column, prefix), {column}
    op = draw(st.sampled_from(["=", "!=", "<>", "<", "<=", ">", ">="]))
    return "%s %s %s" % (column, op, literal(draw(VALUES[dtype]))), {column}


@st.composite
def range_pairs(draw, table: Table) -> Tuple[List[Tuple[str, Set[str]]], bool]:
    """Top-level conjuncts that bound one column from both sides -- what
    the planner folds into one ``Range`` -- and whether the interval they
    spell is empty: any of the four open / closed combinations, the bounds
    in either order or equal, sometimes a third bound that is redundant or
    tighter, written in any order."""
    column, dtype = draw(st.sampled_from(table.columns))
    low, high = draw(VALUES[dtype]), draw(VALUES[dtype])
    above, below = draw(st.sampled_from([">", ">="])), draw(st.sampled_from(["<", "<="]))
    conjuncts = [(above, low), (below, high)]
    if draw(st.booleans()):
        conjuncts.append((draw(st.sampled_from([">", ">=", "<", "<="])), draw(VALUES[dtype])))
    empty = low > high or (low == high and (above, below) != (">=", "<="))
    return [
        ("%s %s %s" % (column, op, literal(value)), {column})
        for op, value in draw(st.permutations(conjuncts))
    ], empty


@st.composite
def predicates(draw, table: Table) -> Tuple[str, Set[str]]:
    text, named = draw(comparisons(table))
    form = draw(st.sampled_from(["plain", "plain", "not", "or", "and"]))
    if form == "not":
        return "NOT " + text, named
    if form in ("or", "and"):
        other, more = draw(comparisons(table))
        return "(%s %s %s)" % (text, form.upper(), other), named | more
    return text, named


@st.composite
def statements(draw, db: List[Table]) -> Statement:
    count = draw(st.integers(1, len(db)))
    used = draw(st.permutations(db))[:count]
    joins = []
    for i, right in enumerate(used[1:], start=1):
        left = used[draw(st.integers(0, i - 1))]  # a chain or a star
        ints = lambda t: [c for c, d in t.columns if d is DataType.INTEGER]
        joins.append((
            left.name, draw(st.sampled_from(ints(left))),
            right.name, draw(st.sampled_from(ints(right))),
        ))
    where = [
        draw(predicates(draw(st.sampled_from(used))))
        for _ in range(draw(st.integers(0, 3)))
    ]
    drawn = set()
    if draw(st.booleans()):
        pair, empty = draw(range_pairs(draw(st.sampled_from(used))))
        where += pair
        drawn = {"range_pair", "empty_range"} if empty else {"range_pair"}
    every = [column for table in used for column in table.columns]
    kind = draw(st.sampled_from(["select", "star", "distinct", "group", "count"]))
    if kind == "star":
        return Statement(used, joins, where, None, drawn=drawn)
    if kind == "count":
        return Statement(
            used, joins, where, [], aggregates=[("COUNT", None, "n")], drawn=drawn
        )
    listed = draw(st.lists(
        st.sampled_from([c for c, _ in every]), min_size=1, max_size=3, unique=True
    ))
    if kind != "group":
        return Statement(
            used, joins, where, listed, distinct=kind == "distinct", drawn=drawn
        )
    numeric = [c for c, d in every if d is not DataType.STRING]
    aggregates = [("COUNT", None, "n")]
    for i in range(draw(st.integers(0, 2))):
        fn = draw(st.sampled_from(["COUNT", "SUM", "MIN", "MAX"]))
        pool = numeric if fn == "SUM" else [c for c, _ in every]
        aggregates.append((fn, draw(st.sampled_from(pool)), "g%d" % i))
    return Statement(
        used, joins, where, [], group_by=listed, aggregates=aggregates, drawn=drawn
    )


@st.composite
def cases(draw):
    db = draw(tables())
    return (
        db,
        # Page bytes (the widest row is 68) and the memory grant in pages.
        draw(st.sampled_from([(128, 2), (128, 3), (128, 6), (256, 1000)])),
        draw(st.lists(statements(db), min_size=1, max_size=6)),
    )


# -- the two engines ------------------------------------------------------------


def build(db: List[Table], page_bytes: int, memory_pages: int):
    ours = MainMemoryDatabase(
        page_bytes=page_bytes, memory_pages=memory_pages, reuse_cache=False
    )
    theirs = sqlite3.connect(":memory:")
    theirs.execute("PRAGMA case_sensitive_like = ON")
    for table in db:
        ours.create_table(table.name, table.columns)
        ours.insert_many(table.name, table.rows)
        for column, kind in table.indexes:
            ours.create_index(table.name, column, kind=kind)
        theirs.execute("CREATE TABLE %s (%s)" % (
            table.name,
            ", ".join("%s %s" % (c, SQLITE_TYPES[d]) for c, d in table.columns),
        ))
        theirs.executemany(
            "INSERT INTO %s VALUES (%s)"
            % (table.name, ", ".join("?" * len(table.columns))),
            table.rows,
        )
    ours.analyze()
    return ours, theirs


def sqlite_rows(theirs, statement: Statement, names: List[str]) -> Counter:
    """sqlite's answer as a multiset, columns in the order ``names``."""
    cursor = theirs.execute(statement.sql())
    order = [[d[0] for d in cursor.description].index(n) for n in names]
    return Counter(tuple(row[i] for i in order) for row in cursor)


def execute(ours, plan, batch: bool):
    """Rows, charges and cancellation checks of one execution of ``plan``."""
    token = CancellationToken(qid=1)
    ctx = PlanContext(
        catalog=ours.catalog, memory_pages=ours.memory_pages, params=ours.params,
        counters=OperationCounters(), batch=batch, guard=QueryGuard(token=token),
    )
    out = plan.execute(ctx)
    return out.schema.names, Counter(out), ctx.counters.as_dict(), token.checks


def check(ours, theirs, statement: Statement):
    """Assert the four properties of the module docstring; return the
    statement's rows, its plan and its charges."""
    plan = ours.plan(parse_sql(statement.sql(), ours.catalog))
    names, rows, charged, checks = execute(ours, plan, batch=True)
    assert (names, rows, charged, checks) == execute(ours, plan, batch=False)
    assert rows == sqlite_rows(theirs, statement, names), statement.sql()

    read = statement.read_above()
    for table in statement.tables:
        carried = access_paths(plan)[table.name].schema.names
        if read is None:
            assert carried == table.names
        else:
            assert carried == (
                [c for c in table.names if c in read] or table.names[:1]
            ), (statement.sql(), plan.explain())

    if statement.select and len(statement.select) > 1:
        turned = statement.select[1:] + statement.select[:1]
        other = ours.plan(parse_sql(statement.sql(turned), ours.catalog))
        assert (
            other.explain().split("\n", 1)[1] == plan.explain().split("\n", 1)[1]
        )
    return rows, plan, charged


# -- tests ------------------------------------------------------------------------

SHAPES = {
    "count_star_reads_no_column",
    "column_only_in_a_predicate",
    "column_only_a_join_key",
    "column_in_select_and_where",
    "three_way_join",
    "select_star",
    "empty_result",
    "index_scan",
    "range_pair",
    "range_index_scan",
    "empty_range",
    "two_way_join_spills",
    "three_way_join_spills",
}


def run_case(case) -> Set[str]:
    """Check every statement of ``case``; return the shapes it had."""
    db, (page_bytes, memory_pages), drawn = case
    ours, theirs = build(db, page_bytes, memory_pages)
    seen: Set[str] = set()
    try:
        for statement in drawn:
            rows, plan, charged = check(ours, theirs, statement)
            seen |= statement.shapes()
            # Only a partitioning join writes a page at random.
            if charged["random_ios"] and not statement.group_by:
                seen.add(
                    "three_way_join_spills"
                    if len(statement.joins) == 2
                    else "two_way_join_spills"
                )
            if not rows and all(len(t.rows) > 3 for t in statement.tables):
                seen.add("empty_result")
            if "IndexScan" in plan.explain():
                seen.add("index_scan")
            if re.search(r"IndexScan\(\w+\.\w+ in [\[(]", plan.explain()):
                seen.add("range_index_scan")  # both bounds in one probe
    finally:
        theirs.close()
    return seen


def test_generated_statements_agree_with_sqlite(request):
    @settings(
        max_examples=request.config.getoption("--stateful-examples"),
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(cases())
    def run(case):
        run_case(case)

    run()


def test_the_strategy_reaches_every_shape():
    """A fixed sample of the strategy above, so what it must be able to
    generate is asserted and not hoped for."""
    seen: Set[str] = set()

    @settings(
        max_examples=60, derandomize=True, database=None, deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(cases())
    def run(case):
        seen.update(run_case(case))

    run()
    assert seen == SHAPES
