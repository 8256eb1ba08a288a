"""Build a logical :class:`~repro.schema.model.Schema` from parsed DDL.

This is the bridge between the SQL front end and the evolution study:
it replays a script's ``CREATE TABLE`` / ``ALTER TABLE`` / ``DROP
TABLE`` / ``RENAME TABLE`` statements against an (initially empty)
schema and returns the resulting logical snapshot.  Non-DDL statements
and sub-logical details (indexes, engines, comments) are counted but do
not affect the result.

Parsing is memoized per statement when a :class:`StatementMemo` is
given: consecutive versions of one DDL file are mostly the same
statements, so each distinct statement is parsed once and its AST is
shared by every version that contains it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.schema.model import Attribute, Schema, Table
from repro.sqlddl.ast import (
    AlterAction,
    AlterKind,
    AlterTable,
    ColumnDef,
    ConstraintKind,
    CreateTable,
    DropTable,
    IgnoredStatement,
    RenameTable,
    Statement,
)
from repro.sqlddl.lexer import split_statements
from repro.sqlddl.parser import parse_script

if TYPE_CHECKING:
    from repro.obs.metrics import Counter


class SchemaBuildError(Exception):
    """A DDL statement could not be applied to the running schema."""


@dataclass
class BuildReport:
    """What happened while replaying a script."""

    created: int = 0
    dropped: int = 0
    altered: int = 0
    renamed: int = 0
    ignored: int = 0
    ignored_verbs: dict[str, int] = field(default_factory=dict)

    def note_ignored(self, verb: str) -> None:
        self.ignored += 1
        self.ignored_verbs[verb] = self.ignored_verbs.get(verb, 0) + 1


def _attribute_from_column(column: ColumnDef) -> Attribute:
    return Attribute(name=column.name, data_type=column.data_type, nullable=column.nullable)


def _table_from_create(create: CreateTable, lenient: bool = True) -> Table:
    attributes: list[Attribute] = []
    seen: set[str] = set()
    for column in create.columns:
        key = column.name.lower()
        if key in seen:
            if lenient:
                continue  # invalid SQL in the wild: keep first occurrence
            raise SchemaBuildError(
                f"duplicate column {column.name!r} in CREATE TABLE {create.name!r}"
            )
        seen.add(key)
        attributes.append(_attribute_from_column(column))
    return Table(
        name=create.name, attributes=tuple(attributes), primary_key=create.primary_key
    )


def _apply_alter(schema: Schema, alter: AlterTable, lenient: bool) -> Schema:
    table = schema.table(alter.name)
    if table is None:
        if lenient:
            return schema
        raise SchemaBuildError(f"ALTER TABLE on unknown table {alter.name!r}")
    for action in alter.actions:
        result = _apply_alter_action(schema, table, action, lenient)
        if result is None:
            continue
        schema, table = result
        if table is None:  # table was renamed away; remaining actions no-op
            break
    return schema


def _apply_alter_action(
    schema: Schema, table: Table, action: AlterAction, lenient: bool
) -> tuple[Schema, Table | None] | None:
    kind = action.kind
    if kind is AlterKind.ADD_COLUMN and action.column is not None:
        if table.attribute(action.column.name) is not None:
            if lenient:
                return None
            raise SchemaBuildError(
                f"column {action.column.name!r} already exists in {table.name!r}"
            )
        new_attrs = table.attributes + (_attribute_from_column(action.column),)
        pk = table.primary_key
        if action.column.is_primary_key:
            pk = pk + (action.column.name,)
        new_table = Table(table.name, new_attrs, pk)
        return schema.replace_table(new_table), new_table
    if kind is AlterKind.DROP_COLUMN and action.old_name is not None:
        if table.attribute(action.old_name) is None:
            if lenient:
                return None
            raise SchemaBuildError(f"unknown column {action.old_name!r} in {table.name!r}")
        lowered = action.old_name.lower()
        new_attrs = tuple(a for a in table.attributes if a.key != lowered)
        pk = tuple(c for c in table.primary_key if c.lower() != lowered)
        new_table = Table(table.name, new_attrs, pk)
        return schema.replace_table(new_table), new_table
    if kind is AlterKind.MODIFY_COLUMN and action.column is not None:
        existing = table.attribute(action.column.name)
        if existing is None:
            if lenient:
                return None
            raise SchemaBuildError(f"unknown column {action.column.name!r} in {table.name!r}")
        new_attrs = tuple(
            _attribute_from_column(action.column) if a.key == existing.key else a
            for a in table.attributes
        )
        new_table = Table(table.name, new_attrs, table.primary_key)
        return schema.replace_table(new_table), new_table
    if kind is AlterKind.CHANGE_COLUMN and action.column is not None and action.old_name:
        existing = table.attribute(action.old_name)
        if existing is None:
            if lenient:
                return None
            raise SchemaBuildError(f"unknown column {action.old_name!r} in {table.name!r}")
        new_attrs = tuple(
            _attribute_from_column(action.column) if a.key == existing.key else a
            for a in table.attributes
        )
        pk = tuple(
            action.column.name if c.lower() == existing.key else c for c in table.primary_key
        )
        new_table = Table(table.name, new_attrs, pk)
        return schema.replace_table(new_table), new_table
    if kind is AlterKind.RENAME_COLUMN and action.old_name and action.raw:
        existing = table.attribute(action.old_name)
        if existing is None:
            if lenient:
                return None
            raise SchemaBuildError(f"unknown column {action.old_name!r} in {table.name!r}")
        renamed = Attribute(action.raw, existing.data_type, existing.nullable)
        new_attrs = tuple(renamed if a.key == existing.key else a for a in table.attributes)
        pk = tuple(action.raw if c.lower() == existing.key else c for c in table.primary_key)
        new_table = Table(table.name, new_attrs, pk)
        return schema.replace_table(new_table), new_table
    if kind is AlterKind.ADD_CONSTRAINT and action.constraint is not None:
        if action.constraint.kind is ConstraintKind.PRIMARY_KEY:
            new_table = Table(table.name, table.attributes, action.constraint.columns)
            return schema.replace_table(new_table), new_table
        return None  # indexes/uniques/FKs are sub-logical here
    if kind is AlterKind.DROP_PRIMARY_KEY:
        new_table = Table(table.name, table.attributes, ())
        return schema.replace_table(new_table), new_table
    if kind is AlterKind.RENAME_TABLE and action.raw:
        renamed = Table(action.raw, table.attributes, table.primary_key)
        return schema.without_table(table.name).with_table(renamed), None
    return None  # OTHER / DROP_CONSTRAINT: no logical effect


def apply_statements(
    schema: Schema,
    statements: list[Statement],
    lenient: bool = True,
    report: BuildReport | None = None,
) -> Schema:
    """Replay *statements* on *schema*, returning the new snapshot.

    With ``lenient=True`` (the default, matching how a mining tool must
    treat arbitrary repository content) re-creates of an existing table
    replace it, drops of a missing table are no-ops, and malformed
    alters are skipped.  With ``lenient=False`` those raise
    :class:`SchemaBuildError`.
    """
    for statement in statements:
        if isinstance(statement, CreateTable):
            table = _table_from_create(statement, lenient)
            if schema.table(table.name) is not None:
                if statement.if_not_exists:
                    continue
                if not lenient:
                    raise SchemaBuildError(f"table {table.name!r} already exists")
                schema = schema.replace_table(table)
            else:
                schema = schema.with_table(table)
            if report:
                report.created += 1
        elif isinstance(statement, DropTable):
            for name in statement.names:
                if schema.table(name) is None:
                    if statement.if_exists or lenient:
                        continue
                    raise SchemaBuildError(f"DROP of unknown table {name!r}")
                schema = schema.without_table(name)
                if report:
                    report.dropped += 1
        elif isinstance(statement, AlterTable):
            schema = _apply_alter(schema, statement, lenient)
            if report:
                report.altered += 1
        elif isinstance(statement, RenameTable):
            for old, new in statement.renames:
                table = schema.table(old)
                if table is None:
                    if lenient:
                        continue
                    raise SchemaBuildError(f"RENAME of unknown table {old!r}")
                renamed = Table(new, table.attributes, table.primary_key)
                schema = schema.without_table(old).with_table(renamed)
                if report:
                    report.renamed += 1
        elif isinstance(statement, IgnoredStatement):
            if report:
                report.note_ignored(statement.verb)
    return schema


class StatementMemo:
    """Parsed statements by dialect-qualified statement text.

    :meth:`parse` cuts a script into its top-level statements
    (:func:`~repro.sqlddl.lexer.split_statements`) and parses only the
    ones it has not seen; the frozen AST tuples are shared between all
    versions that contain them.  A script the splitter is unsure of is
    parsed whole, exactly as without a memo.

    Safe to share between threads without a lock: two threads may race
    to parse the same new statement, but ``dict.setdefault`` keeps one
    tuple per key.  ``hits`` and ``misses``, when given, count the
    statement lookups.
    """

    def __init__(self, hits: Counter | None = None, misses: Counter | None = None) -> None:
        self._parsed: dict[tuple[str, str], tuple[Statement, ...]] = {}
        self._hits = hits
        self._misses = misses

    def __len__(self) -> int:
        return len(self._parsed)

    def parse(self, text: str, dialect: str = "mysql") -> list[Statement]:
        """The statements of *text*, equal to a whole-text parse."""
        name, preprocess, parse = _parser_for(dialect)
        if preprocess is not None:
            # Preprocessing (PostgreSQL casts and COPY data blocks) runs
            # on the whole text, so it need not respect statement ends.
            text = preprocess(text)
        pieces = split_statements(text)
        if pieces is None:
            return list(parse(text))
        parsed = self._parsed
        statements: list[Statement] = []
        misses = 0
        for piece in pieces:
            key = (name, piece)
            found = parsed.get(key)
            if found is None:
                misses += 1
                found = parsed.setdefault(key, tuple(parse(piece)))
            statements.extend(found)
        if self._hits is not None and len(pieces) > misses:
            self._hits.inc(len(pieces) - misses)
        if self._misses is not None and misses:
            self._misses.inc(misses)
        return statements


def _parser_for(dialect: str):
    """``(canonical dialect name, preprocess or None, parse)``.

    MySQL keeps the historical direct ``parse_script`` path; the other
    frontends preprocess, then parse through ``parse_preprocessed``.
    """
    if dialect and dialect != "mysql":
        from repro.sqlddl.dialects import frontend_for  # cycle-free late import

        frontend = frontend_for(dialect)
        if frontend.name != "mysql":
            return frontend.name, frontend.preprocess, frontend.parse_preprocessed
    return "mysql", None, parse_script


def build_schema(
    text: str,
    lenient: bool = True,
    report: BuildReport | None = None,
    dialect: str = "mysql",
    memo: StatementMemo | None = None,
) -> Schema:
    """Parse *text* and build the logical schema it declares.

    ``dialect`` selects the frontend (see :mod:`repro.sqlddl.dialects`);
    the default is the historical direct ``parse_script`` path.  With a
    ``memo``, each distinct statement is parsed once across calls
    (see :class:`StatementMemo`); the schema is the same either way.
    """
    if memo is not None:
        statements = memo.parse(text, dialect)
    elif dialect and dialect != "mysql":
        from repro.sqlddl.dialects import parse_script_for

        statements = parse_script_for(text, dialect)
    else:
        statements = parse_script(text)
    return apply_statements(Schema(), statements, lenient=lenient, report=report)
