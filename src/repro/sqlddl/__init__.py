"""SQL DDL substrate: lexing, parsing and rendering of DDL.

The paper's toolchain (Hecate) consumes the ``CREATE TABLE`` statements of
a schema file and turns them into a logical schema.  This subpackage is a
from-scratch implementation of that front end: a lexer tolerant of the
noise found in real-world ``.sql`` dumps (comments, ``INSERT`` statements,
DBMS directives), a recursive-descent parser for the DDL statements that
matter at the logical level, and a writer that renders a schema back to
canonical DDL text (used by the synthetic-corpus realizer).

Vendor-specific syntax lives in :mod:`repro.sqlddl.dialects`: pluggable
frontends (MySQL — the default and the paper's DBMS — PostgreSQL, and
SQLite) that all produce the same canonical AST, so everything past the
parse is dialect-blind.
"""

from repro.sqlddl.errors import SqlSyntaxError, UnsupportedDialectError
from repro.sqlddl.tokens import Token, TokenKind
from repro.sqlddl.lexer import Lexer, split_statements, tokenize
from repro.sqlddl.types import DataType, normalize_type
from repro.sqlddl.ast import (
    AlterAction,
    AlterTable,
    ColumnDef,
    CreateTable,
    DropTable,
    IgnoredStatement,
    RenameTable,
    Statement,
    TableConstraint,
)
from repro.sqlddl.parser import Parser, parse_script, parse_statement
from repro.sqlddl.dialect import DIALECT_PRECEDENCE, Dialect, detect_dialect
from repro.sqlddl.dialects import (
    DEFAULT_DIALECT,
    FRONTENDS,
    DialectFrontend,
    canonical_dialect_name,
    frontend_for,
    parse_script_for,
)

__all__ = [
    "DEFAULT_DIALECT",
    "DIALECT_PRECEDENCE",
    "DialectFrontend",
    "FRONTENDS",
    "AlterAction",
    "AlterTable",
    "ColumnDef",
    "CreateTable",
    "DataType",
    "Dialect",
    "DropTable",
    "IgnoredStatement",
    "Lexer",
    "Parser",
    "RenameTable",
    "SqlSyntaxError",
    "Statement",
    "TableConstraint",
    "Token",
    "TokenKind",
    "UnsupportedDialectError",
    "canonical_dialect_name",
    "detect_dialect",
    "frontend_for",
    "parse_script_for",
    "normalize_type",
    "parse_script",
    "parse_statement",
    "split_statements",
    "tokenize",
]
