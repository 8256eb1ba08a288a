"""Logical schema model: tables, attributes, and schema construction."""

from repro.schema.model import Attribute, Schema, SchemaSize, Table
from repro.schema.builder import (
    SchemaBuildError,
    StatementMemo,
    apply_statements,
    build_schema,
)
from repro.schema.writer import render_column, render_create_table, render_schema

__all__ = [
    "Attribute",
    "Schema",
    "SchemaBuildError",
    "SchemaSize",
    "StatementMemo",
    "Table",
    "apply_statements",
    "build_schema",
    "render_column",
    "render_create_table",
    "render_schema",
]
