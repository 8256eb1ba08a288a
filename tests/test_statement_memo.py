"""Statement-granular parsing: the splitter, the memo, and their gates.

The contract under test: parsing a script one top-level statement at a
time (:func:`~repro.sqlddl.lexer.split_statements` plus
:class:`~repro.schema.builder.StatementMemo`) yields exactly the
statements of a whole-text parse, for every dialect; a script the
splitter is unsure of falls back to the whole-text parse; a memo shared
between threads stores one AST tuple per statement and parses without
a lock; and the cache counters a run reports agree with its trace on
every ingest path.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.schema.builder as builder
from repro.io.export import funnel_payload
from repro.obs import recording
from repro.pipeline.cache import SchemaCache
from repro.schema.builder import StatementMemo, build_schema
from repro.sqlddl.ast import CreateTable
from repro.sqlddl.dialects import frontend_for, parse_script_for
from repro.sqlddl.lexer import split_statements
from repro.sqlddl.parser import parse_script
from repro.store import CorpusStore, ShardedCorpusStore, ingest_corpus, ingest_stream
from repro.synthesis import CorpusSpec, build_corpus
from repro.synthesis.stream import StreamSpec, stream_projects
from repro.vcs.history import extract_file_history

DIALECTS = ("mysql", "postgresql", "sqlite")


def _whole(text: str, dialect: str):
    return parse_script(text) if dialect == "mysql" else parse_script_for(text, dialect)


def _splits(text: str, dialect: str) -> bool:
    """Whether the splitter is sure of *text* (after preprocessing)."""
    return split_statements(frontend_for(dialect).preprocess(text)) is not None


def _assert_equivalent(texts, dialect: str, memo: StatementMemo | None = None) -> None:
    memo = memo if memo is not None else StatementMemo()
    for text in texts:
        assert memo.parse(text, dialect) == _whole(text, dialect), text


# -- hand-written edge cases -------------------------------------------------

#: Scripts the splitter cuts, with the number of pieces it cuts them into.
SURE = {
    "semicolon in a string": (
        "INSERT INTO t VALUES ('a;b', 'it''s; ok', 'x\\';y');\nCREATE TABLE t (a INT);",
        2,
    ),
    "semicolon in backticks": ("CREATE TABLE `a;b` (`c;` INT);\nDROP TABLE `x;`;", 2),
    "semicolon in double quotes": ('CREATE TABLE "a;b" ("c;" INT); SELECT 1;', 2),
    "semicolon in brackets": ("CREATE TABLE [a;b] ([c;] INT); SELECT 1;", 2),
    "semicolon in line comments": (
        "-- a; b\nCREATE TABLE t (a INT); # c; d\nCREATE TABLE u (b INT);",
        2,
    ),
    "semicolon in a block comment": ("/* x; y */ CREATE TABLE t (a INT); SELECT 1;", 2),
    "executable comment spanning a semicolon": (
        "/*!40101 SET @x=1; SET @y=2 */;\n"
        "CREATE TABLE t (a INT) /*!40101 ENGINE=InnoDB */;",
        3,
    ),
    "semicolon inside parentheses": (
        "CREATE TABLE t (a INT CHECK (a > 0; b), c INT); CREATE TABLE u (d INT);",
        2,
    ),
    "GO batches": ("CREATE TABLE t (a INT)\nGO\nCREATE TABLE u (b INT)\nGO\n", 1),
    "no trailing semicolon": ("CREATE TABLE t (a INT);\nCREATE TABLE u (b INT)", 2),
    "value slot left empty": ("ALTER TABLE t ENGINE=; CREATE TABLE u (a INT);", 2),
    "stray closing parenthesis": ("ALTER TABLE t FOO ) ; CREATE TABLE u (a INT);", 2),
    "COPY data block": (
        "CREATE TABLE t (a INT);\nCOPY t (a) FROM stdin;\n1\tx; y\n\\.\n"
        "CREATE TABLE u (b INT);",
        4,
    ),
}

#: Scripts the splitter must refuse: the whole-text parse decides.
UNSURE = {
    "DELIMITER block": (
        "CREATE TABLE t (a INT);\nDELIMITER //\n"
        "CREATE TRIGGER tr BEFORE INSERT ON t FOR EACH ROW BEGIN SET NEW.a = 1; END//\n"
        "DELIMITER ;\nCREATE TABLE u (b INT);"
    ),
    "unterminated quote": "CREATE TABLE t (a INT DEFAULT 'x); CREATE TABLE u (b INT);",
    "unterminated backtick": "CREATE TABLE `t (a INT); CREATE TABLE u (b INT);",
    "unterminated double quote": 'CREATE TABLE "t (a INT); CREATE TABLE u (b INT);',
    "unterminated bracket": "CREATE TABLE [t (a INT); CREATE TABLE u (b INT);",
    "unterminated block comment": "CREATE TABLE t (a INT); /* open; CREATE TABLE u (b INT);",
}


class TestSplitter:
    @pytest.mark.parametrize("name", sorted(SURE))
    def test_sure_scripts_cut_at_top_level_semicolons(self, name):
        text, pieces = SURE[name]
        assert len(split_statements(text)) == pieces

    @pytest.mark.parametrize("name", sorted(SURE))
    @pytest.mark.parametrize("dialect", DIALECTS)
    def test_sure_scripts_parse_like_the_whole_text(self, name, dialect):
        _assert_equivalent([SURE[name][0]], dialect)

    @pytest.mark.parametrize("name", sorted(UNSURE))
    @pytest.mark.parametrize("dialect", DIALECTS)
    def test_unsure_scripts_take_the_whole_text_fallback(self, name, dialect):
        text = UNSURE[name]
        assert split_statements(text) is None
        memo = StatementMemo()
        assert memo.parse(text, dialect) == _whole(text, dialect)
        assert len(memo) == 0  # nothing was parsed piece by piece

    def test_pieces_are_stripped_and_empty_ones_dropped(self):
        assert split_statements("  ;; CREATE TABLE t (a INT) ;\n\n ; ") == [
            "CREATE TABLE t (a INT) ;"
        ]
        assert split_statements("") == []

    def test_postgres_casts_and_copy_blocks_split_after_preprocessing(self):
        text = (
            "CREATE TABLE t (a boolean DEFAULT 'f'::boolean,"
            " b integer DEFAULT nextval('s'::regclass));\n"
            "SELECT 'x::y; z';\n"
            "COPY t (a) FROM stdin;\nt\tsemi; colon\n\\.\n"
            "ALTER TABLE ONLY t ADD COLUMN c character varying(8);"
        )
        assert _splits(text, "postgresql")
        _assert_equivalent([text], "postgresql")


class TestParserBoundaries:
    """A ``;`` outside parentheses always ends the statement in progress."""

    def test_an_empty_value_slot_does_not_swallow_the_next_statement(self):
        statements = parse_script("CREATE TABLE t (a INT) ENGINE=; CREATE TABLE u (b INT);")
        assert [s.name for s in statements if isinstance(s, CreateTable)] == ["t", "u"]

    def test_an_empty_default_in_alter_ends_at_the_semicolon(self):
        statements = parse_script("ALTER TABLE t ADD c INT DEFAULT ; CREATE TABLE u (b INT);")
        assert isinstance(statements[-1], CreateTable)

    def test_a_stray_parenthesis_in_alter_ends_at_the_semicolon(self):
        statements = parse_script("ALTER TABLE t FOO ) ; CREATE TABLE u (b INT);")
        assert isinstance(statements[-1], CreateTable)


_SOUP = (
    "CREATE TABLE ALTER ADD COLUMN DROP RENAME TO DEFAULT COMMENT ON UPDATE DELETE "
    "CASCADE ENGINE = COLLATE CHARACTER CHARSET SET PRIMARY KEY FOREIGN REFERENCES "
    "UNIQUE INDEX USING NOT NULL GO IF EXISTS INT VARCHAR MODIFY CHANGE AFTER MATCH "
    "CHECK CONSTRAINT TYPE ONLY a b t"
).split() + [
    ";", ";", "(", ")", ",", "-", ".", "1", "\n", "'s;t'", "`q;`", '"d;q"', "[b;r]",
    "-- c;\n", "# c\n", "/* c; */", "/*!40101", "*/", "@v", "::int", "(1;2)",
]


class TestEquivalenceProperties:
    @settings(max_examples=500)
    @given(
        tokens=st.lists(st.sampled_from(_SOUP), max_size=40),
        dialect=st.sampled_from(DIALECTS),
    )
    def test_any_token_soup_parses_like_the_whole_text(self, tokens, dialect):
        _assert_equivalent([" ".join(tokens)], dialect)

    @pytest.mark.slow
    @settings(max_examples=8)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_streamed_corpora_parse_like_the_whole_text(self, seed):
        for profile, count in (("light", 6), ("paper", 1)):
            spec = StreamSpec(seed=seed, count=count, profile=profile, dialects=DIALECTS)
            memo = StatementMemo()  # shared across projects and dialects
            for project in stream_projects(spec):
                texts = [
                    version.text
                    for version in extract_file_history(project.repo, project.ddl_path)
                ]
                assert all(_splits(text, project.dialect) for text in texts)
                _assert_equivalent(texts, project.dialect, memo)

    def test_golden_dialect_fixtures_parse_like_the_whole_text(self):
        from test_dialect_frontends import PG_V0, PG_V1, SQLITE_V0, SQLITE_V1

        _assert_equivalent([PG_V0, PG_V1], "postgresql")
        _assert_equivalent([SQLITE_V0, SQLITE_V1], "sqlite")
        assert _splits(PG_V1, "postgresql") and _splits(SQLITE_V1, "sqlite")


class TestStatementMemo:
    def test_versions_share_the_ast_of_their_common_statements(self):
        memo = StatementMemo()
        v0 = "CREATE TABLE a (x INT);\nCREATE TABLE b (y INT);"
        v1 = v0 + "\nALTER TABLE a ADD z INT;"
        first, second = memo.parse(v0), memo.parse(v1)
        assert second[0] is first[0] and second[1] is first[1]
        assert len(memo) == 3

    def test_keys_are_dialect_qualified(self):
        memo = StatementMemo()
        text = "CREATE TABLE t (a VARCHAR(10));"
        mysql, sqlite = memo.parse(text), memo.parse(text, "sqlite")
        assert mysql[0].columns[0].data_type.base == "VARCHAR"
        assert sqlite[0].columns[0].data_type.base == "TEXT"
        assert len(memo) == 2

    def test_build_schema_is_the_same_with_and_without_a_memo(self):
        from test_dialect_frontends import PG_V1

        memo = StatementMemo()
        for dialect in DIALECTS:
            assert build_schema(PG_V1, dialect=dialect, memo=memo) == build_schema(
                PG_V1, dialect=dialect
            )

    def test_racing_threads_parse_without_a_lock_and_keep_one_tuple(self, monkeypatch):
        real = builder.parse_script
        # Both threads must be inside the parse at once: a lock held
        # while parsing would time the barrier out.
        barrier = threading.Barrier(2, timeout=10)

        def rendezvous(text, *args, **kwargs):
            barrier.wait()
            return real(text, *args, **kwargs)

        monkeypatch.setattr(builder, "parse_script", rendezvous)
        memo = StatementMemo()
        results: list[list] = [[], []]

        def work(slot: int) -> None:
            results[slot] = memo.parse("CREATE TABLE t (a INT);")

        threads = [threading.Thread(target=work, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert results[0] and results[0][0] is results[1][0]
        assert len(memo) == 1

    def test_many_threads_share_one_memo_without_lost_work(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        memo = StatementMemo(
            registry.counter("hits"), registry.counter("misses")
        )
        scripts = [
            "".join(f"CREATE TABLE t{i} (a INT, b VARCHAR(8));\n" for i in range(n))
            for n in range(1, 30)
        ]
        expected = [parse_script(text) for text in scripts]
        failures: list[str] = []

        def work(offset: int) -> None:
            for step in range(len(scripts)):
                index = (offset + step) % len(scripts)
                if memo.parse(scripts[index]) != expected[index]:
                    failures.append(scripts[index])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k * 3,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert not failures
        assert len(memo) == 29  # one entry per distinct statement
        lookups = 8 * sum(range(1, 30))
        assert registry.value("hits") + registry.value("misses") == lookups
        # Every thread ends up with the one stored tuple per statement.
        assert memo.parse(scripts[-1])[0] is memo.parse(scripts[0])[0]


class TestSchemaCacheStatements:
    def test_scan_then_build_reparses_nothing(self):
        cache = SchemaCache()
        v0 = "CREATE TABLE a (x INT);\nCREATE TABLE b (y INT);"
        assert cache.has_create_table(v0)
        misses = cache.counters.statement_misses
        cache.schema_for(v0)
        assert cache.counters.statement_misses == misses
        cache.schema_for(v0 + "\nALTER TABLE a ADD z INT;")
        counters = cache.counters
        assert (counters.statement_hits, counters.statement_misses) == (4, 3)
        assert counters.payload()["statement_misses"] == 3

    def test_statement_counters_publish_into_the_registry(self):
        cache = SchemaCache()
        cache.schema_for("CREATE TABLE a (x INT); CREATE TABLE a (x INT);")
        counters = cache.counters.registry.snapshot()["counters"]
        assert counters['repro_cache_hits_total{kind="statement"}'] == 1
        assert counters['repro_cache_misses_total{kind="statement"}'] == 1


# -- whole runs ----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_corpus():
    return build_corpus(CorpusSpec(seed=2019, scale=0.05))


def _assert_counters_match_trace(report, recorder) -> None:
    cache = report.stats.cache
    assert cache.schema_misses == recorder.count("build_schema") > 0
    assert cache.scan_misses == recorder.count("scan_create_table") > 0
    assert cache.diff_misses == recorder.count("diff_schemas") > 0
    assert cache.statement_misses > 0


STREAM = StreamSpec(seed=2019, count=24, profile="light")


@pytest.mark.slow
class TestCounterTruth:
    """``report.stats`` cache counters equal the trace's span counts."""

    def test_materialized_ingest(self, small_corpus, tmp_path):
        with CorpusStore(tmp_path / "m.db") as store, recording() as recorder:
            report = ingest_corpus(
                store, small_corpus.activity, small_corpus.lib_io, small_corpus.provider
            )
        _assert_counters_match_trace(report, recorder)

    def test_stream_ingest_counts_every_chunk(self, tmp_path):
        with CorpusStore(tmp_path / "s.db") as store, recording() as recorder:
            report = ingest_stream(store, STREAM, chunk_size=8)
        _assert_counters_match_trace(report, recorder)

    def test_sharded_stream_ingest(self, tmp_path):
        with ShardedCorpusStore(tmp_path / "k.db", shards=2) as store, recording() as recorder:
            report = ingest_stream(store, STREAM, chunk_size=8)
        _assert_counters_match_trace(report, recorder)

    def test_process_backend_stream_ingest(self, tmp_path):
        with CorpusStore(tmp_path / "p.db") as store, recording() as recorder:
            report = ingest_stream(store, STREAM, chunk_size=8, jobs=2, executor="process")
        _assert_counters_match_trace(report, recorder)


@pytest.mark.slow
class TestSharedMemoUnderThreads:
    def test_thread_backend_funnel_is_byte_identical_to_serial(self, small_corpus):
        payloads = {
            executor: json.dumps(
                funnel_payload(small_corpus.run_funnel(jobs=jobs, executor=executor)),
                sort_keys=True,
            )
            for executor, jobs in (("serial", 1), ("thread", 2))
        }
        assert payloads["serial"] == payloads["thread"]

    def test_thread_backend_ingest_content_hash_matches_serial(self, small_corpus, tmp_path):
        hashes = {}
        for executor, jobs in (("serial", 1), ("thread", 2)):
            cache = SchemaCache()  # one cache (and memo) shared by the workers
            with CorpusStore(tmp_path / f"{executor}.db") as store:
                ingest_corpus(
                    store,
                    small_corpus.activity,
                    small_corpus.lib_io,
                    small_corpus.provider,
                    jobs=jobs,
                    executor=executor,
                    cache=cache,
                )
                hashes[executor] = store.content_hash()
            assert cache.counters.statement_hits > 0
        assert hashes["serial"] == hashes["thread"]
