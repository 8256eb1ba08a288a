"""Incremental ingest: funnel -> :class:`CorpusStore`, measuring only
what changed.

A project's identity is the content fingerprint of its DDL history —
the ``text_key`` of every usable version (the pipeline cache's key
scheme) chained with commit oids, timestamps, the chosen DDL path,
whole-repo commit stats, and the measurement configuration.  Ingest
extracts each candidate history once, fingerprints it, and only pushes
projects whose fingerprint is new or changed through the measurement
pipeline; everything else is proven unchanged without a single parse,
diff, or measure.  Re-ingesting an unchanged corpus therefore performs
**zero** measurement-stage executions, which the attached
:class:`~repro.pipeline.stats.PipelineStats` make verifiable:
``report.stats.projects == 0``.

Durability: ingest is **checkpointed and resumable**.  Each phase
writes a progress marker into the store's ``meta`` table, and the
measure phase persists in chunks — a crash mid-ingest loses at most one
chunk of work, and the re-run's fingerprint pass skips everything the
crashed run already persisted (``report.resumed_from`` names the phase
the previous run died in).  Persisting itself runs under the ingest's
:class:`~repro.resilience.RetryPolicy`; a project whose rows cannot be
written even after retries is recorded as a ``persist``-stage
:class:`~repro.pipeline.stages.ProjectFailure` under a sentinel
fingerprint, so the next ingest re-measures it instead of trusting a
half-written row.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from repro.core.heartbeat import DEFAULT_REED_LIMIT
from repro.mining.github_activity import GithubActivityDataset
from repro.mining.librariesio import LibrariesIoDataset
from repro.mining.path_filters import (
    MultiFileVerdict,
    choose_ddl_file,
    dialect_for_choice,
    vendor_preference,
)
from repro.mining.selection import SelectionCriteria, select_lib_io
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import trace
from repro.pipeline.cache import SchemaCache, text_key
from repro.pipeline.pipeline import MeasurementPipeline, PipelineConfig
from repro.pipeline.stages import (
    Outcome,
    ProjectContext,
    ProjectFailure,
    ProjectTask,
    usable_versions,
)
from repro.pipeline.stats import PipelineStats
from repro.resilience.faults import FaultInjector
from repro.resilience.policy import NO_RETRY, RetryPolicy
from repro.store.store import CorpusStore
from repro.vcs.history import FileVersion, LinearizationPolicy, extract_file_history
from repro.vcs.repository import Repository

#: Fingerprint of a repository the provider no longer resolves.
MISSING_REPO_FINGERPRINT = "missing-repo"

#: Fingerprint of a project whose measurement survived but whose rows
#: could not be written; never matches a real history fingerprint, so
#: the next ingest re-measures (and re-persists) the project.
PERSIST_FAILED_FINGERPRINT = "persist-failed"

#: The meta key the phase checkpoint lives under while a run is active.
INGEST_CHECKPOINT_KEY = "ingest_checkpoint"


@dataclass
class IngestReport:
    """What one ingest run did to the store."""

    selected: int = 0  # joined + filtered projects
    tasks: int = 0  # single-DDL-file candidates
    omitted_by_paths: dict[MultiFileVerdict, int] = field(default_factory=dict)
    measured: int = 0  # pushed through the pipeline
    skipped_unchanged: int = 0  # fingerprint matched the store
    pruned: int = 0  # dropped: no longer in the corpus
    zero_versions: int = 0
    no_create: int = 0
    rigid: int = 0
    studied: int = 0
    failed: int = 0
    wall_seconds: float = 0.0
    stats: PipelineStats | None = None
    resumed_from: str | None = None  # phase an interrupted run died in
    stream_count: int | None = None  # streamed ingest: total stream length
    stream_resumed_at: int | None = None  # streamed ingest: first index run

    def summary(self) -> str:
        lines = [
            f"ingested {self.tasks} candidate projects in {self.wall_seconds:.2f}s",
            f"  measured:          {self.measured}",
            f"  unchanged:         {self.skipped_unchanged}",
            f"  pruned:            {self.pruned}",
            "  store outcomes:    "
            f"studied={self.studied} rigid={self.rigid} "
            f"zero-versions={self.zero_versions} no-create={self.no_create} "
            f"failed={self.failed}",
        ]
        if self.resumed_from is not None:
            lines.insert(
                1, f"  resumed:           from interrupted {self.resumed_from!r} phase"
            )
        return "\n".join(lines)

    def payload(self) -> dict:
        """A JSON-friendly dump (the CLI's ``--json`` output)."""
        return {
            "selected": self.selected,
            "tasks": self.tasks,
            "measured": self.measured,
            "skipped_unchanged": self.skipped_unchanged,
            "pruned": self.pruned,
            "resumed_from": self.resumed_from,
            "outcomes": {
                "studied": self.studied,
                "rigid": self.rigid,
                "zero_versions": self.zero_versions,
                "no_create": self.no_create,
                "failed": self.failed,
            },
            "wall_seconds": round(self.wall_seconds, 6),
            **(
                {
                    "stream_count": self.stream_count,
                    "stream_resumed_at": self.stream_resumed_at,
                }
                if self.stream_count is not None
                else {}
            ),
        }


def history_fingerprint(
    task: ProjectTask,
    repo: Repository | None,
    versions: list[FileVersion],
    config: PipelineConfig,
) -> str:
    """The content identity of one project's measurable input.

    Built on the pipeline cache's :func:`text_key` so the same blob
    hashing underpins both caching and incremental ingest.  Whole-repo
    commit stats participate because PUP months and the DDL-commit
    share are measured from them.
    """
    if repo is None:
        return MISSING_REPO_FINGERPRINT
    digest = hashlib.sha256()
    digest.update(
        f"{task.ddl_path}|{config.policy.name}|{config.reed_limit}"
        f"|{int(config.lenient)}".encode()
    )
    if task.dialect not in ("", "mysql"):
        # A dialect switch re-measures the project (SQLite affinity and
        # postgres preprocessing change parses); the default spelling is
        # omitted so pre-dialect fingerprints stay valid.
        digest.update(f"|dialect:{task.dialect}".encode())
    from repro.core.project import repo_stats_of

    stats = repo_stats_of(repo)
    digest.update(
        f"|repo:{stats.total_commits}"
        f":{stats.first_commit_ts}:{stats.last_commit_ts}".encode()
    )
    for version in versions:
        digest.update(
            f"|{version.commit_oid}:{version.timestamp}"
            f":{text_key(version.text, config.lenient)}".encode()
        )
    return digest.hexdigest()


def _persist_resiliently(
    store: CorpusStore,
    ctx: ProjectContext,
    fingerprint: str,
    retry: RetryPolicy,
    injector: FaultInjector | None,
    stats: PipelineStats,
) -> None:
    """Write one context under the ingest's retry policy.

    When every attempt fails, the *measurement* is not thrown away
    silently: a ``persist``-stage failure context is written under
    :data:`PERSIST_FAILED_FINGERPRINT` (a write that itself bypasses
    injection — if the store is truly down it raises, leaving the
    checkpoint in place for the resumed run).
    """
    name = ctx.task.repo_name
    last: Exception | None = None
    for attempt in range(1, retry.max_attempts + 1):
        try:
            if injector is not None:
                injector.check("persist", name, attempt)
            store.persist_context(ctx, fingerprint)
            if attempt > 1:
                stats.registry.counter("repro_ingest_persist_recovered_total").inc()
            return
        except Exception as exc:
            last = exc
            if attempt >= retry.max_attempts:
                break
            stats.registry.counter("repro_ingest_persist_retries_total").inc()
            delay = retry.delay_for(attempt, key=f"persist|{name}")
            if delay > 0:
                time.sleep(delay)
    assert last is not None
    failure = ProjectFailure(
        project=name,
        stage="persist",
        error=type(last).__name__,
        message=str(last),
        attempts=retry.max_attempts,
    )
    fallback = ProjectContext(task=ctx.task, outcome=Outcome.FAILED, failure=failure)
    store.persist_context(fallback, PERSIST_FAILED_FINGERPRINT)


def ingest_corpus(
    store: CorpusStore,
    activity: GithubActivityDataset,
    lib_io: LibrariesIoDataset,
    provider,
    criteria: SelectionCriteria = SelectionCriteria(),
    policy: LinearizationPolicy = LinearizationPolicy.FULL,
    reed_limit: int = DEFAULT_REED_LIMIT,
    jobs: int = 1,
    cache_dir: str | None = None,
    cache: SchemaCache | None = None,
    prune: bool = True,
    retry: RetryPolicy = NO_RETRY,
    project_deadline: float | None = None,
    injector: FaultInjector | None = None,
    chunk_size: int | None = None,
    executor: str = "auto",
    dialects: tuple[str, ...] = ("mysql",),
) -> IngestReport:
    """Run the funnel front, measure the changed delta, persist it all.

    The front half mirrors :func:`repro.mining.funnel.run_funnel`
    (selection, path post-processing); the back half replaces blanket
    re-measurement with the fingerprint delta.  Projects whose history
    cannot even be extracted (a crashing provider) are handed to the
    ordinary pipeline so the failure is recorded uniformly as a
    :class:`~repro.pipeline.stages.ProjectFailure`.

    ``retry``/``project_deadline``/``injector``/``executor``
    parameterize the measurement pipeline exactly as in ``run_funnel``
    (the chunked measure phase routes through the selected execution
    backend, so ``--jobs N --executor process`` parallelizes ingest
    without giving up checkpointed resume); ``retry`` also governs the
    persist step.  Measurement and persistence interleave
    in chunks of ``chunk_size`` (default ``max(8, jobs * 4)``) so a
    crash loses at most one chunk; the phase checkpoint under the
    store's :data:`INGEST_CHECKPOINT_KEY` survives the crash and the
    re-run reports ``resumed_from``.
    """
    started = time.perf_counter()
    report = IngestReport()
    config = PipelineConfig(
        policy=policy, reed_limit=reed_limit, jobs=jobs, cache_dir=cache_dir,
        retry=retry, project_deadline=project_deadline, injector=injector,
        executor=executor,
    )

    previous = store.get_meta(INGEST_CHECKPOINT_KEY)
    if previous is not None:
        report.resumed_from = json.loads(previous).get("phase")

    def _mark(phase: str, **extra) -> None:
        store.set_meta(
            INGEST_CHECKPOINT_KEY,
            json.dumps({"phase": phase, **extra}, sort_keys=True),
        )

    preference = vendor_preference(dialects)
    with trace("ingest.select"):
        selected = select_lib_io(activity, lib_io, criteria)
        report.selected = len(selected)
        tasks: list[ProjectTask] = []
        for project in selected:
            choice = choose_ddl_file(list(project.sql_files), dialects=preference)
            if not choice.accepted:
                report.omitted_by_paths[choice.verdict] = (
                    report.omitted_by_paths.get(choice.verdict, 0) + 1
                )
                continue
            assert choice.chosen is not None
            tasks.append(
                ProjectTask(
                    project.repo_name,
                    choice.chosen.path,
                    project.metadata.domain,
                    dialect=dialect_for_choice(choice.chosen.path, dialects),
                )
            )
        report.tasks = len(tasks)
        store.record_funnel_front(
            sql_collection_repos=activity.repository_count(),
            joined_and_filtered=report.selected,
            lib_io_projects=report.tasks,
            omitted_by_paths=report.omitted_by_paths,
        )
        _mark("select", tasks=report.tasks)

    # -- fingerprint pass: prove projects unchanged without measuring ----
    known = store.fingerprints()
    seeds: dict[str, tuple[Repository | None, list[FileVersion]]] = {}
    fingerprints: dict[str, str] = {}
    changed: list[ProjectTask] = []
    unextractable: list[ProjectTask] = []
    with trace("ingest.fingerprint", tasks=len(tasks)) as fp_span:
        for task in tasks:
            try:
                repo = provider(task.repo_name)
                versions = (
                    usable_versions(
                        extract_file_history(repo, task.ddl_path, policy=policy)
                    )
                    if repo is not None
                    else []
                )
                fingerprint = history_fingerprint(task, repo, versions, config)
            except Exception:
                # Reproduce the crash inside the pipeline so it is isolated
                # and recorded as a ProjectFailure like any other.
                unextractable.append(task)
                fingerprints[task.repo_name] = MISSING_REPO_FINGERPRINT
                continue
            fingerprints[task.repo_name] = fingerprint
            if known.get(task.repo_name) == fingerprint:
                report.skipped_unchanged += 1
                continue
            seeds[task.repo_name] = (repo, versions)
            changed.append(task)
        if fp_span is not None:
            fp_span.attrs["unchanged"] = report.skipped_unchanged
            fp_span.attrs["changed"] = len(changed)
    _mark("fingerprint", changed=len(changed), unchanged=report.skipped_unchanged)

    # -- measurement pass: only the delta enters the pipeline ------------
    shared_cache = cache if cache is not None else SchemaCache(config.cache_dir)
    # Seeding (rather than a custom stage chain) keeps the pipeline
    # executable on any backend: the process backend ships each worker
    # its tasks' repositories and pre-extracted version lists.
    pipeline = MeasurementPipeline(
        provider=lambda name: seeds.get(name, (None, []))[0],
        config=config,
        cache=shared_cache,
        seeds=seeds,
    )
    # Measure and persist interleave in chunks: each chunk's rows are
    # durable (and checkpointed) before the next chunk is measured, so
    # a crash loses at most one chunk and the re-run's fingerprint pass
    # proves the persisted prefix unchanged.
    chunk = chunk_size if chunk_size is not None else max(8, config.jobs * 4)
    persisted = 0

    def _persist_batch(contexts: list[ProjectContext]) -> None:
        nonlocal persisted
        with trace("ingest.persist", contexts=len(contexts)):
            for ctx in contexts:
                _persist_resiliently(
                    store,
                    ctx,
                    fingerprints[ctx.task.repo_name],
                    retry,
                    injector,
                    pipeline.stats,
                )
        persisted += len(contexts)
        _mark("measure", persisted=persisted, changed=len(changed))

    with trace("ingest.measure", changed=len(changed)):
        for start in range(0, len(changed), chunk):
            _persist_batch(pipeline.run(changed[start:start + chunk]))
        if unextractable:
            crash_pipeline = MeasurementPipeline(
                provider=provider, config=config, cache=shared_cache
            )
            crash_pipeline.stats = pipeline.stats
            _persist_batch(crash_pipeline.run(unextractable))
    report.measured = persisted

    if prune:
        with trace("ingest.prune"):
            report.pruned = store.prune_missing(fingerprints)

    store.delete_meta(INGEST_CHECKPOINT_KEY)  # the run completed; no resume needed

    outcomes = store.aggregates()["by_outcome"]
    report.zero_versions = outcomes.get(Outcome.ZERO_VERSIONS.value, 0)
    report.no_create = outcomes.get(Outcome.NO_CREATE.value, 0)
    report.rigid = outcomes.get(Outcome.RIGID.value, 0)
    report.studied = outcomes.get(Outcome.STUDIED.value, 0)
    report.failed = outcomes.get(Outcome.FAILED.value, 0)
    report.stats = pipeline.stats
    report.wall_seconds = time.perf_counter() - started
    return report


def _stream_checkpoint_start(store: CorpusStore, spec) -> tuple[int, str | None]:
    """Where to resume a streamed ingest: (first index, interrupted phase).

    The checkpoint is trusted only when its stream identity — seed,
    profile, epoch — matches *spec*; a checkpoint left by a different
    stream (or by classic ingest) restarts from index 0, which is safe
    because streamed persists are idempotent upserts.
    """
    raw = store.get_meta(INGEST_CHECKPOINT_KEY)
    if raw is None:
        return 0, None
    checkpoint = json.loads(raw)
    phase = checkpoint.get("phase")
    if (
        phase == "stream"
        and checkpoint.get("seed") == spec.seed
        and checkpoint.get("profile") == spec.profile
        and checkpoint.get("epoch_start") == spec.epoch_start
        and tuple(checkpoint.get("dialects", ["mysql"]))
        == tuple(getattr(spec, "dialects", ("mysql",)))
    ):
        return min(int(checkpoint.get("next_index", 0)), spec.count), phase
    return 0, phase


def ingest_stream(
    store: CorpusStore,
    spec,
    policy: LinearizationPolicy = LinearizationPolicy.FULL,
    reed_limit: int = DEFAULT_REED_LIMIT,
    jobs: int = 1,
    cache_dir: str | None = None,
    cache: SchemaCache | None = None,
    retry: RetryPolicy = NO_RETRY,
    project_deadline: float | None = None,
    injector: FaultInjector | None = None,
    chunk_size: int | None = None,
    executor: str = "auto",
) -> IngestReport:
    """Consume a synthesis stream into the store in bounded batches.

    The constant-memory counterpart of :func:`ingest_corpus` for
    *synthetic* corpora: *spec* is a
    :class:`~repro.synthesis.stream.StreamSpec`, and projects are
    generated, measured and persisted **one chunk at a time** — at no
    point does more than ``chunk_size`` projects' worth of
    repositories, seeds or measured contexts exist in memory, so peak
    RSS is a function of the chunk size, not of ``spec.count``.

    Everything else mirrors classic ingest:

    - the chunk's measure phase routes through the configured execution
      backend (``jobs``/``executor``), so ``--jobs 4 --executor
      process`` parallelizes each chunk across cores;
    - each chunk persists through the store's batched
      :meth:`~repro.store.store.CorpusStore.persist_batch` — one
      transaction per chunk — then advances the checkpoint under
      :data:`INGEST_CHECKPOINT_KEY` to the next stream index, so a
      killed run resumes **by index**, regenerating nothing before the
      checkpoint (per-project seeds make any suffix of the stream
      independently reproducible);
    - unchanged projects (matching history fingerprints) are skipped
      without measuring, so re-running the same spec measures zero;
    - after the last chunk the store runs ``ANALYZE`` so the query
      planner sees the post-bulk row counts.
    """
    from repro.synthesis.stream import stream_projects  # cycle-free late import

    started = time.perf_counter()
    report = IngestReport(stream_count=spec.count)
    config = PipelineConfig(
        policy=policy, reed_limit=reed_limit, jobs=jobs, cache_dir=cache_dir,
        retry=retry, project_deadline=project_deadline, injector=injector,
        executor=executor,
    )
    start, interrupted_phase = _stream_checkpoint_start(store, spec)
    if interrupted_phase is not None:
        report.resumed_from = interrupted_phase
    report.stream_resumed_at = start
    report.selected = report.tasks = spec.count

    store.record_funnel_front(
        sql_collection_repos=spec.count,
        joined_and_filtered=spec.count,
        lib_io_projects=spec.count,
        omitted_by_paths={},
    )

    def _mark(next_index: int) -> None:
        store.set_meta(
            INGEST_CHECKPOINT_KEY,
            json.dumps(
                {
                    "phase": "stream",
                    "next_index": next_index,
                    "seed": spec.seed,
                    "profile": spec.profile,
                    "epoch_start": spec.epoch_start,
                    "count": spec.count,
                    "dialects": list(getattr(spec, "dialects", ("mysql",))),
                },
                sort_keys=True,
            ),
        )

    chunk = chunk_size if chunk_size is not None else max(8, config.jobs * 4)
    stats: PipelineStats | None = None
    # Every chunk's cache counts into this one registry, so the run's
    # stats cover the whole stream, not its first chunk.
    registry = cache.counters.registry if cache is not None else MetricsRegistry()
    report.skipped_unchanged = start  # the resumed prefix is proven persisted
    with trace("ingest.stream", count=spec.count, start=start, chunk=chunk):
        for chunk_start in range(start, spec.count, chunk):
            chunk_stop = min(chunk_start + chunk, spec.count)
            seeds: dict[str, tuple[Repository | None, list[FileVersion]]] = {}
            tasks: list[ProjectTask] = []
            fingerprints: dict[str, str] = {}
            changed: list[ProjectTask] = []
            with trace("ingest.stream.synthesize", start=chunk_start, stop=chunk_stop):
                for streamed in stream_projects(spec, chunk_start, chunk_stop):
                    task = ProjectTask(
                        streamed.name,
                        streamed.ddl_path,
                        streamed.plan.domain,
                        dialect=getattr(streamed, "dialect", "mysql"),
                    )
                    tasks.append(task)
                    versions = usable_versions(
                        extract_file_history(
                            streamed.repo, streamed.ddl_path, policy=policy
                        )
                    )
                    fingerprint = history_fingerprint(
                        task, streamed.repo, versions, config
                    )
                    fingerprints[task.repo_name] = fingerprint
                    stored = store.get_project(task.repo_name)
                    if stored is not None and stored.history_hash == fingerprint:
                        report.skipped_unchanged += 1
                        continue
                    seeds[task.repo_name] = (streamed.repo, versions)
                    changed.append(task)
            # A fresh in-memory cache per chunk (unless the caller pinned
            # one) keeps the parse/diff cache from growing with the
            # stream; an on-disk cache_dir shares across chunks as usual.
            chunk_cache = (
                cache
                if cache is not None
                else SchemaCache(config.cache_dir, registry=registry)
            )
            pipeline = MeasurementPipeline(
                provider=lambda name: seeds.get(name, (None, []))[0],
                config=config,
                cache=chunk_cache,
                seeds=seeds,
            )
            if stats is None:
                stats = pipeline.stats
            else:
                pipeline.stats = stats
            contexts = pipeline.run(changed) if changed else []
            with trace("ingest.stream.persist", contexts=len(contexts)):
                if injector is None and retry.max_attempts <= 1:
                    store.persist_batch(
                        [
                            (ctx, fingerprints[ctx.task.repo_name])
                            for ctx in contexts
                        ]
                    )
                else:
                    # Fault injection / retry fidelity: the sequential
                    # resilient path records persist failures per project.
                    for ctx in contexts:
                        _persist_resiliently(
                            store,
                            ctx,
                            fingerprints[ctx.task.repo_name],
                            retry,
                            injector,
                            pipeline.stats,
                        )
            report.measured += len(contexts)
            _mark(chunk_stop)
    with trace("ingest.analyze"):
        store.analyze()
    store.delete_meta(INGEST_CHECKPOINT_KEY)

    outcomes = store.aggregates()["by_outcome"]
    report.zero_versions = outcomes.get(Outcome.ZERO_VERSIONS.value, 0)
    report.no_create = outcomes.get(Outcome.NO_CREATE.value, 0)
    report.rigid = outcomes.get(Outcome.RIGID.value, 0)
    report.studied = outcomes.get(Outcome.STUDIED.value, 0)
    report.failed = outcomes.get(Outcome.FAILED.value, 0)
    report.stats = stats
    report.wall_seconds = time.perf_counter() - started
    return report
