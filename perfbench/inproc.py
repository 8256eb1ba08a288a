"""In-process calls into the program for the serve workloads.

Run in its own process so the load generator never imports the program::

    python3 perfbench/inproc.py build  '{"db": ..., "seed": ..., "count": ..., "targets": [...]}'
    python3 perfbench/inproc.py render '{"requests": [[db, path, query], ...]}'

``build`` streams a light-profile corpus into a fresh store (what
``repro ingest --stream`` runs) and returns the KiB of DDL history it
holds and, for each target stream index, a proposal for the advise
endpoint: the project's latest DDL plus one probe table.  ``render``
answers each request through ``CorpusService.handle_rendered`` over its
store file and returns the sha256 of each body.
"""

from __future__ import annotations

import hashlib
import json
import sys
from urllib.parse import parse_qsl


def build(job: dict) -> dict:
    from repro.pipeline.stages import usable_versions
    from repro.store import CorpusStore, ingest_stream
    from repro.synthesis.stream import StreamSpec, synthesize_project
    from repro.vcs.history import extract_file_history

    spec = StreamSpec(seed=job["seed"], count=job["count"], profile="light")
    store = CorpusStore(job["db"])
    try:
        ingest_stream(store, spec)
        identity = {"content_hash": store.content_hash(), "projects": store.project_count()}
    finally:
        store.close()
    kib = 0.0
    heads = {}
    for index in range(spec.count):
        project = synthesize_project(spec, index)
        versions = usable_versions(extract_file_history(project.repo, project.ddl_path))
        kib += sum(len(v.text) for v in versions) / 1024.0
        if index in job["targets"]:
            heads[index] = (project.name, versions[-1])
    proposals = []
    for number, index in enumerate(job["targets"]):
        name, head = heads[index]
        ddl = (
            head.text.rstrip()
            + f"\n\nCREATE TABLE bench_probe_{number} (\n"
            + "  id INT NOT NULL,\n  note VARCHAR(64),\n  PRIMARY KEY (id)\n);\n"
        )
        proposals.append({"index": index, "name": name, "ddl": ddl})
    return {"identity": identity, "kib": kib, "proposals": proposals}


def render(job: dict) -> dict:
    from repro.serve.service import CorpusService
    from repro.store import CorpusStore

    stores: dict[str, CorpusStore] = {}
    services: dict[str, CorpusService] = {}
    digests = []
    try:
        for db, path, query in job["requests"]:
            if db not in services:
                stores[db] = CorpusStore(db)
                services[db] = CorpusService(stores[db])
            canonical = "&".join(sorted(query.split("&"))) if query else ""
            rendered = services[db].handle_rendered(path, canonical, dict(parse_qsl(query)))
            digests.append(hashlib.sha256(rendered.body).hexdigest())
    finally:
        for store in stores.values():
            store.close()
    return {"digests": digests}


def main(argv: list[str]) -> int:
    command, job = argv[0], json.loads(argv[1])
    result = {"build": build, "render": render}[command](job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
