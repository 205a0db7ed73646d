"""Content-hash-keyed incremental analysis cache + parallel fan-out.

One JSON file (``cache.json`` under the cache directory) maps each
analysed path to the sha256 of its content plus the two per-module
artifacts the engine needs: the :class:`~repro.tools.check.symbols.
ModuleSummary` (feeding the whole-program pass) and the *unfiltered*
per-file findings (SFL000-SFL012, post-``noqa`` but pre-``--select``/
``--ignore``, so one cache serves every CLI filter combination).

A warm run therefore re-parses only the modules whose content hash
changed; everything else is replayed from the cache bit-identically.
The interprocedural phase always re-runs over the (cheap, in-memory)
summaries -- that is what keeps cross-module findings correct for the
reverse-dependency closure of an edit without tracking per-rule
dependencies.  The cache key also folds in the engine schema and the
registered rule codes, so upgrading ``sflow-check`` invalidates stale
caches wholesale instead of mixing findings from two rule sets.

The miss set can be analysed by a ``multiprocessing`` pool
(:func:`analyze_files`); results are collected in submission order, so
parallel runs are bit-identical to serial ones.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.tools.check.base import Violation
from repro.tools.check.symbols import ModuleSummary

#: Bump to invalidate every cache written by older engine layouts or rule
#: vocabularies (2: ``mutate`` left :data:`~repro.tools.check.vocab.INVALIDATORS`;
#: 3: :data:`~repro.tools.check.vocab.TREE_FUNCTIONS` became the kernel's batch).
CACHE_SCHEMA = 3

CACHE_FILENAME = "cache.json"


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class CacheEntry:
    """Everything cached for one analysed file."""

    hash: str
    summary: ModuleSummary
    findings: List[Violation]

    def as_dict(self) -> Dict[str, object]:
        return {
            "hash": self.hash,
            "summary": self.summary.as_dict(),
            "findings": [v.as_dict() for v in self.findings],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CacheEntry":
        return cls(
            hash=str(payload["hash"]),
            summary=ModuleSummary.from_dict(payload["summary"]),  # type: ignore[arg-type]
            findings=[
                Violation(
                    path=str(v["path"]),
                    line=int(v["line"]),
                    col=int(v["col"]) - 1,  # as_dict renders 1-based columns
                    code=str(v["code"]),
                    message=str(v["message"]),
                )
                for v in payload["findings"]  # type: ignore[union-attr]
            ],
        )


@dataclass
class CacheStats:
    """Counters surfaced via ``--stats`` and the benchmark record."""

    files: int = 0
    hits: int = 0
    misses: int = 0
    changed_modules: List[str] = field(default_factory=list)
    reverse_closure: List[str] = field(default_factory=list)
    workers: int = 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "files": self.files,
            "hits": self.hits,
            "misses": self.misses,
            "changed_modules": list(self.changed_modules),
            "reverse_closure": list(self.reverse_closure),
            "workers": self.workers,
        }


class AnalysisCache:
    """The on-disk cache: load on construction, :meth:`save` after a run."""

    def __init__(self, directory: Path, rule_signature: Sequence[str]) -> None:
        self.directory = directory
        self.path = directory / CACHE_FILENAME
        self.rule_signature = list(rule_signature)
        self.entries: Dict[str, CacheEntry] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            return  # corrupt cache == cold start
        if (
            payload.get("schema") != CACHE_SCHEMA
            or payload.get("rules") != self.rule_signature
        ):
            return  # engine or rule set changed; discard wholesale
        for key, raw in payload.get("entries", {}).items():
            try:
                self.entries[key] = CacheEntry.from_dict(raw)
            except (KeyError, ValueError, TypeError):
                continue  # skip unreadable entries, re-analyse those files

    def lookup(self, path: str, digest: str) -> Optional[CacheEntry]:
        entry = self.entries.get(path)
        if entry is not None and entry.hash == digest:
            return entry
        return None

    def store(self, path: str, entry: CacheEntry) -> None:
        self.entries[path] = entry

    def prune(self, live_paths: Sequence[str]) -> None:
        """Drop entries for files no longer part of the run."""
        live = set(live_paths)
        for stale in [p for p in self.entries if p not in live]:
            del self.entries[stale]

    def save(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "rules": self.rule_signature,
            "entries": {
                path: entry.as_dict()
                for path, entry in sorted(self.entries.items())
            },
        }
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# file-level fan-out
# ---------------------------------------------------------------------------


def _analyze_one(path_str: str) -> Tuple[str, str, Dict[str, object], Optional[str]]:
    """Worker body: analyse one file, return picklable artifacts.

    Returns ``(path, digest, entry payload, error)`` where exactly one of
    payload/error is meaningful.  Imported lazily inside the function so a
    spawned worker only pays for what it uses.
    """
    from repro.tools.check.engine import analyze_file_payload

    return analyze_file_payload(path_str)


def analyze_files(
    paths: Sequence[str], jobs: int
) -> List[Tuple[str, str, Dict[str, object], Optional[str]]]:
    """Analyse ``paths``, fanning out across ``jobs`` worker processes.

    ``jobs <= 1`` (or a tiny batch) runs serially in-process.  Results
    come back in input order either way, keeping warm/cold/parallel runs
    bit-identical.
    """
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    jobs = min(jobs, len(paths)) if paths else 1
    if jobs <= 1 or len(paths) < 4:
        return [_analyze_one(p) for p in paths]
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    with ctx.Pool(processes=jobs) as pool:
        return pool.map(_analyze_one, paths, chunksize=max(1, len(paths) // (jobs * 4)))
