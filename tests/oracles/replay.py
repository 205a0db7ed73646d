"""Replay equality: one seeded run, recorded twice, is one recording.

Host timings (every ``wall*`` key, e.g. a span's ``wall_seconds``
attribute) are the only part of a flight recording that may differ
between two runs of the same seed; everything else -- records, order,
sim times, message ids, metric snapshot -- must repeat exactly.  Span,
trace and parent ids are process-wide counters, so the two runs must
each start in a fresh process.
"""

import json
from pathlib import Path
from typing import Any, List, Union


def without_wall(record: Any) -> Any:
    """``record`` with every ``wall*`` key dropped, at any depth."""
    if isinstance(record, dict):
        return {
            key: without_wall(value)
            for key, value in record.items()
            if not key.startswith("wall")
        }
    if isinstance(record, list):
        return [without_wall(value) for value in record]
    return record


def _records(path: Union[str, Path]) -> List[Any]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [without_wall(json.loads(line)) for line in lines if line.strip()]


def assert_replays_equal(a: Union[str, Path], b: Union[str, Path]) -> None:
    """Two JSONL flight recordings hold equal records, ``wall*`` keys aside.

    The first differing record is named by its line number, so a
    nondeterminism points at the first event it moved.
    """
    first, second = _records(a), _records(b)
    for lineno, (x, y) in enumerate(zip(first, second), start=1):
        assert x == y, f"record {lineno} differs:\n  {x}\n  {y}"
    assert len(first) == len(second), (
        f"{len(first)} records against {len(second)}"
    )
