"""JSONL trace export: one self-describing record per line.

A trace file is an append-friendly stream of JSON objects, one per
line, each tagged with a ``"type"``:

``campaign``
    Exactly one, first line: ``schema`` (format version), ``workers``
    (actual pool width), ``wall_seconds``, ``shards``.
``shard``
    One per shard: ``shard`` (platform id), ``status``, ``seed``,
    ``wall_seconds``.
``counter``
    Per-shard metric counters (``n_runs``, every ``RunCounters`` field,
    ``trace_bytes``, ``wall_seconds``): ``shard``, ``name``, ``value``.
``span``
    One closed span: ``shard``, ``index``, ``parent``, ``depth``,
    ``name``, ``start``, ``duration``, ``meta`` (string -> string).

The validator below is hand rolled (no jsonschema dependency) and is
what the CI smoke step runs against a ``--trace`` campaign's output;
the full schema is documented in ``docs/TELEMETRY.md``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .recorder import SpanRecord

__all__ = [
    "SCHEMA_VERSION",
    "span_to_obj",
    "obj_to_span",
    "shard_counters",
    "campaign_records",
    "write_trace",
    "write_shard_trace",
    "read_trace",
    "read_spans",
    "trace_bytes",
    "validate_record",
    "validate_trace_file",
]

SCHEMA_VERSION = 1

def span_to_obj(shard: str, record: SpanRecord) -> dict[str, Any]:
    """One span as its JSONL object."""
    return {
        "type": "span",
        "shard": shard,
        "index": record.index,
        "parent": record.parent,
        "depth": record.depth,
        "name": record.name,
        "start": record.start,
        "duration": record.duration,
        "meta": record.meta_dict(),
    }


def obj_to_span(obj: dict[str, Any]) -> SpanRecord:
    """The inverse of :func:`span_to_obj` (drops the shard tag)."""
    validate_record(obj)
    if obj["type"] != "span":
        raise ValueError(f"not a span record: type={obj['type']!r}")
    return SpanRecord(
        name=obj["name"],
        start=obj["start"],
        duration=obj["duration"],
        index=obj["index"],
        parent=obj["parent"],
        depth=obj["depth"],
        meta=tuple(sorted(obj["meta"].items())),
    )


def _dumps(obj: dict[str, Any]) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def trace_bytes(shard: str, spans: Sequence[SpanRecord]) -> int:
    """Size in bytes of a shard's spans as encoded JSONL lines.

    This is the ``trace_bytes`` counter a shard reports -- how much
    trace it shipped across the pool boundary -- computed from the
    canonical encoding so it is deterministic across processes.
    """
    return sum(
        len(_dumps(span_to_obj(shard, record)).encode()) + 1
        for record in spans
    )


def shard_counters(shard_report: Any) -> list[tuple[str, float]]:
    """The exported ``(name, value)`` counters of one shard report.

    Duck-typed on :class:`~repro.microbench.campaign.ShardReport` (no
    import: telemetry stays standalone): ``n_runs``, then every field
    of its ``checked_counters()`` -- which raises ``ValueError`` naming
    the shard when the accounting identities fail -- in declaration
    order, then ``trace_bytes`` and ``wall_seconds``.
    """
    counters = shard_report.checked_counters()
    return [
        ("n_runs", float(shard_report.n_runs)),
        *((name, float(value)) for name, value in asdict(counters).items()),
        ("trace_bytes", float(shard_report.trace_bytes)),
        ("wall_seconds", float(shard_report.wall_seconds)),
    ]


def _header(workers: int, wall_seconds: float, shards: int) -> dict[str, Any]:
    return {
        "type": "campaign",
        "schema": SCHEMA_VERSION,
        "workers": int(workers),
        "wall_seconds": float(wall_seconds),
        "shards": shards,
    }


def _shard_records(
    shard: str,
    status: str,
    seed: int,
    wall_seconds: float,
    counters: Sequence[tuple[str, float]],
    spans: Iterable[SpanRecord],
) -> Iterator[dict[str, Any]]:
    """One shard's records: the shard line, its counters, its spans."""
    yield {
        "type": "shard",
        "shard": shard,
        "status": status,
        "seed": int(seed),
        "wall_seconds": float(wall_seconds),
    }
    for name, value in counters:
        yield {"type": "counter", "shard": shard, "name": name, "value": value}
    for record in spans:
        yield span_to_obj(shard, record)


def campaign_records(report: Any) -> Iterator[dict[str, Any]]:
    """Every JSONL record of one campaign, header first.

    ``report`` is duck-typed on
    :class:`~repro.microbench.campaign.CampaignReport`: it needs
    ``workers``, ``wall_seconds`` and ``shards`` (each shard with
    ``platform_id``, ``status``, ``seed``, ``wall_seconds``, ``n_runs``,
    ``trace_bytes``, ``checked_counters()`` and ``spans``).  Every
    shard's counters are checked before the first record is produced.
    """
    counters = [shard_counters(shard) for shard in report.shards]
    return chain(
        [_header(report.workers, report.wall_seconds, len(report.shards))],
        *(
            _shard_records(
                shard.platform_id,
                shard.status,
                shard.seed,
                shard.wall_seconds,
                exported,
                shard.spans,
            )
            for shard, exported in zip(report.shards, counters)
        ),
    )


def _write_records(path: str | Path, records: Iterable[dict[str, Any]]) -> int:
    lines = 0
    with open(path, "w", encoding="utf-8") as handle:
        for obj in records:
            handle.write(_dumps(obj) + "\n")
            lines += 1
    return lines


def write_trace(path: str | Path, report: Any) -> int:
    """Write a campaign's full trace as JSONL; returns lines written.

    Raises ``ValueError`` naming the shard, before the file is opened,
    when a shard's counters break the accounting identities.
    """
    return _write_records(path, campaign_records(report))


def write_shard_trace(
    path: str | Path,
    shard: str,
    spans: Sequence[SpanRecord],
    *,
    wall_seconds: float,
    status: str = "ok",
    seed: int = 0,
) -> int:
    """Write one non-campaign scope (a service, a solve) as a
    single-shard campaign-schema trace; returns lines written.

    The records are the header, the shard line, its ``wall_seconds``
    counter and the spans, so the file validates with
    :func:`validate_trace_file` and reads back through
    :func:`read_spans` under the name ``shard``.
    """
    wall = float(wall_seconds)
    return _write_records(
        path,
        chain(
            [_header(1, wall, 1)],
            _shard_records(
                shard, status, seed, wall, [("wall_seconds", wall)], spans
            ),
        ),
    )


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Read and validate every record of a trace file."""
    out = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"line {lineno}: not JSON ({err})") from None
            try:
                validate_record(obj)
            except ValueError as err:
                raise ValueError(f"line {lineno}: {err}") from None
            out.append(obj)
    return out


def read_spans(path: str | Path) -> dict[str, list[SpanRecord]]:
    """The span records of a trace file, grouped by shard, in
    timeline order."""
    grouped: dict[str, list[SpanRecord]] = {}
    for obj in read_trace(path):
        if obj["type"] != "span":
            continue
        grouped.setdefault(obj["shard"], []).append(obj_to_span(obj))
    for spans in grouped.values():
        spans.sort(key=lambda s: (s.start, s.index))
    return grouped


# ----------------------------------------------------------------------
# Validation.
# ----------------------------------------------------------------------

_REQUIRED: dict[str, dict[str, type | tuple[type, ...]]] = {
    "campaign": {
        "schema": int,
        "workers": int,
        "wall_seconds": (int, float),
        "shards": int,
    },
    "shard": {
        "shard": str,
        "status": str,
        "seed": int,
        "wall_seconds": (int, float),
    },
    "counter": {"shard": str, "name": str, "value": (int, float)},
    "span": {
        "shard": str,
        "index": int,
        "parent": int,
        "depth": int,
        "name": str,
        "start": (int, float),
        "duration": (int, float),
        "meta": dict,
    },
}


def _check_finite(obj: dict[str, Any], *names: str) -> None:
    for name in names:
        if not math.isfinite(obj[name]):
            raise ValueError(f"{name} must be finite, got {obj[name]!r}")


def validate_record(obj: Any) -> None:
    """Validate one JSONL record; raises ``ValueError`` with the
    offending field named."""
    if not isinstance(obj, dict):
        raise ValueError(f"record must be an object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind not in _REQUIRED:
        raise ValueError(
            f"unknown record type {kind!r}; expected one of "
            f"{sorted(_REQUIRED)}"
        )
    for name, types in _REQUIRED[kind].items():
        if name not in obj:
            raise ValueError(f"{kind} record missing field {name!r}")
        value = obj[name]
        # bool is an int subclass; never valid where a number is expected.
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(
                f"{kind}.{name} must be "
                f"{types if isinstance(types, type) else types}, "
                f"got {value!r}"
            )
    if kind == "campaign":
        if obj["schema"] != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema version {obj['schema']} "
                f"(this reader understands {SCHEMA_VERSION})"
            )
        if obj["workers"] < 1:
            raise ValueError(f"workers must be >= 1, got {obj['workers']}")
        _check_finite(obj, "wall_seconds")
    elif kind == "shard":
        _check_finite(obj, "wall_seconds")
        if obj["wall_seconds"] < 0:
            raise ValueError("shard wall_seconds must be non-negative")
    elif kind == "counter":
        _check_finite(obj, "value")
    elif kind == "span":
        _check_finite(obj, "start", "duration")
        if obj["duration"] < 0:
            raise ValueError("span duration must be non-negative")
        if obj["index"] < 0 or obj["parent"] < -1 or obj["depth"] < 0:
            raise ValueError("span index/parent/depth out of range")
        for key, value in obj["meta"].items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ValueError(
                    f"span meta must map str to str, got {key!r}: {value!r}"
                )


def validate_trace_file(path: str | Path) -> int:
    """Validate a whole trace file; returns the record count.

    Beyond per-record checks this enforces the file-level invariants:
    the first record is the (single) campaign header, its ``shards``
    count matches the shard records present, and every counter/span
    references a declared shard.
    """
    records = read_trace(path)
    if not records:
        raise ValueError("empty trace file")
    header = records[0]
    if header["type"] != "campaign":
        raise ValueError(
            f"first record must be the campaign header, got "
            f"{header['type']!r}"
        )
    shard_ids = [r["shard"] for r in records if r["type"] == "shard"]
    if len([r for r in records if r["type"] == "campaign"]) != 1:
        raise ValueError("trace must contain exactly one campaign header")
    if len(set(shard_ids)) != len(shard_ids):
        raise ValueError("duplicate shard records")
    if header["shards"] != len(shard_ids):
        raise ValueError(
            f"header declares {header['shards']} shards, file has "
            f"{len(shard_ids)}"
        )
    declared = set(shard_ids)
    for record in records:
        if record["type"] in ("counter", "span"):
            if record["shard"] not in declared:
                raise ValueError(
                    f"{record['type']} references undeclared shard "
                    f"{record['shard']!r}"
                )
    return len(records)
