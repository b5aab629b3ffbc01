"""Render a campaign summary from a trace file or live registry.

``python -m repro.obs.report trace.jsonl`` reconstructs, from nothing
but the JSON-lines records, what a sharded campaign actually did:

* per-campaign wall time, fault/vector totals and faults-per-second
  throughput (from ``campaign``/``sharded_campaign`` spans and
  ``campaign_completed`` events);
* shard lifecycle counts (submitted/completed/failed/merged) and
  whether they balance -- ``submitted == completed + failed``;
* checkpoint resume/write counts and -- from the embedded ``metrics``
  records, merged across pids -- store hit rate and per-backend kernel
  time.

``--live`` summarizes the current process's registry snapshot instead
(no trace file needed), which is what a long-running service endpoint
would serve.  The module deliberately imports only :mod:`repro.obs`
siblings: it must load in a stripped analysis environment with no
numpy and no simulation stack.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Iterable, List, Mapping, Optional, TextIO

from . import events as _events
from . import metrics as _metrics
from . import trace as _trace

#: Span names treated as campaign roots by the summary.
CAMPAIGN_SPANS = ("sharded_campaign", "campaign")


def _attr(record: Mapping[str, Any], key: str, default: Any = None) -> Any:
    return record.get("attrs", {}).get(key, default)


def summarize(records: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Fold trace records into one JSON-friendly summary dict."""
    spans: List[Mapping[str, Any]] = []
    event_records: List[Mapping[str, Any]] = []
    merged = _metrics.MetricsRegistry()
    for record in records:
        kind = record.get("type")
        if kind == "span":
            spans.append(record)
        elif kind == "event":
            event_records.append(record)
        elif kind == "metrics":
            _metrics.merge_snapshot(merged, record.get("metrics", {}))
    snapshot = merged.snapshot()

    summary: Dict[str, Any] = {
        "n_records": len(spans) + len(event_records),
        "campaigns": _campaigns(spans, event_records),
        "shards": _shards(event_records),
        "checkpoints": _checkpoints(event_records),
        "store": store_summary(snapshot),
        "kernels": kernel_summary(snapshot),
        "events": _event_counts(event_records),
    }
    return summary


def _campaigns(
    spans: List[Mapping[str, Any]], event_records: List[Mapping[str, Any]]
) -> List[Dict[str, Any]]:
    completions = {
        record.get("span"): record
        for record in event_records
        if record.get("name") == _events.CAMPAIGN_COMPLETED
    }
    out: List[Dict[str, Any]] = []
    for record in spans:
        if record.get("name") not in CAMPAIGN_SPANS:
            continue
        entry: Dict[str, Any] = {
            "span": record.get("name"),
            "netlist": _attr(record, "netlist"),
            "backend": _attr(record, "backend"),
            "seconds": record.get("dur"),
            "pid": record.get("pid"),
        }
        done = completions.get(record.get("span"))
        if done is not None:
            if entry.get("backend") is None:
                entry["backend"] = _attr(done, "backend")
            for key in ("n_faults", "n_vectors", "n_simulated_runs"):
                entry[key] = _attr(done, key)
            dur = record.get("dur") or 0.0
            n_faults = entry.get("n_faults")
            if n_faults and dur > 0:
                entry["faults_per_second"] = n_faults / dur
        if record.get("error"):
            entry["error"] = record["error"]
        out.append(entry)
    return out


def _shards(event_records: List[Mapping[str, Any]]) -> Optional[Dict[str, Any]]:
    counts = {name: 0 for name in (
        _events.SHARD_SUBMITTED,
        _events.SHARD_STARTED,
        _events.SHARD_COMPLETED,
        _events.SHARD_FAILED,
        _events.SHARDS_MERGED,
    )}
    for record in event_records:
        name = record.get("name")
        if name in counts:
            counts[name] += 1
    if not any(counts.values()):
        return None
    return {
        "submitted": counts[_events.SHARD_SUBMITTED],
        "completed": counts[_events.SHARD_COMPLETED],
        "failed": counts[_events.SHARD_FAILED],
        "merges": counts[_events.SHARDS_MERGED],
        "balanced": counts[_events.SHARD_SUBMITTED]
        == counts[_events.SHARD_COMPLETED] + counts[_events.SHARD_FAILED],
    }


def _checkpoints(event_records: List[Mapping[str, Any]]) -> Optional[Dict[str, int]]:
    written = sum(
        1 for r in event_records if r.get("name") == _events.CHECKPOINT_WRITTEN
    )
    resumed = sum(
        1 for r in event_records if r.get("name") == _events.CHECKPOINT_RESUMED
    )
    if not (written or resumed):
        return None
    return {"written": written, "resumed": resumed}


def _event_counts(event_records: List[Mapping[str, Any]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in event_records:
        name = str(record.get("name"))
        counts[name] = counts.get(name, 0) + 1
    return dict(sorted(counts.items()))


def store_summary(snapshot: Mapping[str, Mapping[str, Any]]) -> Optional[Dict[str, Any]]:
    """Hit/miss/corruption totals from a metrics snapshot, if present."""
    counters = snapshot.get("counters", {})
    totals = {"hits": 0.0, "misses": 0.0, "puts": 0.0, "corrupt": 0.0}
    seen = False
    for key, value in counters.items():
        name = key.partition("{")[0]
        if name == "repro_store_hits_total":
            totals["hits"] += value
            seen = True
        elif name == "repro_store_misses_total":
            totals["misses"] += value
            seen = True
        elif name == "repro_store_puts_total":
            totals["puts"] += value
            seen = True
        elif name == "repro_store_corrupt_total":
            totals["corrupt"] += value
            seen = True
    if not seen:
        return None
    lookups = totals["hits"] + totals["misses"]
    out: Dict[str, Any] = {key: int(value) for key, value in totals.items()}
    out["hit_rate"] = (totals["hits"] / lookups) if lookups else 0.0
    return out


def kernel_summary(snapshot: Mapping[str, Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Per-backend/kernel call counts and total seconds, busiest first."""
    out: List[Dict[str, Any]] = []
    for key, hist in snapshot.get("histograms", {}).items():
        name, _, rest = key.partition("{")
        if name != "repro_kernel_seconds":
            continue
        labels = dict(
            part.partition("=")[::2] for part in rest.rstrip("}").split(",") if part
        )
        out.append(
            {
                "backend": labels.get("backend", "?"),
                "kernel": labels.get("kernel", "?"),
                "calls": int(hist.get("count", 0)),
                "seconds": float(hist.get("sum", 0.0)),
                "max_seconds": float(hist.get("max", 0.0)),
            }
        )
    out.sort(key=lambda row: -row["seconds"])
    return out


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "?"
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1e3:.2f}ms"


def render(summary: Mapping[str, Any], out: TextIO) -> None:
    """Human-readable rendering of a :func:`summarize` result."""
    print(f"trace: {summary.get('n_records', 0)} records", file=out)
    for campaign in summary.get("campaigns") or []:
        label = campaign.get("netlist") or "?"
        line = (
            f"campaign [{campaign.get('span')}] netlist={label}"
            f" backend={campaign.get('backend') or '?'}"
            f" wall={_fmt_seconds(campaign.get('seconds'))}"
        )
        if campaign.get("n_faults") is not None:
            line += f" faults={campaign['n_faults']}"
        if campaign.get("faults_per_second"):
            line += f" throughput={campaign['faults_per_second']:.0f} faults/s"
        if campaign.get("error"):
            line += f" ERROR={campaign['error']}"
        print(line, file=out)
    shards = summary.get("shards")
    if shards:
        print(
            f"shards: submitted={shards['submitted']} completed={shards['completed']}"
            f" failed={shards['failed']}"
            f" balanced={'yes' if shards['balanced'] else 'NO'}",
            file=out,
        )
    checkpoints = summary.get("checkpoints")
    if checkpoints:
        print(
            f"checkpoints: written={checkpoints['written']}"
            f" resumed={checkpoints['resumed']}",
            file=out,
        )
    store = summary.get("store")
    if store:
        print(
            f"store: hits={store['hits']} misses={store['misses']}"
            f" puts={store['puts']} corrupt={store['corrupt']}"
            f" hit_rate={store['hit_rate']:.1%}",
            file=out,
        )
    kernels = summary.get("kernels") or []
    for row in kernels:
        print(
            f"kernel: {row['backend']}.{row['kernel']} calls={row['calls']}"
            f" total={_fmt_seconds(row['seconds'])}",
            file=out,
        )
    counts = summary.get("events") or {}
    if counts:
        rendered = ", ".join(f"{name}={count}" for name, count in counts.items())
        print(f"events: {rendered}", file=out)


def live_summary() -> Dict[str, Any]:
    """Summarize this process: ring-buffer records + current registry."""
    summary = summarize(_trace.ring_records())
    snapshot = _metrics.registry().snapshot()
    store = store_summary(snapshot)
    if store:
        summary["store"] = store
    kernels = kernel_summary(snapshot)
    if kernels:
        summary["kernels"] = kernels
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize a repro campaign trace (JSON lines) or the live registry.",
    )
    parser.add_argument("trace", nargs="?", help="trace file written via REPRO_TRACE")
    parser.add_argument(
        "--live", action="store_true", help="summarize this process's ring buffer + registry"
    )
    parser.add_argument(
        "--metrics", metavar="PATH", help="also merge a REPRO_METRICS dump file"
    )
    parser.add_argument("--json", action="store_true", help="emit the summary as JSON")
    args = parser.parse_args(argv)

    if args.live:
        summary = live_summary()
    elif args.trace:
        summary = summarize(_trace.read_trace(args.trace))
    else:
        parser.error("need a trace file or --live")
        return 2
    if args.metrics:
        snapshot = _metrics.load_dump(args.metrics)
        store = store_summary(snapshot)
        if store:
            summary["store"] = store
        kernels = kernel_summary(snapshot)
        if kernels:
            summary["kernels"] = kernels

    try:
        if args.json:
            json.dump(summary, sys.stdout, indent=2, sort_keys=True, default=str)
            sys.stdout.write("\n")
        else:
            render(summary, sys.stdout)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is a normal exit.
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "CAMPAIGN_SPANS",
    "kernel_summary",
    "live_summary",
    "main",
    "render",
    "store_summary",
    "summarize",
]
