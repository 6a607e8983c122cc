#!/usr/bin/env python3
"""Validate a scraped observability document from the sort service.

Reads the document from stdin (or a file argument). Two modes:

  check_metrics.py            JSON document, as served for StatsFormat
                              json: {"metrics": {...}, "slow_requests":
                              [...]}. Checks the schema, that counters and
                              gauges are integers, that histogram objects
                              carry the full summary-stat set, and — the
                              CI smoke's point — that every per-stage
                              latency histogram has samples.
  check_metrics.py --prometheus
                              Prometheus text exposition: every non-#
                              line must match the sample grammar, every
                              sample must be preceded by a # TYPE line for
                              its metric, and the stage histograms must
                              report non-zero _count samples.

Both modes also check the request-accounting identity, which holds at
any instant: serve_completed_total + serve_failed_total +
serve_expired_total <= serve_submitted_total. Every finished request was
admitted first; it is not an equality, because requests still in flight
and groups refused after admission (serve_rejected_total) are neither.

Flags (both modes):

  --require-cache             also assert the sorter-pool cache series
                              (pool_hits_total / pool_misses_total /
                              pool_evictions_total, plus the pool_capacity
                              and pool_shapes gauges) are present and that
                              at least one miss was recorded — i.e. the
                              scrape saw a pool that actually built a
                              shape.
  --require-evictions         additionally assert pool_evictions_total > 0
                              — the churn smoke's point: under more shapes
                              than capacity, the LRU must have evicted.
  --require-process-stats     assert the process_rss_bytes and
                              process_open_fds gauges are present and
                              positive — i.e. the scrape came from a
                              server whose /proc sampling works (the soak
                              harness leans on these for leak detection).

Exits non-zero listing every violation, so a malformed or empty scrape
fails CI loudly.

Usage: tool_sortd --listen 0 &  ... load ...
       example_net_client --port P --stats | scripts/check_metrics.py
"""

import json
import re
import sys

STAGES = (
    "stage_decode_ns",
    "stage_queue_ns",
    "stage_execute_ns",
    "stage_encode_ns",
    "stage_write_ns",
)
HISTO_KEYS = {"count", "min", "p50", "p90", "p99", "max", "mean"}
SLOW_KEYS = {
    "channels", "bits", "rounds", "total_ns", "queue_ns", "execute_ns",
    "status",
}

# name or name{k="v",...} followed by a number; \" and \\ stay inside the
# quoted label value.
CACHE_COUNTERS = (
    "pool_hits_total",
    "pool_misses_total",
    "pool_evictions_total",
)
CACHE_GAUGES = ("pool_capacity", "pool_shapes")
FINISHED_COUNTERS = (
    "serve_completed_total",
    "serve_failed_total",
    "serve_expired_total",
)
PROCESS_GAUGES = ("process_rss_bytes", "process_open_fds")

SAMPLE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r' -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$'
)
TYPE_LINE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|untyped)$"
)


def check_cache(values: dict, require_evictions: bool) -> list:
    """Shared --require-cache assertions over a {name: value} map."""
    errors = []
    for name in CACHE_COUNTERS + CACHE_GAUGES:
        if name not in values:
            errors.append(f"{name}: cache series missing")
    misses = values.get("pool_misses_total")
    if misses is not None and misses == 0:
        errors.append("pool_misses_total: no cache miss recorded — did the "
                      "pool ever build a shape?")
    if require_evictions:
        evictions = values.get("pool_evictions_total")
        if evictions is not None and evictions == 0:
            errors.append("pool_evictions_total: no eviction under churn — "
                          "is the LRU bound enforced?")
    return errors


def check_request_accounting(values: dict) -> list:
    """completed + failed + expired <= submitted, over a {name: value} map."""
    names = ("serve_submitted_total",) + FINISHED_COUNTERS
    errors = [f"{name}: request counter missing"
              for name in names if name not in values]
    if errors:
        return errors
    finished = sum(values[name] for name in FINISHED_COUNTERS)
    submitted = values["serve_submitted_total"]
    if finished > submitted:
        errors.append(f"request accounting: completed + failed + expired = "
                      f"{finished:g} exceeds serve_submitted_total = "
                      f"{submitted:g}")
    return errors


def check_process_stats(values: dict) -> list:
    """Shared --require-process-stats assertions over a {name: value} map.

    The gauges publish -1 when /proc sampling is unsupported, so "present
    but non-positive" is as much a failure as "missing": CI runs on Linux
    where the sampling must work.
    """
    errors = []
    for name in PROCESS_GAUGES:
        value = values.get(name)
        if value is None:
            errors.append(f"{name}: process-stats gauge missing")
        elif value <= 0:
            errors.append(f"{name}: non-positive ({value}) — /proc "
                          "sampling unsupported or broken")
    return errors


def check_json(text: str, require_cache: bool = False,
               require_evictions: bool = False,
               require_process: bool = False) -> list:
    errors = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return [f"not valid JSON: {e}"]
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    for key in ("metrics", "slow_requests"):
        if key not in doc:
            errors.append(f'missing top-level "{key}"')
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return errors + ['"metrics" is not an object']

    for key, value in metrics.items():
        if isinstance(value, dict):
            missing = HISTO_KEYS - value.keys()
            if missing:
                errors.append(f"{key}: histogram missing {sorted(missing)}")
            continue
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"{key}: expected integer, got {value!r}")

    for stage in STAGES:
        histo = metrics.get(stage)
        if not isinstance(histo, dict):
            errors.append(f"{stage}: missing stage histogram")
        elif not histo.get("count"):
            errors.append(f"{stage}: stage histogram is empty")

    slow = doc.get("slow_requests")
    if not isinstance(slow, list):
        errors.append('"slow_requests" is not an array')
    else:
        for i, entry in enumerate(slow):
            if not isinstance(entry, dict) or entry.keys() != SLOW_KEYS:
                errors.append(f"slow_requests[{i}]: bad entry {entry!r}")

    scalars = {k: v for k, v in metrics.items()
               if isinstance(v, int) and not isinstance(v, bool)}
    errors += check_request_accounting(scalars)
    if require_cache:
        errors += check_cache(scalars, require_evictions)
    if require_process:
        errors += check_process_stats(scalars)
    return errors


def check_prometheus(text: str, require_cache: bool = False,
                     require_evictions: bool = False,
                     require_process: bool = False) -> list:
    errors = []
    typed = set()
    counts = {}
    scalars = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            errors.append(f"line {lineno}: empty line")
            continue
        if line.startswith("#"):
            m = TYPE_LINE.match(line)
            if not m:
                errors.append(f"line {lineno}: bad comment line: {line}")
            else:
                typed.add(m.group(1))
            continue
        m = SAMPLE.match(line)
        if not m:
            errors.append(f"line {lineno}: bad sample line: {line}")
            continue
        name = m.group(1)
        # A summary's _sum/_count samples belong to the base metric's TYPE.
        base = re.sub(r"_(sum|count)$", "", name)
        if name not in typed and base not in typed:
            errors.append(f"line {lineno}: sample before any # TYPE: {name}")
        if name.endswith("_count"):
            counts[name] = float(line.rsplit(" ", 1)[1])
        if m.group(2) is None:  # unlabeled sample: serve/cache/process series
            scalars[name] = float(line.rsplit(" ", 1)[1])
    for stage in STAGES:
        count = counts.get(stage + "_count")
        if count is None:
            errors.append(f"{stage}: no _count sample")
        elif count == 0:
            errors.append(f"{stage}: stage histogram is empty")
    errors += check_request_accounting(scalars)
    if require_cache:
        errors += check_cache(scalars, require_evictions)
    if require_process:
        errors += check_process_stats(scalars)
    return errors


def main() -> int:
    args = sys.argv[1:]
    prometheus = "--prometheus" in args
    require_evictions = "--require-evictions" in args
    require_cache = "--require-cache" in args or require_evictions
    require_process = "--require-process-stats" in args
    flags = {"--prometheus", "--require-cache", "--require-evictions",
             "--require-process-stats"}
    paths = [a for a in args if a not in flags]
    if paths:
        with open(paths[0], encoding="utf-8") as f:
            text = f.read()
    else:
        text = sys.stdin.read()
    if not text.strip():
        print("check_metrics: empty document", file=sys.stderr)
        return 1
    check = check_prometheus if prometheus else check_json
    errors = check(text, require_cache, require_evictions, require_process)
    for e in errors:
        print(f"check_metrics: {e}", file=sys.stderr)
    if not errors:
        mode = "prometheus" if prometheus else "json"
        print(f"check_metrics: OK ({mode}, {len(text)} bytes)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
