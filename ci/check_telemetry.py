#!/usr/bin/env python3
"""Validate the artifacts telemetry_report's pool scenario writes in CI.

Usage: check_telemetry.py TRACE_JSON METRICS_PROM
       check_telemetry.py --prom METRICS_PROM [EXTRA_REQUIRED_FAMILY...]

The --prom mode validates a standalone Prometheus exposition (e.g. an
avad /metrics scrape) without a trace file; any extra arguments name
additional families that must be present and populated.

Asserts the Chrome-trace export is machine-parseable, time-ordered, and
carries the per-tier tracks plus the retry / recovery / rebalance / SLO
instant events the pool scenario deterministically produces, and that
the Prometheus exposition parses with every declared family populated.
Exits non-zero with a one-line reason on the first violation.
"""

import json
import re
import sys

# Instants the pool scenario is scripted to produce: VM A's reply-drop
# fault plan forces retries, VM B's crash forces respawn + journal
# replay, and an unmeetable 1ns p99 target forces SLO violations around
# the explicit rebalance.
REQUIRED_INSTANTS = {
    "retry",
    "server_crash",
    "server_respawn",
    "journal_replay",
    "rebalance",
    "slo_violation",
}

REQUIRED_TRACKS = {"guest", "router", "server", "supervisor"}

# Metric families any enabled registry exports (recorder meta-metrics
# and span accounting are unconditional).
REQUIRED_FAMILIES = {
    "ava_recorder_events_retained",
    "ava_spans_completed",
    "ava_guest_call_ns",
}

SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?[0-9eE.+]+|\+Inf|NaN)$"
)


def fail(msg):
    print(f"check_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")

    tracks = set()
    instants = set()
    last_ts = None
    slices = 0
    for ev in events:
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "thread_name":
                tracks.add(ev["args"]["name"])
            continue
        if ph not in ("X", "i"):
            fail(f"{path}: unexpected phase {ph!r}")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            fail(f"{path}: event without numeric ts: {ev}")
        if last_ts is not None and ts < last_ts:
            fail(f"{path}: events not time-ordered ({ts} after {last_ts})")
        last_ts = ts
        if ph == "X":
            slices += 1
            if ev.get("dur", -1) < 0:
                fail(f"{path}: slice with negative/missing dur: {ev}")
        else:
            instants.add(ev.get("name"))

    missing = REQUIRED_TRACKS - tracks
    if missing:
        fail(f"{path}: missing tier tracks {sorted(missing)} (have {sorted(tracks)})")
    missing = REQUIRED_INSTANTS - instants
    if missing:
        fail(f"{path}: missing instant events {sorted(missing)} (have {sorted(instants)})")
    if slices == 0:
        fail(f"{path}: no span slices (ph=X) exported")
    return len(events), slices, len(instants)


def check_prom(path):
    families = {}  # name -> sample count
    declared = None
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                    fail(f"{path}:{lineno}: malformed TYPE line: {line}")
                declared = parts[2]
                if declared in families:
                    fail(f"{path}:{lineno}: duplicate TYPE for {declared}")
                families[declared] = 0
                continue
            if line.startswith("#"):
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                fail(f"{path}:{lineno}: unparseable sample line: {line}")
            name = m.group(1)
            base = re.sub(r"_(bucket|sum|count|total)$", "", name)
            family = next((f for f in (name, base) if f in families), None)
            if family is None:
                fail(f"{path}:{lineno}: sample {name} has no preceding TYPE")
            families[family] += 1
    if not families:
        fail(f"{path}: no metric families")
    empty = sorted(f for f, n in families.items() if n == 0)
    if empty:
        fail(f"{path}: families declared but empty: {empty}")
    missing = REQUIRED_FAMILIES - families.keys()
    if missing:
        fail(f"{path}: missing required families {sorted(missing)}")
    return len(families), sum(families.values())


def main():
    if len(sys.argv) >= 3 and sys.argv[1] == "--prom":
        REQUIRED_FAMILIES.update(sys.argv[3:])
        n_families, n_samples = check_prom(sys.argv[2])
        print(
            f"check_telemetry: OK: prom {n_families} families, "
            f"{n_samples} samples"
        )
        return
    if len(sys.argv) != 3:
        fail(
            "usage: check_telemetry.py TRACE_JSON METRICS_PROM | "
            "--prom METRICS_PROM [FAMILY...]"
        )
    n_events, n_slices, n_instants = check_trace(sys.argv[1])
    n_families, n_samples = check_prom(sys.argv[2])
    print(
        f"check_telemetry: OK: trace {n_events} events "
        f"({n_slices} slices, {n_instants} instant kinds); "
        f"prom {n_families} families, {n_samples} samples"
    )


if __name__ == "__main__":
    main()
