#!/usr/bin/env python3
"""Validate a Chrome trace-event file written by the obs tracer: a threaded or
socket run's wall-clock trace (``sync_switch_cli train --trace-out``) or a
sim run's virtual-clock trace (``sync_switch_cli --trace``).  Both use one
vocabulary (``step`` spans on worker tracks, ``protocol_switch`` on track 0),
so one set of --expect names can check either.

Checks that the file is a well-formed strict-JSON array of event objects (no
bare NaN or Infinity), that every event carries the mandatory Chrome trace
fields for its phase, and (with --expect NAME, repeatable) that at least one
event with each expected name is present.  Exits nonzero with a diagnostic
on any failure, so CI can gate on ``sync_switch_cli train --trace-out ...``
actually producing an openable Perfetto timeline.

Usage: check_trace.py TRACE.json [--expect NAME]... [--min-events N]
"""

import argparse
import json
import sys

# Mandatory keys per event phase ("ph").  "M" metadata events name threads or
# carry trace-level metadata; "X" completes need a duration; "i" instants and
# "C" counters are point events.
REQUIRED_KEYS = {
    "X": ("pid", "tid", "ts", "dur", "name"),
    "i": ("pid", "tid", "ts", "name"),
    "C": ("pid", "ts", "name"),
    "M": ("pid", "name"),
}


def refuse_constant(name):
    """Python's json accepts NaN and +/-Infinity; strict JSON, Perfetto and
    the C++ reader (common/json.h) do not, so neither does this check."""
    raise ValueError(f"bare {name} is not JSON (the writers emit \"nan\"/\"inf\"/\"-inf\")")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument(
        "--expect",
        action="append",
        default=[],
        metavar="NAME",
        help="require at least one event with this name (repeatable)",
    )
    parser.add_argument(
        "--min-events",
        type=int,
        default=1,
        metavar="N",
        help="require at least N non-metadata events (default 1)",
    )
    args = parser.parse_args()

    try:
        with open(args.trace, "r", encoding="utf-8") as f:
            events = json.load(f, parse_constant=refuse_constant)
    except (OSError, ValueError) as e:
        print(f"check_trace: {args.trace}: {e}", file=sys.stderr)
        return 1

    if not isinstance(events, list):
        print(f"check_trace: {args.trace}: top-level JSON is not an array", file=sys.stderr)
        return 1

    names = set()
    payload_events = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            print(f"check_trace: event {i} is not an object", file=sys.stderr)
            return 1
        ph = ev.get("ph")
        if ph not in REQUIRED_KEYS:
            print(f"check_trace: event {i} has unknown phase {ph!r}", file=sys.stderr)
            return 1
        missing = [k for k in REQUIRED_KEYS[ph] if k not in ev]
        if missing:
            print(
                f"check_trace: event {i} (ph={ph}, name={ev.get('name')!r}) "
                f"missing keys {missing}",
                file=sys.stderr,
            )
            return 1
        if ph != "M":
            payload_events += 1
            names.add(ev["name"])

    if payload_events < args.min_events:
        print(
            f"check_trace: only {payload_events} non-metadata events "
            f"(need >= {args.min_events})",
            file=sys.stderr,
        )
        return 1

    missing_names = [n for n in args.expect if n not in names]
    if missing_names:
        print(
            f"check_trace: expected event names not found: {missing_names}; "
            f"saw {sorted(names)[:20]}",
            file=sys.stderr,
        )
        return 1

    print(
        f"check_trace: OK — {payload_events} events, "
        f"{len(events) - payload_events} metadata, {len(names)} distinct names"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
