#!/usr/bin/env python3
"""Append benchmark artifacts to the repo's bench history.

Each BENCH_*.json the benches emit (see bench/*.cpp) is one headline
record: {"bench": ..., "config": {...}, "measured": {...}, <metrics...>,
"git_sha": ...}.
This tool appends those records to a JSON-Lines history file keyed by
git sha and compares each new record against the most recent entry for
the same (bench, config) pair, printing a warning when a headline
metric regressed. The config is part of the key because the benches now
run across the machine matrix: a throughput record measured on
machine "dense45" must never be judged against a "default" baseline —
those are different hardware models, not a regression. The config is
canonicalized (sorted keys) before keying, so key order in the artifact
doesn't split history. The config holds inputs only: a measured value
in it would make every run its own lane, and the gate would never
compare two runs. Secondary measurements go in "measured", which is
neither keyed nor compared.

The comparison is warn-only by default: CI runners are shared hardware,
so absolute numbers jitter run to run and across runner generations. A
warning in the log is a prompt to look, not a gate — the hard gates
(determinism, hit-rate and speedup floors) live inside the benches
themselves, which exit non-zero when violated.

--fail-on-drop=X turns the comparison into a regression gate: a drop
beyond fraction X (e.g. 0.2 = 20%) in a gated metric exits 1 *after*
appending every record, so the failing run is still on the record for
the next comparison. By default every headline metric is gated;
--fail-metrics=a,b restricts the gate to the named metrics (other
metrics still warn at --tolerance). CI uses this for the metrics that
track real throughput (functions_per_sec, cache_hit_rate) while leaving
noisier ones warn-only.

Every top-level numeric field outside "config" is treated as a
higher-is-better metric (true of everything the benches emit today:
functions_per_sec, cache_hit_rate, extension_speedup, prefix_skip_rate);
a drop beyond --tolerance (default 20%) warns.

Usage:
    bench_history.py --history bench/history/history.jsonl \
        --git-sha "$GITHUB_SHA" BENCH_throughput.json BENCH_incremental.json

Exits 0 unless an artifact is unreadable or a --fail-on-drop gate
tripped; stdlib only.
"""

import argparse
import json
import sys


def load_history(path):
    """Returns the history as a list of records; [] when absent."""
    records = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as err:
                    print(
                        f"warning: {path}:{line_number}: unparseable history "
                        f"row skipped ({err})",
                        file=sys.stderr,
                    )
    except FileNotFoundError:
        pass
    return records


def config_key(record):
    """Canonical text of the record's config: the comparison key half.

    json.dumps with sorted keys, so {"a": 1, "b": 2} and {"b": 2, "a": 1}
    share one history lane; a missing config is its own lane (None).
    """
    return json.dumps(record.get("config"), sort_keys=True)


def history_key(record):
    """(bench, canonical config): one comparison lane per pair."""
    return (record.get("bench", "?"), config_key(record))


def headline_metrics(record):
    """Top-level numeric fields (bools excluded) outside config/git_sha."""
    return {
        key: value
        for key, value in record.items()
        if key not in ("config", "git_sha", "bench")
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    }


def compare(previous, current, tolerance, fail_on_drop=None, fail_metrics=None):
    """Compares `current` against `previous` metric by metric.

    Returns the list of (metric, drop) pairs that tripped the
    --fail-on-drop gate (empty when gating is off or nothing tripped);
    warn-only regressions are printed as before.
    """
    failures = []
    prev_metrics = headline_metrics(previous)
    for key, value in headline_metrics(current).items():
        if key not in prev_metrics:
            continue
        baseline = prev_metrics[key]
        if baseline <= 0:
            continue
        drop = (baseline - value) / baseline
        gated = fail_on_drop is not None and (
            fail_metrics is None or key in fail_metrics
        )
        if gated and drop > fail_on_drop:
            print(
                f"FAIL: {current.get('bench', '?')}: {key} dropped "
                f"{drop * 100.0:.1f}% vs {previous.get('git_sha', '?')[:12]} "
                f"({baseline:g} -> {value:g}), gate is "
                f"{fail_on_drop * 100.0:.0f}%",
                file=sys.stderr,
            )
            failures.append((key, drop))
        elif drop > tolerance:
            print(
                f"warning: {current.get('bench', '?')}: {key} dropped "
                f"{drop * 100.0:.1f}% vs {previous.get('git_sha', '?')[:12]} "
                f"({baseline:g} -> {value:g})",
                file=sys.stderr,
            )
    return failures


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifacts", nargs="+", help="BENCH_*.json files")
    parser.add_argument("--history", required=True, help="history.jsonl path")
    parser.add_argument("--git-sha", default="", help="overrides each record's sha")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="relative drop that triggers a warning (default 0.2 = 20%%)",
    )
    parser.add_argument(
        "--fail-on-drop",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 when a gated metric drops more than fraction X "
        "vs the previous record (records are still appended first)",
    )
    parser.add_argument(
        "--fail-metrics",
        default=None,
        metavar="A,B",
        help="comma-separated metrics the --fail-on-drop gate applies to "
        "(default: every headline metric)",
    )
    args = parser.parse_args(argv)

    fail_metrics = None
    if args.fail_metrics is not None:
        fail_metrics = {m.strip() for m in args.fail_metrics.split(",") if m.strip()}
        if not fail_metrics:
            print("error: --fail-metrics names no metrics", file=sys.stderr)
            return 2

    history = load_history(args.history)
    last_by_key = {}
    for record in history:
        if "bench" in record:
            last_by_key[history_key(record)] = record

    appended = []
    failures = []
    for path in args.artifacts:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: cannot read {path}: {err}", file=sys.stderr)
            return 1
        if args.git_sha:
            record["git_sha"] = args.git_sha
        name = record.get("bench", "?")
        previous = last_by_key.get(history_key(record))
        if previous is not None:
            failures.extend(
                compare(
                    previous,
                    record,
                    args.tolerance,
                    fail_on_drop=args.fail_on_drop,
                    fail_metrics=fail_metrics,
                )
            )
        else:
            print(
                f"note: {name}: no prior history entry for this config; "
                "baseline recorded"
            )
        appended.append(record)
        last_by_key[history_key(record)] = record

    with open(args.history, "a", encoding="utf-8") as handle:
        for record in appended:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"appended {len(appended)} record(s) to {args.history}")
    if failures:
        print(
            f"{len(failures)} gated metric(s) regressed beyond the "
            "--fail-on-drop threshold",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
