"""Validate and compare ``BENCH_*.json`` perf snapshots (the CI trajectory gate).

Each PR commits its bench snapshots under ``benchmarks/results/`` and CI
re-runs the benches in smoke mode; this tool fails the build when a
snapshot is missing, unparseable, or structurally wrong — so the tracked
perf trajectory can't silently rot.

Two snapshot envelopes are understood:

* the e2e envelope (``emlio`` / ``pytorch_baseline`` sections with wall
  time and throughput, plus ``speedup_x``), and
* the micro envelope (a ``components`` table of named positive metrics,
  as emitted by ``bench_micro_components.py``).

Usage::

    python -m repro.tools.benchcheck PATH [PATH ...]
    python -m repro.tools.benchcheck --metrics SCRAPE.prom
    python -m repro.tools.benchcheck --compare BASELINE CURRENT \\
        [--min-ratio R] [--metric DOTTED.PATH] [--baseline-metric DOTTED.PATH]

``--metrics`` validates a saved ``/metrics`` scrape (Prometheus text
exposition format, as served by :class:`repro.obs.exporter.MetricsExporter`)
instead of a JSON snapshot — CI smoke-scrapes the loopback bench's
endpoint and gates the output here, so the scrape surface can't silently
turn to garbage between releases.

``--compare`` exits nonzero when ``CURRENT``'s metric falls below
``min-ratio × BASELINE``'s — the regression gate.  ``--min-ratio`` above
1 turns it into an improvement gate (e.g. shm must beat tcp by 1.5x).
``--baseline-metric`` reads a different path from the baseline file, so
passing one snapshot as both sides gates a within-file ratio (warm-cache
vs cold-remote throughput).

The **tracked trajectory** lives in ``benchmarks/results/history.jsonl``,
one JSON object per line: ``{"pr": ..., "snapshot": <filename>,
"metric": <dotted path>, "value": <number>}``::

    python -m repro.tools.benchcheck --append-history PR_ID PATH [PATH ...]
    python -m repro.tools.benchcheck --check-history PATH [PATH ...]

``--append-history`` extracts every tracked metric from each snapshot and
appends it, refusing (exit 1) when a value regresses more than 10% past
the median of the last three entries of the same ``(snapshot, metric)``
series (below it for throughputs, above it for ``_us`` / ``_kib`` costs).
``--check-history`` is the CI side: it verifies each file's current
metrics against the same medians without writing anything.
"""

from __future__ import annotations

import argparse
import collections
import json
import re
import statistics
import sys
from pathlib import Path

#: Required top-level keys of the e2e envelope and the nested numeric
#: fields they must carry.
_REQUIRED_SECTIONS = {
    "emlio": ("epoch_wall_s", "throughput_samples_per_s"),
    "pytorch_baseline": ("epoch_wall_s", "throughput_samples_per_s"),
}

#: The metric ``--compare`` reads when ``--metric`` is not given.
DEFAULT_METRIC = "emlio.throughput_samples_per_s"


def _load(path: str | Path) -> tuple[dict | None, list[str]]:
    path = Path(path)
    if not path.is_file():
        return None, [f"{path}: missing"]
    try:
        obj = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        return None, [f"{path}: unreadable or malformed JSON ({err})"]
    if not isinstance(obj, dict):
        return None, [f"{path}: top level must be a JSON object, got {type(obj).__name__}"]
    return obj, []


def check_snapshot(path: str | Path) -> list[str]:
    """Return every problem with one snapshot file (empty list = valid)."""
    obj, problems = _load(path)
    if obj is None:
        return problems
    path = Path(path)
    if not isinstance(obj.get("bench"), str) or not obj.get("bench"):
        problems.append(f"{path}: missing 'bench' name")
    if "components" in obj:
        return problems + _check_micro(path, obj)
    if not isinstance(obj.get("samples"), int) or obj.get("samples", 0) <= 0:
        problems.append(f"{path}: 'samples' must be a positive integer")
    for section, fields in _REQUIRED_SECTIONS.items():
        body = obj.get(section)
        if not isinstance(body, dict):
            problems.append(f"{path}: missing '{section}' section")
            continue
        for field in fields:
            value = body.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(
                    f"{path}: '{section}.{field}' must be a positive number, got {value!r}"
                )
    speedup = obj.get("speedup_x")
    if not isinstance(speedup, (int, float)) or speedup <= 0:
        problems.append(f"{path}: 'speedup_x' must be a positive number, got {speedup!r}")
    return problems


def _check_micro(path: Path, obj: dict) -> list[str]:
    """The micro envelope: a non-empty table of named positive metrics."""
    problems: list[str] = []
    components = obj.get("components")
    if not isinstance(components, dict) or not components:
        return [f"{path}: 'components' must be a non-empty object"]
    for name, body in components.items():
        if not isinstance(body, dict) or not body:
            problems.append(f"{path}: component {name!r} must be a non-empty object")
            continue
        for field, value in body.items():
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(
                    f"{path}: '{name}.{field}' must be a positive number, got {value!r}"
                )
    return problems


#: Prometheus metric-name and sample-line grammar (text exposition 0.0.4).
_PROM_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_PROM_SAMPLE_RE = re.compile(
    r"^(" + _PROM_NAME + r")(\{[^{}]*\})?\s+(\S+)$"
)
_PROM_TYPES = frozenset({"counter", "gauge", "histogram", "summary", "untyped"})


def _prom_base_name(name: str, types: dict[str, str]) -> str:
    """The metric family a sample line belongs to (histogram suffixes
    fold back onto the declared family name)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and types.get(name[: -len(suffix)]) == "histogram":
            return name[: -len(suffix)]
    return name


def check_prometheus_text(text: str) -> list[str]:
    """Every problem with a ``/metrics`` scrape body (empty = valid).

    Checks the properties a real Prometheus scraper relies on: ``# TYPE``
    lines name a known type and precede their family's samples, sample
    lines parse (name, optional labels, finite-or-Inf value), and the
    body carries at least one sample — an empty scrape means the
    registry was never wired up.
    """
    problems: list[str] = []
    types: dict[str, str] = {}
    sampled: set[str] = set()
    samples = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 4 or not re.fullmatch(_PROM_NAME, parts[2]):
                problems.append(f"line {lineno}: malformed {parts[1]} line: {line!r}")
                continue
            if parts[1] == "TYPE":
                if parts[3] not in _PROM_TYPES:
                    problems.append(
                        f"line {lineno}: unknown TYPE {parts[3]!r} for {parts[2]}"
                    )
                if parts[2] in sampled:
                    problems.append(
                        f"line {lineno}: TYPE for {parts[2]} appears after its samples"
                    )
                types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free-form comment
        m = _PROM_SAMPLE_RE.match(line)
        if m is None:
            problems.append(f"line {lineno}: unparseable sample line: {line!r}")
            continue
        name, _labels, value = m.group(1), m.group(2), m.group(3)
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                problems.append(f"line {lineno}: non-numeric value {value!r}")
        sampled.add(_prom_base_name(name, types))
        samples += 1
    if samples == 0:
        problems.append("no samples in scrape body")
    return problems


def _lookup(obj: dict, dotted: str) -> float | None:
    node = obj
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) and not isinstance(node, bool) else None


def compare_snapshots(
    baseline: str | Path,
    current: str | Path,
    min_ratio: float = 1.0,
    metric: str = DEFAULT_METRIC,
    baseline_metric: str | None = None,
) -> tuple[float | None, list[str]]:
    """Compare one metric across two snapshots.

    Returns ``(ratio, problems)`` where ``ratio = current / baseline``;
    ``problems`` is non-empty when a file or the metric is unusable, or
    the ratio falls below ``min_ratio``.

    ``baseline_metric`` reads a *different* dotted path from the baseline
    file — the cross-metric gate.  Passing the same file twice then turns
    ``--compare`` into a within-snapshot ratio check (e.g. warm-cache vs
    cold-remote throughput inside one micro envelope).
    """
    base_metric = baseline_metric if baseline_metric is not None else metric
    base_obj, problems = _load(baseline)
    cur_obj, cur_problems = _load(current)
    problems += cur_problems
    if base_obj is None or cur_obj is None:
        return None, problems
    base = _lookup(base_obj, base_metric)
    cur = _lookup(cur_obj, metric)
    if base is None or base <= 0:
        problems.append(f"{baseline}: metric {base_metric!r} missing or non-positive")
    if cur is None or cur <= 0:
        problems.append(f"{current}: metric {metric!r} missing or non-positive")
    if problems:
        return None, problems
    ratio = cur / base
    if ratio < min_ratio:
        vs = metric if base_metric == metric else f"baseline {base_metric}"
        problems.append(
            f"{current}: {metric} regressed — {cur:.1f} vs {vs} {base:.1f} "
            f"(ratio {ratio:.3f} < required {min_ratio:.3f})"
        )
    return ratio, problems


#: A new history entry (or a checked snapshot) may fall at most this far
#: below its series' reference value before the gate fails.
HISTORY_TOLERANCE = 0.10

#: A series' reference value is the median of its last this-many entries:
#: one noisy entry (same-code runs spread ±13 %) neither trips the gate
#: nor becomes the bar the next run is held to.
HISTORY_WINDOW = 3

#: Default location of the tracked trajectory, next to committed snapshots.
HISTORY_PATH = Path("benchmarks/results/history.jsonl")


#: Raw wall-time component fields — excluded from the history: their
#: throughput twins carry the same information.
_UNTRACKED_FIELDS = frozenset({"seconds", "wall_s"})

#: Registry-derived per-stage latency fields (``decode_ms_p95``, ...).
#: Recorded in the history for trend-watching but exempt from the drop
#: gate: latency is lower-is-better, so a "drop" is an improvement and
#: the 10% rule would gate the wrong direction.
_LATENCY_SUFFIXES = ("_ms_p50", "_ms_p95", "_ms_p99")

#: Component fields gated the other way round: a per-op cost in
#: microseconds or an allocation peak in KiB regresses when it *rises*
#: more than the tolerance above its reference value.
_LOWER_IS_BETTER_SUFFIXES = ("_us", "_kib")


def _regression(metric: str, value: float, prev: float) -> str | None:
    """How ``value`` regressed against the series' reference ``prev``, if
    it did."""
    if metric.endswith(_LATENCY_SUFFIXES):
        return None
    if metric.endswith(_LOWER_IS_BETTER_SUFFIXES):
        rose = value > (1.0 + HISTORY_TOLERANCE) * prev
        return f">{HISTORY_TOLERANCE:.0%} rise" if rose else None
    dropped = value < (1.0 - HISTORY_TOLERANCE) * prev
    return f">{HISTORY_TOLERANCE:.0%} drop" if dropped else None


def tracked_metrics(obj: dict) -> dict[str, float]:
    """The metrics a snapshot contributes to the history.

    E2e envelopes track EMLIO throughput plus any registry-derived
    ``emlio.*_ms_p50/p95/p99`` latency fields (trend-recorded, not
    drop-gated — see :data:`_LATENCY_SUFFIXES`); micro envelopes track
    every ``components.<name>.<field>`` number — higher-is-better except
    the ``_us`` / ``_kib`` costs, which are gated on rises — but raw wall
    times, whose throughput twins carry the same information.
    """
    if "components" in obj:
        out: dict[str, float] = {}
        components = obj.get("components")
        if isinstance(components, dict):
            for name, body in components.items():
                if isinstance(body, dict):
                    for field, value in body.items():
                        if field in _UNTRACKED_FIELDS:
                            continue
                        if isinstance(value, (int, float)) and not isinstance(value, bool):
                            out[f"components.{name}.{field}"] = float(value)
        return out
    out = {}
    value = _lookup(obj, DEFAULT_METRIC)
    if value is not None:
        out[DEFAULT_METRIC] = float(value)
    emlio = obj.get("emlio")
    if isinstance(emlio, dict):
        for field, v in emlio.items():
            if field.endswith(_LATENCY_SUFFIXES) and isinstance(v, (int, float)):
                out[f"emlio.{field}"] = float(v)
    return out


def _load_history(path: Path) -> tuple[dict[tuple[str, str], float], list[str]]:
    """Reference value per ``(snapshot, metric)`` series: the median of its
    last :data:`HISTORY_WINDOW` entries, in file order."""
    recent: dict[tuple[str, str], collections.deque[float]] = {}
    problems: list[str] = []
    if not path.is_file():
        return {}, problems
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            key = (entry["snapshot"], entry["metric"])
            value = float(entry["value"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            problems.append(f"{path}:{lineno}: malformed history entry")
            continue
        recent.setdefault(key, collections.deque(maxlen=HISTORY_WINDOW)).append(value)
    return {key: statistics.median(values) for key, values in recent.items()}, problems


def append_history(
    pr_id: str, paths: list[str], history_path: Path = HISTORY_PATH
) -> list[str]:
    """Record each snapshot's tracked metrics as new history entries.

    Nothing is written if any snapshot is unusable or any metric regresses
    more than :data:`HISTORY_TOLERANCE` past its series' reference (the
    median of its last :data:`HISTORY_WINDOW` entries) — a regressed
    number must never extend the trajectory.
    """
    reference, problems = _load_history(history_path)
    entries: list[dict] = []
    for path in paths:
        obj, file_problems = _load(path)
        problems += file_problems
        if obj is None:
            continue
        metrics = tracked_metrics(obj)
        if not metrics:
            problems.append(f"{path}: no tracked metrics found")
        name = Path(path).name
        for metric, value in sorted(metrics.items()):
            prev = reference.get((name, metric))
            how = None if prev is None else _regression(metric, value, prev)
            if how is not None:
                problems.append(
                    f"{path}: {metric} regressed — {value:.1f} vs history "
                    f"median {prev:.1f} ({how})"
                )
            entries.append(
                {"pr": pr_id, "snapshot": name, "metric": metric, "value": value}
            )
    if problems:
        return problems
    history_path.parent.mkdir(parents=True, exist_ok=True)
    with history_path.open("a") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
    return []


def check_history(paths: list[str], history_path: Path = HISTORY_PATH) -> list[str]:
    """CI gate: each snapshot's current metrics vs the recorded trajectory.

    A metric regressed more than :data:`HISTORY_TOLERANCE` past the median
    of the last :data:`HISTORY_WINDOW` entries of its ``(snapshot,
    metric)`` series fails; metrics with no recorded series pass (they
    join the history at the next append).
    """
    reference, problems = _load_history(history_path)
    for path in paths:
        obj, file_problems = _load(path)
        problems += file_problems
        if obj is None:
            continue
        name = Path(path).name
        for metric, value in sorted(tracked_metrics(obj).items()):
            prev = reference.get((name, metric))
            how = None if prev is None else _regression(metric, value, prev)
            if how is not None:
                problems.append(
                    f"{path}: {metric} regressed — {value:.1f} vs history "
                    f"median {prev:.1f} ({how})"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*", help="BENCH_*.json files to validate")
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("BASELINE", "CURRENT"),
        help="compare one metric across two snapshots instead of validating",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=1.0,
        help="fail when CURRENT/BASELINE falls below this (default 1.0)",
    )
    parser.add_argument(
        "--metric",
        default=DEFAULT_METRIC,
        help=f"dotted metric path for --compare (default {DEFAULT_METRIC})",
    )
    parser.add_argument(
        "--baseline-metric",
        default=None,
        help="dotted metric path read from BASELINE instead of --metric "
        "(cross-metric gates, e.g. warm vs cold within one snapshot)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="validate a saved /metrics scrape (Prometheus text format) "
        "instead of JSON snapshots",
    )
    parser.add_argument(
        "--append-history",
        metavar="PR_ID",
        default=None,
        help="append each snapshot's tracked metrics to the history, "
        "stamped with this PR id (fails on a >10%% regression)",
    )
    parser.add_argument(
        "--check-history",
        action="store_true",
        help="verify each snapshot against the recorded history instead "
        "of appending (the CI gate)",
    )
    parser.add_argument(
        "--history-path",
        type=Path,
        default=HISTORY_PATH,
        help=f"history file location (default {HISTORY_PATH})",
    )
    args = parser.parse_args(argv)
    if args.compare is None and not args.paths and args.metrics is None:
        parser.error("pass snapshot paths to validate, --metrics SCRAPE, "
                     "or --compare BASELINE CURRENT")
    if args.metrics is not None:
        scrape = Path(args.metrics)
        if not scrape.is_file():
            print(f"benchcheck: {scrape}: missing", file=sys.stderr)
            return 1
        problems = check_prometheus_text(scrape.read_text())
        for problem in problems:
            print(f"benchcheck: {scrape}: {problem}", file=sys.stderr)
        if not problems:
            families = len({
                line.split(None, 3)[2]
                for line in scrape.read_text().splitlines()
                if line.startswith("# TYPE ")
            })
            print(f"benchcheck: {scrape}: valid Prometheus text "
                  f"({families} metric families)")
        return 1 if problems else 0
    if args.append_history is not None and args.check_history:
        parser.error("--append-history and --check-history are mutually exclusive")
    if args.append_history is not None:
        problems = append_history(args.append_history, args.paths, args.history_path)
        for problem in problems:
            print(f"benchcheck: {problem}", file=sys.stderr)
        if not problems:
            print(
                f"benchcheck: history — appended {len(args.paths)} snapshot(s) "
                f"as pr={args.append_history!r} to {args.history_path}"
            )
        return 1 if problems else 0
    if args.check_history:
        problems = check_history(args.paths, args.history_path)
        for problem in problems:
            print(f"benchcheck: {problem}", file=sys.stderr)
        if not problems:
            print(
                f"benchcheck: history — {len(args.paths)} snapshot(s) within "
                f"{HISTORY_TOLERANCE:.0%} of {args.history_path}"
            )
        return 1 if problems else 0
    problems: list[str] = []
    for path in args.paths:
        problems += check_snapshot(path)
    if args.compare is not None:
        baseline, current = args.compare
        ratio, cmp_problems = compare_snapshots(
            baseline, current, min_ratio=args.min_ratio, metric=args.metric,
            baseline_metric=args.baseline_metric,
        )
        problems += cmp_problems
        if ratio is not None and not cmp_problems:
            base_label = args.baseline_metric or args.metric
            print(
                f"benchcheck: {args.metric} / {base_label} ratio {ratio:.3f} "
                f">= {args.min_ratio:.3f} ({current} vs {baseline})"
            )
    for problem in problems:
        print(f"benchcheck: {problem}", file=sys.stderr)
    if not problems and args.paths:
        print(f"benchcheck: {len(args.paths)} snapshot(s) OK")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
