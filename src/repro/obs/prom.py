"""Prometheus text exposition for :mod:`repro.obs.registry` metrics.

:func:`render_prometheus` turns one or more registries into the
Prometheus text format (version 0.0.4): counters gain the conventional
``_total`` suffix, gauges render as-is, and fixed-bucket histograms
expose *cumulative* ``_bucket{le=...}`` series ending in ``+Inf`` plus
``_sum``/``_count`` — so a scraper reconstructs the same p50/p95/p99
the in-process summaries report.

:func:`parse_prometheus_text` / :func:`validate_prometheus_text` are
the reference parser the test suite (``tests/smoke/test_serve_smoke.py``
scrapes a real daemon) and ``repro top`` use, including label-value escape handling (``\\``,
``\"``, ``\n``).
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

#: The Content-Type the /v1/metrics endpoint serves.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"      # metric name
    r"(?:\{(.*)\})?"                      # optional label block
    r"\s+(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[+-]?Inf|NaN)$"
)


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_number(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{escape_label_value(value)}"'
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _sample(name: str, labels: Dict[str, str], value: float) -> str:
    return f"{name}{_labels_text(labels)} {_format_number(value)}"


def render_prometheus(
    registries: Sequence[MetricsRegistry],
    help_text: Optional[Dict[str, str]] = None,
) -> str:
    """Render registries as one exposition document.

    Families are grouped by name across registries; the first
    registered sample for a (name, labels) pair wins, so merging the
    daemon registry with the process registry cannot emit duplicates.
    """
    help_text = help_text or {}
    families: Dict[str, Tuple[str, List[str]]] = {}
    seen: set = set()

    def family(name: str, kind: str) -> List[str]:
        entry = families.get(name)
        if entry is None:
            entry = (kind, [])
            families[name] = entry
        return entry[1]

    for registry in registries:
        for metric in registry:
            if not _NAME_RE.match(metric.name):
                continue
            labels = dict(metric.labels)
            if isinstance(metric, Counter):
                name = metric.name + "_total"
                if (name, tuple(sorted(labels.items()))) in seen:
                    continue
                seen.add((name, tuple(sorted(labels.items()))))
                family(name, "counter").append(
                    _sample(name, labels, metric.value)
                )
            elif isinstance(metric, Gauge):
                if (metric.name, tuple(sorted(labels.items()))) in seen:
                    continue
                seen.add((metric.name, tuple(sorted(labels.items()))))
                family(metric.name, "gauge").append(
                    _sample(metric.name, labels, metric.value)
                )
            elif isinstance(metric, Histogram):
                key = (metric.name, tuple(sorted(labels.items())))
                if key in seen:
                    continue
                seen.add(key)
                lines = family(metric.name, "histogram")
                cumulative = 0
                for bound, count in zip(metric.buckets, metric.counts):
                    cumulative += count
                    lines.append(
                        _sample(
                            metric.name + "_bucket",
                            {**labels, "le": _format_number(bound)},
                            cumulative,
                        )
                    )
                lines.append(
                    _sample(
                        metric.name + "_bucket",
                        {**labels, "le": "+Inf"},
                        metric.count,
                    )
                )
                lines.append(
                    _sample(metric.name + "_sum", labels, metric.total)
                )
                lines.append(
                    _sample(metric.name + "_count", labels, metric.count)
                )

    out: List[str] = []
    for name in sorted(families):
        kind, lines = families[name]
        text = help_text.get(name)
        if text:
            out.append(f"# HELP {name} {text}")
        out.append(f"# TYPE {name} {kind}")
        out.extend(lines)
    return "\n".join(out) + "\n" if out else ""


# ---------------------------------------------------------------------------
# parsing / validation (tests, CI, repro top)
# ---------------------------------------------------------------------------


def _parse_labels(text: str) -> Dict[str, str]:
    """Parse the inside of a ``{...}`` label block (escape-aware)."""
    labels: Dict[str, str] = {}
    i = 0
    n = len(text)
    while i < n:
        match = re.match(r'\s*([a-zA-Z_][a-zA-Z0-9_]*)="', text[i:])
        if not match:
            raise ValueError(f"bad label block near {text[i:i + 20]!r}")
        name = match.group(1)
        i += match.end()
        value_chars: List[str] = []
        while i < n:
            char = text[i]
            if char == "\\":
                if i + 1 >= n:
                    raise ValueError("dangling escape in label value")
                nxt = text[i + 1]
                value_chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt)
                )
                i += 2
            elif char == '"':
                i += 1
                break
            else:
                value_chars.append(char)
                i += 1
        else:
            raise ValueError("unterminated label value")
        labels[name] = "".join(value_chars)
        if i < n and text[i] == ",":
            i += 1
    return labels


def parse_prometheus_text(text: str) -> List[Tuple[str, Dict[str, str], float]]:
    """Parse an exposition document into ``(name, labels, value)`` samples.

    Raises ``ValueError`` on any malformed line.
    """
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            if line.startswith("# TYPE"):
                parts = line.split()
                if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    raise ValueError(f"line {lineno}: malformed TYPE line")
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name, label_text, value_text = match.groups()
        labels = _parse_labels(label_text) if label_text else {}
        if value_text == "NaN":
            value = float("nan")
        else:
            value = float(value_text.replace("Inf", "inf"))
        samples.append((name, labels, value))
    return samples


def _family_of(name: str) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def validate_prometheus_text(text: str) -> List[str]:
    """Format check; returns a list of problems (empty when valid)."""
    problems: List[str] = []
    try:
        samples = parse_prometheus_text(text)
    except ValueError as exc:
        return [str(exc)]
    if not samples:
        return ["no samples"]

    types: Dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) == 4:
                types[parts[2]] = parts[3]

    seen: set = set()
    histogram_buckets: Dict[Tuple, List[Tuple[float, float]]] = {}
    histogram_counts: Dict[Tuple, float] = {}
    for name, labels, value in samples:
        key = (name, tuple(sorted(labels.items())))
        if key in seen:
            problems.append(f"duplicate sample {name}{sorted(labels.items())}")
        seen.add(key)
        family = _family_of(name)
        declared = types.get(family) or types.get(name)
        if declared is None:
            problems.append(f"sample {name} has no TYPE declaration")
            continue
        if name.endswith("_bucket") and declared == "histogram":
            le = labels.get("le")
            if le is None:
                problems.append(f"{name}: bucket sample without le label")
                continue
            base = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"
            ))
            bound = float("inf") if le == "+Inf" else float(le)
            histogram_buckets.setdefault((family, base), []).append(
                (bound, value)
            )
        elif name.endswith("_count") and declared == "histogram":
            histogram_counts[(family, tuple(sorted(labels.items())))] = value

    for (family, base), buckets in histogram_buckets.items():
        ordered = sorted(buckets)
        counts = [count for _bound, count in ordered]
        if counts != sorted(counts):
            problems.append(f"{family}: bucket counts are not cumulative")
        if not ordered or not math.isinf(ordered[-1][0]):
            problems.append(f"{family}: histogram missing +Inf bucket")
        else:
            total = histogram_counts.get((family, base))
            if total is not None and total != ordered[-1][1]:
                problems.append(
                    f"{family}: _count {total} != +Inf bucket "
                    f"{ordered[-1][1]}"
                )
    return problems


def sample_value(
    samples: Iterable[Tuple[str, Dict[str, str], float]],
    name: str,
    **labels,
) -> float:
    """First sample matching name and labels (0.0 when absent)."""
    want = dict((k, str(v)) for k, v in labels.items())
    for sample_name, sample_labels, value in samples:
        if sample_name != name:
            continue
        if all(sample_labels.get(k) == v for k, v in want.items()):
            return value
    return 0.0
