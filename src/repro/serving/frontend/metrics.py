"""Prometheus text-exposition rendering of the serving stats tree.

A server nobody can observe is a server nobody can operate.  The serving
stack already measures everything that matters — admission shed/deadline
counters and end-to-end latency percentiles
(:class:`~repro.serving.frontend.admission.AdmissionStats`), batcher
coalescing/dedup counters
(:class:`~repro.serving.frontend.batcher.BatcherStats`), engine compute
latency (:class:`~repro.serving.engine.EngineStats`), cache counters
(:class:`~repro.serving.cache.CacheStats`) and tracer counters
(:class:`~repro.serving.tracing.TracingStats`) — and this module renders one
consistent snapshot of that tree in the Prometheus text exposition format
(version 0.0.4), so ``GET /metrics`` works with any standard scraper.

No family is listed here: each is declared once, on the stats field (or
:func:`~repro.serving.telemetry.exported` property) it exports, with its
name, type and HELP (:func:`~repro.serving.telemetry.metric`), and
:func:`render_prometheus` walks the records of the tree and emits what they
declare.  Only the server's own two gauges (identity and drain flag), which
are no stats field, are written here.

Conventions follow the Prometheus guidelines: lifetime totals are
``_total`` counters (never reset: a scraper takes interval rates with
``rate()``), live state (in-flight queries, cache bytes) is gauges, latency
distributions are summaries with ``quantile`` labels plus ``_sum`` and
``_count``.  Cache families carry a ``cache`` label with three values —
``combined`` (everything the serving stack scored: extraction caches plus
the stage-one result cache, exactly ``EngineStats.cache``), ``result`` (the
stage-one result cache alone) and ``subgraph`` (combined minus result: the
extraction caches) — so dashboards can plot sub-graph and result-cache hit
rates independently.

:func:`parse_prometheus_text` is the matching validating parser.  It exists
so tests and the CI scrape smoke *prove* the output is well-formed instead
of eyeballing it; it is strict about the bits scrapers are strict about
(TYPE'd families, sample syntax, label escaping).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple

from repro.serving.cache import CacheStats
from repro.serving.engine import EngineStats
from repro.serving.frontend.batcher import BatcherStats
from repro.serving.telemetry import LatencySnapshot, Metric, derived

__all__ = [
    "render_prometheus",
    "parse_prometheus_text",
    "PrometheusScrape",
]

def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """Format a sample value (integers without a trailing ``.0``)."""
    if isinstance(value, bool):  # defensive: bools are ints in Python
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    as_float = float(value)
    if math.isinf(as_float):
        return "+Inf" if as_float > 0 else "-Inf"
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


class _Writer:
    """Accumulates HELP/TYPE headers and samples for one exposition."""

    def __init__(self) -> None:
        self._lines: List[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {kind}")

    def sample(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{_escape_label_value(str(val))}"'
                for key, val in labels.items()
            )
            self._lines.append(f"{name}{{{rendered}}} {_format_value(value)}")
        else:
            self._lines.append(f"{name} {_format_value(value)}")

    def summary(self, name: str, snapshot: LatencySnapshot) -> None:
        """A latency summary's samples: each quantile field under its label,
        then ``_sum`` and ``_count``."""
        for field_name, quantile in _QUANTILES:
            self.sample(name, getattr(snapshot, field_name), {"quantile": quantile})
        self.sample(f"{name}_sum", snapshot.mean_seconds * snapshot.count)
        self.sample(f"{name}_count", snapshot.count)

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


#: ``(field, quantile label)`` of the percentiles a latency summary exports.
_QUANTILES = tuple(
    (item.name, item.metadata["quantile"])
    for item in fields(LatencySnapshot)
    if "quantile" in item.metadata
)


@lru_cache(maxsize=None)
def _exported(cls: type) -> Tuple[Tuple[str, Metric], ...]:
    """``(attribute, metric)`` of every field and :class:`derived` property
    a stats class exports, read once per class."""
    declared = [
        (item.name, item.metadata["metric"]) for item in fields(cls) if "metric" in item.metadata
    ]
    declared += [
        (name, value.metric)
        for name, value in vars(cls).items()
        if isinstance(value, derived) and value.metric is not None
    ]
    return tuple(declared)


def _cache_tiers(engine: EngineStats) -> Dict[str, CacheStats]:
    """The ``cache`` label's tiers: combined, its extraction share, result."""
    combined, result = engine.cache, engine.result_cache
    if combined is None:
        return {}
    if result is None:
        return {"combined": combined, "subgraph": combined}
    return {"combined": combined, "subgraph": combined - result, "result": result}


def _write_records(
    writer: _Writer, records: List[Tuple[object, Optional[Dict[str, str]]]]
) -> None:
    """Every family that records of one stats class export, each record's
    sample under its labels (a ``None`` value exports nothing)."""
    for name, declared in _exported(type(records[0][0])):
        headed = False
        for record, labels in records:
            value = getattr(record, name)
            if value is None:
                continue
            if not headed:
                writer.family(declared.family, declared.kind, declared.help)
                headed = True
            if declared.kind == "summary":
                writer.summary(declared.family, value)
            else:
                writer.sample(declared.family, value, labels)


def render_prometheus(
    stats: BatcherStats,
    draining: bool = False,
    info: Optional[Mapping[str, str]] = None,
) -> str:
    """Render one stats snapshot as Prometheus text exposition (0.0.4).

    Parameters
    ----------
    stats:
        A :meth:`MicroBatcher.stats` snapshot (nests admission and engine).
    draining:
        The server's drain flag (``repro_server_draining`` gauge) so
        dashboards and load balancers can see a drain in progress.
    info:
        Static labels (backend, policy, dataset...) emitted once on
        the ``repro_server_info`` gauge, the conventional info-metric
        pattern.
    """
    writer = _Writer()
    writer.family(
        "repro_server_info", "gauge", "Static server configuration as labels; value is always 1."
    )
    writer.sample("repro_server_info", 1, dict(info) if info else {"policy": stats.policy.label})
    writer.family(
        "repro_server_draining", "gauge", "1 while a graceful drain is in progress, else 0."
    )
    writer.sample("repro_server_draining", 1 if draining else 0)

    engine = stats.engine
    for record in (stats, stats.admission, engine, engine.tracing):
        if record is not None:
            _write_records(writer, [(record, None)])
    tiers = _cache_tiers(engine)
    if tiers:
        _write_records(writer, [(cache, {"cache": tier}) for tier, cache in tiers.items()])
    return writer.render()


# ----------------------------------------------------------------------
# Parsing (for tests and scrape smokes)
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)
_VALID_TYPES = frozenset(
    {"counter", "gauge", "summary", "histogram", "untyped"}
)

#: A parsed sample key: the metric name and its sorted label pairs.
SampleKey = Tuple[str, Tuple[Tuple[str, str], ...]]


@dataclass
class PrometheusScrape:
    """A parsed exposition: family types plus every sample's value.

    ``samples`` maps ``(name, sorted label items)`` to the value;
    :meth:`value` is the ergonomic accessor tests use.
    """

    types: Dict[str, str]
    samples: Dict[SampleKey, float]

    def value(self, name: str, **labels: str) -> float:
        """The sample's value; raises ``KeyError`` when absent."""
        key = (name, tuple(sorted(labels.items())))
        return self.samples[key]

    def family_samples(self, name: str) -> Dict[SampleKey, float]:
        """Every sample of one family (including ``_sum``/``_count``)."""
        return {
            key: value
            for key, value in self.samples.items()
            if key[0] == name or key[0].startswith(f"{name}_")
        }

    def __contains__(self, name: str) -> bool:
        return any(key[0] == name for key in self.samples)


def _unescape_label_value(value: str) -> str:
    # Decoded with a left-to-right scan: chained str.replace mis-handles
    # adjacent escapes (an escaped backslash followed by a literal ``n``,
    # ``\\n``, must decode to ``\`` + ``n`` — not swallow the pair as a
    # newline escape).
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append("\n" if nxt == "n" else nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def parse_prometheus_text(text: str) -> PrometheusScrape:
    """Parse (and validate) a text exposition produced by a ``/metrics``.

    Raises ``ValueError`` on malformed lines, samples without a ``# TYPE``
    header, duplicate samples, or non-numeric values — the failure modes a
    real scraper would reject.
    """
    types: Dict[str, str] = {}
    samples: Dict[SampleKey, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4 or parts[3] not in _VALID_TYPES:
                raise ValueError(f"line {lineno}: malformed TYPE line: {raw!r}")
            if parts[2] in types:
                raise ValueError(
                    f"line {lineno}: duplicate TYPE for family {parts[2]!r}"
                )
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # HELP and comments
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample line: {raw!r}")
        name = match.group("name")
        labels: List[Tuple[str, str]] = []
        raw_labels = match.group("labels")
        if raw_labels:
            # Consume the label block left to right; anything the label
            # grammar does not account for is a malformed line.
            remainder = raw_labels.strip()
            while remainder:
                label_match = _LABEL_RE.match(remainder)
                if label_match is None:
                    raise ValueError(
                        f"line {lineno}: malformed labels: {raw_labels!r}"
                    )
                labels.append(
                    (
                        label_match.group("key"),
                        _unescape_label_value(label_match.group("value")),
                    )
                )
                remainder = remainder[label_match.end() :].lstrip()
                if remainder.startswith(","):
                    remainder = remainder[1:].lstrip()
        try:
            if match.group("value") in ("+Inf", "-Inf", "NaN"):
                value = float(match.group("value").replace("Inf", "inf"))
            else:
                value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: non-numeric value {match.group('value')!r}"
            ) from exc
        family = re.sub(r"_(sum|count|bucket)$", "", name)
        if name not in types and family not in types:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no # TYPE header"
            )
        key: SampleKey = (name, tuple(sorted(labels)))
        if key in samples:
            raise ValueError(f"line {lineno}: duplicate sample {key!r}")
        samples[key] = value
    return PrometheusScrape(types=types, samples=samples)
