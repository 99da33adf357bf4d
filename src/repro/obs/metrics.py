"""Metrics registry: counters and gauges with Prometheus-style text
exposition and a near-zero-cost disabled mode.

An instrument is fed in one of two ways:

* **counted** — a call site bumps it behind one ``if _OBS.enabled:`` check
  on the module-level :class:`ObsState` singleton (:data:`OBS`), so the
  disabled cost is one attribute load + branch.  The compile caches count
  this way; no such site is on the scheduler's dispatch path.
* **collected** — a collector registered with
  :meth:`MetricsRegistry.add_collector` sets the values right before the
  registry is read, from wherever the truth already lives.  The scheduler's
  metrics are collected from each switch's ``SwitchStats`` (see
  :mod:`repro.interp.network`), so the dispatch path holds no metric site at
  all and the exposition cannot disagree with ``Network.stats()``.

:data:`REGISTRY` is the one registry the package builds: ``run --metrics``
prints it, and so does a serve process on SIGUSR1 (collected values are
written whether or not the registry is enabled).

Values survive ``enable()``/``disable()`` flips; :meth:`MetricsRegistry.reset`
zeroes values in place without invalidating instrument references held by
modules.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "OBS",
    "REGISTRY",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "ObsState",
    "enable",
    "disable",
    "enabled",
    "parse_text_exposition",
]


class ObsState:
    """Mutable on/off switch shared by a registry and its instruments."""

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled


#: process-global switch guarded by counted call sites and read by the
#: scheduler once per ``Network.run``; off by default
OBS = ObsState(False)


_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape_label(value: str) -> str:
    for raw, escaped in _LABEL_ESCAPES.items():
        value = value.replace(raw, escaped)
    return value


def _format_value(value: float) -> str:
    # Prometheus exposition prints integers without a trailing ".0".
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Instrument:
    """One named value, or a family of them by label values; ``load`` writes
    it — a collector's write, recorded whether or not the registry is
    enabled."""

    kind = "untyped"
    __slots__ = ("name", "help", "_state", "_labelnames", "_children", "_labelvalues",
                 "_value")

    def __init__(
        self,
        name: str,
        help: str,
        state: ObsState,
        labelnames: Sequence[str] = (),
        labelvalues: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self._state = state
        self._labelnames = tuple(labelnames)
        self._labelvalues = labelvalues
        self._children: Dict[Tuple[str, ...], "_Instrument"] = {}
        self._value = 0

    def labels(self, *values) -> "_Instrument":
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if len(key) != len(self._labelnames):
                raise ValueError(
                    f"{self.name}: expected {len(self._labelnames)} label values, "
                    f"got {len(key)}"
                )
            child = type(self)(self.name, self.help, self._state, self._labelnames, key)
            self._children[key] = child
        return child

    def load(self, value) -> None:
        self._value = value

    @property
    def value(self):
        return self._value

    def reset(self) -> None:
        self._value = 0
        for child in self._children.values():
            child.reset()

    def collect(self) -> List[Tuple[Dict[str, str], float]]:
        """(labels, value) rows for text exposition."""
        rows: List[Tuple[Dict[str, str], float]] = []
        if self._labelvalues is not None:
            rows.append((dict(zip(self._labelnames, self._labelvalues)), self._value))
        elif not self._labelnames:
            rows.append(({}, self._value))
        for key in sorted(self._children):
            rows.extend(self._children[key].collect())
        return rows


class Counter(_Instrument):
    """Monotonically increasing count.  ``inc`` is a no-op while disabled."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        if self._state.enabled:
            self._value += amount


class Gauge(_Instrument):
    """Point-in-time value (heap depth, sim clock, queue occupancy)."""

    kind = "gauge"
    __slots__ = ()


_KINDS = {"counter": Counter, "gauge": Gauge}


class MetricsRegistry:
    """Get-or-create instrument store with text exposition.

    Registration is idempotent by name: the second ``counter("x")`` call
    returns the first instrument, so modules can declare their metrics at
    import time without coordinating.  Re-registering under a different kind
    or label set is a programming error and raises.
    """

    def __init__(self, state: ObsState) -> None:
        self.state = state
        self._instruments: Dict[str, _Instrument] = {}
        self._collectors: List[Tuple[Callable[[], None], Callable[[], None]]] = []

    # -- switches ---------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.state.enabled

    def enable(self) -> None:
        self.state.enabled = True

    def disable(self) -> None:
        self.state.enabled = False

    # -- registration -----------------------------------------------------
    def _register(self, kind: str, name: str, help: str, labelnames):
        existing = self._instruments.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"not {kind}")
            if tuple(labelnames) != existing._labelnames:
                raise ValueError(
                    f"metric {name!r} label names {existing._labelnames} != "
                    f"{tuple(labelnames)}")
            return existing
        instrument = _KINDS[kind](name, help, self.state, labelnames=labelnames)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self._register("counter", name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._register("gauge", name, help, labelnames)

    def add_collector(self, collect: Callable[[], None], reset: Callable[[], None]) -> None:
        """Register a collector: ``collect()`` runs before every read of this
        registry (:meth:`get`, :meth:`value`, :meth:`render_text`) and
        ``load``s the instruments whose values live elsewhere; ``reset()``
        runs with :meth:`reset`, so the collector forgets what it reads."""
        self._collectors.append((collect, reset))

    def _collect(self) -> None:
        for collect, _ in self._collectors:
            collect()

    # -- introspection ----------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[_Instrument]:
        self._collect()
        return self._instruments.get(name)

    def value(self, name: str, labels: Optional[Sequence[str]] = None):
        self._collect()
        instrument = self._instruments[name]
        if labels:
            instrument = instrument.labels(*labels)
        return instrument.value

    def reset(self) -> None:
        """Zero every value in place; instrument references stay valid."""
        for _, reset in self._collectors:
            reset()
        for instrument in self._instruments.values():
            instrument.reset()

    # -- exposition -------------------------------------------------------
    def render_text(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        self._collect()
        lines: List[str] = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            for labels, value in instrument.collect():
                if labels:
                    rendered = ",".join(
                        f'{key}="{_escape_label(str(val))}"'
                        for key, val in labels.items()
                    )
                    lines.append(
                        f"{name}{{{rendered}}} {_format_value(value)}")
                else:
                    lines.append(f"{name} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def parse_text_exposition(text: str) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse :meth:`MetricsRegistry.render_text` output back into values.

    Returns ``{metric_name: {((label, value), ...): number}}``.  Used by
    tests to read an exposition back into numbers.
    """
    out: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        body, _, value_text = line.rpartition(" ")
        if "{" in body:
            name, _, label_blob = body.partition("{")
            label_blob = label_blob.rstrip("}")
            labels = []
            for part in _split_labels(label_blob):
                key, _, raw = part.partition("=")
                labels.append((key, raw.strip('"')))
            key_tuple = tuple(labels)
        else:
            name = body
            key_tuple = ()
        out.setdefault(name, {})[key_tuple] = float(value_text)
    return out


def _split_labels(blob: str) -> Iterable[str]:
    """Split ``a="x",b="y"`` on commas that sit outside quotes."""
    part = []
    in_quotes = False
    escaped = False
    for ch in blob:
        if escaped:
            part.append(ch)
            escaped = False
            continue
        if ch == "\\":
            part.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
        if ch == "," and not in_quotes:
            yield "".join(part)
            part = []
        else:
            part.append(ch)
    if part:
        yield "".join(part)


#: process-global registry wired to :data:`OBS`; instruments declared at
#: module import time all hang off this object
REGISTRY = MetricsRegistry(OBS)


def enable() -> None:
    """Turn on the global registry (hot paths start recording)."""
    OBS.enabled = True


def disable() -> None:
    """Turn off the global registry (hot paths fall back to the no-op path)."""
    OBS.enabled = False


def enabled() -> bool:
    return OBS.enabled
