"""Low-overhead metrics registry: Counter / Gauge / Histogram with labels.

One :class:`Registry` per deployment absorbs the ad-hoc counters scattered
across subsystems (transport bytes/frames, shm attaches, storage tier
hits/misses, pipeline stage nanoseconds, failover/rebalance counts) behind
a single :meth:`Registry.snapshot` and a Prometheus text rendering
(:meth:`Registry.render_prometheus`).

Two usage modes keep the hot path cheap:

- **Direct instruments** (``registry.counter(...)``, ``.histogram(...)``)
  for signals that have no existing cheap counter — e.g. per-batch decode
  seconds.  Each instrument carries its own lock; ``inc``/``observe`` are
  a few hundred nanoseconds.
- **Collectors** (:meth:`Registry.register_collector`) for subsystems that
  already count cheaply (``Channel.bytes_sent``, ``StorageStats``,
  ``PipelineStats``): the collector callback runs only at snapshot/scrape
  time and ``set()``s the exported value, so steady-state cost is zero.

A disabled registry (``Registry(enabled=False)``) hands out shared no-op
instruments, so instrumented code needs no ``if`` guards.

Histogram buckets are fixed log2 boundaries (``2**-20 .. 2**5`` seconds,
~1 µs to 32 s), which keeps ``observe()`` allocation-free and makes
quantile estimates stable across processes without coordination.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LOG2_BUCKETS",
    "Registry",
]

#: Fixed histogram boundaries: powers of two from ~1 µs to 32 s.
LOG2_BUCKETS: tuple[float, ...] = tuple(float(2.0 ** e) for e in range(-20, 6))


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name) or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")


def _label_key(labelnames: tuple[str, ...], kv: dict) -> tuple[str, ...]:
    if set(kv) != set(labelnames):
        raise ValueError(
            f"labels {sorted(kv)} do not match declared labelnames {sorted(labelnames)}"
        )
    return tuple(str(kv[n]) for n in labelnames)


class Counter:
    """Monotonic counter.  ``set()`` exists for collector-fed values that
    are already cumulative in their home subsystem."""

    kind = "counter"

    __slots__ = ("name", "help", "labelnames", "_lock", "_children", "_value")

    def __init__(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Counter] = {}
        self._value = 0.0

    def labels(self, **kv) -> "Counter":
        key = _label_key(self.labelnames, kv)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = Counter(self.name, self.help)
                self._children[key] = child
            return child

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def set(self, v: float) -> None:
        """Overwrite with an externally-accumulated cumulative value."""
        with self._lock:
            self._value = float(v)

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> Iterable[tuple[tuple[str, ...], float]]:
        if self.labelnames:
            with self._lock:
                children = dict(self._children)
            for key, child in sorted(children.items()):
                yield key, child._value
        else:
            yield (), self._value


class Gauge(Counter):
    """A value that can go up and down (queue depths, member counts)."""

    kind = "gauge"

    __slots__ = ()

    def labels(self, **kv) -> "Gauge":
        key = _label_key(self.labelnames, kv)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = Gauge(self.name, self.help)
                self._children[key] = child
            return child

    def dec(self, n: float = 1.0) -> None:
        self.inc(-n)


class Histogram:
    """Fixed-boundary histogram (see :data:`LOG2_BUCKETS`).

    ``observe`` is lock-guarded bucket increment + sum/count update —
    no allocation.  ``quantile(q)`` interpolates (log-linearly) inside
    the bucket where the cumulative count reaches ``q * count``.
    """

    kind = "histogram"

    __slots__ = (
        "name", "help", "labelnames", "buckets",
        "_lock", "_children", "_counts", "_sum", "_count",
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = LOG2_BUCKETS,
    ):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Histogram] = {}
        self._counts = [0] * (len(self.buckets) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0

    def labels(self, **kv) -> "Histogram":
        key = _label_key(self.labelnames, kv)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = Histogram(self.name, self.help, buckets=self.buckets)
                self._children[key] = child
            return child

    def observe(self, v: float) -> None:
        idx = bisect_left(self.buckets, v)
        with self._lock:
            self._counts[idx] += 1
            self._sum += v
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Estimate of the q-quantile (0 <= q <= 1); 0.0 when empty.

        Interpolates inside the bucket holding the target rank —
        log-linearly, matching the log2 spacing (a latency's density is
        far flatter in log space than in linear space); the first bucket,
        ``[0, buckets[0]]``, linearly.  Observations beyond the last
        boundary report it.
        """
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            target = q * total
            cum = 0
            for i, c in enumerate(self._counts):
                if c and cum + c >= target:
                    if i == len(self.buckets):
                        break  # overflow bucket: no upper edge to interpolate to
                    hi = self.buckets[i]
                    frac = max(target - cum, 0.0) / c
                    if i == 0:
                        return hi * frac
                    lo = self.buckets[i - 1]
                    return lo * (hi / lo) ** frac
                cum += c
        return self.buckets[-1]

    def samples(self) -> Iterable[tuple[tuple[str, ...], "Histogram"]]:
        if self.labelnames:
            with self._lock:
                children = dict(self._children)
            for key, child in sorted(children.items()):
                yield key, child
        else:
            yield (), self

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "buckets": dict(zip(self.buckets, self._counts)),
                "overflow": self._counts[-1],
            }


class _NoopInstrument:
    """Shared do-nothing instrument handed out by a disabled registry."""

    kind = "noop"
    name = "noop"
    help = ""
    labelnames: tuple[str, ...] = ()
    count = 0
    sum = 0.0
    value = 0.0

    def labels(self, **kv):
        return self

    def inc(self, n: float = 1.0) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass

    def set(self, v: float) -> None:
        pass

    def observe(self, v: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def samples(self):
        return iter(())

    def snapshot(self) -> dict:
        return {}


_NOOP = _NoopInstrument()


class Registry:
    """Get-or-create factory + snapshot/scrape surface for instruments.

    ``counter``/``gauge``/``histogram`` are idempotent per name: repeated
    calls return the same instrument (mismatched kind raises).  When
    ``enabled`` is False every factory returns one shared no-op object
    and ``snapshot()`` is empty, so the telemetry plane can be compiled
    out by configuration alone.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._collectors: list[Callable[[], None]] = []

    # -- factories -------------------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kw):
        if not self.enabled:
            return _NOOP
        _validate_name(name)
        with self._lock:
            inst = self._instruments.get(name)
            if inst is not None:
                if not isinstance(inst, cls) or type(inst) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as {inst.kind}"
                    )
                return inst
            inst = cls(name, help=help, labelnames=tuple(labelnames), **kw)
            self._instruments[name] = inst
            return inst

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self, name: str, help: str = "", labelnames=(), buckets=LOG2_BUCKETS
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=tuple(buckets)
        )

    # -- collectors ------------------------------------------------------------

    def register_collector(self, fn: Callable[[], None]) -> None:
        """Register a callback run before every snapshot/scrape.  The
        callback pulls values from its subsystem's existing cheap counters
        and ``set()``s them on registry instruments — zero hot-path cost."""
        with self._lock:
            self._collectors.append(fn)

    def _collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            try:
                fn()
            except Exception:  # a broken collector must not break the scrape
                pass

    # -- export ----------------------------------------------------------------

    def _sorted_instruments(self):
        with self._lock:
            return sorted(self._instruments.items())

    def snapshot(self) -> dict:
        """JSON-ready ``{name: value-or-histogram-dict}`` view."""
        if not self.enabled:
            return {}
        self._collect()
        out: dict = {}
        for name, inst in self._sorted_instruments():
            if isinstance(inst, Histogram):
                if inst.labelnames:
                    out[name] = {
                        "|".join(key): child.snapshot()
                        for key, child in inst.samples()
                    }
                else:
                    out[name] = inst.snapshot()
            elif inst.labelnames:
                out[name] = {
                    "|".join(key): value for key, value in inst.samples()
                }
            else:
                out[name] = inst.value
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        if not self.enabled:
            return ""
        self._collect()
        lines: list[str] = []
        for name, inst in self._sorted_instruments():
            lines.append(f"# HELP {name} {inst.help or name}")
            lines.append(f"# TYPE {name} {inst.kind}")
            if isinstance(inst, Histogram):
                for key, child in inst.samples():
                    base = _labels_str(inst.labelnames, key)
                    snap = child.snapshot()
                    cum = 0
                    for bound, cnt in snap["buckets"].items():
                        cum += cnt
                        le = 'le="' + _fmt_float(bound) + '"'
                        lines.append(f"{name}_bucket{_merge_labels(base, le)} {cum}")
                    cum += snap["overflow"]
                    inf = 'le="+Inf"'
                    lines.append(f"{name}_bucket{_merge_labels(base, inf)} {cum}")
                    lines.append(f"{name}_sum{base} {_fmt_float(snap['sum'])}")
                    lines.append(f"{name}_count{base} {snap['count']}")
            else:
                for key, value in inst.samples():
                    base = _labels_str(inst.labelnames, key)
                    lines.append(f"{name}{base} {_fmt_float(value)}")
        return "\n".join(lines) + "\n" if lines else ""


def _fmt_float(v: float) -> str:
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer()):
        return str(int(v))
    return repr(float(v))


def _labels_str(labelnames: tuple[str, ...], key: tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{n}="{_escape(v)}"' for n, v in zip(labelnames, key)
    )
    return "{" + pairs + "}"


def _merge_labels(base: str, extra: str) -> str:
    if not base:
        return "{" + extra + "}"
    return base[:-1] + "," + extra + "}"


def _escape(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
