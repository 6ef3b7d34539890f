"""In-memory span recorder for the traced benchmark run.

`install` wraps public functions of the ptwishart modules, wherever a loaded
module holds a reference to them, so that a plain `cli.main(argv)` call
records one span per call into each layer: name, start, end, parent span,
thread and trial.  The trial id is the stream index of the most recent
`SampleStream` built on the span's thread; every experiment runner builds
one stream per trial before calling into the layers.  Spans stay in memory
until `self_times` reduces them and the caller writes them out.

Nested calls inside `partitions` are not spanned: the self-test makes ~10^5
of them, and the outermost call already carries their time.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

clock = time.perf_counter

# (module, public function, span name).  Several functions may share a span
# name; the per-layer metric of that name sums their self times.
TARGETS = (
    ("ensembles", "sample_ginibre", "ensembles.sample_ginibre"),
    ("ensembles", "sample_wishart", "ensembles.gram"),
    ("ensembles", "sample_induced_state", "ensembles.sample_induced_state"),
    ("linalg", "partial_transpose", "linalg.partial_transpose"),
    ("linalg", "is_hermitian", "linalg.is_hermitian"),
    ("linalg", "hermitian_eigenvalues", "linalg.hermitian_eigenvalues"),
    ("laws", "quadrature_moment", "laws.quadrature_moment"),
    ("spectra", "ks_distance", "spectra.ks_distance"),
    ("spectra", "empirical_moment", "spectra.moments"),
    ("spectra", "histogram", "spectra.histogram"),
    ("spectra", "ppt_gauge", "spectra.ppt_gauge"),
    ("spectra", "extremes", "spectra.other"),
    ("spectra", "esd_fraction", "spectra.other"),
    ("spectra", "diag_deviation", "spectra.other"),
    ("partitions", "set_partitions", "partitions.enumerate"),
    ("partitions", "noncrossing_partitions", "partitions.enumerate"),
    ("partitions", "chordings", "partitions.enumerate"),
    ("partitions", "is_noncrossing", "partitions.enumerate"),
    ("partitions", "kreweras_complement", "partitions.kreweras"),
    ("partitions", "interleaved_union", "partitions.kreweras"),
    ("partitions", "wishart_matching_stats", "partitions.matching"),
    ("partitions", "wishart_admissible_couples", "partitions.admissible"),
    ("partitions", "admissible_triples", "partitions.admissible"),
    ("partitions", "count_admissible_classes", "partitions.admissible"),
    ("experiments", "run_spectrum", "experiments.runner"),
    ("experiments", "run_extremes", "experiments.runner"),
    ("experiments", "run_ppt_sweep", "experiments.runner"),
    ("experiments", "run_selftest", "experiments.runner"),
    ("reporting", "render", "reporting.render"),
)

UNNESTED = ("partitions.",)


class CountingLaw:
    """Forwarding proxy that counts calls to the wrapped law's density."""

    def __init__(self, law, tracer: "Tracer"):
        self._law = law
        self._tracer = tracer

    def density(self, x):
        self._tracer.count("laws.density_calls")
        return self._law.density(x)

    def __getattr__(self, name):
        return getattr(self._law, name)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        # Pool threads start with an empty stack; their spans hang under the
        # innermost span open on the thread that made the tracer.
        self._owner = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str):
        with self._lock:
            self.counts[key] += 1

    def set_trial(self, trial: int):
        self._local.trial = trial

    def _open(self, name: str, attrs=None):
        stack = self._stack()
        top = stack[-1] if stack else (self._owner[-1] if self._owner else None)
        if top is not None and name.startswith(UNNESTED) and top[1].startswith(UNNESTED):
            return None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": top[0] if top else None,
            "thread": threading.get_ident(),
            "trial": getattr(self._local, "trial", None),
            "start": clock(),
            "end": None,
            "intervals": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        return record

    def call(self, name, fn, args, kwargs, attrs=None):
        record = self._open(name, attrs)
        if record is None:
            return fn(*args, **kwargs)
        stack = self._stack()
        stack.append((record["id"], name))
        record["start"] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            record["end"] = clock()
            stack.pop()

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                record = self._open(name)
                if record is None:
                    return fn(*args, **kwargs)
                record["intervals"], record["end"] = [], record["start"]
                return _TimedIter(self, record, fn(*args, **kwargs))
        elif name == "spectra.ks_distance":
            def wrapper(sample, law, *args, **kwargs):
                self.count("spectra.ks_calls")
                return self.call(name, fn, (sample, CountingLaw(law, self)) + args, kwargs)
        elif name == "ensembles.gram":
            def wrapper(params, *args, **kwargs):
                attrs = {"n": params.n, "p": params.p, "field": params.field}
                return self.call(name, fn, (params,) + args, kwargs, attrs)
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs)
        return wrapper


class _TimedIter:
    """Iterator over a wrapped generator; its span is the sum of its steps."""

    def __init__(self, tracer: Tracer, record: dict, it):
        self._tracer, self._record, self._it = tracer, record, it

    def __iter__(self):
        return self

    def __next__(self):
        stack = self._tracer._stack()
        stack.append((self._record["id"], self._record["name"]))
        start = clock()
        try:
            return next(self._it)
        finally:
            end = clock()
            stack.pop()
            self._record["intervals"].append((start, end))
            self._record["end"] = end


def install(tracer: Tracer):
    """Wrap every TARGETS function in every loaded ptwishart module."""
    import ptwishart.cli  # noqa: F401  (loads every module the CLI uses)
    from ptwishart.ensembles import SampleStream
    from ptwishart.spectra import SpectralSample

    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "ptwishart"]
    for module_name, func_name, span_name in TARGETS:
        home = sys.modules.get(f"ptwishart.{module_name}")
        original = getattr(home, func_name, None)
        if original is None:
            tracer.missing.append(f"{module_name}.{func_name}")
            continue
        wrapper = tracer.wrap(span_name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    stream_init = SampleStream.__post_init__
    sample_init = SpectralSample.__post_init__

    def stream_post_init(self):
        stream_init(self)
        tracer.set_trial(self.stream_index)

    def sample_post_init(self):
        tracer.call("spectra.sample", sample_init, (self,), {})

    SampleStream.__post_init__ = stream_post_init
    SpectralSample.__post_init__ = sample_post_init


def _intervals(span: dict) -> list:
    if span["intervals"] is not None:
        return span["intervals"]
    return [(span["start"], span["end"])]


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> None:
    """Set span["self"]: busy time minus the part its children cover.

    Children on other threads (trial workers) overlap each other, so the
    covered part is the union of their intervals, not their sum.
    """
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    for span in spans:
        own = _intervals(span)
        busy = sum(b - a for a, b in own)
        kids = [iv for child in children[span["id"]] for iv in _intervals(child)]
        span["self"] = busy - (_covered(kids, span["start"], span["end"]) if kids else 0.0)
        span["busy"] = busy


def layer_union(spans: list[dict], root_id: int) -> float:
    """Wall time during which at least one span under `root_id` was busy."""
    return _covered([iv for s in spans if s["parent"] == root_id for iv in _intervals(s)],
                    float("-inf"), float("inf"))
