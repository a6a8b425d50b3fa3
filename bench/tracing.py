"""Layer tracing from outside the program.

`Tracer.install()` wraps every public function of the torushom modules, and
every public method of their classes, at each name the package binds it to,
so calls between layers are recorded too. Each call becomes a span (name,
start, end, parent). A call that returns a generator gets one span per
resumption, so the time a consumer spends between items is not charged to
the generator. Self time is a span's length minus its children's.

Statistics are accumulated per function as the spans close; the spans
themselves are kept in memory up to `SPAN_CAP` and written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time

LAYERS = ("torus", "constraint_graph", "analysis", "exact",
          "proof_quantities", "sampler", "cli")

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


# Spans kept per traced round. The statistics still count every call; only
# the written spans stop here. A traced chain round makes over 4*10^5 torus
# calls; capped, it writes about 4 MB of spans.
SPAN_CAP = 50_000


class FnStats:
    __slots__ = ("calls", "total", "self_time", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, FnStats] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        # Open spans of each thread: [span id, name, start, time in children].
        self._local = threading.local()
        self._ids = itertools.count()
        # The corpus command runs commands on a thread pool.
        self._lock = threading.Lock()
        # Per-call records the layer metrics need beyond self time.
        self.transfer_calls: list[tuple[tuple, float]] = []
        self.chain_runs: list[dict] = []
        self.estimator_runs: list[tuple[int, float]] = []
        self.exact_rss_growth = 0

    # ------------------------------------------------------------ spans

    @property
    def stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        frame = [next(self._ids), name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, counted: bool = True, items: int = 0) -> float:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        span_id, name, start, children = frame
        dur = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += dur
        with self._lock:
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = FnStats()
            st.calls += counted
            st.items += items
            st.total += dur
            st.self_time += dur - children
            if len(self.spans) < SPAN_CAP:
                self.spans.append(
                    (span_id, name, start, end, parent[0] if parent else None)
                )
            else:
                self.dropped += 1
        return dur

    def _in(self, name: str) -> bool:
        return any(f[1] == name for f in self.stack)

    def _outermost(self, layer: str) -> bool:
        prefix = layer + "."
        return not any(f[1].startswith(prefix) for f in self.stack)

    # ---------------------------------------------------------- wrapping

    def wrap(self, name: str, fn):
        tracer = self
        layer = name.split(".", 1)[0]
        is_transfer = name == "exact.transfer_matrix_partition_function"
        is_chain = name == "sampler.run_chain"
        is_estimator = name == "sampler.epsilon_estimate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_exact = layer == "exact" and tracer._outermost("exact")
            rss0 = rss_bytes() if outer_exact else 0
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close(frame)
                if outer_exact:
                    grown = rss_bytes() - rss0
                    with tracer._lock:
                        tracer.exact_rss_growth += grown
            if is_transfer:
                t, g, w = args[:3]
                key = (t.m, t.d, g.adj, g.labels, w.weights)
                tracer.transfer_calls.append((key, dur))
            if is_estimator:
                tracer.estimator_runs.append((args[3].steps, dur))
            if inspect.isgenerator(result):
                run = None
                if is_chain:
                    run = {"steps": args[3].steps, "start": frame[2],
                           "first": None, "time": dur,
                           "estimator": tracer._in("sampler.epsilon_estimate")}
                    tracer.chain_runs.append(run)
                return tracer._resume(name, result, run)
            return result

        return traced

    def _resume(self, name: str, gen, run: dict | None):
        try:
            while True:
                frame = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    dur = self._close(frame, counted=False)
                    if run is not None:
                        run["time"] += dur
                    return
                except BaseException:
                    self._close(frame, counted=False)
                    raise
                dur = self._close(frame, counted=False, items=1)
                if run is not None:
                    run["time"] += dur
                    if run["first"] is None:
                        run["first"] = time.perf_counter()
                yield item
        finally:
            gen.close()

    def install(self, package) -> None:
        """Rebind every public callable of the layer modules to a traced one."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)
                elif callable(obj):
                    replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                new = replaced.get(id(obj))
                if new is not None:
                    setattr(mod, attr, new)

    def _wrap_methods(self, qual: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(f"{qual}.{attr}", obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                kind = type(obj)
                setattr(cls, attr, kind(self.wrap(f"{qual}.{attr}", obj.__func__)))

    # ----------------------------------------------------------- output

    def summary(self) -> dict:
        return {
            "stats": {
                k: [s.calls, s.total, s.self_time, s.items]
                for k, s in self.stats.items()
            },
            "transfer_calls": [[repr(k), d] for k, d in self.transfer_calls],
            "chain_runs": [
                {"steps": r["steps"], "time": r["time"], "estimator": r["estimator"],
                 "init": None if r["first"] is None else r["first"] - r["start"]}
                for r in self.chain_runs
            ],
            "estimator_runs": self.estimator_runs,
            "exact_rss_growth": self.exact_rss_growth,
            "spans": self.spans,
            "dropped_spans": self.dropped,
        }
