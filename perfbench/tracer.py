"""Outside-in tracing of iotdq: wrap the names the program binds, time each call.

Nothing in the program is edited. At run time the tracer looks up each
probe's target (``"module:attr.attr"``) and swaps in a timing wrapper;
a target that no longer exists is reported as absent instead of failing
the run, so the traced run survives refactors that move or delete names.

Per-record and per-sensor calls (kind ``call`` and ``iter``) are only
aggregated into a count, a total time and a self time. Coarser calls
(kind ``span`` and ``http``) also leave a span: name, assessment id, span
id, parent span id, start and end. A probe's self time is its time minus
the time of traced calls nested inside it on the same thread.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

perf = time.perf_counter

# Probes on the scoring path; the blind workload adds WORKFLOW_PROBES and
# wraps the proxy's request handler once the server object exists.
LOCAL_PROBES: tuple[tuple[str, tuple[str, ...], str], ...] = (
    ("pipeline.assess", ("iotdq.pipeline:assess",), "span"),
    ("ingest.iter_records", ("iotdq.pipeline:iter_records",), "iter"),
    ("ingest.parse_timestamp", ("iotdq.pipeline:parse_timestamp",), "call"),
    ("schema.flags", ("iotdq.pipeline:_flags_for",), "call"),
    ("metrics_iat.packet_key", ("iotdq.pipeline:packet_key_fields",), "call"),
    ("metrics_iat.mode", ("iotdq.pipeline:estimate_mode",), "call"),
    ("metrics_iat.quantize", ("iotdq.pipeline:quantize",), "call"),
    ("metrics_iat.m1", ("iotdq.pipeline:_kernels.m1_sums",), "call"),
    ("metrics_iat.zscore", ("iotdq.pipeline:z_scores",), "call"),
    ("report.aggregate", ("iotdq.pipeline:aggregate",), "span"),
)
WORKFLOW_PROBES: tuple[tuple[str, tuple[str, ...], str], ...] = (
    ("enclave.run_once", ("iotdq.workflow.enclave:EnclaveRunner.run_once",), "span"),
    ("enclave.assess", ("iotdq.workflow.enclave:assess",), "span"),
    ("report.serialize", ("iotdq.workflow.enclave:serialize_report",), "span"),
    ("report.deserialize", ("iotdq.workflow.clients:deserialize_report",), "span"),
    (
        "sealing.seal",
        ("iotdq.workflow.clients:seal", "iotdq.workflow.enclave:seal"),
        "span",
    ),
    (
        "sealing.unseal",
        ("iotdq.workflow.clients:unseal", "iotdq.workflow.enclave:unseal"),
        "span",
    ),
    ("http", ("iotdq.workflow.clients:ProxyClient.request",), "http"),
)
SETUP_PROBES: tuple[tuple[str, tuple[str, ...], str], ...] = (
    ("attestation.code_hash", ("iotdq.workflow.enclave:compute_code_hash",), "span"),
)
HANDLER_METHODS = ("do_GET", "do_PUT", "do_POST")
_INHERITED = object()


def http_route(method: str, path: str) -> str:
    """Probe name of one proxy request, e.g. ``http.post_complete``."""
    parts = [p for p in path.split("?", 1)[0].split("/") if p]
    if parts[:1] == ["objects"]:
        return "http.put_objects" if method == "PUT" else "http.get_objects"
    if parts == ["attestation"]:
        return f"http.{method.lower()}_attestation"
    if parts[:1] == ["assessments"]:
        if len(parts) == 1:
            return "http.post_assessments"
        if parts[1:] == ["claim"]:
            return "http.post_claim"
        if parts[2:] == ["complete"]:
            return "http.post_complete"
        return "http.get_assessment"
    return "http.other"


def resolve(path: str) -> "tuple[Any, str] | None":
    """(owner, attribute) that a ``module:attr.attr`` path names, or None."""
    module_name, _, chain = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *inner, attr = chain.split(".")
    for name in inner:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Probe:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Probe accumulators, counters and spans of one traced process."""

    def __init__(self) -> None:
        self.probes: dict[str, Probe] = {}
        self.counters: dict[str, int] = {"ingest.records": 0, "ingest.malformed": 0}
        self.key_shapes: set[frozenset] = set()
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.unresolved: list[str] = []
        self.assessment = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._installed: list[tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------------

    def install(self, probes: tuple[tuple[str, tuple[str, ...], str], ...]) -> None:
        for name, targets, kind in probes:
            found = False
            for path in targets:
                located = resolve(path)
                if located is None:
                    self.unresolved.append(path)
                    continue
                self.wrap(located[0], located[1], name, kind)
                found = True
            if not found:
                self.absent.append(name)

    def install_handler(self, handler_class: type) -> None:
        """Wrap the proxy's ``do_*`` methods to time server-side handling."""
        found = False
        for method in HANDLER_METHODS:
            if callable(getattr(handler_class, method, None)):
                self.wrap(handler_class, method, "proxy.handler", "span")
                found = True
        if not found:
            self.absent.append("proxy.handler")

    def wrap(self, owner: Any, attr: str, name: str, kind: str) -> None:
        original = getattr(owner, attr)
        factory = {
            "call": self._call_wrapper,
            "iter": self._iter_wrapper,
            "span": self._span_wrapper,
            "http": self._http_wrapper,
        }[kind]
        # Remember what the owner itself held (nothing, for an inherited
        # method), so that uninstall restores it exactly.
        self._installed.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, factory(original, name))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, held = self._installed.pop()
            if held is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, held)

    # -- wrappers -----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _probe(self, name: str) -> Probe:
        probe = self.probes.get(name)
        if probe is None:
            probe = self.probes[name] = Probe()
        return probe

    def _call_wrapper(self, original: Callable, name: str) -> Callable:
        probe = self._probe(name)
        stack_of = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            frame = [0.0, None]
            stack.append(frame)
            started = perf()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf() - started
                stack.pop()
                probe.calls += 1
                probe.total += elapsed
                probe.self_time += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def _iter_wrapper(self, original: Callable, name: str) -> Callable:
        tracer = self
        probe = self._probe(name)

        def traced(*args: Any, **kwargs: Any) -> Iterator:
            return tracer._timed_items(iter(original(*args, **kwargs)), probe)

        return traced

    def _timed_items(self, items: Iterator, probe: Probe) -> Iterator:
        """Time each ``next()``; count records, malformed ones and key shapes."""
        counters = self.counters
        shapes = self.key_shapes
        stack = self._stack()
        while True:
            started = perf()
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                elapsed = perf() - started
                probe.total += elapsed
                probe.self_time += elapsed
                if stack:
                    stack[-1][0] += elapsed
            probe.calls += 1
            record = item[1] if isinstance(item, tuple) and len(item) == 3 else item
            if record is None:
                counters["ingest.malformed"] += 1
            else:
                counters["ingest.records"] += 1
                shapes.add(frozenset(record))
            yield item

    def _span_wrapper(self, original: Callable, name: str) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                return original(*args, **kwargs)

        return traced

    def _http_wrapper(self, original: Callable, name: str) -> Callable:
        tracer = self

        def traced(client: Any, *args: Any, **kwargs: Any) -> Any:
            method = args[0] if args else kwargs.get("method", "")
            path = args[1] if len(args) > 1 else kwargs.get("path", "")
            with tracer.span(http_route(str(method), str(path))):
                return original(client, *args, **kwargs)

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block as one call of probe ``name`` and record its span."""
        stack = self._stack()
        parent = next((f[1] for f in reversed(stack) if f[1] is not None), 0)
        frame = [0.0, next(self._span_ids)]
        stack.append(frame)
        assessment = self.assessment
        started = perf()
        try:
            yield
        finally:
            ended = perf()
            elapsed = ended - started
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            with self._lock:
                probe = self._probe(name)
                probe.calls += 1
                probe.total += elapsed
                probe.self_time += elapsed - frame[0]
                self.spans.append(
                    (name, assessment, frame[1], parent, started, ended,
                     threading.current_thread().name)
                )

    # -- output -------------------------------------------------------------

    def summary(self, assessments: int) -> dict[str, Any]:
        """Raw totals, for the orchestrator to turn into per-layer metrics."""
        return {
            "assessments": assessments,
            "probes": {
                name: [p.calls, p.total, p.self_time]
                for name, p in sorted(self.probes.items())
            },
            "counters": dict(self.counters),
            "key_shapes": len(self.key_shapes),
            "absent": sorted(set(self.absent)),
            "unresolved": sorted(set(self.unresolved)),
        }

    def span_records(self) -> list[dict[str, Any]]:
        fields = ("name", "assessment", "span", "parent", "start", "end", "thread")
        return [dict(zip(fields, s)) for s in self.spans]
