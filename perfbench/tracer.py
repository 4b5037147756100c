"""Instrumentation installed from outside the program.

``Tracer`` replaces module attributes with wrappers that record spans; each
function is wrapped under the name its caller looks it up by, so the program
itself is unchanged.  ``IntervalCounter`` counts interval operations for the
count-only pass.  ``interval_op_ns`` and ``kernel_peak_mb`` are small timed
and memory probes run after the traced pass.
"""

from __future__ import annotations

import itertools
import math
import statistics
import threading
import time
import tracemalloc
import types


class Tracer:
    """Spans of wrapped calls, kept in memory until the process writes them.

    A span records its name, start and end (``perf_counter_ns``), parent
    span, job id and thread.  Parents come from a per-thread stack; a span
    that starts on a thread with an empty stack (a pool worker) gets the
    open top-level span as parent.  A wrapper created with ``new_job`` starts
    a new job on its thread, and later spans of that thread carry its id.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        #: name -> (pairs, args) of the largest kernel call seen
        self.largest: dict[str, tuple[int, tuple]] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._jobs = itertools.count(1)
        self._top: int | None = None
        self._lock = threading.Lock()

    def wrap(self, module, attr: str, name: str, *, new_job=False, before=None, attrs=None):
        """Replace ``module.attr`` with a span-recording wrapper.

        ``before()`` runs ahead of the call and its value is passed on to
        ``attrs(args, result, token)``, which returns extra span fields.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            local = self._local
            stack = local.__dict__.setdefault("stack", [])
            if new_job:
                local.job = next(self._jobs)
            parent = stack[-1] if stack else self._top
            span_id = next(self._ids)
            if parent is None:
                self._top = span_id
            stack.append(span_id)
            token = before() if before else None
            result = error = None
            start = time.perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if parent is None:
                    self._top = None
                span = {"id": span_id, "name": name, "start": start, "end": end,
                        "parent": parent, "job": getattr(local, "job", None),
                        "thread": threading.get_ident(), "error": error}
                if attrs and error is None:
                    span.update(attrs(args, result, token))
                self.spans.append(span)

        setattr(module, attr, traced)

    def kernel_attrs(self, name: str):
        """Span fields of a reception kernel call ``kernel(senders, q, params)``;
        also keeps the arguments of the largest call for :func:`kernel_peak_mb`."""

        def attrs(args, result, token):
            pairs = args[0].m * len(args[1])
            with self._lock:
                if pairs > self.largest.get(name, (-1, None))[0]:
                    self.largest[name] = (pairs, args)
            return {"pairs": pairs}

        return attrs


def install_tracer(tracer: Tracer) -> None:
    """Wrap the public functions each layer's callers look up."""
    import coopcast.broadcast as broadcast
    import coopcast.cli as cli
    import coopcast.experiments as experiments
    import coopcast.intervals as intervals

    def rounds(args, result, token):
        return {"rounds": result.total_rounds}

    def proof(args, result, token):
        return {"task": args[0].name, "boxes": result.boxes_processed,
                "acos_clips": intervals.acos_clip_events - token}

    tracer.wrap(cli, "run_experiment", "experiments.run_experiment")
    tracer.wrap(cli, "prove", "prover.prove", new_job=True,
                before=lambda: intervals.acos_clip_events, attrs=proof)
    tracer.wrap(experiments, "sample_field", "nodefield.sample_field", new_job=True)
    tracer.wrap(experiments, "run_udg_flood", "broadcast.run_udg_flood", attrs=rounds)
    tracer.wrap(experiments, "run_expanding_disk", "broadcast.run_expanding_disk")
    tracer.wrap(experiments, "run_miso_broadcast", "broadcast.run_miso_broadcast")
    tracer.wrap(broadcast, "run_udg_flood", "broadcast.run_udg_flood", attrs=rounds)
    for kernel in ("received_phasor", "snr_received_energy"):
        name = f"signal_model.{kernel}"
        tracer.wrap(broadcast, kernel, name, attrs=tracer.kernel_attrs(name))


class IntervalCounter:
    """Counts ``Interval`` arithmetic and the libm calls of the intervals
    module.  The wrappers cost a Python call each, so this runs only in the
    count-only pass, never in a timed one."""

    BINARY = ("__add__", "__sub__", "__mul__", "__truediv__")
    UNARY = ("__neg__", "sq", "sqrt", "pow32", "acos")
    LIBM = ("sqrt", "acos")

    def __init__(self):
        self.ops = dict.fromkeys(self.BINARY + self.UNARY, 0)
        self.libm = dict.fromkeys(self.LIBM, 0)

    def install(self) -> None:
        import coopcast.intervals as intervals

        iv = intervals.Interval
        ops, libm = self.ops, self.libm

        def binary(name, orig):
            def counted(self, other):
                ops[name] += 1
                return orig(self, other)
            return counted

        def unary(name, orig):
            def counted(self):
                ops[name] += 1
                return orig(self)
            return counted

        def libm_call(name, orig):
            def counted(x):
                libm[name] += 1
                return orig(x)
            return counted

        for name in self.BINARY:
            setattr(iv, name, binary(name, getattr(iv, name)))
        for name in self.UNARY:
            setattr(iv, name, unary(name, getattr(iv, name)))
        # The reflected forms: __radd__/__rmul__ alias the forward ones,
        # __rsub__/__rtruediv__ delegate to them and are counted there.
        iv.__radd__ = iv.__add__
        iv.__rmul__ = iv.__mul__
        namespace = types.SimpleNamespace(
            **{k: getattr(math, k) for k in dir(math) if not k.startswith("_")}
        )
        for name in self.LIBM:
            setattr(namespace, name, libm_call(name, getattr(math, name)))
        intervals.math = namespace


def interval_op_ns(loops: int = 20_000, repeats: int = 7) -> dict[str, float]:
    """Median ns per call of single ``Interval`` operations on fixed operands
    (loop overhead included)."""
    from coopcast.intervals import Interval

    a, b, c = Interval(1.25, 1.5), Interval(-0.75, 2.0), Interval(0.25, 0.5)

    def mul():
        for _ in range(loops):
            a * b

    def add():
        for _ in range(loops):
            a + b

    def sqrt():
        for _ in range(loops):
            a.sqrt()

    def acos():
        for _ in range(loops):
            c.acos()

    bodies = {"mul": mul, "add": add, "sqrt": sqrt, "acos": acos}
    out = {}
    for name, body in bodies.items():
        samples = []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            body()
            samples.append((time.perf_counter_ns() - start) / loops)
        out[name] = statistics.median(samples)
    return out


def kernel_peak_mb(tracer: Tracer) -> dict[str, float]:
    """``tracemalloc`` peak, in MB, of re-running the largest call of each
    reception kernel alone with the arguments it was given."""
    import coopcast.signal_model as signal_model

    out = {}
    for name, (pairs, args) in tracer.largest.items():
        kernel = getattr(signal_model, name.split(".", 1)[1])
        tracemalloc.start()
        try:
            kernel(*args)
            out[name] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    tracer.largest.clear()
    return out
