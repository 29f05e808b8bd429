"""Span tracer that measures the repro stack from outside.

The benchmark never edits the package: :func:`install` replaces public
functions and methods of each layer with timing wrappers (and
:func:`uninstall` puts the originals back).  Every wrapper pushes a frame
on a per-thread stack, so a layer's *self time* is its duration minus the
time its nested wrapped calls took, and the self times of one thread add
up to the duration of its outermost span.

Two kinds of wrapper share that stack:

* recorded spans (engine, protocol stages, transports, the codec, the
  client's own operations) append ``(name, start, end, parent, rid)``
  records to an in-memory list that is written out when the run ends;
* leaf counters (modexp, RNG, PRF, Paillier encryption), called up to a
  million times per query, only add their calls, values and self time
  to per-thread totals, because a record per call would cost more than
  the call.

A query's work runs on a scheduler thread, not on the client thread that
waits for it.  The benchmark tags its client span with the job id after
``submit`` returns, and the ``scheme.query`` span on the worker thread
carries the same id (read from the job hook on its context), so the
analysis can hang worker spans under the client span that caused them.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

_perf = time.perf_counter


class _State:
    """Everything one measurement phase records (swappable as a unit)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.leaf_tables: list[dict] = []
        self.lock = threading.Lock()


class Tracer:
    """Per-thread span stacks plus aggregated leaf counters."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._state = _State()

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _leaf_table(self) -> dict:
        state = self._state
        cached = getattr(self._local, "leaf", None)
        if cached is not None and cached[0] is state:
            return cached[1]
        table: dict = defaultdict(lambda: [0, 0, 0.0, 0.0])
        with state.lock:
            state.leaf_tables.append(table)
        self._local.leaf = (state, table)
        return table

    def span(self, name: str, rid=None):
        """Context manager recording one span; returns its frame (a list
        whose slot 4 may be set to tag the span with a request id)."""
        return _SpanContext(self, name, rid)

    def _open(self, name: str, rid):
        stack = self._stack()
        parent = stack[-1] if stack else None
        # frame: [name, span id, child seconds, start, rid, parent id]
        frame = [
            name,
            next(self._ids),
            0.0,
            _perf(),
            rid if rid is not None or parent is None else parent[4],
            parent[1] if parent is not None else None,
        ]
        stack.append(frame)
        return frame

    def _close(self, frame) -> None:
        end = _perf()
        stack = self._stack()
        stack.pop()
        duration = end - frame[3]
        if stack:
            stack[-1][2] += duration
        record = (frame[0], frame[1], frame[5], frame[4], frame[3], end,
                  duration - frame[2])
        state = self._state
        with state.lock:
            state.spans.append(record)

    # -- phases ----------------------------------------------------------

    def swap(self, state: _State | None = None) -> _State:
        """Start recording into ``state`` (a fresh one by default);
        returns the state recorded so far."""
        previous = self._state
        self._state = state if state is not None else _State()
        return previous

    def snapshot(self) -> "TraceData":
        """The current phase's spans and leaf totals."""
        state = self._state
        with state.lock:
            leaves: dict = defaultdict(lambda: [0, 0, 0.0, 0.0])
            for table in state.leaf_tables:
                for name, (calls, values, attached, detached) in list(table.items()):
                    total = leaves[name]
                    total[0] += calls
                    total[1] += values
                    total[2] += attached
                    total[3] += detached
            return TraceData(list(state.spans), dict(leaves))

    # -- wrappers ----------------------------------------------------------

    def wrap_span(self, name: str, fn, rid_of=None, collapse: bool = False):
        """A wrapper recording ``name`` spans around ``fn``.

        ``rid_of(args, kwargs)`` may supply the request id of a span that
        opens a thread's stack.  With ``collapse``, a call nested directly
        inside a span of the same name is not recorded again (recursive
        decoders, transports wrapping transports).
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if collapse and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            rid = rid_of(args, kwargs) if rid_of is not None and not stack else None
            frame = tracer._open(name, rid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_leaf(self, name, fn, values_of=None, collapse: bool = False,
                  terminal: bool = False):
        """A wrapper adding calls, values and self time of ``fn`` to the
        per-thread totals of ``name`` (no span record).  ``name`` may be a
        function of the call's arguments; ``terminal`` marks a function
        that calls no other wrapped function."""
        tracer = self
        if terminal:
            return self._wrap_terminal(name, fn)

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            stack = tracer._stack()
            if collapse and stack and stack[-1][0] == label:
                return fn(*args, **kwargs)
            frame = [label, 0, 0.0]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _perf() - start
                stack.pop()
                row = tracer._leaf_table()[label]
                row[0] += 1
                if stack:
                    stack[-1][2] += duration
                    row[2] += duration - frame[2]
                else:
                    row[3] += duration - frame[2]
            if values_of is not None:
                row[1] += values_of(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


    def _wrap_terminal(self, name: str, fn):
        """The cheapest leaf wrapper, for primitives that call no other
        wrapped function (modexp, RNG draws, PRF digests): no frame of its
        own, its whole duration is its self time."""
        tracer = self

        def wrapper(*args, **kwargs):
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _perf() - start
                stack = tracer._stack()
                row = tracer._leaf_table()[name]
                row[0] += 1
                if stack:
                    stack[-1][2] += duration
                    row[2] += duration
                else:
                    row[3] += duration

        wrapper.__wrapped__ = fn
        return wrapper


class _SpanContext:
    __slots__ = ("tracer", "name", "rid", "frame")

    def __init__(self, tracer: Tracer, name: str, rid):
        self.tracer = tracer
        self.name = name
        self.rid = rid

    def __enter__(self):
        self.frame = self.tracer._open(self.name, self.rid)
        return self.frame

    def __exit__(self, *exc):
        self.tracer._close(self.frame)
        return False


class TraceData:
    """One phase's raw trace: span records and leaf totals.

    Span records are ``(name, id, parent id, rid, start, end, self s)``;
    leaf totals are ``name -> [calls, values, attached s, detached s]``
    where *attached* time ran inside some span and *detached* time on a
    thread with no open span (socket reader threads and the like).
    """

    def __init__(self, spans: list, leaves: dict):
        self.spans = spans
        self.leaves = leaves

    def self_times(self, op_names: tuple[str, ...]):
        """Reconcile self times against the traced wall clock.

        Spans that open a worker thread's stack (parent ``None``) and carry
        the request id of a client operation span are re-parented under
        it: their duration is taken out of the operation's self time.
        Roots are the remaining parentless spans; ``wall`` is the sum of
        their durations (span-seconds across threads, so concurrent
        clients each contribute their own time).

        Returns ``(wall, attached self seconds by span name)``.
        """
        ops = {}
        for record in self.spans:
            if record[0] in op_names and record[2] is None and record[3] is not None:
                ops[record[3]] = record
        selfs: dict[str, float] = defaultdict(float)
        moved: dict[int, float] = defaultdict(float)
        roots = []
        for name, span_id, parent, rid, start, end, own in self.spans:
            if parent is None and name not in op_names and rid in ops:
                moved[ops[rid][1]] += end - start
            elif parent is None:
                roots.append((start, end))
            selfs[name] += own
        for name, span_id, _parent, _rid, _start, _end, _own in ops.values():
            selfs[name] -= moved.get(span_id, 0.0)
        for name, (_calls, _values, attached, _detached) in self.leaves.items():
            selfs[name] += attached
        wall = sum(end - start for start, end in roots)
        return wall, dict(selfs)


# -- the layer map ------------------------------------------------------


def _values_len(index: int):
    def values_of(args, kwargs, result):
        return len(args[index])

    return values_of


def _rid_from_ctx(args, kwargs):
    ctx = kwargs.get("ctx")
    hook = getattr(ctx, "on_event", None)
    job = getattr(hook, "__self__", None)
    return getattr(job, "job_id", None)


def _encoded_bytes(args, kwargs, result):
    return len(result)


def _decoded_bytes(args, kwargs, result):
    data = args[1]
    return len(getattr(data, "data", data))


def _targets():
    """``(owner, attribute, make_wrapper)`` for every traced entry point."""
    from repro.core import engine, scheme
    from repro.crypto import backend, paillier, prf, rng
    from repro.net import dispatch, socket_transport, transport, wire
    from repro.protocols import base
    from repro.server import mutations, sharding

    def span(name, **kw):
        return lambda tracer, fn: tracer.wrap_span(name, fn, **kw)

    def leaf(name, **kw):
        return lambda tracer, fn: tracer.wrap_leaf(name, fn, **kw)

    return [
        (scheme.SecTopK, "query", span("scheme.query", rid_of=_rid_from_ctx)),
        (scheme.SecTopK, "encrypt", span("scheme.encrypt")),
        (engine.EagerEngine, "run", span("engine.run")),
        (engine, "sec_dup_elim", span("protocols.sec_dup_elim")),
        (engine, "enc_sort", span("protocols.enc_sort")),
        (base.S1Context, "run_flows", span("protocols.flows")),
        (dispatch.S2Dispatcher, "dispatch",
         leaf(lambda args: "dispatch." + type(args[1]).__name__)),
        (transport.InProcessTransport, "exchange",
         span("transport.exchange", collapse=True)),
        (transport.LatencyTransport, "exchange",
         span("transport.exchange", collapse=True)),
        (socket_transport.SocketTransport, "exchange",
         span("transport.exchange", collapse=True)),
        (wire.WireCodec, "encode_envelope",
         leaf("wire.encode", values_of=_encoded_bytes, collapse=True)),
        (wire.WireCodec, "encode_replies",
         leaf("wire.encode", values_of=_encoded_bytes, collapse=True)),
        (wire.WireCodec, "decode_envelope",
         leaf("wire.decode", values_of=_decoded_bytes, collapse=True)),
        (wire.WireCodec, "decode_replies",
         leaf("wire.decode", values_of=_decoded_bytes, collapse=True)),
        (wire.WireCodec, "decode_value",
         leaf("wire.decode", values_of=_decoded_bytes, collapse=True)),
        (mutations.MutableRelation, "insert", span("mutations.apply")),
        (sharding, "fan_in_batches", span("sharding.fan_in")),
        (backend, "powmod", leaf("backend.powmod", terminal=True)),
        (backend, "powmod_vec", leaf("backend.powmod_vec", values_of=_values_len(0))),
        (rng.SecureRandom, "randint_below", leaf("rng.randint_below", terminal=True)),
        (prf.Prf, "digest", leaf("prf.digest", terminal=True)),
        (paillier.PaillierPublicKey, "raw_encrypt", leaf("paillier.encrypt")),
    ]


def install(tracer: Tracer) -> list:
    """Wrap every traced entry point; returns the undo list."""
    undo = []
    for owner, attribute, make in _targets():
        original = owner.__dict__[attribute]
        setattr(owner, attribute, make(tracer, original))
        undo.append((owner, attribute, original))
    return undo


def uninstall(undo: list) -> None:
    """Restore the originals :func:`install` replaced."""
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)
