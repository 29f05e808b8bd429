"""The three benchmark workloads, their deployments and the oracle.

Every workload drives the public client API (``repro.connect`` /
``TopKClient``) at ``SystemParams.paper()`` keys with an unseeded scheme,
as a deployment runs.  The workload seed generates only the relation,
the queries, the written rows and the arrival schedule.

* ``deep_scan``: one client, closed loop, in-process S2.  A 32 x 13
  insurance stand-in (small skewed integers, heavy score ties) and
  distinct (m in {2,3}, k in {3..5}) queries whose plaintext-NRA halting
  depth lies in a narrow band, in groups of one m=2 and two m=3 queries,
  so S1 engine stages and crypto primitives do almost all the work and
  the result cache never hits.  The band keeps the per-query cost
  comparable from seed to seed; the run always ends on a completed group.
* ``served_rw``: two clients, closed loop, against the S2 daemon and two
  shard daemons on Unix sockets.  A 1024 x 4 correlated relation (shallow
  scans), Zipf-skewed reads over a hot set that fits the result cache,
  and every tenth operation an insert that invalidates it.
* ``watch_stream``: an open-loop feed inserts correlated rows on a seeded
  schedule below evaluation capacity while one windowed watch
  re-evaluates over an in-process S2; each evaluation re-encrypts its
  window, so encryption sits on the hot path.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import random
import shutil
import socket
import tempfile
import threading
import time
import urllib.request

_perf = time.perf_counter

SETUPS = {"deep_scan": 3, "served_rw": 2, "watch_stream": 3}
"""Set-ups before the measured phase; the last one is measured on.

``setup_s`` is the median of these and of the set-ups taken while or
after the workload runs (untraced runs only).  A set-up lasts 0.05-2 s
and the host's speed drifts over tens of seconds, so set-ups taken in one
burst moved their median by a third from run to run while the query
metrics, spread over the whole run, moved far less.  Spreading the
set-ups over the run samples the same host as the queries."""

SETUPS_BETWEEN = 2
"""deep_scan: throwaway set-ups after each measured query group."""

SETUPS_AFTER = 2
"""served_rw: set-ups after the measured deployment is torn down; its
set-up launches daemons, which would compete with the measured clients."""

SETUP_GAP = 0.2
"""watch_stream: a throwaway set-up runs while the watch is idle and at
least this many seconds remain before the next write is due."""

DEEP_ROWS = 32
DEEP_BAND = (12, 13)
"""Plaintext-NRA halting depths admitted into the deep_scan query pool."""

DEEP_GROUP = 3
"""Queries per deep_scan group: one m=2, then two m=3.  An m=3 query costs
about 1.5 times an m=2 one; with as many of each, the median latency fell
in the gap between the two and moved with the pair of queries beside it
(IQR/median 0.12 over ten seeds).  Two m=3 per m=2 put it inside the m=3
costs."""

RW_ROWS = 1024
RW_ATTRIBUTES = 4
RW_CLIENTS = 2
RW_WRITE_EVERY = 10
RW_ZIPF = 0.7
RW_BLOCK_READS = 18

WATCH_BASE_ROWS = 40
WATCH_ATTRIBUTES = 3
WATCH_WINDOW = 32
WATCH_RATE = 2.0
"""Feed inserts per second."""


class BenchError(RuntimeError):
    """A deployment failure that invalidates the whole run."""


# -- plaintext oracle ----------------------------------------------------


class Oracle:
    """Plaintext rows for every relation version the benchmark produced.

    Version ``v`` holds the base rows plus every insert acknowledged with
    a version up to ``v``; results are checked by the exact scores of the
    ids they return, so ties may be broken either way.
    """

    def __init__(self, rows, version: int = 0):
        self.base = {oid: tuple(row) for oid, row in enumerate(rows)}
        self.base_version = version
        self.inserts: dict[int, tuple[int, tuple]] = {}
        self._cond = threading.Condition()

    def record_insert(self, version: int, object_id: int, row) -> None:
        with self._cond:
            self.inserts[version] = (object_id, tuple(row))
            self._cond.notify_all()

    def rows_at(self, version: int) -> dict:
        """Rows at ``version``, waiting briefly for a concurrent insert
        whose version a read already saw to be acknowledged."""
        rows = dict(self.base)
        with self._cond:
            for v in range(self.base_version + 1, version + 1):
                if not self._cond.wait_for(lambda: v in self.inserts, timeout=30):
                    raise BenchError(f"no acknowledged insert for version {v}")
                object_id, row = self.inserts[v]
                rows[object_id] = row
        return rows

    def window_at(self, version: int, window: int) -> dict:
        rows = self.rows_at(version)
        return {oid: rows[oid] for oid in sorted(rows)[-window:]}

    @staticmethod
    def matches(rows: dict, attributes, k: int, pairs) -> bool:
        """Whether ``pairs`` (revealed ``(id, score)``) is a correct top-k."""
        exact = sorted((sum(row[a] for a in attributes) for row in rows.values()),
                       reverse=True)[: min(k, len(rows))]
        got = []
        for object_id, _score in pairs:
            if object_id not in rows:
                return False
            got.append(sum(rows[object_id][a] for a in attributes))
        return sorted(got, reverse=True) == exact and len(set(o for o, _ in pairs)) == len(got)


# -- daemons ---------------------------------------------------------------


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Daemons:
    """Daemons of one deployment, sockets under a per-run temp dir.

    Started through the public ``launch_daemon`` of each service; closing
    disconnects every pooled client first, then terminates and waits for
    every daemon, also when the run failed, and removes the temp dir.
    """

    def __init__(self, run_dir: str, trace: bool):
        self.run_dir = run_dir
        self.trace = trace
        self.procs: list = []
        self.metrics: dict[str, int] = {}

    def launch(self, kind: str, name: str) -> str:
        from repro.server import s2_service, shard_service

        module = s2_service if kind == "s2" else shard_service
        extra: tuple[str, ...] = ()
        port = None
        if self.trace:
            port = _free_port()
            extra = ("--metrics-port", str(port))
        path = os.path.join(self.run_dir, f"{name}.sock")
        process, address = module.launch_daemon(
            f"unix://{path}", extra_args=extra, quiet=True
        )
        self.procs.append((name, process))
        if port is not None:
            self.metrics[name] = port
        return address

    def check_alive(self) -> None:
        for name, process in self.procs:
            if process.poll() is not None:
                raise BenchError(f"daemon {name} exited early ({process.returncode})")

    def scrape(self) -> dict[str, dict[str, float]]:
        """``/metrics`` of every daemon: name -> {sample: value}."""
        out = {}
        for name, port in self.metrics.items():
            url = f"http://127.0.0.1:{port}/metrics"
            with urllib.request.urlopen(url, timeout=10) as response:
                text = response.read().decode()
            samples = {}
            for line in text.splitlines():
                if line and not line.startswith("#"):
                    key, _, value = line.rpartition(" ")
                    samples[key] = float(value)
            out[name] = samples
        return out

    def peak_rss_mb(self) -> float:
        total = 0.0
        for _name, process in self.procs:
            with contextlib.suppress(OSError), open(f"/proc/{process.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        return total

    def close(self) -> None:
        from repro.net.socket_transport import disconnect_all

        with contextlib.suppress(Exception):
            disconnect_all()
        for _name, process in self.procs:
            if process.poll() is None:
                process.terminate()
        for _name, process in self.procs:
            try:
                process.wait(timeout=10)
            except Exception:  # noqa: BLE001 — escalate, then reap
                process.kill()
                process.wait(timeout=10)
        self.procs = []
        shutil.rmtree(self.run_dir, ignore_errors=True)


# -- shared run state -------------------------------------------------------


class Run:
    """Samples and failure accounting of one measured phase."""

    def __init__(self):
        self.lock = threading.Lock()
        self.reads: list[tuple] = []   # (latency, cache_hit)
        self.writes: list[float] = []
        self.fresh: list = []          # results of freshly evaluated queries
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.op_seconds = 0.0
        self.ops = 0
        self.touched: list[int] = []   # re-encrypted entries per insert
        self.queue_wait: list[float] = []
        self.rss_mb = 0.0
        # Seconds of the traced operations on the benchmark's own clock,
        # to check the traced wall clock against.
        self.op_clock = 0.0
        # watch_stream only
        self.lateness: list[float] = []
        self.lag: list[float] = []
        self.folded = 0
        self.evaluations = 0
        self.evaluations_per_s = 0.0

    def clock(self, seconds: float) -> None:
        with self.lock:
            self.op_clock += seconds

    def fail(self, what: str) -> None:
        with self.lock:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


def _run_dir() -> str:
    base = os.path.join(".bench_build", "run")
    os.makedirs(base, exist_ok=True)
    return os.path.relpath(tempfile.mkdtemp(prefix="r", dir=base))


def _warm_up(client) -> None:
    client.query(client.token([0], 1))


def _timed_setup(deploy, setups: list):
    """Run ``deploy()``, append its seconds to ``setups``, return it."""
    start = _perf()
    deployment = deploy()
    setups.append(_perf() - start)
    return deployment


def _deploy_in_process(rows, mutable: bool = False):
    import repro

    scheme = repro.SecTopK(repro.SystemParams.paper())
    relation = repro.MutableRelation(scheme, rows) if mutable else scheme.encrypt(rows)
    client = repro.connect(scheme, relation)
    try:
        _warm_up(client)
    except BaseException:
        client.close()
        raise
    return client


# -- deep_scan ---------------------------------------------------------------


def deep_scan_inputs(seed: int):
    """The fixed relation and this seed's query sequence.

    The relation does not vary with the seed: across generated relations
    the cost of a query at a given halting depth moves by about 15%,
    which would swamp a run-to-run comparison.  Each attribute set enters
    the pool once, with one k whose halting depth lies in the band, so
    no query is a repeat or a k-prefix of an earlier one and the result
    cache cannot serve any of them.
    """
    from repro.data.uci import PAPER_SIZES, insurance
    from repro.nra import nra_topk
    from repro.nra.items import SortedLists

    rows = insurance(scale=DEEP_ROWS / PAPER_SIZES["insurance"][0], seed=1).rows
    rnd = random.Random(f"deep_scan-{seed}")
    lo, hi = DEEP_BAND
    pools: dict[int, list] = {2: [], 3: []}
    for m in (2, 3):
        for attributes in itertools.combinations(range(len(rows[0])), m):
            lists = SortedLists(rows, list(attributes))
            ks = [k for k in (3, 4, 5) if lo <= nra_topk(lists, k).halting_depth <= hi]
            if ks:
                pools[m].append((attributes, rnd.choice(ks)))
        rnd.shuffle(pools[m])
    groups = zip(pools[2], pools[3][0::2], pools[3][1::2])
    return rows, [q for group in groups for q in group]


def deep_scan(seed: int, seconds: float, tracer=None, calibrate=None):
    rows, queries = deep_scan_inputs(seed)
    oracle = Oracle(rows)
    rows_now = oracle.rows_at(0)
    setups = []
    client = None
    for _ in range(SETUPS["deep_scan"]):
        if client is not None:
            client.close()
        client = _timed_setup(lambda: _deploy_in_process(rows), setups)
    run = Run()
    try:
        # The last group is kept back for the tracing-overhead calibration.
        pending, spare = queries[:-DEEP_GROUP], queries[-DEEP_GROUP:-1]
        deadline = _perf() + seconds
        if tracer is not None:
            tracer.swap()
        while pending and _perf() < deadline:
            started = _perf()
            for attributes, k in pending[:DEEP_GROUP]:
                _read(client, run, attributes, k, tracer, lambda _v: rows_now)
            run.op_seconds += _perf() - started
            del pending[:DEEP_GROUP]
            for _ in range(SETUPS_BETWEEN if tracer is None else 0):
                _timed_setup(lambda: _deploy_in_process(rows), setups).close()
        extra = {}
        if calibrate is not None:
            extra = calibrate(client, spare)
        cache_hits = client.stats["cache"].hits
        if cache_hits:
            run.fail(f"deep_scan served {cache_hits} cache hits")
        run.rss_mb = _self_rss_mb()
    finally:
        client.close()
    return run, setups, extra


# -- reads ---------------------------------------------------------------------


def _read(client, run: Run, attributes, k, tracer, rows_for):
    """One closed-loop read, timed from submit to result, then checked."""
    with run.lock:
        run.attempted += 1
    version_before = client.version
    start = _perf()
    try:
        if tracer is not None:
            with tracer.span("bench.query") as frame:
                job = client.submit(client.token(list(attributes), k))
                frame[4] = job.job_id
                result = job.result()
        else:
            result = client.submit(client.token(list(attributes), k)).result()
    except Exception as exc:  # noqa: BLE001 — counted, the loop goes on
        run.clock(_perf() - start)
        run.fail(f"read {attributes} k={k}: {type(exc).__name__}: {exc}")
        return None
    latency = _perf() - start
    run.clock(latency)
    version_after = client.version
    pairs = client.reveal(result)
    ok = any(
        Oracle.matches(rows_for(v), attributes, k, pairs)
        for v in range(version_before, version_after + 1)
    )
    if not ok:
        run.fail(f"read {attributes} k={k}: result differs from the oracle")
        return None
    stats = result.stats
    queued = sum(span.seconds for span in stats.trace if span.name == "queued")
    with run.lock:
        run.ops += 1
        run.queue_wait.append(queued)
        run.reads.append((latency, stats.cache_hit))
        if not stats.cache_hit:
            run.fresh.append(result)
    return result


def _self_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- served_rw -------------------------------------------------------------------


def served_rw_inputs(seed: int):
    """The fixed relation and hot set, and this seed's operation streams.

    As in deep_scan the relation and the popularity order of the hot set
    stay fixed, so that the seed moves the sequence and not the cost of
    the hottest queries.  Reads come in blocks that hold every hot query
    as often as its Zipf weight says (largest remainder), each block
    shuffled by the seed, so every run reads the same mix: a free draw
    let the share of expensive misses swing by a third between seeds.
    Inserted rows are drawn from the same
    generator and kept when their total lies in one rank band of the
    relation (between the 75th and 85th percentile): an insert
    re-encrypts the list prefix above it, so its cost depends on where it
    lands, and a free choice would let a few rows decide a run.
    """
    from repro.data.synthetic import correlated_relation

    rows = correlated_relation(RW_ROWS, RW_ATTRIBUTES, seed=1, correlation=0.97).rows
    hot = [
        (attributes, k)
        for m in (2, 3)
        for attributes in itertools.combinations(range(RW_ATTRIBUTES), m)
        for k in (1, 2, 3)
    ]
    random.Random("served_rw-hot").shuffle(hot)
    block = _zipf_block(hot, RW_BLOCK_READS, RW_ZIPF)
    totals = sorted(sum(row) for row in rows)
    lo, hi = totals[int(0.75 * len(totals))], totals[int(0.85 * len(totals))]
    candidates = correlated_relation(
        4096, RW_ATTRIBUTES, seed=seed + 7919, correlation=0.97
    ).rows
    writes = iter([row for row in candidates if lo <= sum(row) <= hi])
    streams = []
    for client in range(RW_CLIENTS):
        crnd = random.Random(f"served_rw-{seed}-client-{client}")
        ops = []
        while len(ops) < 1024:
            reads = block[:]
            crnd.shuffle(reads)
            for j, query in enumerate(reads):
                ops.append(("read", query))
                if j % (RW_WRITE_EVERY - 1) == RW_WRITE_EVERY - 2:
                    ops.append(("insert", next(writes)))
        streams.append(ops)
    return rows, streams


def _zipf_block(items: list, size: int, exponent: float) -> list:
    """``size`` draws apportioned to ``items`` by Zipf weight."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(items))]
    quotas = [size * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(items)), key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[: size - sum(counts)]:
        counts[i] += 1
    return [item for item, count in zip(items, counts) for _ in range(count)]


def _deploy_rw(rows, trace: bool):
    import repro

    daemons = Daemons(_run_dir(), trace)
    try:
        s2 = daemons.launch("s2", "s2")
        shards = [daemons.launch("shard", "a1"), daemons.launch("shard", "a2")]
        scheme = repro.SecTopK(repro.SystemParams.paper())
        relation = repro.MutableRelation(scheme, rows)
        client = repro.connect(scheme, relation, s2, shards=shards)
        try:
            _warm_up(client)
        except BaseException:
            client.close()
            raise
    except BaseException:
        daemons.close()
        raise
    return daemons, client


def served_rw(seed: int, seconds: float, tracer=None, calibrate=None):
    rows, streams = served_rw_inputs(seed)
    oracle = Oracle(rows)
    setups = []
    deployment = None
    for _ in range(SETUPS["served_rw"]):
        if deployment is not None:
            deployment[1].close()
            deployment[0].close()
        start = _perf()
        deployment = _deploy_rw(rows, tracer is not None)
        setups.append(_perf() - start)
    daemons, client = deployment
    run = Run()
    extra = {}
    try:
        before = daemons.scrape() if tracer is not None else {}
        deadline = _perf() + seconds
        if tracer is not None:
            tracer.swap()

        def loop(ops):
            for op, arg in ops:
                if _perf() >= deadline:
                    return
                if op == "insert":
                    _write(client, run, oracle, arg, tracer)
                else:
                    _read(client, run, arg[0], arg[1], tracer, oracle.rows_at)

        started = _perf()
        threads = [threading.Thread(target=loop, args=(ops,)) for ops in streams]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        run.op_seconds = _perf() - started
        daemons.check_alive()
        if tracer is not None:
            after = daemons.scrape()
            extra["daemons"] = (before, after)
        if calibrate is not None:
            extra.update(calibrate(client, [a for op, a in streams[0] if op == "read"][:2]))
        run.rss_mb = _self_rss_mb() + daemons.peak_rss_mb()
    finally:
        client.close()
        daemons.close()
    for _ in range(SETUPS_AFTER if tracer is None else 0):
        daemons, client = _timed_setup(lambda: _deploy_rw(rows, False), setups)
        client.close()
        daemons.close()
    return run, setups, extra


def _write(client, run: Run, oracle: Oracle, row, tracer, due=None):
    """One insert; latency from ``due`` (open loop) or from the call."""
    with run.lock:
        run.attempted += 1
    called = _perf()
    start = called if due is None else due
    try:
        if tracer is not None:
            with tracer.span("bench.write"):
                result = client.insert(list(row))
        else:
            result = client.insert(list(row))
    except Exception as exc:  # noqa: BLE001 — counted, the loop goes on
        run.clock(_perf() - called)
        run.fail(f"insert: {type(exc).__name__}: {exc}")
        return None
    end = _perf()
    run.clock(end - called)
    latency = end - start
    oracle.record_insert(result.version, result.object_id, row)
    with run.lock:
        run.ops += 1
        run.writes.append(latency)
        run.touched.append(sum(n for _, n in result.touched))
    return result


# -- watch_stream ------------------------------------------------------------------


def watch_stream_inputs(seed: int, seconds: float):
    """The fixed base and feed rows, and this seed's arrival schedule.

    A run moves only about sixty rows through the 32-row window, too few
    to average out the data: from one generated stream to the next the
    mean halting depth of the window query ranged from 3.5 to 5.9.  So
    the rows are fixed and the seed draws the arrival jitter.
    """
    from repro.data.synthetic import correlated_relation

    rows = correlated_relation(
        WATCH_BASE_ROWS + 1024, WATCH_ATTRIBUTES, seed=1, correlation=0.97
    ).rows
    base, feed = rows[:WATCH_BASE_ROWS], rows[WATCH_BASE_ROWS:]
    rnd = random.Random(f"watch_stream-{seed}")
    period = 1.0 / WATCH_RATE
    schedule = [
        (i + 0.5 + rnd.uniform(-0.25, 0.25)) * period
        for i in range(int(seconds * WATCH_RATE))
    ]
    return base, list(zip(schedule, feed)), ((0, 1), 3)


class _EvaluationLog:
    """Start and completion time, version and result of every watch
    evaluation, observed at the public ``SecTopK`` boundary.

    A windowed evaluation encrypts its window (``SecTopK.encrypt``) and
    then queries it (``SecTopK.query``) on the watch's scheduler thread;
    its time runs from the start of that encryption to the end of the
    query.
    """

    def __init__(self):
        self.entries: list[tuple] = []
        self.cond = threading.Condition()
        self._local = threading.local()

    def install(self):
        from repro import WatchJob
        from repro.core import scheme

        originals = {name: scheme.SecTopK.__dict__[name] for name in ("encrypt", "query")}
        log = self

        def encrypt(self_, *args, **kwargs):
            log._local.start = _perf()
            return originals["encrypt"](self_, *args, **kwargs)

        def query(self_, relation, *args, **kwargs):
            start = getattr(log._local, "start", None) or _perf()
            log._local.start = None
            result = originals["query"](self_, relation, *args, **kwargs)
            hook = getattr(kwargs.get("ctx"), "on_event", None)
            if isinstance(getattr(hook, "__self__", None), WatchJob):
                with log.cond:
                    log.entries.append((start, _perf(), relation.version, result))
                    log.cond.notify_all()
            return result

        scheme.SecTopK.encrypt = encrypt
        scheme.SecTopK.query = query

        def uninstall():
            for name, original in originals.items():
                setattr(scheme.SecTopK, name, original)

        return uninstall

    def wait_for(self, version: int, timeout: float) -> bool:
        deadline = _perf() + timeout
        with self.cond:
            while not any(v >= version for _s, _e, v, _r in self.entries):
                left = deadline - _perf()
                if left <= 0:
                    return False
                self.cond.wait(left)
        return True


def watch_stream(seed: int, seconds: float, tracer=None, calibrate=None):
    # In-process S2: over the daemon, the ~30 socket round trips of each
    # evaluation made its median swing by a quarter between identical
    # runs; the socket path is measured by served_rw.
    base, feed, (attributes, k) = watch_stream_inputs(seed, seconds)
    oracle = Oracle(base)
    setups = []
    client = None
    for _ in range(SETUPS["watch_stream"]):
        if client is not None:
            client.close()
        client = _timed_setup(lambda: _deploy_in_process(base, mutable=True), setups)
    run = Run()
    extra = {}
    uninstall = None
    job = None
    try:
        token = client.token(list(attributes), k)
        log = _EvaluationLog()
        uninstall = log.install()
        job = client.watch(token, window=WATCH_WINDOW)
        if not log.wait_for(client.version, 60):
            raise BenchError("the watch never evaluated")
        with log.cond:
            log.entries.clear()
        if tracer is not None:
            tracer.swap()
        written: list[tuple] = []  # (due, version)
        started = _perf()
        for i, (offset, row) in enumerate(feed):
            due = started + offset
            delay = due - _perf()
            if delay > 0:
                time.sleep(delay)
            run.lateness.append(_perf() - due)
            result = _write(client, run, oracle, row, tracer, due=due)
            if result is None:
                continue
            written.append((due, result.version))
            if tracer is None and i + 1 < len(feed):
                # A set-up while the watch is idle, when it fits before
                # the next write.
                next_due = started + feed[i + 1][0]
                if (log.wait_for(result.version, next_due - _perf() - SETUP_GAP)
                        and next_due - _perf() > SETUP_GAP):
                    _timed_setup(lambda: _deploy_in_process(base, mutable=True),
                                 setups).close()
        feed_end = _perf()
        if written and not log.wait_for(written[-1][1], 60):
            run.fail("the watch did not catch up with the feed")
        run.op_seconds = feed_end - started
        job.stop()
        job.summary(timeout=60)
        with log.cond:
            evaluations = list(log.entries)
        _score_watch(run, oracle, evaluations, written, attributes, k, client)
        if calibrate is not None:
            uninstall()
            uninstall = None
            extra.update(calibrate(client, [((0, 1, 2), 1), ((1, 2), 2)]))
        run.rss_mb = _self_rss_mb()
    finally:
        if uninstall is not None:
            uninstall()
        if job is not None and not job.done():
            job.cancel()
        client.close()
    return run, setups, extra


def _score_watch(run, oracle, evaluations, written, attributes, k, client):
    """Lag, folded writes, evaluation capacity and oracle checks of the
    watch evaluations."""
    evaluated_versions = set()
    run.evaluations = 0
    busy = 0.0
    for start, end, version, result in evaluations:
        with run.lock:
            run.attempted += 1
        run.clock(end - start)
        busy += end - start
        pairs = client.reveal(result)
        window = oracle.window_at(version, WATCH_WINDOW)
        if not Oracle.matches(window, attributes, min(k, len(window)), pairs):
            run.fail(f"watch evaluation at version {version} differs from the oracle")
            continue
        evaluated_versions.add(version)
        run.evaluations += 1
        run.reads.append((end - start, False))
        run.fresh.append(result)
    run.lag = []
    run.folded = 0
    for due, version in written:
        done = [end for _s, end, v, _r in evaluations if v >= version]
        if not done:
            run.fail(f"write at version {version} never reached the watch")
            continue
        run.lag.append(min(done) - due)
        if version not in evaluated_versions:
            run.folded += 1
    # The feed, not the program, sets how many evaluations run per second
    # of wall clock; evaluations per second of evaluation is the rate the
    # watch path could sustain.
    run.evaluations_per_s = len(evaluations) / busy if busy else 0.0


WORKLOADS = {
    "deep_scan": deep_scan,
    "served_rw": served_rw,
    "watch_stream": watch_stream,
}
