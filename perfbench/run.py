"""Reference benchmark of the secure top-k stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload deep_scan --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps each layer's public entry points (see
``perfbench/spans.py``) and reports the per-layer split instead, with the
tracing overhead measured on identical fresh queries run with the
wrappers off and on.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it holds the provenance and the details behind the metrics.  ``--out F``
also writes both to ``F``, and ``compare A B`` compares two such files,
refusing when they ran on different crypto backends or core counts.

The benchmark uses only files inside the checkout: the GMP kernel is
compiled into ``.bench_build/gmp-kernel`` and daemon sockets, ready files
and temp files live under ``.bench_build``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import sys
import time
import traceback

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOAD_NAMES = ("deep_scan", "served_rw", "watch_stream")
PROTOCOLS = ("SecQuery", "SecDupElim", "EncSort")
DISPATCHED = ("ZeroTestBatch", "StripLayerBatch", "BlindedSign", "SortAffine",
              "DedupBatch")

_perf = time.perf_counter


def _prepare_environment() -> None:
    """Point every build and temp path of this process and its daemons
    into the checkout; fail when the package sources are not there."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write("perfbench: run from the repository root (src/repro missing)\n")
        sys.exit(2)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(BUILD, "gmp-kernel")
    src = os.path.join(ROOT, "src")
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tempfile

    tempfile.tempdir = None


# -- statistics --------------------------------------------------------------


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    n = len(ordered)
    return (ordered[(n - 1) // 2] + ordered[n // 2]) / 2


def tail(values) -> tuple[float, float, int]:
    """The highest of p99.9/p99/p95/p90/p75/p50 (nearest rank) with at
    least ten samples beyond it, as ``(value, percentile, samples)``.
    Below 20 samples none qualifies; the p75 is reported then, because
    the maximum of so few samples swings with every run."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return 0.0, 0.0, 0
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], p, n
    return ordered[math.ceil(0.75 * n) - 1], 75.0, n


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# -- provenance ----------------------------------------------------------------


def _git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".c", ".h")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def provenance(args) -> dict:
    import repro
    from repro.crypto import backend

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "cpu_count": os.cpu_count(),
        "backend": backend.get_backend().name,
        "python": platform.python_version(),
        "key_bits": repro.SystemParams.paper().key_bits,
    }


# -- tracing overhead --------------------------------------------------------


def make_calibrate(tracer, undo: list):
    """Time identical fresh queries with the wrappers off and on (ABBA
    order); the ratio of the two sums is the tracing overhead."""
    from repro import QueryConfig

    import spans as tracing

    def calibrate(client, queries):
        config = QueryConfig(cache=False)
        measured = tracer.swap()
        seconds = {False: 0.0, True: 0.0}
        try:
            for i, (attributes, k) in enumerate(queries):
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced and not undo:
                        undo.extend(tracing.install(tracer))
                    elif not traced and undo:
                        tracing.uninstall(undo)
                        undo.clear()
                    token = client.token(list(attributes), k)
                    start = _perf()
                    client.query(token, config)
                    seconds[traced] += _perf() - start
        finally:
            if not undo:
                undo.extend(tracing.install(tracer))
            tracer.swap(measured)
        return {"overhead": seconds[True] / seconds[False] - 1.0,
                "calibration_s": seconds}

    return calibrate


# -- metrics ---------------------------------------------------------------------


def end_to_end(workload: str, run, setups) -> tuple[dict, dict]:
    reads = [latency for latency, _hit in run.reads]
    p50 = median(reads)
    q_tail, q_pct, q_n = tail(reads)
    fresh = run.fresh
    if workload == "watch_stream":
        ops_per_s = run.evaluations_per_s
    else:
        ops_per_s = run.ops / run.op_seconds if run.op_seconds else 0.0
    metrics = {
        "setup_s": (median(setups), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "query_p50_s": (p50, "s"),
        "query_tail_s": (q_tail, "s"),
        "bytes_per_query": (_mean(r.stats.total_bytes for r in fresh), "bytes"),
        "rounds_per_query": (_mean(r.stats.rounds for r in fresh), "count"),
        "rss_mb": (run.rss_mb, "MB"),
    }
    w_tail, w_pct, w_n = tail(run.writes)
    l_tail, l_pct, l_n = tail(run.lag)
    detail = {
        "setups_s": setups,
        "ops": run.ops,
        "measured_s": run.op_seconds,
        "reads": len(reads),
        "fresh_queries": len(fresh),
        "cache_hits": sum(1 for _l, hit in run.reads if hit),
        "query_tail_percentile": q_pct,
        "query_tail_samples": q_n,
        "write_p50_s": median(run.writes),
        "write_tail_s": w_tail,
        "write_tail_percentile": w_pct,
        "writes": w_n,
        "watch_lag_p50_s": median(run.lag),
        "watch_lag_tail_s": l_tail,
        "watch_lag_tail_percentile": l_pct,
        "watch_lag_samples": l_n,
        "watch_evaluations": run.evaluations,
        "watch_folded_writes": run.folded,
        "feed_lateness_p50_s": median(run.lateness),
        "feed_lateness_max_s": max(run.lateness, default=0.0),
        "failed_ratio": run.failed / run.attempted if run.attempted else 0.0,
        "errors": run.errors,
    }
    return metrics, detail


def _daemon_delta(extra: dict, prefix: str, sample: str) -> float:
    before, after = extra.get("daemons", ({}, {}))
    total = 0.0
    for name, samples in after.items():
        if name.startswith(prefix):
            total += samples.get(sample, 0.0) - before.get(name, {}).get(sample, 0.0)
    return total


def per_layer(run, data, extra: dict, e2e: dict, detail: dict) -> dict:
    wall, selfs = data.self_times(("bench.query", "bench.write"))
    leaves = data.leaves

    def leaf(name, field):
        row = leaves.get(name, [0, 0, 0.0, 0.0])
        return {"calls": row[0], "values": row[1], "s": row[2] + row[3]}[field]

    queue_wait = sum(run.queue_wait)
    # Defined as the remainder: the self times of each thread's spans add
    # up to its root spans, so attributed + queue wait + unattributed is
    # the traced wall clock by construction.  The traced wall clock itself
    # is checked against the benchmark's own clock of the same operations.
    unattributed = selfs.get("bench.query", 0.0) + selfs.get("bench.write", 0.0) - queue_wait
    fresh = run.fresh
    hits = [latency for latency, hit in run.reads if hit]
    metrics = {
        "engine.run_self_s": (selfs.get("engine.run", 0.0), "s"),
        "engine.halting_depth": (_mean(r.halting_depth for r in fresh), "count"),
        "protocols.sec_dup_elim_s": (selfs.get("protocols.sec_dup_elim", 0.0), "s"),
        "protocols.enc_sort_s": (selfs.get("protocols.enc_sort", 0.0), "s"),
        "protocols.flows_s": (selfs.get("protocols.flows", 0.0), "s"),
    }
    for kind in ("bytes", "rounds"):
        field = f"per_protocol_{kind}"
        per = {p: 0.0 for p in PROTOCOLS + ("other",)}
        for result in fresh:
            for proto, value in getattr(result.channel_stats, field).items():
                per[proto if proto in per else "other"] += value
        for proto, value in per.items():
            metrics[f"protocols.{proto}.{kind}"] = (
                value / len(fresh) if fresh else 0.0, "bytes" if kind == "bytes" else "count")
    for message in DISPATCHED:
        metrics[f"dispatch.{message}_s"] = (leaf(f"dispatch.{message}", "s"), "s")
        metrics[f"dispatch.{message}_calls"] = (leaf(f"dispatch.{message}", "calls"), "count")
    exchanges = [r for r in data.spans if r[0] == "transport.exchange"]
    metrics.update({
        "backend.powmod_calls": (leaf("backend.powmod", "calls"), "count"),
        "backend.powmod_s": (leaf("backend.powmod", "s"), "s"),
        "backend.powmod_vec_calls": (leaf("backend.powmod_vec", "calls"), "count"),
        "backend.powmod_vec_values": (leaf("backend.powmod_vec", "values"), "count"),
        "backend.powmod_vec_s": (leaf("backend.powmod_vec", "s"), "s"),
        "rng.randint_below_calls": (leaf("rng.randint_below", "calls"), "count"),
        "rng.randint_below_s": (leaf("rng.randint_below", "s"), "s"),
        "prf.digest_calls": (leaf("prf.digest", "calls"), "count"),
        "prf.digest_s": (leaf("prf.digest", "s"), "s"),
        "paillier.encrypt_values": (leaf("paillier.encrypt", "calls"), "count"),
        "paillier.encrypt_s": (leaf("paillier.encrypt", "s"), "s"),
        "transport.exchange_s": (selfs.get("transport.exchange", 0.0), "s"),
        "transport.exchange_calls": (len(exchanges), "count"),
        "wire.encode_s": (leaf("wire.encode", "s"), "s"),
        "wire.decode_s": (leaf("wire.decode", "s"), "s"),
        "wire.bytes": (leaf("wire.encode", "values") + leaf("wire.decode", "values"), "bytes"),
        "s2_service.request_s": (
            _daemon_delta(extra, "s2", "repro_s2_request_seconds_sum"), "s"),
        "server.queue_wait_s": (queue_wait, "s"),
        "query_cache.hit_ratio": (len(hits) / len(run.reads) if run.reads else 0.0, "ratio"),
        "query_cache.reads": (len(run.reads), "count"),
        "query_cache.hit_s": (median(hits), "s"),
        "mutations.apply_s": (selfs.get("mutations.apply", 0.0), "s"),
        "mutations.touched": (_mean(run.touched), "count"),
        "shard_service.slices_rekeyed": (
            _daemon_delta(extra, "a", "repro_shard_slices_rekeyed_total"), "count"),
        "shard_service.slice_uploads": (
            _daemon_delta(extra, "a", "repro_shard_slice_uploads_total"), "count"),
        "sharding.fan_in_s": (selfs.get("sharding.fan_in", 0.0), "s"),
        "watch.evaluations": (run.evaluations, "count"),
        "watch.folded_writes": (run.folded, "count"),
        "feed.lateness_p50_s": (detail["feed_lateness_p50_s"], "s"),
        "feed.lateness_max_s": (detail["feed_lateness_max_s"], "s"),
        "scheme.query_self_s": (selfs.get("scheme.query", 0.0), "s"),
        "scheme.encrypt_s": (selfs.get("scheme.encrypt", 0.0), "s"),
        "bench.write_p50_s": (detail["write_p50_s"], "s"),
        "bench.write_tail_s": (detail["write_tail_s"], "s"),
        "bench.watch_lag_p50_s": (detail["watch_lag_p50_s"], "s"),
        "bench.watch_lag_tail_s": (detail["watch_lag_tail_s"], "s"),
        "bench.failed_ratio": (detail["failed_ratio"], "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.detached_s": (sum(row[3] for row in leaves.values()), "s"),
        "trace.reconcile_error_s": (wall - run.op_clock, "s"),
        "trace.bytes_residual": (
            e2e["bytes_per_query"][0]
            - sum(metrics[f"protocols.{p}.bytes"][0] for p in PROTOCOLS + ("other",)),
            "bytes"),
        "trace.overhead_ratio": (extra.get("overhead", 0.0), "ratio"),
        "trace.spans": (len(data.spans), "count"),
    })
    return metrics


def _write_spans(path: str, data) -> None:
    with open(path, "w") as fh:
        for name, span_id, parent, rid, start, end, own in data.spans:
            fh.write(json.dumps({"name": name, "id": span_id, "parent": parent,
                                 "rid": rid, "start": start, "end": end,
                                 "self_s": own}) + "\n")


# -- entry points ------------------------------------------------------------------


def _terminate(signum, frame):
    # Unwind through every ``finally`` so the daemons are stopped.
    sys.exit(128 + signum)


def measure(args) -> int:
    _prepare_environment()
    signal.signal(signal.SIGTERM, _terminate)
    import spans as tracing
    import workloads

    prov = provenance(args)
    tracer = undo = None
    calibrate = None
    if args.trace:
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        calibrate = make_calibrate(tracer, undo)
    try:
        run, setups, extra = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, tracer=tracer, calibrate=calibrate
        )
        data = tracer.snapshot() if tracer is not None else None
    except Exception:  # noqa: BLE001 — the run is void; report and fail
        traceback.print_exc()
        return 1
    finally:
        if undo:
            tracing.uninstall(undo)
    e2e, detail = end_to_end(args.workload, run, setups)
    if tracer is not None:
        detail["overhead"] = extra.get("overhead")
        metrics = per_layer(run, data, extra, e2e, detail)
        spans_dir = os.path.join(BUILD, "traces")
        os.makedirs(spans_dir, exist_ok=True)
        _write_spans(os.path.join(spans_dir, f"{args.workload}-{args.seed}.jsonl"), data)
    else:
        metrics = e2e
    correct = run.failed == 0 and run.ops > 0
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"provenance": prov, "detail": detail, "result": result}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps({"provenance": prov, "detail": detail}))
    print(json.dumps(result))
    return 0 if correct else 1


def compare(paths: list[str]) -> int:
    """Per-metric ratio of run B to run A, when the two are comparable."""
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    a, b = (r["provenance"] for r in records)
    for key in ("backend", "cpu_count", "key_bits", "workload"):
        if a.get(key) != b.get(key):
            sys.stderr.write(
                f"perfbench: refusing to compare runs with different {key}: "
                f"{a.get(key)!r} vs {b.get(key)!r}\n")
            return 3
    ma, mb = (r["result"]["metrics"] for r in records)
    for name in ma:
        if name in mb and ma[name]["value"]:
            ratio = mb[name]["value"] / ma[name]["value"]
            print(f"{name:40s} {ma[name]['value']:14.6g} {mb[name]['value']:14.6g} "
                  f"x{ratio:.3f} {ma[name]['unit']}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.stderr.write("usage: run.py compare A.json B.json\n")
            return 2
        return compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the record here")
    return measure(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
