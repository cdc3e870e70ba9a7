#!/usr/bin/env python3
"""End-to-end benchmark of the flbl label pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload s1-cubic --seed 1 --seconds 12 --trace 0

One run makes the workload's inputs from its seed and then does SETUPS
rounds.  A round sets the label file up once (graph text -> parse ->
build -> encode -> write -> read back) and then runs one closed-loop
client for --seconds / SETUPS on it: each query decodes the labels of F
and of 8 (s, t) pairs, runs the scheme's query, and answers the pairs and
the component count.  Every answer is checked against perfbench/oracle.py
after the timed loops.

--trace 0 prints the end-to-end metrics; --trace 1 adds a traced and a
counted set-up to each round and runs each query untraced, traced and
counted, prints a per-layer self-time table and the tracing overhead, and
writes the spans to perfbench/out/.  Spans time the layers; the bits
counters are installed only in the untimed counted pass.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: each workload runs as one single-threaded process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from oracle import expected_answer
from spans import Tracer
from workloads import PAIRS_PER_QUERY, WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUPS = 3
EXACT_SCHEMES = (1, 2)
# Error budget of the randomized scheme, as `flbl verify --rate-threshold`.
RAND_WRONG_BUDGET = 1e-3
TAIL_BEYOND = 10


def _import_flbl():
    src = ROOT / "src"
    if not (src / "flbl" / "__init__.py").is_file():
        raise SystemExit(f"error: flbl sources not found under {src}")
    sys.path.insert(0, str(src))
    import flbl.build
    import flbl.graph
    import flbl.labelfile
    import flbl.labels_rand
    import flbl.labels_simple
    import flbl.labels_sqrt

    return flbl


def _asker(flbl, scheme: int):
    """Scheme query entry point, looked up at call time so a tracer's
    wrapper is used while installed."""
    if scheme == 1:
        return lambda recs, meta: flbl.labels_simple.query_simple(recs, None, None, meta)
    if scheme == 2:
        return lambda recs, meta: flbl.labels_sqrt.query_sqrt(recs, None, None, meta)
    return lambda recs, meta: flbl.labels_rand.query_rand_short(recs, meta)


def set_up(flbl, wl, inputs, path: Path):
    """Graph text to a label file written and read back.  Returns
    (seconds, h, label file)."""
    LF = flbl.labelfile
    t0 = perf_counter()
    g = flbl.graph.load_graph(inputs.text)
    res = flbl.build.build_scheme(g, wl.scheme, wl.f, phi_mode="auto",
                                  seed=inputs.build_seed)
    LF.write_label_file(str(path), LF.make_label_file(
        res.scheme, res.meta, res.vertex_labels, res.edge_labels))
    lf = LF.read_label_file(str(path))
    return perf_counter() - t0, res.h, lf


def answer(flbl, lf, query, ask):
    LF = flbl.labelfile
    records = {e: LF.decode_edge(lf, e) for e in query.faults}
    res = ask(records, lf.meta)
    pairs = tuple(
        res.connected(LF.decode_vertex_label(lf, s), LF.decode_vertex_label(lf, t))
        for s, t in query.pairs
    )
    got = (pairs, res.component_count())
    # case-3 marks (scheme 2) and Boruvka steps (scheme 4) of this query
    work = (len(getattr(res, "case3_fired", ())), len(getattr(res, "part_history", ())))
    return got, work


def timed_answer(flbl, lf, query, ask):
    """(latency s, answer or the exception raised, work counts or None)."""
    t0 = perf_counter()
    try:
        got, work = answer(flbl, lf, query, ask)
    except Exception as exc:  # a raising query is counted as wrong
        lat = perf_counter() - t0
        traceback.print_exc()
        return lat, exc, None
    return perf_counter() - t0, got, work


def nearest_rank(sorted_vals, p: float):
    return sorted_vals[max(0, math.ceil(p / 100 * len(sorted_vals)) - 1)]


def tail(sorted_vals):
    """(percentile, value, samples beyond): the highest percentile with
    TAIL_BEYOND samples beyond it, i.e. the (TAIL_BEYOND + 1)-th largest
    sample; the maximum when there are too few samples."""
    n = len(sorted_vals)
    beyond = min(TAIL_BEYOND, n - 1)
    return 100 * (n - beyond) / n, sorted_vals[n - 1 - beyond], beyond


def sha256(path: Path) -> str:
    # Streamed: a whole-file read would add a transient buffer the size of
    # the label file to peak_rss_mb, landing in the heap or not depending on
    # malloc's state.
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def label_stats(lf, path: Path) -> dict:
    bits = sorted(lf.edge_bits)
    return {
        "label_bits_max": bits[-1],
        "label_bits_mean": sum(bits) / len(bits),
        "label_bits_p99": nearest_rank(bits, 99),
        "label_file_bytes": path.stat().st_size,
    }


def run(args) -> int:
    flbl = _import_flbl()
    wl = WORKLOADS[args.workload]
    inputs = make_inputs(wl, args.seed)
    ask = _asker(flbl, wl.scheme)
    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    print(f"workload {wl.name} seed {args.seed}: scheme {wl.scheme}, n {wl.n}, "
          f"m {len(inputs.edges)}, f {wl.f}, |F| 1..{wl.max_faults}, "
          f"{PAIRS_PER_QUERY} pairs + component count per query, "
          f"{'traced' if tracer else 'untraced'}")

    # SETUPS rounds, each one set-up (plus a traced and a counted one) and
    # then a query window of --seconds / SETUPS on that round's label file.
    # Spreading both phases over the whole run averages out slow periods of
    # the machine, and on schemes 1-2 it averages query cost over the
    # differing label files (see README).
    plain, traced = [], []   # per set-up: (seconds, h, label stats, sha256)
    done = []  # per query: (query, latency, traced latency, answers, work)
    phase_s = 0.0
    for k in range(SETUPS):
        path = OUT / f"{wl.name}-{args.seed}-{os.getpid()}.flbl"
        gc.collect()  # leave no query garbage for the set-up's collector
        if tracer:
            with tracer.root("setup", f"setup-{k}"):
                secs, h, lf = set_up(flbl, wl, inputs, path)
            traced.append((secs, h, label_stats(lf, path), sha256(path)))
            with tracer.count(f"setup-{k}"):
                set_up(flbl, wl, inputs, path)
        secs, h, lf = set_up(flbl, wl, inputs, path)
        plain.append((secs, h, label_stats(lf, path), sha256(path)))
        path.unlink()
        gc.collect()  # leave no set-up garbage for the queries' collector

        t_window = perf_counter()
        while perf_counter() - t_window < args.seconds / SETUPS:
            q = next(inputs.queries)
            lat, got, work = timed_answer(flbl, lf, q, ask)
            answers, t_lat = [got], None
            if tracer:
                qid = f"q{len(done)}"
                with tracer.root("query", qid):
                    t_lat, t_got, _ = timed_answer(flbl, lf, q, ask)
                with tracer.count(qid):
                    _, c_got, _ = timed_answer(flbl, lf, q, ask)
                answers += [t_got, c_got]
            done.append((q, lat, t_lat, answers, work))
        phase_s += perf_counter() - t_window
        del lf  # the next set-up starts without this round's label file

    for i, (secs, h, st, sha) in enumerate(plain + traced):
        kind = "traced" if i >= len(plain) else "untraced"
        print(f"set-up {i % SETUPS + 1}/{SETUPS} {kind}: {secs:.3f} s, h {h}, "
              f"sha256 {sha[:16]}, {st['label_file_bytes']} bytes, "
              f"label bits max {st['label_bits_max']} "
              f"mean {st['label_bits_mean']:.1f} p99 {st['label_bits_p99']}")
    digests = {sha for (_, _, _, sha) in plain + traced}
    repeats_match = len(digests) == 1
    print(f"label-file repeats match: {'yes' if repeats_match else 'no'} "
          f"({len(digests)} distinct sha256 over {len(plain) + len(traced)} set-ups)")

    attempted = wrong = 0
    for (q, _, _, answers, _) in done:
        want = expected_answer(wl.n, inputs.edges, q)
        for g in answers:
            attempted += 1
            wrong += g != want
    wrong_share = wrong / attempted
    if wl.scheme in EXACT_SCHEMES:
        correct = wrong == 0
    else:
        correct = wrong_share <= RAND_WRONG_BUDGET and repeats_match
    print(f"wrong_share {wrong_share:.6f} ({wrong} of {attempted} query "
          f"executions wrong or raised; limit "
          f"{0 if wl.scheme in EXACT_SCHEMES else RAND_WRONG_BUDGET})")

    if tracer:
        metrics = layer_metrics(tracer, plain, traced, done)
        spans_path = OUT / f"spans-{wl.name}-{args.seed}.jsonl"
        tracer.dump(str(spans_path))
        print_layer_report(tracer, metrics, spans_path)
    else:
        lats = sorted(d[1] for d in done)
        p, tail_s, beyond = tail(lats)
        metrics = {
            "setup_s": (statistics.median(s for (s, _, _, _) in plain), "s"),
            "query_p50_ms": (statistics.median(lats) * 1e3, "ms"),
            "query_tail_ms": (tail_s * 1e3, "ms"),
            "queries_per_s": (len(done) / phase_s, "1/s"),
        }
        for key, unit in (("label_bits_max", "bit"), ("label_bits_mean", "bit"),
                          ("label_bits_p99", "bit"), ("label_file_bytes", "byte")):
            metrics[key] = (statistics.median(st[key] for (_, _, st, _) in plain), unit)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        print(f"query_tail_ms is p{p:.1f}: {beyond} samples beyond it, "
              f"{len(lats)} samples")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


# -- traced run ---------------------------------------------------------------


def layer_metrics(tracer, plain, traced, done) -> dict:
    """Per-layer metrics from the spans: set-up layers as the median over
    the traced set-ups, query layers as the mean per traced query.  Bits
    counts come from the counted pass over the same rounds and queries."""
    selfs = tracer.self_times()
    self_s = defaultdict(float)
    calls = defaultdict(int)
    root_s = {}
    for (name, start, end, parent, qid), st in zip(tracer.spans, selfs):
        self_s[qid, name] += st
        calls[qid, name] += 1
        if parent < 0:
            root_s[qid] = end - start
    setups = [f"setup-{k}" for k in range(len(traced))]
    queries = [f"q{i}" for i in range(len(done))]
    med = statistics.median

    def setup_s(name):
        return med(self_s[q, name] for q in setups)

    def per_query(table, name):
        return sum(table[q, name] for q in queries) / len(queries)

    def counts(qids, key):
        return [tracer.counts_by_qid[q][key] for q in qids]

    decode_total = sum(self_s[q, "labelfile.decode"] for q in queries)
    query_total = sum(root_s[q] for q in queries)
    scheme_query = sum(self_s[q, n] for q in queries for n in
                       ("labels_simple.query", "labels_sqrt.query",
                        "labels_rand.query", "codeshares.decode"))
    bits_read = sum(counts(queries, "bits.read_bits"))
    works = [d[4] for d in done if d[4] is not None] or [(0, 0)]
    m = {
        "graph.parse_s": (setup_s("graph.parse"), "s"),
        "graph.reduce_s": (setup_s("graph.reduce"), "s"),
        "hierarchy.build_s": (setup_s("hierarchy.build"), "s"),
        "hierarchy.h": (med(h if calls[q, "hierarchy.build"] else 0
                            for q, (_, h, _, _) in zip(setups, traced)), "count"),
        "euler.frame_s": (setup_s("euler.frame"), "s"),
        "labels_simple.build_s": (setup_s("labels_simple.build"), "s"),
        "labels_sqrt.build_s": (setup_s("labels_sqrt.build"), "s"),
        "labels_rand.build_s": (setup_s("labels_rand.build"), "s"),
        "codeshares.encode_calls": (med(calls[q, "codeshares.encode"] for q in setups), "count"),
        "codeshares.encode_s": (setup_s("codeshares.encode"), "s"),
        "labelfile.encode_s": (setup_s("labelfile.encode"), "s"),
        "labelfile.write_s": (setup_s("labelfile.write"), "s"),
        "labelfile.read_s": (setup_s("labelfile.read"), "s"),
        "bits.write_calls": (med(counts(setups, "bits.write_calls")), "count"),
        "codeshares.decode_calls": (per_query(calls, "codeshares.decode"), "count"),
        "codeshares.decode_s": (per_query(self_s, "codeshares.decode"), "s"),
        "labels_simple.query_s": (per_query(self_s, "labels_simple.query"), "s"),
        "labels_sqrt.query_s": (per_query(self_s, "labels_sqrt.query"), "s"),
        "labels_sqrt.case3_per_query": (
            sum(w[0] for w in works) / len(works), "count"),
        "labels_rand.query_s": (per_query(self_s, "labels_rand.query"), "s"),
        "labels_rand.boruvka_steps": (
            sum(w[1] for w in works) / len(works), "count"),
        "labelfile.decode_s": (decode_total / len(queries), "s"),
        "labelfile.decode_bits_per_s": (bits_read / decode_total, "bit/s"),
        "labelfile.decode_share": (decode_total / query_total, "ratio"),
        "labelfile.decode_to_query_ratio": (decode_total / scheme_query, "ratio"),
        "query.traced_s": (query_total / len(queries), "s"),
        "bits.read_calls_per_query": (
            sum(counts(queries, "bits.read_calls")) / len(queries), "count"),
        "bits.bits_read_per_query": (bits_read / len(queries), "bit"),
        "trace.setup_overhead_s": (
            med(s for (s, _, _, _) in traced) - med(s for (s, _, _, _) in plain), "s"),
        "trace.query_overhead_ms": (
            med(d[2] - d[1] for d in done) * 1e3, "ms"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return m


def print_layer_report(tracer, metrics, spans_path):
    selfs = tracer.self_times()
    table = defaultdict(lambda: [0, 0.0])
    roots = defaultdict(float)
    for (name, start, end, parent, qid), st in zip(tracer.spans, selfs):
        phase = "setup" if qid.startswith("setup") else "query"
        table[phase, name][0] += 1
        table[phase, name][1] += st
        if parent < 0:
            roots[phase] += end - start
    print("per-layer self time (traced set-ups and queries, all summed):")
    print(f"  {'phase':6} {'layer':22} {'calls':>8} {'self s':>10} {'share':>7}")
    for (phase, name), (n, st) in sorted(table.items(), key=lambda kv: (kv[0][0], -kv[1][1])):
        label = "(unattributed)" if name in ("setup", "query") else name
        print(f"  {phase:6} {label:22} {n:8d} {st:10.4f} {st / roots[phase]:7.1%}")
    print("bits counters come from wrapping BitReader.read and BitWriter.write, "
          "write_fields and write_framing from outside the program, in a "
          "separate untimed pass over the same set-ups and queries; flbl "
          "contains no tracing code")
    print(f"tracing overhead: set-up {metrics['trace.setup_overhead_s'][0]:+.4f} s, "
          f"query {metrics['trace.query_overhead_ms'][0]:+.4f} ms "
          f"(traced minus untraced, same process: set-up medians, median "
          f"per-query difference)")
    print(f"spans: {len(tracer.spans)} written to {spans_path}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="workload seed; tune on 1, confirm a claim on 104729")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
