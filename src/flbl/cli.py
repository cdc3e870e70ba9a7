"""Command-line surface: build labels, query from labels only, verify
against the oracle, and tabulate label sizes across f."""

from __future__ import annotations

import argparse
import csv
import io
import os
import random
import sys

from . import labelfile as LF
from .build import build_scheme, to_label_file
from .graph import FaultSet, GraphParseError, load_graph, oracle_components
from .hierarchy import SizeCapError
from .labels_rand import query_rand_long, query_rand_short, short_regime_ok, _bits
from .labels_simple import query_simple
from .labels_sqrt import query_sqrt

EXIT_PARSE = 1
EXIT_SIZE_CAP = 2
EXIT_BAD_FLAGS = 3
EXIT_FAULTS = 4


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_graph(fh.read())
    except (OSError, GraphParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_PARSE)


def cmd_build(args) -> int:
    g = _load(args.graph)
    scheme = args.scheme
    f = args.f
    if f < 1:
        print("error: --f must be at least 1", file=sys.stderr)
        return EXIT_BAD_FLAGS
    if scheme == LF.SCHEME_RAND_SHORT and not short_regime_ok(g.n, f):
        print(
            f"warning: scheme 4 needs f >= 2 log^2 n = {2 * _bits(g.n) ** 2}; "
            "rerouting to scheme 3",
            file=sys.stderr,
        )
        scheme = LF.SCHEME_RAND_LONG
    mode = args.phi_mode
    try:
        res = build_scheme(g, scheme, f, phi_mode=mode, seed=args.seed)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    lf = to_label_file(res)
    LF.write_label_file(args.output, lf)
    bits = lf.edge_bits or [0]
    print(
        f"scheme={scheme} h={res.h} phi={res.phi} "
        f"certified={'yes' if res.certified else 'no'} "
        f"max_label_bits={max(bits)} mean_label_bits={sum(bits) / len(bits):.1f}"
    )
    return 0


def _parse_ids(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(x) for x in text.split(",")]


def _read_labels(path: str) -> LF.LabelFile:
    try:
        return LF.read_label_file(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_PARSE)


def _fault_error(lf: LF.LabelFile, fault_ids: list[int]) -> str | None:
    m = lf.meta.m
    seen = set()
    for e in fault_ids:
        if not 0 <= e < m:
            return f"fault id {e} is not an edge id (the file has {m} edges)"
        if e in seen:
            return f"fault id {e} is given more than once"
        seen.add(e)
    if len(fault_ids) > lf.meta.f:
        return f"{len(fault_ids)} faults exceed the built f={lf.meta.f}"
    return None


def _parse_pair(text: str, lf: LF.LabelFile):
    """(s, t, label of s, label of t) for one `--pair s,t`."""
    try:
        s, t = (int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--pair expects two comma-separated vertex ids, got {text!r}") from None
    return s, t, LF.decode_vertex_label(lf, s), LF.decode_vertex_label(lf, t)


def _run_query(lf: LF.LabelFile, fault_ids: list[int]):
    records = {e: LF.decode_edge(lf, e) for e in fault_ids}
    if lf.scheme == LF.SCHEME_SIMPLE:
        return query_simple(records, None, None, lf.meta)
    if lf.scheme == LF.SCHEME_SQRT:
        return query_sqrt(records, None, None, lf.meta)
    if lf.scheme == LF.SCHEME_RAND_LONG:
        return query_rand_long(records, lf.meta)
    return query_rand_short(records, lf.meta)


def cmd_query(args) -> int:
    lf = _read_labels(args.labels)
    try:
        fault_ids = _parse_ids(args.fail)
    except ValueError:
        print("error: --fail expects comma-separated edge ids", file=sys.stderr)
        return EXIT_PARSE
    problem = _fault_error(lf, fault_ids)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_FAULTS
    try:
        pairs = [_parse_pair(text, lf) for text in args.pair]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    result = _run_query(lf, fault_ids)
    if args.count:
        print(result.component_count())
        return 0
    for s, t, ls, lt in pairs:
        verdict = "connected" if result.connected(ls, lt) else "disconnected"
        print(f"{s},{t}: {verdict}")
    return 0


def cmd_verify(args) -> int:
    g = _load(args.graph)
    lf = _read_labels(args.labels)
    if (g.n, g.m) != (lf.meta.n, lf.meta.m):
        print(f"error: the label file is for a graph with n={lf.meta.n}, "
              f"m={lf.meta.m}, not n={g.n}, m={g.m}", file=sys.stderr)
        return EXIT_PARSE
    rng = random.Random(args.seed)
    mismatches = 0
    for _ in range(args.trials):
        k = rng.randrange(0, lf.meta.f + 1)
        fault_ids = rng.sample(range(g.m), min(k, g.m))
        s = rng.randrange(g.n)
        t = rng.randrange(g.n)
        comps = oracle_components(g, FaultSet.of(fault_ids, g))
        cid = {}
        for i, comp in enumerate(comps):
            for v in comp:
                cid[v] = i
        result = _run_query(lf, fault_ids)
        ls = LF.decode_vertex_label(lf, s)
        lt = LF.decode_vertex_label(lf, t)
        if result.connected(ls, lt) != (cid[s] == cid[t]):
            mismatches += 1
    rate = mismatches / max(args.trials, 1)
    print(f"trials={args.trials} mismatches={mismatches} rate={rate:.6f}")
    if lf.scheme in (LF.SCHEME_SIMPLE, LF.SCHEME_SQRT):
        return 1 if mismatches else 0
    return 1 if rate > args.rate_threshold else 0


def cmd_stats(args) -> int:
    paths = sorted(
        os.path.join(args.corpus, p)
        for p in os.listdir(args.corpus)
        if not p.startswith(".")
    )
    try:
        f_values = _parse_ids(args.f_range)
    except ValueError:
        print("error: --f-range expects comma-separated integers", file=sys.stderr)
        return EXIT_PARSE
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["f", "scheme", "max_bits", "mean_bits"])
    for f in f_values:
        maxb = 0
        total = 0
        count = 0
        for path in paths:
            g = _load(path)
            res = build_scheme(g, args.scheme, f, phi_mode=args.phi_mode,
                               seed=args.seed)
            lf = to_label_file(res)
            if lf.edge_bits:
                maxb = max(maxb, max(lf.edge_bits))
                total += sum(lf.edge_bits)
                count += len(lf.edge_bits)
        writer.writerow([f, args.scheme, maxb, f"{total / max(count, 1):.1f}"])
    sys.stdout.write(out.getvalue())
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors print one `error:` line and exit EXIT_BAD_FLAGS, not
    argparse's 2, which is the size-cap code; subcommand parsers inherit
    this class."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_BAD_FLAGS)


def main(argv=None) -> int:
    ap = _Parser(
        prog="flbl",
        description="fault-tolerant connectivity labels for undirected graphs",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build a label file from an edge list")
    b.add_argument("graph")
    b.add_argument("--scheme", type=int, choices=(1, 2, 3, 4), required=True)
    b.add_argument("--f", type=int, required=True)
    b.add_argument("--phi-mode", choices=("exact", "heuristic", "auto"),
                   default="auto")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="answer queries from a label file only")
    q.add_argument("labels")
    q.add_argument("--fail", default="")
    q.add_argument("--pair", action="append", default=[])
    q.add_argument("--count", action="store_true")
    q.set_defaults(func=cmd_query)

    v = sub.add_parser("verify", help="compare label answers to the oracle")
    v.add_argument("graph")
    v.add_argument("labels")
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--rate-threshold", type=float, default=1e-3)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("stats", help="label-size table over a graph corpus")
    s.add_argument("corpus")
    s.add_argument("--scheme", type=int, choices=(1, 2, 3, 4), required=True)
    s.add_argument("--f-range", required=True)
    s.add_argument("--phi-mode", choices=("exact", "heuristic", "auto"),
                   default="auto")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_stats)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
