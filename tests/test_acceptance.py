"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from flbl import codeshares
from flbl import labelfile as LF
from flbl.build import build_scheme, to_label_file
from flbl.euler import EulerFrame
from flbl.graph import Graph, UnionFind, reduce_degree3
from flbl.hierarchy import (
    build_edge_hierarchy,
    verify_edge_expanding,
)
from flbl.labels_rand import (
    BfsForest,
    SingletonSeed,
    _bits,
    _Regions,
    _region_aggregates,
    build_rand_long,
    build_rand_short,
    query_rand_long,
    query_rand_short,
)
from flbl.labels_simple import build_simple_labels, query_simple
from flbl.labels_sqrt import query_sqrt
from support import induced, oracle_classes, verify_edge_hierarchy


def random_connected(rng, n, p):
    while True:
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.append((u, v))
        uf = UnionFind(n)
        for u, v in edges:
            uf.union(u, v)
        if len(uf.groups()) == 1:
            return Graph(n, tuple(edges))


def random_connected_sparse(rng, n, extra):
    """Random spanning tree plus `extra` random chords (no rejection)."""
    edges = []
    seen = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v))
        seen.add((u, v))
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        edges.append(key)
    rng.shuffle(edges)
    return Graph(n, tuple(edges))


def tree_plus_chords(rng, n, chords):
    """Random recursive spanning tree plus `chords` distinct extra edges,
    shuffled: the graph family of the benchmark's scheme-2 workload."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    seen = set(edges)
    while len(edges) < n - 1 + chords:
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            edges.append(key)
    rng.shuffle(edges)
    return Graph(n, tuple(edges))


def random_regular3(n, seed):
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return Graph(n, tuple(sorted(edges)))


def report(name, ok, detail=""):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name} failed: {detail}"


def test_a1_deterministic_exhaustive_small():
    t0 = time.time()
    rng = random.Random(0xA1)
    mismatches = 0
    checks = 0
    for gi in range(50):
        n = rng.randrange(4, 17)
        g = random_connected(rng, n, min(0.9, 2.8 / n + 0.12))
        f = 2
        r1 = build_scheme(g, 1, f, phi_mode="exact")
        r2 = build_scheme(g, 2, f, phi_mode="auto")
        assert r1.certified
        for k in range(0, 3):
            for F in itertools.combinations(range(g.m), k):
                cid, cnt = oracle_classes(g, list(F))
                q1 = query_simple(
                    {e: r1.edge_labels[e] for e in F}, None, None, r1.meta
                )
                q2 = query_sqrt(
                    {e: r2.edge_labels[e] for e in F}, None, None, r2.meta
                )
                if q1.component_count() != cnt:
                    mismatches += 1
                for s in range(g.n):
                    for t in range(s + 1, g.n):
                        checks += 1
                        want = cid[s] == cid[t]
                        if q1.connected(r1.vertex_labels[s], r1.vertex_labels[t]) != want:
                            mismatches += 1
                        if q2.connected(r2.vertex_labels[s], r2.vertex_labels[t]) != want:
                            mismatches += 1
    dur = time.time() - t0
    report(
        "A1 (deterministic correctness, exhaustive small)",
        mismatches == 0 and dur <= 120,
        f"{checks} pair checks, {mismatches} mismatches, {dur:.0f}s (target 120s)",
    )


def test_a2_deterministic_sampled():
    t0 = time.time()
    rng = random.Random(0xA2)
    mismatches = 0
    trials = 0
    spot_failures = 0
    for gi in range(200):
        n = rng.randrange(20, 121)
        g = random_connected_sparse(rng, n, extra=int(0.7 * n))
        f = 4
        hier = build_edge_hierarchy(g, mode="heuristic")
        frame = EulerFrame(g, hier)
        vl1, labs1, meta1 = build_simple_labels(g, hier, frame, f)
        r2 = build_scheme(g, 2, f, phi_mode="heuristic")
        if gi % 10 == 0:
            # exact expansion spot-check on small level components
            for ell in range(1, hier.h + 1):
                keep = [e for e in range(g.m) if hier.level[e] <= ell]
                uf = UnionFind(g.n)
                for e in keep:
                    u, v = g.edges[e]
                    uf.union(u, v)
                for comp in uf.groups():
                    if 2 <= len(comp) <= 16:
                        sub, vmap, emap = induced(g, comp)
                        x_local = {
                            se for se, oe in emap.items()
                            if hier.level[oe] == ell
                        }
                        ok, _ = verify_edge_expanding(sub, x_local, hier.phi)
                        if not ok:
                            spot_failures += 1
                        break
                break
        for _ in range(200):
            k = rng.randrange(1, 5)
            F = rng.sample(range(g.m), min(k, g.m))
            s = rng.randrange(n)
            t = rng.randrange(n)
            cid, cnt = oracle_classes(g, F)
            want = cid[s] == cid[t]
            q1 = query_simple({e: labs1[e] for e in F}, None, None, meta1)
            q2 = query_sqrt({e: r2.edge_labels[e] for e in F}, None, None, r2.meta)
            trials += 1
            if q1.connected(vl1[s], vl1[t]) != want:
                mismatches += 1
            if q2.connected(r2.vertex_labels[s], r2.vertex_labels[t]) != want:
                mismatches += 1
    dur = time.time() - t0
    report(
        "A2 (deterministic correctness, sampled)",
        mismatches == 0 and dur <= 300,
        f"{trials} trials, {mismatches} mismatches, "
        f"{spot_failures} spot-check failures, {dur:.0f}s (target 300s)",
    )


def _loglog_slope(points):
    xs = [math.log(f) for f, _ in points]
    ys = [math.log(b) for _, b in points]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def _scheme1_sections(labels, cap):
    """(entries in the largest per-level section of any scheme-1 tree-edge
    label, whether any segment list was truncated, whether every segment
    list holds at most `cap` entries and every section at most 3 * cap)."""
    largest, truncated, within = 0, False, True
    for lab in labels:
        for sec in lab.sections.values():
            entries = sum(len(s.entries) for s in sec.segments)
            largest = max(largest, entries)
            truncated = truncated or any(s.truncated for s in sec.segments)
            within = within and entries <= 3 * cap and all(
                len(s.entries) <= cap for s in sec.segments
            )
    return largest, truncated, within


def test_a3_label_size_scaling():
    t0 = time.time()
    g = random_regular3(3 * 2 ** 10, seed=0xA3)
    hier1 = build_edge_hierarchy(g, mode="heuristic")
    red = reduce_degree3(g)
    hier2 = build_edge_hierarchy(red.reduced, mode="heuristic")
    # The O~(f) bound is h level sections of at most 3(f/phi + 1) list
    # entries each, and it describes scheme 1 only while the f/phi + 1 cap
    # binds.  On this graph no segment list holds more than about 700
    # edges, so from f ~ 350 on no list is truncated and only the count
    # field widths change (46,214 / 46,241 / 46,295 max bits at f = 512 /
    # 1024 / 4096); such points measure the graph, not the scheme.  Hence
    # the grid stops at 256 and every point must truncate some list.  The
    # large-f regime, where scheme 2 should overtake scheme 1, is not
    # reached on this graph family.
    fs = [4, 16, 64, 256]
    log_n = math.ceil(math.log2(g.n))
    s1, s2, sec1, trunc1, within1, bound1 = [], [], [], [], [], []
    for f in fs:
        r1 = build_scheme(g, 1, f, hier=hier1)
        lf1 = to_label_file(r1)
        s1.append(max(lf1.edge_bits))
        # the cap from its definition, not from the scheme's own helper
        cap = math.floor(f / r1.meta.phi) + 1
        largest, truncated, within = _scheme1_sections(r1.edge_labels, cap)
        sec1.append(largest)
        trunc1.append(truncated)
        within1.append(within)
        # An entry is two tour positions of ceil(log2 3n) <= log_n + 2 bits
        # (plus a parallel rank, 0 bits here); a section's header is seven
        # positions and three counts.  c = 4 bits per log_n per entry
        # covers both for every f >= 1 at this n.
        bound1.append(r1.meta.h * 3 * cap * 4 * log_n)
        r2 = build_scheme(g, 2, f, hier=hier2)
        lf2 = to_label_file(r2)
        s2.append(max(lf2.edge_bits))
    ratios = [b2 / b1 for b1, b2 in zip(s1, s2)]
    monotone = all(
        ratios[i + 1] <= ratios[i] * 1.10 for i in range(len(ratios) - 1)
    )
    bounded1 = all(within1) and all(b <= c for b, c in zip(s1, bound1))
    # The paper's scheme-1 claim is an upper bound, checked by `bounded1`
    # on every section and on the whole label.  The slope is fitted to the
    # largest level section: while its three lists are truncated it equals
    # 3(f/phi + 1) (27, 99, 387 at f = 4, 16, 64), so the slope checks that
    # the label follows the linear cap across the grid.  The whole-label
    # maximum does not: the low levels of the largest label hold every
    # edge of their level at every f >= 4, so its slope counts how many of
    # the h levels are full (a property of the graph, 0.50-0.60 on every
    # f range tried).  It is printed, not asserted.
    slope1 = _loglog_slope(list(zip(fs, sec1)))
    slope1_label = _loglog_slope(list(zip(fs, s1)))
    slope2 = _loglog_slope(list(zip(fs, s2)))
    dur = time.time() - t0
    detail = (
        f"scheme1 largest section entries {sec1} slope {slope1:.2f} "
        f"(need >= 0.85), truncated lists at each f {trunc1}; "
        f"scheme1 bits {s1} within sections {within1} and bound "
        f"h*3(f/phi+1)*4*ceil(log2 n) = {bound1}: {bounded1}; "
        f"scheme1 bits slope {slope1_label:.2f} (not asserted); "
        f"scheme2 bits {s2} slope {slope2:.2f} (need <= 0.65); "
        f"ratios {[round(r, 2) for r in ratios]} monotone={monotone}; "
        f"{dur:.0f}s (target 600s)"
    )
    report(
        "A3 (label-size scaling)",
        all(trunc1) and bounded1 and monotone and slope2 <= 0.65
        and slope1 >= 0.85 and dur <= 600,
        detail,
    )


def _same_partition(res, vertex_labels, cid):
    """Whether the query's classes of the vertices are the oracle's."""
    pairs = {(res.class_of(vertex_labels[v]), cid[v]) for v in cid}
    return len(pairs) == len({c for c, _ in pairs}) == len(set(cid.values()))


def test_a11_scheme2_crossover():
    # The paper's O~(sqrt f) scheme-2 labels against O~(f) scheme-1 labels,
    # on a graph dense enough that scheme-1 lists are still truncated at
    # f = 1024 (A3's cubic graph stops truncating near f = 350).  Max bits
    # measured when this gate was written: scheme 1 24,969 / 115,752 and
    # scheme 2 84,729 / 99,906 (ratios 3.39 / 0.86); f = 256 (65,276 and
    # 93,617 bits, ratio 1.43) is left out: it took 9 of the 45 s the test
    # took with it, most of them in the scheme-2 build.  With n = 200 or
    # 300 the f = 1024 ratio stays above 1 (1.37 and 1.13).
    t0 = time.time()
    g = tree_plus_chords(random.Random(7), 400, 3200)
    hier1 = build_edge_hierarchy(g, mode="heuristic")
    hier2 = build_edge_hierarchy(reduce_degree3(g).reduced, mode="heuristic")
    fs = [64, 1024]
    s1, s2, trunc1 = [], [], []
    for f in fs:
        r1 = build_scheme(g, 1, f, hier=hier1)
        s1.append(max(to_label_file(r1).edge_bits))
        cap = math.floor(f / r1.meta.phi) + 1
        trunc1.append(_scheme1_sections(r1.edge_labels, cap)[1])
        r2 = build_scheme(g, 2, f, hier=hier2)
        s2.append(max(to_label_file(r2).edge_bits))
    ratios = [b2 / b1 for b1, b2 in zip(s1, s2)]
    falls = all(b < a for a, b in zip(ratios, ratios[1:]))
    # answers of both schemes at the top of the grid against the oracle
    rng = random.Random(0xA11)
    wrong = 0
    for _ in range(20):
        F = rng.sample(range(g.m), rng.randint(1, fs[-1]))
        cid, cnt = oracle_classes(g, F)
        for res, query in ((r1, query_simple), (r2, query_sqrt)):
            q = query({e: res.edge_labels[e] for e in F}, None, None, res.meta)
            if q.component_count() != cnt or not _same_partition(q, res.vertex_labels, cid):
                wrong += 1
    dur = time.time() - t0
    report(
        "A11 (scheme-2 crossover)",
        falls and all(trunc1) and ratios[-1] < 1 and wrong == 0,
        f"f {fs}: scheme1 bits {s1}, truncated lists {trunc1}; scheme2 bits {s2}; "
        f"ratios {[round(r, 2) for r in ratios]} falling={falls}; "
        f"20 fault sets at f = {fs[-1]}, {wrong} wrong answers over both schemes; "
        f"{dur:.0f}s",
    )


def test_a4_long_randomized_scheme():
    t0 = time.time()
    rng = random.Random(0xA4)
    c = 4
    bad_trials = 0
    onesided_violations = 0
    identity_violations = 0
    trials = 0
    for gi in range(100):
        n = rng.randrange(8, 65)
        g = random_connected_sparse(rng, n, extra=int(0.9 * n))
        f = rng.randrange(1, 9)
        vl, labs, meta = build_rand_long(g, f, seed=rng.randrange(10 ** 9), c=c)
        lf = LF.make_label_file(LF.SCHEME_RAND_LONG, meta, vl, labs)
        expected_bits = f + (c + 2) * _bits(n)
        assert all(b == expected_bits for b in lf.edge_bits), "payload size"
        forest = BfsForest(g)
        for _ in range(100):
            trials += 1
            F = rng.sample(range(g.m), min(rng.randrange(0, f + 1), g.m))
            cid, cnt = oracle_classes(g, F)
            records = {e: labs[e] for e in F}
            res = query_rand_long(records, meta)
            ok = res.component_count() == cnt
            for s in range(0, n, 2):
                for t in range(s + 1, n, 2):
                    got = res.connected(vl[s], vl[t])
                    want = cid[s] == cid[t]
                    if got != want:
                        ok = False
                        if got and not want:
                            onesided_violations += 1
            if not ok:
                bad_trials += 1
            # exact identity: sk0_{E-F} XORed over each oracle component
            regions = _Regions(records, meta.comp_roots)
            agg = _region_aggregates(records, regions, "sk0")
            seen = set()
            acc = {}
            for v in range(g.n):
                rid = regions.region_of(forest.pre[v])
                if rid in agg and (cid[v], rid) not in seen:
                    seen.add((cid[v], rid))
                    acc[cid[v]] = acc.get(cid[v], 0) ^ agg[rid]
            if any(x != 0 for x in acc.values()):
                identity_violations += 1
    rate = bad_trials / trials
    dur = time.time() - t0
    report(
        "A4 (long randomized scheme)",
        rate <= 1e-3 and onesided_violations == 0 and identity_violations == 0,
        f"{trials} trials, mismatch rate {rate:.5f} (<= 1e-3), "
        f"one-sided violations {onesided_violations}, "
        f"identity violations {identity_violations}, {dur:.0f}s",
    )


def test_a5_singleton_detector():
    t0 = time.time()
    rng = random.Random(0xA5)
    # true singletons: never missed, over all edges x 100 seeds
    missed = 0
    total = 0
    graphs = []
    for _ in range(20):
        n = rng.randrange(6, 64)
        graphs.append(random_connected_sparse(rng, n, extra=n))
    forests = [BfsForest(g) for g in graphs]
    for seed in range(100):
        for g, forest in zip(graphs, forests):
            sig = SingletonSeed.generate(seed, g.n)
            nb = _bits(g.n)
            for (u, v) in g.edges:
                a, b = sorted((forest.pre[u], forest.pre[v]))
                x = (a << nb) | b
                total += 1
                if sig.singleton(sig.uid(x)) != x:
                    missed += 1
    # false positives on multi-edge aggregates at c=4, n=64
    sig = SingletonSeed.generate(0xBEEF, 64)
    fp = 0
    fp_trials = 100_000
    for _ in range(fp_trials):
        k = rng.choice((2, 3))
        xs = rng.sample(range(1, 1 << sig.w), k)
        agg = 0
        for x in xs:
            agg ^= sig.uid(x)
        if sig.singleton(agg) is not None:
            fp += 1
    fp_rate = fp / fp_trials
    dur = time.time() - t0
    report(
        "A5 (singleton detector)",
        missed == 0 and fp_rate <= 1e-3 and dur <= 60,
        f"{total} true singletons all recovered ({missed} missed), "
        f"false-positive rate {fp_rate:.5f} (<= 1e-3), {dur:.0f}s (target 60s)",
    )


def test_a6_boruvka_contraction():
    t0 = time.time()
    rng = random.Random(0xA6)
    ratios = []
    trials = 0
    while trials < 200:
        n = 256
        g = random_connected_sparse(rng, n, extra=2 * n)
        f = max(2 * _bits(n) ** 2, 140)
        if g.m < f + 10:
            continue
        vl, labs, meta = build_rand_short(g, f, seed=rng.randrange(10 ** 9))
        forest = BfsForest(g)
        tree = sorted(forest.tree_edges)
        F = rng.sample(tree, min(len(tree), 110))
        res = query_rand_short({e: labs[e] for e in F}, meta)
        hist = res.part_history
        if not hist or hist[0] < 64:
            continue
        trials += 1
        for i in range(len(hist) - 1):
            if hist[i] >= 32:
                ratios.append(hist[i + 1] / hist[i])
    mean_ratio = sum(ratios) / len(ratios)
    dur = time.time() - t0
    report(
        "A6 (Boruvka contraction)",
        mean_ratio <= 0.94,
        f"{trials} trials, {len(ratios)} step ratios, "
        f"mean {mean_ratio:.3f} (<= 0.94), {dur:.0f}s",
    )


def test_a7_code_shares():
    t0 = time.time()
    rng = random.Random(0xA7)
    field = codeshares.field_for(60)  # 60-bit symbols, as wide as a 29-bit-position name
    failures = 0
    runs = 0
    for k in range(1, 11):
        m = [rng.randrange(field.p) for _ in range(k)]
        shares = codeshares.encode(m, field)
        t = (k + 1) // 2
        for subset in itertools.combinations(shares, t):
            runs += 1
            if codeshares.decode(list(subset), k, field) != m:
                failures += 1
    for k in (16, 32, 64):
        m = [rng.randrange(field.p) for _ in range(k)]
        shares = codeshares.encode(m, field)
        t = (k + 1) // 2
        for _ in range(100):
            subset = rng.sample(shares, t)
            runs += 1
            if codeshares.decode(subset, k, field) != m:
                failures += 1
    dur = time.time() - t0
    report(
        "A7 (code shares)",
        failures == 0 and dur <= 30,
        f"{runs} decode round-trips, {failures} failures, {dur:.0f}s (target 30s)",
    )


def test_a8_hierarchy_certification():
    t0 = time.time()
    rng = random.Random(0xA8)
    violations = 0
    for gi in range(100):
        n = rng.randrange(4, 17)
        g = random_connected(rng, n, min(0.9, 2.6 / n + 0.1))
        he = build_edge_hierarchy(g, mode="exact")
        if he.h > math.ceil(math.log2(g.n)):
            violations += 1
        if not verify_edge_hierarchy(g, he):
            violations += 1
    dur = time.time() - t0
    report(
        "A8 (hierarchy certification)",
        violations == 0,
        f"100 graphs, {violations} violations "
        f"(edge phi=1/2, h <= ceil(log2 n)), {dur:.0f}s",
    )
