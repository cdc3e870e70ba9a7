"""Golden-digest guard for the label-file codec.

Each case builds a small seeded graph under one scheme (exact or
fixed-seed hierarchies, so every build is reproducible), writes the
label file, reads it back and decodes every vertex and edge record.
It pins two SHA-256 digests per case: one of the file bytes and one of
the `repr` of every decoded record.  A codec or build change that keeps
both is byte- and record-identical.  Every case also pins one digest
of query answers read from the file (see `QUERY_CASES`).

Run `PYTHONPATH=src python tests/test_golden.py` to print the current
digests.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from flbl import labelfile as LF
from flbl.build import build_scheme
from flbl.cli import _run_query
from flbl.graph import Graph
from flbl.labels_rand import _bits
from test_acceptance import random_connected, random_connected_sparse, random_regular3


def _sparse40():
    return random_connected_sparse(random.Random(1), 40, 160)


def _sparse80():
    return random_connected_sparse(random.Random(1), 80, 320)


def _multi30():
    """A 30-vertex multigraph of three components (12, 8 and 6 vertices,
    ids interleaved) and 4 isolated vertices: per component a random
    spanning tree plus chords drawn with repeats, so some are parallel."""
    rng = random.Random(17)
    verts = list(range(30))
    rng.shuffle(verts)
    edges = []
    at = 0
    for size, chords in ((12, 14), (8, 8), (6, 6)):
        comp = verts[at:at + size]
        at += size
        edges += [(comp[rng.randrange(i)], comp[i]) for i in range(1, size)]
        for _ in range(chords):
            u, v = rng.sample(comp, 2)
            edges.append((u, v))
    rng.shuffle(edges)
    return Graph(30, tuple(edges))


# name -> (graph maker, scheme, f, phi_mode, seed)
CASES = {
    # heuristic hierarchy above the exact cap, exact below it; 7 levels with
    # 181, 124, 78, 53, 36, 22, 1 trees, and the heuristic finder accepts 3
    # adjacent-pair cuts (counted on this build), so the pair stage of
    # hierarchy._HeuristicCutFinder and the per-tree label build both run
    "s1-cubic200-auto": (lambda: random_regular3(200, 11), 1, 16, "auto", 0),
    "s1-exact-n14": (lambda: random_connected(random.Random(3), 14, 0.3), 1, 2, "exact", 0),
    "s1-cubic60": (lambda: random_regular3(60, 5), 1, 4, "heuristic", 0),
    "s2-n7": (lambda: random_connected(random.Random(4), 7, 0.4), 2, 2, "auto", 0),
    "s2-sparse40": (_sparse40, 2, 4, "heuristic", 0),
    # its own build withholds block lists: 4 of its block records hold the
    # lge count only, and only those blocks have shares in the file
    "s2-sparse80-withheld": (_sparse80, 2, 8, "heuristic", 0),
    # several components, isolated vertices and parallel edges: the level
    # trees of one level come from different components
    "s1-multi30": (_multi30, 1, 3, "auto", 0),
    "s2-multi30": (_multi30, 2, 4, "auto", 0),
    "s3-n10": (lambda: random_connected(random.Random(3), 10, 0.45), 3, 2, "auto", 7),
    "s4-n24": (lambda: random_connected(random.Random(4), 24, 0.6), 4, 2 * _bits(24) ** 2,
               "auto", 7),
}

GOLDEN = {
    's1-cubic200-auto': ('0027fd9fba965b01a420faab81ab57c96520b60b1e7c7ee93ac06e6bd424820a', '47c459571b0eb563860b383b78c98e9351be7bf50a4d03c4ea210ea980c8de7e'),
    's1-cubic60': ('bc334396b9b95d6ba5bdc53912dcc6ba55143d8752badf8d6a2ad07295f913cd', 'b6b5dc43850c833edf2330b2a906d3a4c223b7e6a24cd39d2c1c2995aa64e795'),
    's1-multi30': ('0c62394e5e5c017ef787da98959efc96e4a9cc7d7944dc964dae29608bdb233b', '689c26253f4075926ded97de7e76101f6826545316faf2f3c36acc79ce205322'),
    's1-exact-n14': ('848ad204aaeaa5776e62bda5e337ece29f56f23e6ec1978addd39efde2c967e8', 'a45445dea023cbe598d804a6ee697deb428f24169f42f40b6355edf7ccac011c'),
    's2-n7': ('2430891cc42e8c399d7d7a93d9123273822161ebe5359a7aaf32001108ae8cc2', 'd61e476e4c5e78e2a9edd33082fe6119fc19ec2caf7eee747206e11a979cf9b1'),
    's2-multi30': ('9d557260e6aeaa56d39309e1485685f1f7434b8535172f68a9e6a3d35419268d', 'e90791050b7aaed0ab2bf5a9f74623121600604a81f7d5a82f7014c43aef47c9'),
    's2-sparse40': ('5566838d11ef6870543a708810579cfdca5cca785799cfef57804dcadc57b113', 'ec094d0797f0615cdb1778785f3d5db5f2b66a1a6f5181459b0ef44a4c929115'),
    's2-sparse80-withheld': ('58374bc10155ff29a5601fa7921b872f3d5c961ae8fadf4f51f873df7af67a1d', '7e690e57dc7fc25b50b64f1b960078ccb8ae570c6de27602a4072982376c90bd'),
    's3-n10': ('0068e62bdf1828ee5e843e3d31dec861ab260d4ab1eb28838060bca3c18948c6', '80075546a1977ec81a718c1ce5c7246fc3517c960d89e465aaecae49e4064816'),
    's4-n24': ('d581ad8e5ea51f8fa3eec42a32c7eddddda914b6c64663f4b112f056c2050a6b', 'ccb9b89e13672386112a30ec89c1bfad5e2225e5297e36a2b3899778021fdfd8'),
}


# Cases whose query answers are pinned too: QUERY_SETS seeded fault
# sets with 0 <= |F| <= f each, answered by the query `flbl query` runs
# for the file's scheme and hashed as (component_count(), connected() of
# every vertex pair, case3_fired) per set; schemes 3-4 have no case 3 and
# hash an empty list there.  On the s2-sparse80-withheld case the list
# runs codeshares.decode 12 times and marks case 3 32 times, and every
# answer equals the union-find oracle's (counted and checked on this
# build); s2-sparse40 stores every block's edge list, so it reaches
# neither.  The two multi30 cases (7 components, 4 of them isolated
# vertices, 9 vertex pairs joined by parallel edges; 28, 17 and 7 level
# trees under scheme 1) were also checked against the oracle on every
# set before their digests were pinned.
QUERY_CASES = tuple(sorted(CASES))
QUERY_SETS = 40

GOLDEN_QUERIES = {
    's1-cubic200-auto': '18102accf1c017943d508ec2c793056fb648440035e9372c3e96c01f3c04a0ed',
    's1-cubic60': 'b395a2d0f56d12f0881de7fbd263d0e4bf047e1f622dad3fe08f3acd0f985139',
    's1-multi30': 'c8a6b8011782cb4ba7f49975e7f62fd8260298155926508667eae7a81f767a47',
    's1-exact-n14': 'e18a5fd6432886f06e16bda7e592ac8ecfa521a20025471104d6be7acd3aaaf5',
    's2-n7': 'd2d4df2d377cb1ed9e745bb4b56bd1945f61601e55a41794f354ea13e145d5f0',
    's2-multi30': 'dab6b6b978b85bbaf5e0d62538b3c41c0138b612d3a2b34b420d6c52f25e7763',
    's2-sparse40': 'bb2b3e4b3b9eb433a64793ed4defba80ce9376b138a03aba87bfb04f653b1d02',
    's2-sparse80-withheld': '7780ee38ee056191fdfb207bce6add6f9c04813121ab0a21b2cc17a36aea54b6',
    's3-n10': 'cbd249be11d7cde3e78f67425b209325af105acc59278b3363f2d9a8a1095e89',
    's4-n24': '15f40f06b9fdfcc14a88c9c8bfa902cd9527ac9d33b1f9f7e845b0e34858f865',
}


def build_case(name: str):
    make, scheme, f, mode, seed = CASES[name]
    g: Graph = make()
    return build_scheme(g, scheme, f, phi_mode=mode, seed=seed)


def _write(name: str, tmp_dir: Path) -> Path:
    res = build_case(name)
    path = tmp_dir / f"{name}.flbl"
    LF.write_label_file(str(path), LF.make_label_file(
        res.scheme, res.meta, res.vertex_labels, res.edge_labels))
    return path


def digests(name: str, tmp_dir: Path) -> tuple[str, str]:
    path = _write(name, tmp_dir)
    file_sha = hashlib.sha256(path.read_bytes()).hexdigest()
    lf = LF.read_label_file(str(path))
    h = hashlib.sha256()
    for v in range(lf.meta.n):
        h.update(repr(LF.decode_vertex_label(lf, v)).encode() + b"\n")
    for e in range(lf.meta.m):
        h.update(repr(LF.decode_edge(lf, e)).encode() + b"\n")
    return file_sha, h.hexdigest()


def query_digest(name: str, tmp_dir: Path) -> str:
    lf = LF.read_label_file(str(_write(name, tmp_dir)))
    meta = lf.meta
    verts = [LF.decode_vertex_label(lf, v) for v in range(meta.n)]
    rng = random.Random(5)
    h = hashlib.sha256()
    for _ in range(QUERY_SETS):
        faults = rng.sample(range(meta.m), rng.randint(0, meta.f))
        res = _run_query(lf, faults)
        pairs = [res.connected(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]]
        case3 = getattr(res, "case3_fired", [])
        h.update(repr((res.component_count(), pairs, case3)).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    assert digests(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", QUERY_CASES)
def test_golden_query_digest(name, tmp_path):
    assert query_digest(name, tmp_path) == GOLDEN_QUERIES[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            print(f"    {case!r}: {digests(case, Path(tmp))!r},")
        for case in QUERY_CASES:
            print(f"    {case!r}: {query_digest(case, Path(tmp))!r},")
