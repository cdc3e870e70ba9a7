"""Golden-digest guard for the label-file codec.

Each case builds a small seeded graph under one scheme (exact or
fixed-seed hierarchies, so every build is reproducible), writes the
label file, reads it back and decodes every vertex and edge record.
It pins two SHA-256 digests per case: one of the file bytes and one of
the `repr` of every decoded record.  A codec or build change that keeps
both is byte- and record-identical.

Run `PYTHONPATH=src python tests/test_golden.py` to print the current
digests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from pathlib import Path

import pytest

from flbl import labelfile as LF
from flbl.build import build_scheme
from flbl.graph import Graph
from flbl.labels_rand import _bits
from test_acceptance import random_connected, random_connected_sparse, random_regular3


def _none_blocks(res):
    """Scheme-2 labels with every third near-block record given as its
    lge count only (edges=None), the form large blocks take."""
    i = 0
    for lab in res.edge_labels:
        for sec in lab.sections.values():
            for per in sec.near.values():
                for blk, rec in per.items():
                    if i % 3 == 0:
                        per[blk] = dataclasses.replace(rec, edges=None)
                    i += 1
    return res


def _sparse40():
    return random_connected_sparse(random.Random(1), 40, 160)


# name -> (graph maker, scheme, f, phi_mode, seed, label post-processing)
CASES = {
    # heuristic hierarchy above the exact cap, exact below it; 7 levels with
    # 181, 124, 78, 53, 36, 22, 1 trees, and the heuristic finder accepts 3
    # adjacent-pair cuts (counted on this build), so the pair stage of
    # hierarchy._HeuristicCutFinder and the per-tree label build both run
    "s1-cubic200-auto": (lambda: random_regular3(200, 11), 1, 16, "auto", 0, None),
    "s1-exact-n14": (lambda: random_connected(random.Random(3), 14, 0.3), 1, 2, "exact", 0, None),
    "s1-cubic60": (lambda: random_regular3(60, 5), 1, 4, "heuristic", 0, None),
    "s2-n7": (lambda: random_connected(random.Random(4), 7, 0.4), 2, 2, "auto", 0, None),
    "s2-sparse40": (_sparse40, 2, 4, "heuristic", 0, None),
    "s2-sparse40-noneblocks": (_sparse40, 2, 4, "heuristic", 0, _none_blocks),
    "s3-n10": (lambda: random_connected(random.Random(3), 10, 0.45), 3, 2, "auto", 7, None),
    "s4-n24": (lambda: random_connected(random.Random(4), 24, 0.6), 4, 2 * _bits(24) ** 2,
               "auto", 7, None),
}

GOLDEN = {
    's1-cubic200-auto': ('c3c8b5197c80a508d02cc2e88145be83eb763923fc6b642abcb981c3159cdf62', '47c459571b0eb563860b383b78c98e9351be7bf50a4d03c4ea210ea980c8de7e'),
    's1-cubic60': ('0f6c22ce50be74171586e04a720c22b2cfeab635fa302b56a6c3e6254ebdf9f9', 'b6b5dc43850c833edf2330b2a906d3a4c223b7e6a24cd39d2c1c2995aa64e795'),
    's1-exact-n14': ('dcd2e47babc92d95c9a2025d1bb908a1c3e1c80655cb8c78148c89043af1ea11', 'a45445dea023cbe598d804a6ee697deb428f24169f42f40b6355edf7ccac011c'),
    's2-n7': ('4fe2df374803984620e4576aad461f23b18ac7cffe1e89f77938bd8f287f8948', '49a79a27a438edc76a55e047a50536af205b609675de743f33bfa2faded64ff5'),
    's2-sparse40': ('fc969ae13370296d4beb721d17020b5943ebd26008f395b855acb9962d776499', '38dbdfcce593e4fa69e1ae7e54bd32f16de08d4ec0cf3d00a9f0c70a6a3fb22f'),
    's2-sparse40-noneblocks': ('0d7d724f63c461c21cf02b2dc4aa252f82e16b74989049425535a6bf53379789', '44e653c20011726e71a86ca09c44dc423b9c19ae73e5038ea7ee91db7f776388'),
    's3-n10': ('a76da712319728dc5c2cfbefa596996f4b1ca0688b179b41dcc2d44d3c7f4adb', '80075546a1977ec81a718c1ce5c7246fc3517c960d89e465aaecae49e4064816'),
    's4-n24': ('c0705e1a250c55578c919683ecd24b6a1bc04c74d83d5c43502de284da0be118', 'ccb9b89e13672386112a30ec89c1bfad5e2225e5297e36a2b3899778021fdfd8'),
}


def digests(name: str, tmp_dir: Path) -> tuple[str, str]:
    make, scheme, f, mode, seed, post = CASES[name]
    g: Graph = make()
    res = build_scheme(g, scheme, f, phi_mode=mode, seed=seed)
    if post is not None:
        res = post(res)
    path = tmp_dir / f"{name}.flbl"
    LF.write_label_file(str(path), LF.make_label_file(
        res.scheme, res.meta, res.vertex_labels, res.edge_labels))
    file_sha = hashlib.sha256(path.read_bytes()).hexdigest()
    lf = LF.read_label_file(str(path))
    h = hashlib.sha256()
    for v in range(lf.meta.n):
        h.update(repr(LF.decode_vertex_label(lf, v)).encode() + b"\n")
    for e in range(lf.meta.m):
        h.update(repr(LF.decode_edge(lf, e)).encode() + b"\n")
    return file_sha, h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    assert digests(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            print(f"    {case!r}: {digests(case, Path(tmp))!r},")
