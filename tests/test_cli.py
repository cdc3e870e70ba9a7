import dataclasses
import os
import random
import struct
import subprocess
import sys
import zlib

import pytest

from flbl import codeshares
from flbl import labelfile as LF
from flbl.build import to_label_file
from flbl.cli import _run_query, main
from flbl.labels_simple import SegmentList
from test_acceptance import random_regular3
from support import dump_graph, simple_segment_spans, sqrt_row_spans
from test_golden import _sparse80, build_case

P4 = "4 3\n0 1\n1 2\n2 3\n"
TRIANGLE_PENDANT = "4 4\n0 1\n1 2\n0 2\n2 3\n"


def run_cli(args):
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    return code


def test_build_and_query_p4(tmp_path, capsys):
    gpath = tmp_path / "p4.txt"
    gpath.write_text(P4)
    out = tmp_path / "p4.flbl"
    assert run_cli(["build", str(gpath), "--scheme", "1", "--f", "1",
                    "-o", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "max_label_bits" in captured
    assert run_cli(["query", str(out), "--fail", "1", "--pair", "0,3",
                    "--pair", "2,3"]) == 0
    captured = capsys.readouterr().out
    assert "0,3: disconnected" in captured
    assert "2,3: connected" in captured


def test_query_count_no_faults(tmp_path, capsys):
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_PENDANT)
    out = tmp_path / "t.flbl"
    run_cli(["build", str(gpath), "--scheme", "1", "--f", "2", "-o", str(out)])
    capsys.readouterr()
    assert run_cli(["query", str(out), "--fail", "", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_known_bridge_fault(tmp_path, capsys):
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_PENDANT)
    out = tmp_path / "t.flbl"
    run_cli(["build", str(gpath), "--scheme", "2", "--f", "1", "-o", str(out)])
    capsys.readouterr()
    run_cli(["query", str(out), "--fail", "3", "--pair", "0,3"])
    assert "disconnected" in capsys.readouterr().out


def test_fault_budget_exit_code(tmp_path, capsys):
    gpath = tmp_path / "p4.txt"
    gpath.write_text(P4)
    out = tmp_path / "p4.flbl"
    run_cli(["build", str(gpath), "--scheme", "1", "--f", "1", "-o", str(out)])
    capsys.readouterr()
    assert run_cli(["query", str(out), "--fail", "0,1", "--count"]) == 4


def test_parse_error_exit_code(tmp_path):
    gpath = tmp_path / "bad.txt"
    gpath.write_text("3 1\n0 9\n")
    out = tmp_path / "bad.flbl"
    with pytest.raises(SystemExit) as exc:
        main(["build", str(gpath), "--scheme", "1", "--f", "1", "-o", str(out)])
    assert exc.value.code == 1


def test_size_cap_exit_code(tmp_path, monkeypatch, capsys):
    n = 24
    lines = [f"{i} {i + 1}" for i in range(n - 1)]
    gpath = tmp_path / "big.txt"
    gpath.write_text(f"{n} {n - 1}\n" + "\n".join(lines) + "\n")
    out = tmp_path / "big.flbl"
    code = run_cli(["build", str(gpath), "--scheme", "1", "--f", "1",
                    "--phi-mode", "exact", "-o", str(out)])
    assert code == 2


def test_scheme4_reroute_warning(tmp_path, capsys):
    n = 64
    edges = [(i, (i + 1) % n) for i in range(n)]
    gpath = tmp_path / "c64.txt"
    gpath.write_text(f"{n} {len(edges)}\n" + "\n".join(f"{u} {v}" for u, v in edges) + "\n")
    out = tmp_path / "c64.flbl"
    assert run_cli(["build", str(gpath), "--scheme", "4", "--f", "1",
                    "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "rerouting" in err
    from flbl import labelfile as LF

    lf = LF.read_label_file(str(out))
    assert lf.scheme == LF.SCHEME_RAND_LONG


def test_build_deterministic_bytes(tmp_path, capsys):
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_PENDANT)
    a = tmp_path / "a.flbl"
    b = tmp_path / "b.flbl"
    run_cli(["build", str(gpath), "--scheme", "3", "--f", "2", "--seed", "9",
             "-o", str(a)])
    run_cli(["build", str(gpath), "--scheme", "3", "--f", "2", "--seed", "9",
             "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()
    # schemes 1-2 under the heuristic hierarchy (spectral sweep order) too
    cubic = tmp_path / "cubic.txt"
    g = random_regular3(100, seed=0xC3)
    cubic.write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
    for scheme in ("1", "2"):
        outs = [tmp_path / f"s{scheme}_{i}.flbl" for i in range(2)]
        for out in outs:
            assert run_cli(["build", str(cubic), "--scheme", scheme, "--f", "4",
                            "--phi-mode", "heuristic", "-o", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes(), f"scheme {scheme}"


def test_verify_command(tmp_path, capsys):
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_PENDANT)
    out = tmp_path / "t.flbl"
    run_cli(["build", str(gpath), "--scheme", "1", "--f", "2", "-o", str(out)])
    capsys.readouterr()
    assert run_cli(["verify", str(gpath), str(out), "--trials", "60"]) == 0
    assert "mismatches=0" in capsys.readouterr().out


def test_stats_csv(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text(TRIANGLE_PENDANT)
    (corpus / "b.txt").write_text(P4)
    assert run_cli(["stats", str(corpus), "--scheme", "1",
                    "--f-range", "1,2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "f,scheme,max_bits,mean_bits"
    assert len(out) == 3


def test_query_is_label_closed_subprocess(tmp_path):
    # the graph file is deleted before querying; answers still correct
    gpath = tmp_path / "t.txt"
    gpath.write_text(TRIANGLE_PENDANT)
    out = tmp_path / "t.flbl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    subprocess.run(
        [sys.executable, "-m", "flbl.cli", "build", str(gpath), "--scheme", "1",
         "--f", "1", "-o", str(out)],
        check=True, env=env, capture_output=True,
    )
    gpath.unlink()
    got = subprocess.run(
        [sys.executable, "-m", "flbl.cli", "query", str(out), "--fail", "3",
         "--pair", "0,3"],
        check=True, env=env, capture_output=True, text=True,
    )
    assert "disconnected" in got.stdout


def test_exact_mode_size_cap_exit_code(tmp_path, capsys):
    # one vertex above the cap of 18: rejected before any cut is enumerated
    gpath = tmp_path / "c19.txt"
    edges = [(i, (i + 1) % 19) for i in range(19)]
    gpath.write_text("19 19\n" + "\n".join(f"{u} {v}" for u, v in edges) + "\n")
    out = tmp_path / "c19.flbl"
    code = run_cli(["build", str(gpath), "--scheme", "1", "--f", "1",
                    "--phi-mode", "exact", "-o", str(out)])
    assert code == 2


def test_edgeless_graph_both_schemes(tmp_path, capsys):
    # with no edges every vertex is its own component (the oracle's answer)
    gpath = tmp_path / "e.txt"
    gpath.write_text("3 0\n")
    for scheme in ("1", "2"):
        out = tmp_path / f"e{scheme}.flbl"
        assert run_cli(["build", str(gpath), "--scheme", scheme, "--f", "1",
                        "-o", str(out)]) == 0
        capsys.readouterr()
        assert run_cli(["query", str(out), "--count"]) == 0
        assert capsys.readouterr().out.strip() == "3"
        assert run_cli(["query", str(out), "--pair", "0,1", "--pair", "2,2",
                        "--pair", "1,2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "0,1: disconnected", "2,2: connected", "1,2: disconnected"]
        assert run_cli(["verify", str(gpath), str(out), "--trials", "20"]) == 0
        assert "mismatches=0" in capsys.readouterr().out


def test_edgeless_graph_scheme1_works(tmp_path, capsys):
    gpath = tmp_path / "e.txt"
    gpath.write_text("3 0\n")
    out = tmp_path / "e.flbl"
    assert run_cli(["build", str(gpath), "--scheme", "1", "--f", "1",
                    "-o", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["query", str(out), "--fail", "", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def _built_p4(tmp_path, capsys, f="2"):
    gpath = tmp_path / "p4.txt"
    gpath.write_text(P4)
    out = tmp_path / "p4.flbl"
    assert run_cli(["build", str(gpath), "--scheme", "1", "--f", f,
                    "-o", str(out)]) == 0
    capsys.readouterr()
    return gpath, out


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("fail", ["-1", "3", "0,99", "0,0", "2,1,2"])
def test_bad_fault_ids_exit_code(tmp_path, capsys, fail):
    # P4 has edges 0..2; f=2 so "0,0" is not caught by the budget first
    _, out = _built_p4(tmp_path, capsys)
    assert run_cli(["query", str(out), f"--fail={fail}", "--count"]) == 4
    _one_line_error(capsys)


@pytest.mark.parametrize("pair", ["0,4", "-1,2", "0", "0,1,2", "a,b", ""])
def test_bad_pair_exit_code(tmp_path, capsys, pair):
    _, out = _built_p4(tmp_path, capsys)
    assert run_cli(["query", str(out), "--fail", "1", "--pair", "0,3",
                    f"--pair={pair}"]) == 1
    _one_line_error(capsys)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args", [
    ["query", "L", "--pair", "-1,2"],
    ["query", "L", "--bogus"],
    ["build", "g.txt", "--scheme", "9", "--f", "1", "-o", "x.flbl"],
    ["build", "g.txt", "--scheme", "1", "--f", "1"],
], ids=["pair-without-equals", "unknown-flag", "bad-scheme", "missing-output"])
def test_usage_error_exit_code(capsys, args):
    # argparse's own exit code 2 is the documented size-cap code
    assert run_cli(args) == 3
    _one_line_error(capsys)


@pytest.mark.parametrize("keep", [30, -1, -5])
def test_truncated_label_file_exit_code(tmp_path, capsys, keep):
    # a cut inside the header, one inside the CRC trailer that ends the
    # file, and one inside the last edge payload
    gpath, out = _built_p4(tmp_path, capsys)
    out.write_bytes(out.read_bytes()[:keep])
    assert run_cli(["query", str(out), "--fail", "1", "--count"]) == 1
    assert "truncated label file" in _one_line_error(capsys)
    assert run_cli(["verify", str(gpath), str(out), "--trials", "5"]) == 1
    assert "truncated label file" in _one_line_error(capsys)


def test_verify_rejects_other_graph(tmp_path, capsys):
    _, out = _built_p4(tmp_path, capsys)
    other = tmp_path / "t.txt"
    other.write_text(TRIANGLE_PENDANT)
    assert run_cli(["verify", str(other), str(out), "--trials", "5"]) == 1
    _one_line_error(capsys)


def test_query_count_with_pairs(tmp_path, capsys):
    # the pair answers come first, then the count
    _, out = _built_p4(tmp_path, capsys)
    assert run_cli(["query", str(out), "--fail=0,1", "--count", "--pair=0,3",
                    "--pair=2,3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0,3: disconnected", "2,3: connected", "3"]


def test_binary_graph_text_exit_code(tmp_path, capsys):
    # `verify` with its two arguments swapped reads the label file as graph text
    gpath, out = _built_p4(tmp_path, capsys)
    assert run_cli(["verify", str(out), str(gpath), "--trials", "5"]) == 1
    assert "is not graph text" in _one_line_error(capsys)
    junk = tmp_path / "junk.txt"
    junk.write_bytes(b"4 3\n0 1\n\xff\xfe\n")
    assert run_cli(["build", str(junk), "--scheme", "1", "--f", "1",
                    "-o", str(tmp_path / "j.flbl")]) == 1
    _one_line_error(capsys)


@pytest.mark.parametrize("corpus", ["missing", "file"])
def test_stats_bad_corpus_exit_code(tmp_path, capsys, corpus):
    path = tmp_path / corpus
    if corpus == "file":
        path.write_text(P4)
    assert run_cli(["stats", str(path), "--scheme", "1", "--f-range", "1"]) == 1
    _one_line_error(capsys)


def test_stats_size_cap_exit_code(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    n = 24
    (corpus / "path.txt").write_text(
        f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    assert run_cli(["stats", str(corpus), "--scheme", "1", "--f-range", "1",
                    "--phi-mode", "exact"]) == 2
    _one_line_error(capsys)


@pytest.mark.parametrize("cmd", [["build", "--f", "0"], ["stats", "--f-range", "0"],
                                 ["stats", "--f-range", "2,-1"]])
def test_f_below_one_exit_code(tmp_path, capsys, cmd):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "p4.txt").write_text(P4)
    if cmd[0] == "build":
        args = ["build", str(corpus / "p4.txt"), "-o", str(tmp_path / "p4.flbl")]
    else:
        args = ["stats", str(corpus)]
    assert run_cli(args + ["--scheme", "1"] + cmd[1:]) == 3
    assert "f must be at least 1" in _one_line_error(capsys)
    assert capsys.readouterr().out == ""


def test_stats_scheme4_reroute_warning(tmp_path, capsys):
    # below its f regime scheme 4 becomes scheme 3, as in `build`
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "p4.txt").write_text(P4)
    assert run_cli(["stats", str(corpus), "--scheme", "4", "--f-range", "1,2"]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("rerouting to scheme 3") == 2
    rows = captured.out.strip().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["1", "3"], ["2", "3"]]


def test_stats_f_checked_before_corpus(tmp_path, capsys):
    # an empty corpus builds nothing, yet f = 0 is rejected as in `build`
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    assert run_cli(["stats", str(corpus), "--scheme", "1", "--f-range", "0"]) == 3
    assert "f must be at least 1" in _one_line_error(capsys)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("scheme", ["1", "2", "3"])
def test_verify_graph_without_vertices(tmp_path, capsys, scheme):
    # no vertex means no pair to draw; every trial passes
    gpath = tmp_path / "z.txt"
    gpath.write_text("0 0\n")
    out = tmp_path / "z.flbl"
    assert run_cli(["build", str(gpath), "--scheme", scheme, "--f", "1",
                    "-o", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["verify", str(gpath), str(out), "--trials", "5"]) == 0
    assert "trials=5 mismatches=0" in capsys.readouterr().out


def test_verify_trials_below_zero_exit_code(tmp_path, capsys):
    gpath, out = _built_p4(tmp_path, capsys)
    assert run_cli(["verify", str(gpath), str(out), "--trials=-5"]) == 3
    assert "--trials must be at least 0" in _one_line_error(capsys)
    assert capsys.readouterr().out == ""
    assert run_cli(["verify", str(gpath), str(out), "--trials", "0"]) == 0
    assert "trials=0 mismatches=0" in capsys.readouterr().out


@pytest.mark.parametrize("field", [0, 1], ids=["numerator", "denominator"])
def test_zero_phi_label_file_exit_code(tmp_path, capsys, field):
    # phi's numerator and denominator follow the 29-byte fixed header start
    _, out = _built_p4(tmp_path, capsys)
    data = bytearray(out.read_bytes())
    at = 29 + 4 * field
    data[at:at + 4] = bytes(4)
    out.write_bytes(bytes(data))
    assert run_cli(["query", str(out), "--fail", "1", "--count"]) == 1
    assert "phi" in _one_line_error(capsys)


@pytest.mark.parametrize("cmd", [["build", "--f", "4294967296"],
                                 ["stats", "--f-range", "2,4294967296"]])
def test_f_above_u32_exit_code(tmp_path, capsys, cmd):
    # the header holds f in a u32; the value is rejected before any build
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "p4.txt").write_text(P4)
    if cmd[0] == "build":
        args = ["build", str(corpus / "p4.txt"), "-o", str(tmp_path / "p4.flbl")]
    else:
        args = ["stats", str(corpus)]
    assert run_cli(args + ["--scheme", "1"] + cmd[1:]) == 3
    assert "f must be at most 4294967295" in _one_line_error(capsys)
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "p4.flbl").exists()


@pytest.mark.parametrize("cmd", ["build", "stats"])
@pytest.mark.parametrize("scheme", ["3", "4"])
@pytest.mark.parametrize("seed", ["-5", "18446744073709551616"])
def test_rand_seed_outside_u64_exit_code(tmp_path, capsys, cmd, scheme, seed):
    # the header holds the scheme-3/4 seed in a u64
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "p4.txt").write_text(P4)
    out = tmp_path / "p4.flbl"
    if cmd == "build":
        args = ["build", str(corpus / "p4.txt"), "--f", "1", "-o", str(out)]
    else:
        args = ["stats", str(corpus), "--f-range", "1"]
    assert run_cli(args + ["--scheme", scheme, f"--seed={seed}"]) == 3
    assert "--seed must be in 0..18446744073709551615" in _one_line_error(capsys)
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_seed_range_edges_build(tmp_path, capsys):
    # the largest u64 seed is written and read back; schemes 1-2 ignore it
    gpath = tmp_path / "p4.txt"
    gpath.write_text(P4)
    out = tmp_path / "p4.flbl"
    assert run_cli(["build", str(gpath), "--scheme", "3", "--f", "1",
                    "--seed", "18446744073709551615", "-o", str(out)]) == 0
    assert LF.read_label_file(str(out)).meta.seed == (1 << 64) - 1
    assert run_cli(["build", str(gpath), "--scheme", "1", "--f", "1",
                    "--seed=-5", "-o", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["query", str(out), "--fail", "1", "--pair", "0,3"]) == 0
    assert capsys.readouterr().out.strip() == "0,3: disconnected"


@pytest.fixture(scope="module")
def sqrt_file(tmp_path_factory):
    """A scheme-2 graph and label file whose reveal entries hold shares,
    the file's bytes, and the file offset of each edge record."""
    tmp = tmp_path_factory.mktemp("sqrt")
    gpath = tmp / "sparse80.txt"
    gpath.write_text(dump_graph(_sparse80()))
    out = tmp / "sparse80.flbl"
    assert main(["build", str(gpath), "--scheme", "2", "--f", "8",
                 "--phi-mode", "heuristic", "-o", str(out)]) == 0
    raw = out.read_bytes()
    lf = LF.read_label_file(str(out))
    at = len(raw) - 4 - sum(8 + len(p) for p in lf.edge_payloads)
    offsets = []
    for payload in lf.edge_payloads:
        offsets.append(at)
        at += 8 + len(payload)
    return gpath, raw, lf, offsets


def _with_crc(data: bytes) -> bytes:
    """`data` with its CRC32 trailer recomputed, so only the change made
    before is wrong."""
    return data[:-4] + struct.pack("<I", zlib.crc32(data[:-4]))


@pytest.mark.parametrize("scheme", [0, 5, 255])
def test_unknown_scheme_exit_code(tmp_path, capsys, scheme):
    # the scheme byte follows the magic and the u16 version
    _, out = _built_p4(tmp_path, capsys)
    data = bytearray(out.read_bytes())
    data[6] = scheme
    out.write_bytes(_with_crc(bytes(data)))
    for fail in ("", "1"):
        assert run_cli(["query", str(out), "--fail", fail, "--count"]) == 1
        assert f"unknown scheme {scheme}" in _one_line_error(capsys)
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("at", [41, 42], ids=["B", "jcols"])
def test_scheme3_boruvka_header_exit_code(tmp_path, capsys, at):
    # scheme 3 runs the scheme-4 query with zero Boruvka rounds; a header
    # asking for rounds (B and jcols are header bytes 41 and 42) would make
    # it scan an all-zero sketch matrix
    gpath = tmp_path / "p4.txt"
    gpath.write_text(P4)
    out = tmp_path / "p4.flbl"
    assert run_cli(["build", str(gpath), "--scheme", "3", "--f", "2", "-o", str(out)]) == 0
    capsys.readouterr()
    data = bytearray(out.read_bytes())
    data[at] = 255
    out.write_bytes(_with_crc(bytes(data)))
    assert run_cli(["query", str(out), "--fail", "1", "--count"]) == 1
    assert "scheme 3 with B" in _one_line_error(capsys)


@pytest.fixture(scope="module")
def chord40(tmp_path_factory):
    """The 40-vertex cycle with chords (i, i + 7) and its scheme-3 (f = 4)
    and scheme-4 (f = 80) label files.  Faults 0, 39, 40 and 73 are the
    four edges at vertex 0."""
    tmp = tmp_path_factory.mktemp("chord40")
    gpath = tmp / "chord40.txt"
    edges = [(i, (i + 1) % 40) for i in range(40)] + [(i, (i + 7) % 40) for i in range(40)]
    gpath.write_text("40 80\n" + "".join(f"{u} {v}\n" for u, v in edges))
    files = {}
    for scheme, f in ((3, 4), (4, 80)):
        files[scheme] = tmp / f"s{scheme}.flbl"
        assert main(["build", str(gpath), "--scheme", str(scheme), "--f", str(f),
                     "-o", str(files[scheme])]) == 0
    return files


def _edited_query(chord40, tmp_path, capsys, scheme, at, value):
    """The exit code of a query on the scheme's file with header byte `at`
    set to `value` under a recomputed CRC."""
    data = bytearray(chord40[scheme].read_bytes())
    data[at] = value
    out = tmp_path / "edited.flbl"
    out.write_bytes(_with_crc(bytes(data)))
    capsys.readouterr()
    return run_cli(["query", str(out), "--fail", "0,39,40,73", "--pair", "3,30",
                    "--pair", "0,20", "--count"])


@pytest.mark.parametrize("scheme", [3, 4])
def test_rand_header_c_zero_exit_code(tmp_path, capsys, chord40, scheme):
    # c (header byte 40) sets the sk0 width of scheme 3 and the uid width
    # of scheme 4; with c = 0 the labels decode short of their stored
    # lengths, where they were once answered from misaligned sketches
    assert run_cli(["query", str(chord40[scheme]), "--fail", "0,39,40,73",
                    "--pair", "3,30", "--pair", "0,20", "--count"]) == 0
    assert capsys.readouterr().out.split() == ["3,30:", "connected", "0,20:",
                                               "disconnected", "2"]
    assert _edited_query(chord40, tmp_path, capsys, scheme, 40, 0) == 1
    assert "but its stored length is" in _one_line_error(capsys)


@pytest.mark.parametrize("at, step", [(41, 1), (41, -1), (42, 1), (42, -1)],
                         ids=["B+1", "B-1", "jcols+1", "jcols-1"])
def test_scheme4_derived_header_exit_code(tmp_path, capsys, chord40, at, step):
    # B and jcols (header bytes 41 and 42) follow from n, f and m
    value = chord40[4].read_bytes()[at] + step
    assert _edited_query(chord40, tmp_path, capsys, 4, at, value) == 1
    assert "where n, f and m give 5, 9" in _one_line_error(capsys)


def test_crossing_tree_ranges_exit_code(tmp_path, capsys, chord40):
    # subtree ranges of one forest are nested or disjoint; a file whose two
    # tree-edge ranges cross is rejected when both edges fail
    lf = LF.read_label_file(str(chord40[4]))
    labels = [LF.decode_edge(lf, e) for e in range(lf.meta.m)]
    tree = [e for e, lab in enumerate(labels) if lab.is_tree]
    e1 = next(e for e in tree if labels[e].lo < labels[e].hi < lf.meta.n - 1)
    e2 = next(e for e in tree if e != e1)
    fail = f"{min(e1, e2)},{max(e1, e2)}"
    assert run_cli(["query", str(chord40[4]), "--fail", fail, "--count"]) == 0
    labels[e2] = dataclasses.replace(labels[e2], lo=labels[e1].lo + 1, hi=labels[e1].hi + 1)
    out = tmp_path / "crossing.flbl"
    LF.write_label_file(str(out), LF.make_label_file(
        lf.scheme, lf.meta, [LF.decode_vertex_label(lf, v) for v in range(lf.meta.n)], labels))
    capsys.readouterr()
    assert run_cli(["query", str(out), "--fail", fail, "--count"]) == 1
    assert "are not nested or disjoint" in _one_line_error(capsys)


def _numpy_modules_after(lines) -> str:
    """What of NumPy and SciPy a fresh Python process has loaded after it
    runs the script `lines`, as the printed sorted list."""
    script = "\n".join(["import sys", "import flbl, flbl.cli", *lines,
                        "print(sorted(name for name in ('numpy', 'scipy') if name in sys.modules))"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    got = subprocess.run([sys.executable, "-c", script], check=True, env=env,
                         capture_output=True, text=True)
    return got.stdout.split("\n")[-2]


def test_randomized_schemes_run_without_numpy(tmp_path):
    # schemes 3-4 build no hierarchy and gather no lists, so neither a
    # build nor a query of theirs loads NumPy
    gpath = tmp_path / "chord40.txt"
    edges = [(i, (i + 1) % 40) for i in range(40)] + [(i, (i + 7) % 40) for i in range(40)]
    gpath.write_text("40 80\n" + "".join(f"{u} {v}\n" for u, v in edges))
    assert _numpy_modules_after([
        "for scheme, f in (('3', '4'), ('4', '80')):",
        f"    out = {str(tmp_path)!r} + f'/s{{scheme}}.flbl'",
        f"    assert flbl.cli.main(['build', {str(gpath)!r}, '--scheme', scheme, "
        "'--f', f, '-o', out]) == 0",
        "    assert flbl.cli.main(['query', out, '--fail', '0,39,40,73', "
        "'--pair', '3,30', '--count']) == 0",
    ]) == "[]"


def test_exact_scheme_queries_run_without_numpy(tmp_path, capsys):
    # only the build of a scheme-1/2 file (its hierarchy) loads NumPy: a
    # query splits each record it decodes from the bits it has read
    gpath = tmp_path / "chord40.txt"
    edges = [(i, (i + 1) % 40) for i in range(40)] + [(i, (i + 7) % 40) for i in range(40)]
    gpath.write_text("40 80\n" + "".join(f"{u} {v}\n" for u, v in edges))
    outs = []
    for scheme in ("1", "2"):
        outs.append(str(tmp_path / f"s{scheme}.flbl"))
        assert run_cli(["build", str(gpath), "--scheme", scheme, "--f", "4",
                        "-o", outs[-1]]) == 0
    capsys.readouterr()
    assert _numpy_modules_after([
        f"for out in {outs!r}:",
        "    assert flbl.cli.main(['query', out, '--fail', '0,39,40,73', "
        "'--pair', '3,30', '--count']) == 0",
    ]) == "[]"


def test_vertex_label_off_length_exit_code(tmp_path, capsys):
    # aux_n (the u32 at header byte 11) sets the tour-position width of a
    # scheme-1 vertex label; verify's seed 1 draws no fault in its first
    # trial, so only the vertex labels are decoded there
    gpath, out = _built_p4(tmp_path, capsys)
    data = bytearray(out.read_bytes())
    data[11:15] = struct.pack("<I", 64)
    out.write_bytes(_with_crc(bytes(data)))
    want = "vertex label 0 decodes to 8 bits, but its stored length is 4"
    assert run_cli(["query", str(out), "--pair", "0,3", "--count"]) == 1
    assert want in _one_line_error(capsys)
    assert run_cli(["verify", str(gpath), str(out), "--trials", "1", "--seed", "1"]) == 1
    assert "decodes to" in _one_line_error(capsys)


def _share_bit(lf, offsets):
    """The file offset of a byte inside some reveal entry's share rows."""
    for eid in range(len(lf.edge_payloads)):
        for kind, at, rows, _ in sqrt_row_spans(LF.decode_edge(lf, eid), lf.widths):
            if kind == "shares" and rows:
                return offsets[eid] + 8 + at // 8
    raise AssertionError("no share rows in the file")


@pytest.mark.parametrize("damage", ["v1", "crc", "bits", "trailing"])
def test_damaged_label_file_exit_code(tmp_path, capsys, sqrt_file, damage):
    # a version-1 file, a flipped bit in a share row (the CRC catches it),
    # a payload claiming more bits than its bytes hold under a valid CRC,
    # and bytes after the trailer: each is one error line and exit 1
    gpath, raw, lf, offsets = sqrt_file
    data = bytearray(raw)
    if damage == "v1":
        data[4:6] = struct.pack("<H", 1)
        data = _with_crc(bytes(data))
        want = "unsupported label file version 1"
    elif damage == "crc":
        data[_share_bit(lf, offsets)] ^= 0x10
        want = "CRC32"
    elif damage == "bits":
        at = offsets[3]
        data[at:at + 4] = struct.pack("<I", 8 * len(lf.edge_payloads[3]) + 1)
        data = _with_crc(bytes(data))
        want = "claims"
    else:
        data += b"\0"
        want = "follow the CRC trailer"
    out = tmp_path / "damaged.flbl"
    out.write_bytes(bytes(data))
    faults = ",".join(map(str, range(lf.meta.f)))
    assert run_cli(["query", str(out), "--fail", faults, "--pair=0,1", "--count"]) == 1
    assert want in _one_line_error(capsys)
    assert run_cli(["verify", str(gpath), str(out), "--trials", "5"]) == 1
    assert want in _one_line_error(capsys)
    with pytest.raises(ValueError, match=want):
        LF.read_label_file(str(out))


def _edit_shares(lf, edit):
    """`lf` with every scheme-2 share row rewritten as `edit(share)`, in
    the row's widths; the file written from it has a valid CRC."""
    wi, ws = lf.widths.idx, lf.widths.share
    payloads = []
    for eid, payload in enumerate(lf.edge_payloads):
        word = int.from_bytes(payload, "little")
        for kind, start, rows, row_bits in sqrt_row_spans(LF.decode_edge(lf, eid), lf.widths):
            if kind != "shares":
                continue
            for i, sh in enumerate(rows.values()):
                new = edit(sh)
                at = start + i * row_bits
                word &= ~(((1 << row_bits) - 1) << at)
                word |= (new.index | new.a << wi | new.b << wi + ws) << at
        payloads.append(word.to_bytes(len(payload), "little"))
    return dataclasses.replace(lf, edge_payloads=payloads)


def _query_codes(path, m, f, capsys, want):
    """Exit codes of 20 seeded queries; an exit 1 must print `want`."""
    rng = random.Random(5)
    codes = []
    for _ in range(20):
        faults = rng.sample(range(m), rng.randint(1, f))
        codes.append(run_cli(["query", str(path), "--fail", ",".join(map(str, faults)),
                              "--count"]))
        if codes[-1] == 1:
            assert want in _one_line_error(capsys)
        else:
            assert codes[-1] == 0
        capsys.readouterr()
    return codes


def test_share_index_out_of_range_exit_code(tmp_path, capsys):
    # files written with a valid CRC whose share of index 1 carries index
    # 0 in every block, or whose shares all carry index 0: a query that
    # collects the shares of a withheld block exits 1 with one error
    # line, the others answer
    lf = to_label_file(build_case("s2-sparse80-withheld"))
    out = tmp_path / "zero-index.flbl"
    LF.write_label_file(str(out), _edit_shares(
        lf, lambda sh: dataclasses.replace(sh, index=0) if sh.index == 1 else sh))
    codes = _query_codes(out, lf.meta.m, lf.meta.f, capsys, "share index 0 out of range")
    assert 1 in codes and 0 in codes
    # every index 0: the shares would collapse to one per block if
    # collected by index, which is too few to decode, and case 3 answered
    out = tmp_path / "all-zero-index.flbl"
    LF.write_label_file(str(out), _edit_shares(
        lf, lambda sh: dataclasses.replace(sh, index=0)))
    codes = _query_codes(out, lf.meta.m, lf.meta.f, capsys, "share index 0 out of range")
    assert 1 in codes and 0 in codes


def test_changed_share_value_exit_code(tmp_path, capsys, monkeypatch):
    # a file written with a valid CRC in which one share that a query's
    # Reed-Solomon decode gets beyond the ceil(k/2) it interpolates
    # through has its value changed: that query exits 1 with one error line
    lf = to_label_file(build_case("s2-sparse80-withheld"))
    calls = []
    decode = codeshares.decode
    monkeypatch.setattr(codeshares, "decode",
                        lambda shares, k, fld: calls.append((shares, k)) or decode(shares, k, fld))
    rng = random.Random(5)
    for _ in range(20):
        faults = rng.sample(range(lf.meta.m), rng.randint(1, lf.meta.f))
        calls.clear()
        _run_query(lf, faults)
        beyond = [max(shares, key=lambda sh: sh.index) for shares, k in calls
                  if len(shares) > (k + 1) // 2]
        if beyond:
            break
    assert beyond, "no seeded query decodes a block from more shares than it needs"
    target = beyond[0]
    monkeypatch.setattr(codeshares, "decode", decode)
    good = tmp_path / "good.flbl"
    LF.write_label_file(str(good), lf)
    args = ["--fail", ",".join(map(str, faults)), "--count"]
    assert run_cli(["query", str(good)] + args) == 0
    capsys.readouterr()
    out = tmp_path / "changed-value.flbl"
    LF.write_label_file(str(out), _edit_shares(
        lf, lambda sh: dataclasses.replace(sh, a=sh.a ^ 1) if sh == target else sh))
    assert run_cli(["query", str(out)] + args) == 1
    assert f"share {target.index} is off the interpolated polynomial" in _one_line_error(capsys)


@pytest.mark.parametrize("edit", ["flag", "over-cap", "flag-over-cap"])
def test_segment_head_off_cap_exit_code(tmp_path, capsys, edit):
    # scheme-1 files written with a valid CRC in which one segment list's
    # head is one no build writes: the truncated flag on a list shorter
    # than the cap, or a list of cap + 1 names, flagged or not; a query
    # that decodes that label exits 1 with one error line
    lf = to_label_file(build_case("s1-cubic60"))
    wd = lf.widths
    cap = wd.list_cap
    labels = [LF.decode_edge(lf, e) for e in range(lf.meta.m)]
    payloads = list(lf.edge_payloads)
    if edit == "flag":
        eid, at = next((e, at) for e, lab in enumerate(labels) if lab.is_tree
                       for at, seg in simple_segment_spans(lab, wd)
                       if 0 < len(seg.entries) < cap)
        word = int.from_bytes(payloads[eid], "little") | 1 << at
        payloads[eid] = word.to_bytes(len(payloads[eid]), "little")
        edited = dataclasses.replace(lf, edge_payloads=payloads)
        want = "a segment list marked truncated holds"
    else:
        eid, sec = next((e, sec) for e, lab in enumerate(labels) if lab.is_tree
                        for sec in lab.sections.values()
                        if any(seg.truncated for seg in sec.segments))
        sec.segments = tuple(
            SegmentList(seg.entries + seg.entries[:1], edit == "flag-over-cap")
            if seg.truncated else seg for seg in sec.segments)
        edited = LF.make_label_file(lf.scheme, lf.meta, [LF.decode_vertex_label(lf, v)
                                                         for v in range(lf.meta.n)], labels)
        want = f"holds {cap + 1} names"
    good, bad = tmp_path / "good.flbl", tmp_path / "bad.flbl"
    LF.write_label_file(str(good), lf)
    LF.write_label_file(str(bad), edited)
    args = ["--fail", str(eid), "--pair", "0,1", "--count"]
    assert run_cli(["query", str(good)] + args) == 0
    capsys.readouterr()
    assert run_cli(["query", str(bad)] + args) == 1
    err = _one_line_error(capsys)
    assert want in err and f"where the list cap is {cap}" in err
