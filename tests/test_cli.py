import os
import subprocess
import sys

import pytest

from flbl.cli import main
from test_acceptance import random_regular3

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


def test_env_override_nexact(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FLBL_NEXACT", "4")
    gpath = tmp_path / "c6.txt"
    edges = [(i, (i + 1) % 6) for i in range(6)]
    gpath.write_text("6 6\n" + "\n".join(f"{u} {v}" for u, v in edges) + "\n")
    out = tmp_path / "c6.flbl"
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


@pytest.mark.parametrize("keep", [30, -1])
def test_truncated_label_file_exit_code(tmp_path, capsys, keep):
    # a cut inside the header, and one inside the last edge payload
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
