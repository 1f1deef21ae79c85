import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from torus_cse import cli
from torus_cse.blocks import from_numpy, make_block
from torus_cse.cli import main
from torus_cse.codec import compress, compress_with_stats, stats
from torus_cse.engine import Walk
from torus_cse.generate import SourceSpec, entropy_bits, generate
from torus_cse.gridio import read_grid, write_grid
from torus_cse.verify import VerifyReport

SCHEMA = {"escape", "m", "n", "J", "l0", "l1", "l2", "l3",
          "total_bits", "bits_per_symbol", "transmitted"}


def test_gen_compress_decompress_roundtrip(tmp_path, capsys):
    src = tmp_path / "a.pgm"
    box = tmp_path / "a.tcse"
    sj = tmp_path / "a.json"
    back = tmp_path / "b.pgm"
    assert main(["gen", "--kind", "iid", "--params", "0.8,0.2",
                 "--size", "32x32", "--seed", "9", "-o", str(src)]) == 0
    assert "0.7219" in capsys.readouterr().out
    assert main(["compress", "-i", str(src), "-o", str(box),
                 "--stats-json", str(sj)]) == 0
    assert main(["decompress", "-i", str(box), "-o", str(back)]) == 0
    assert src.read_bytes() == back.read_bytes()
    doc = json.loads(sj.read_text())
    assert set(doc) == SCHEMA
    assert doc["escape"] is False
    assert set(doc["transmitted"]) == {"b1", "b2", "b3"}


def test_gen_reproducible(tmp_path, capsys):
    paths = [tmp_path / name for name in ("r1.txt", "r2.txt", "r3.txt")]
    for path, seed in zip(paths, (4, 4, 5)):
        assert main(["gen", "--kind", "markov2d",
                     "--params", "h=0.9,0.1|0.2,0.8;v=0.7,0.3|0.3,0.7",
                     "--size", "12x12", "--seed", str(seed),
                     "-o", str(path)]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


@pytest.mark.parametrize("kind, params, size, escape", [
    ("iid", "0.5,0.5", "1x16", True),
    ("iid", "0.5,0.5", "16x1", True),
    ("markov2d", "h=0,1|1,0;v=0,1|1,0", "4x4", True),  # a tiled checkerboard
    ("iid", "0.5,0.5", "4x4", False),
], ids=["row", "column", "tiled", "primitive"])
def test_gen_notes_the_raw_path_as_the_codec_takes_it(
        tmp_path, capsys, kind, params, size, escape):
    path = tmp_path / "g.pgm"
    assert main(["gen", "--kind", kind, "--params", params, "--size", size,
                 "--seed", "1", "-o", str(path)]) == 0
    _, s = compress_with_stats(read_grid(str(path)))
    assert s.escape is escape
    assert ("raw path" in capsys.readouterr().out) is escape


def test_stats_matches_library(tmp_path, capsys):
    p = make_block([[0, 1], [1, 1]])
    path = tmp_path / "p2.grid"
    write_grid(str(path), p)
    assert main(["stats", "-i", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    s = stats(p)
    assert doc["l1"] == s.l1 and doc["l3"] == s.l3
    assert doc["total_bits"] == s.total_bits
    assert doc["transmitted"] == {"b1": 1, "b2": 0, "b3": 4}


@pytest.mark.parametrize("rows", [
    [[0, 1, 1, 0, 1], [1, 1, 0, 0, 0], [0, 0, 1, 1, 1], [1, 0, 0, 1, 0]],
    [[0, 1], [0, 1]],  # escape path
])
def test_compress_stats_json_walks_once(tmp_path, capsys, monkeypatch, rows):
    p = make_block(rows)
    src, box, sj = (tmp_path / name for name in ("g.txt", "g.tcse", "g.json"))
    write_grid(str(src), p)
    runs = []
    run = Walk.run
    monkeypatch.setattr(Walk, "run", lambda walk: runs.append(1) or run(walk))
    assert main(["compress", "-i", str(src), "-o", str(box),
                 "--stats-json", str(sj)]) == 0
    assert len(runs) == (0 if box.read_bytes()[7] & 0x01 else 1)
    assert box.read_bytes() == compress(p)
    capsys.readouterr()
    assert main(["stats", "-i", str(src)]) == 0
    assert sj.read_text() == capsys.readouterr().out


def test_stats_escape_path(tmp_path, capsys):
    path = tmp_path / "flat.txt"
    path.write_text("2 2 2\n0 0\n0 0\n")
    assert main(["stats", "-i", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["escape"] is True
    assert doc["total_bits"] == 12
    assert (doc["l1"], doc["l2"], doc["l3"]) == (0.0, 0.0, 0.0)
    assert doc["transmitted"] == {"b1": 0, "b2": 0, "b3": 0}


def test_strict_refuses_escape(tmp_path, capsys):
    path = tmp_path / "flat.txt"
    path.write_text("2 2 2\n0 0\n0 0\n")
    code = main(["compress", "-i", str(path), "-o", str(tmp_path / "f.tcse"),
                 "--strict"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_extension_is_usage_error(tmp_path, capsys):
    path = tmp_path / "a.bmp"
    path.write_bytes(b"BM")
    assert main(["stats", "-i", str(path)]) == 2
    box = tmp_path / "ok.tcse"
    box.write_bytes(compress(make_block([[0, 1], [1, 1]])))
    assert main(["decompress", "-i", str(box),
                 "-o", str(tmp_path / "o.bmp")]) == 2
    capsys.readouterr()


def test_bad_gen_params_are_usage_errors(tmp_path, capsys):
    # each is refused as one usage error line, never a numpy traceback
    for args in (
            ["--kind", "iid", "--params", "1.0", "--size", "4x4"],
            ["--kind", "markov2d", "--params", "h=0.5,0.5|0.5,0.5",
             "--size", "4x4"],
            ["--kind", "iid", "--params", ".8,.2", "--size", "4by4"],
            ["--kind", "iid", "--params", "nan,1", "--size", "4x4"],
            ["--kind", "markov2d", "--params",
             "h=nan,1|0.5,0.5;v=0.5,0.5|0.5,0.5", "--size", "4x4"],
            ["--kind", "iid", "--params", ".8,.2", "--size", "4x4",
             "--seed", "-1"],
            # keys the kind never reads, and a key given twice
            ["--kind", "markov2d", "--params",
             "h=0.9,0.1|0.1,0.9;v=0.85,0.15|0.15,0.85;x=1", "--size", "4x4"],
            ["--kind", "iid", "--params", "0.5,0.5;w=3", "--size", "4x4"],
            ["--kind", "iid", "--params", "probs=0.5,0.5;probs=0.2,0.8",
             "--size", "4x4"],
            # the spec checks of generate.alphabet_of
            *(["--kind", "markov2d", "--params",
               f"h=0.5,0.5|0.5,0.5;v=0.5,0.5|0.5,0.5;w={w}", "--size", "4x4"]
              for w in ("2", "nan", "inf")),
            ["--kind", "markov2d", "--params",
             "h=0.5,0.5|0.5,0.5;v=1,0,0|0,1,0|0,0,1", "--size", "4x4"],
            ["--kind", "markov2d", "--params",
             "h=0.5,0.5|0.2,0.3,0.5;v=0.5,0.5|0.5,0.5", "--size", "4x4"],
            ["--kind", "iid", "--params", "0.5,0.6", "--size", "4x4"]):
        assert main(["gen", *args, "-o", str(tmp_path / "x.txt")]) == 2, args
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert out == "" and len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("spec, params", [
    (SourceSpec("iid", 4, 4, 1, probs=(1.0, 0.0)), "1.0,0.0"),
    (SourceSpec("markov2d", 1, 1, 1, horizontal=((0.9, 0.1), (0.1, 0.9)),
                vertical=((0.85, 0.15), (0.15, 0.85))),
     "h=0.9,0.1|0.1,0.9;v=0.85,0.15|0.15,0.85"),
], ids=["iid-certain", "markov2d-1x1"])
def test_gen_zero_entropy_is_positive_zero(tmp_path, capsys, spec, params):
    h, _ = entropy_bits(spec, generate(spec))
    assert h == 0 and math.copysign(1, h) == 1
    assert main(["gen", "--kind", spec.kind, "--params", params,
                 "--size", f"{spec.m}x{spec.n}", "--seed", "1",
                 "-o", str(tmp_path / "z.pgm")]) == 0
    assert "H = 0.0000 bits/symbol" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["verify", "--mode", "random", "--max", "2049"],
    ["gen", "--kind", "iid", "--params", "0.5,0.5", "--size", "2048x2049"],
    ["gen", "--kind", "iid", "--params", "0.5,0.5", "--size", "4194305x1"],
    ["gen", "--kind", "iid", "--params", ",".join(["0.0025"] * 400),
     "--size", "4x4"],
    ["gen", "--kind", "markov2d", "--params", "h={0};v={0}".format("|".join(
        ",".join("1" if j == i else "0" for j in range(257))
        for i in range(257))), "--size", "4x4"],
], ids=["random-max", "gen-square", "gen-column", "gen-iid-alphabet",
        "gen-markov-alphabet"])
def test_oversized_draws_are_usage_errors(args, tmp_path, capsys, monkeypatch):
    # a grid past the codec's 2^22-cell cap, or with more symbols than a
    # container holds, is refused before it is drawn
    def draw(*args, **kwargs):
        raise AssertionError("an oversized grid was drawn")

    monkeypatch.setattr(cli, "run_random", draw)
    monkeypatch.setattr(cli, "generate", draw)
    out = ["-o", str(tmp_path / "big.pgm")] if args[0] == "gen" else []
    assert main(args + out) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_largest_random_side_is_drawn(capsys, monkeypatch):
    sides = []

    def run_random(count, max_side, seed):
        sides.append(max_side)
        return VerifyReport("random", checked=1)

    monkeypatch.setattr(cli, "run_random", run_random)
    assert main(["verify", "--mode", "random", "--max", "2048"]) == 0
    assert sides == [2048]
    capsys.readouterr()


def test_missing_input_exit1(tmp_path, capsys):
    assert main(["stats", "-i", str(tmp_path / "nope.pgm")]) == 1
    capsys.readouterr()


def test_garbage_container_exit1(tmp_path, capsys):
    path = tmp_path / "junk.tcse"
    path.write_bytes(b"not a container at all")
    assert main(["decompress", "-i", str(path),
                 "-o", str(tmp_path / "o.pgm")]) == 1
    assert "error:" in capsys.readouterr().err


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    capsys.readouterr()


def test_verify_modes_exit_zero(capsys):
    assert main(["verify", "--mode", "exhaustive", "--size", "2x2"]) == 0
    assert main(["verify", "--mode", "random", "--count", "10",
                 "--max", "8", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 2


def test_compare_reports_single_counts(tmp_path, capsys):
    rng = np.random.default_rng(15)
    while True:
        grid = rng.integers(0, 2, size=(8, 64))
        p = from_numpy(grid, alphabet=2)
        c = compress(p)
        if not c[7] & 0x01:
            break
    path = tmp_path / "wide.txt"
    write_grid(str(path), p)
    assert main(["compare", "-i", str(path)]) == 0
    out = capsys.readouterr().out
    assert "(C-i): 255" in out
    assert "(B1): 1" in out
    assert "ratio" in out


def test_compare_notes_empty_middle_regime(tmp_path, capsys):
    p = make_block([[0, 1, 1, 0], [1, 1, 0, 0]])
    path = tmp_path / "narrow.txt"
    write_grid(str(path), p)
    assert main(["compare", "-i", str(path)]) == 0
    assert "long regime" in capsys.readouterr().out


def test_readme_commands_parse():
    # every `torus-cse ...` line of README's sh blocks, continuations joined
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("torus-cse ")]
    argvs = [shlex.split(line)[1:] for line in lines]
    for argv in argvs:
        cli.build_parser().parse_args(argv)
    assert {argv[0] for argv in argvs} == {
        "gen", "compress", "decompress", "stats", "verify", "compare"}
