"""Grid files: PGM and text reads, round trips, and every refused input."""

import pytest

from torus_cse.blocks import make_block
from torus_cse.cli import main
from torus_cse.errors import GridFormatError, UnknownExtensionError
from torus_cse.gridio import (read_grid, read_grid_text, read_pgm, write_grid,
                              write_grid_text, write_pgm)

G = make_block([[0, 1, 2], [2, 2, 0]], alphabet=3)


def test_p2_read_skips_header_comments():
    data = b"P2\n# made by hand\n3 2 # width height\n2\n0 1 2\n2 2 0\n"
    assert read_pgm(data) == G


def test_p5_read_skips_header_comments():
    data = b"P5 # raw\n3 2\n# maxval next\n2\n" + bytes([0, 1, 2, 2, 2, 0])
    assert read_pgm(data) == G


@pytest.mark.parametrize("data,expect", [
    (b"P2\t3\r2\x0b2\x0c0 1 2\t2\r2\x0b0", G),
    (b"P5 3 2 2\r" + bytes([0, 1, 2, 2, 2, 0]), G),
    (b"P2 3 2 2#c\n0 1 2 2 2 0", "non-numeric PGM header field"),
    (b"P2 3 2 2 0 1#x 2 2 2 0", "non-numeric PGM sample"),
    (b"# made by hand\nP2 3 2 2 0 1 2 2 2 0", G),
    (b"P2 3 2 2 0 1 2 2 2 0 # end", G),
    (b"P2 3 2 # width height", "truncated PGM header"),
    (b"P5 3 2 2\n#" + bytes([1, 2, 2, 2, 0]), "sample outside 0..maxval"),
], ids=["tab-cr-vt-ff", "p5-header-cr", "hash-in-maxval", "hash-in-sample",
        "comment-before-magic", "trailing-comment",
        "unterminated-header-comment", "p5-raster-starts-with-hash"])
def test_pgm_token_rules(data, expect):
    # a token runs to the next ASCII whitespace, a # in it included; a #
    # that starts a token starts a comment to the end of its line; a P5
    # raster starts one byte after maxval, whatever that byte holds
    if isinstance(expect, str):
        with pytest.raises(GridFormatError, match=expect):
            read_pgm(data)
    else:
        assert read_pgm(data) == expect


def test_pgm_maxval_sets_the_alphabet():
    p = read_pgm(b"P2 2 1 255 0 255")
    assert p.alphabet == 256 and p.cells == (0, 255)


def test_write_pgm_is_p5():
    assert write_pgm(G) == b"P5\n3 2\n2\n" + bytes([0, 1, 2, 2, 2, 0])


def test_write_grid_text_layout():
    assert write_grid_text(G) == "3 2 3\n0 1 2\n2 2 0\n"


def test_text_read_skips_comments_and_blank_lines():
    text = "# grid\n3 2 3\n\n0 1 2\n  # between rows\n2 2 0\n"
    assert read_grid_text(text) == G


@pytest.mark.parametrize("name", ["g.pgm", "g.PGM", "g.txt", "g.grid"])
def test_file_round_trip(tmp_path, name):
    path = str(tmp_path / name)
    write_grid(path, G)
    back = read_grid(path)
    assert back == G and back.alphabet == G.alphabet
    assert all(type(v) is int for v in back.cells)


def test_unknown_extension(tmp_path):
    with pytest.raises(UnknownExtensionError):
        write_grid(str(tmp_path / "g.png"), G)
    with pytest.raises(UnknownExtensionError):
        read_grid(str(tmp_path / "g.png"))


@pytest.mark.parametrize("data,message", [
    (b"P6 3 2 2 ", "not a PGM grid"),
    (b"", "truncated PGM header"),
    (b"P5 3 2", "truncated PGM header"),
    (b"P2 3 # 2 2\n", "truncated PGM header"),
    (b"P2 3 two 2 0 1 2 2 2 0", "non-numeric PGM header field"),
    (b"P2 0 2 2", "unusable PGM geometry"),
    (b"P2 3 2 0 0 0 0 0 0 0", "unusable PGM geometry"),
    (b"P2 3 2 256", "unusable PGM geometry"),
    (b"P5 3 2 2\n" + bytes([0, 1, 2, 2, 2]), "raster shorter"),
    (b"P2 3 2 2 0 1 2 2 2", "raster shorter"),
    (b"P5 3 2 2\n" + bytes([0, 1, 3, 2, 2, 0]), "sample outside 0..maxval"),
    (b"P2 3 2 2 0 1 3 2 2 0", "sample outside 0..maxval"),
    (b"P2 3 2 2 0 1 -1 2 2 0", "sample outside 0..maxval"),
    (b"P2 3 2 2 0 1 99999999999999999999 2 2 0", "sample outside 0..maxval"),
    (b"P2 3 2 2 0 1 x 2 2 0", "non-numeric PGM sample"),
], ids=["bad-magic", "empty", "truncated", "comment-hides-maxval",
        "non-numeric-header", "zero-width", "maxval-0", "maxval-256",
        "p5-short", "p2-short", "p5-over-maxval", "p2-over-maxval",
        "p2-negative", "p2-past-int64", "p2-non-numeric"])
def test_pgm_format_errors(data, message):
    with pytest.raises(GridFormatError, match=message):
        read_pgm(data)


@pytest.mark.parametrize("text,message", [
    ("", "empty grid text"),
    ("# only a comment\n\n", "empty grid text"),
    ("3 2\n0 1\n", 'must start with a "J m n" line'),
    ("3 2 x\n0 1 2\n2 2 0\n", "non-numeric grid text header"),
    ("1 2 3\n0 0 0\n0 0 0\n", "unusable grid header"),
    ("300 1 1\n0\n", "unusable grid header"),
    ("3 0 3\n", "unusable grid header"),
    ("3 2 3\n0 1 2\n", "expected 2 rows, found 1"),
    ("3 2 3\n0 1 2\n2 y 0\n", "non-numeric cell"),
    ("3 2 3\n0 1 2\n2 2\n", "row width 2, expected 3"),
    ("3 2 3\n0 1 2\n2 3 0\n", "cell outside the declared alphabet"),
    ("3 1 2\n-1 0\n", "cell outside the declared alphabet"),
    ("3 1 2\n0 99999999999999999999\n", "cell outside the declared alphabet"),
], ids=["empty", "comments-only", "short-header", "non-numeric-header",
        "J1", "J300", "no-rows", "missing-row", "non-numeric-cell",
        "short-row", "cell-over-J", "negative-cell", "cell-past-int64"])
def test_text_format_errors(text, message):
    with pytest.raises(GridFormatError, match=message):
        read_grid_text(text)


def test_text_file_with_non_ascii_byte(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"3 2 3\n0 1 2\n2 2 \xe9\n")
    with pytest.raises(GridFormatError, match="non-ASCII byte at offset 16"):
        read_grid(str(path))


@pytest.mark.parametrize("name,data", [
    ("g.pgm", b"P2 3 2 2 0 1 x 2 2 0"),
    ("g.txt", b"3 2 3\n0 1 2\n2 2 \xe9\n"),
])
def test_cli_reports_bad_grid_file_as_one_error(tmp_path, capsys, name, data):
    src = tmp_path / name
    src.write_bytes(data)
    assert main(["compress", "-i", str(src), "-o", str(tmp_path / "g.tcse")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
