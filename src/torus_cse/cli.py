"""Command line front end.

Exit codes: 0 success (and all verify checks green), 1 for codec or data
errors, 2 for usage problems such as unknown file extensions or bad
generator parameters.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from .baseline1d import compare
from .blocks import from_numpy
from .codec import (_MAX_CELLS, CodewordStats, coded_rank, compress_with_stats,
                    decompress)
from .errors import BadSpecError, TorusCseError, UnknownExtensionError
from .generate import SourceSpec, alphabet_of, entropy_bits, generate
from .gridio import read_grid, write_grid
from .verify import run_exhaustive, run_lemmas, run_random


def _stats_dict(s: CodewordStats) -> dict:
    return {"escape": s.escape, "m": s.m, "n": s.n, "J": s.alphabet,
            "l0": s.l0, "l1": s.l1, "l2": s.l2, "l3": s.l3,
            "total_bits": s.total_bits,
            "bits_per_symbol": s.bits_per_symbol,
            "transmitted": {"b1": s.transmitted["B1"],
                            "b2": s.transmitted["B2"],
                            "b3": s.transmitted["B3"]}}


def _cmd_compress(args) -> int:
    p = read_grid(args.input)
    data, s = compress_with_stats(p, strict=args.strict)
    with open(args.output, "wb") as fh:
        fh.write(data)
    if args.stats_json:
        with open(args.stats_json, "w", encoding="ascii") as fh:
            json.dump(_stats_dict(s), fh, indent=2)
            fh.write("\n")
    mode = "escape" if s.escape else "coded"
    print(f"{args.input} -> {args.output}: {len(data)} bytes ({mode})")
    return 0


def _cmd_decompress(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    p = decompress(data)
    write_grid(args.output, p)
    print(f"{args.input} -> {args.output}: {p.m}x{p.n} J={p.alphabet}")
    return 0


def _cmd_stats(args) -> int:
    s = compress_with_stats(read_grid(args.input))[1]
    print(json.dumps(_stats_dict(s), indent=2))
    return 0


def _parse_size(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise BadSpecError(f"size must look like 16x24, got {text!r}")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise BadSpecError(f"size must look like 16x24, got {text!r}") from None
    if m < 1 or n < 1:
        raise BadSpecError(f"size must be at least 1x1, got {text!r}")
    return m, n


def _rows(text: str) -> tuple[tuple[float, ...], ...]:
    try:
        return tuple(tuple(float(x) for x in row.split(","))
                     for row in text.split("|"))
    except ValueError:
        raise BadSpecError(f"unparseable transition rows {text!r}") from None


_GEN_KEYS = {"iid": ("probs",), "markov2d": ("h", "v", "w")}


def _build_spec(args) -> SourceSpec:
    fields: dict[str, str] = {}
    for part in (args.params or "").split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            key, val = (x.strip() for x in part.split("=", 1))
        elif args.kind == "iid" and "probs" not in fields:
            key, val = "probs", part
        else:
            raise BadSpecError(f"unparseable parameter {part!r}")
        if key not in _GEN_KEYS[args.kind]:
            raise BadSpecError(f"{args.kind} takes no parameter {key!r}")
        if key in fields:
            raise BadSpecError(f"parameter {key!r} given twice")
        fields[key] = val
    m, n = _parse_size(args.size)
    if args.kind == "iid":
        if "probs" not in fields:
            raise BadSpecError('iid sources need --params "p0,p1,..."')
        try:
            probs = tuple(float(x) for x in fields["probs"].split(","))
        except ValueError:
            raise BadSpecError(f"unparseable probabilities "
                               f"{fields['probs']!r}") from None
        return SourceSpec("iid", m, n, args.seed, probs=probs)
    try:
        weight = float(fields.get("w", "0.5"))
    except ValueError:
        raise BadSpecError(f"unparseable weight {fields['w']!r}") from None
    if "h" not in fields or "v" not in fields:
        raise BadSpecError('markov2d needs --params "h=...;v=...[;w=...]"')
    return SourceSpec("markov2d", m, n, args.seed,
                      horizontal=_rows(fields["h"]), vertical=_rows(fields["v"]),
                      weight=weight)


def _cmd_gen(args) -> int:
    spec = _build_spec(args)
    alphabet = alphabet_of(spec)
    if spec.m * spec.n > _MAX_CELLS:
        raise BadSpecError(f"size {args.size} exceeds the {_MAX_CELLS}-cell cap")
    grid = generate(spec)
    p = from_numpy(grid, alphabet=alphabet)
    write_grid(args.output, p)
    h, how = entropy_bits(spec, grid)
    print(f"{args.output}: {p.m}x{p.n} J={p.alphabet} seed={spec.seed}")
    print(f"H = {h:.4f} bits/symbol ({how})")
    if coded_rank(p.to_numpy()) is None:
        print("note: the codec will take the raw path for this grid")
    return 0


# the options each verify mode reads, with their defaults
_VERIFY_OPTIONS = {"exhaustive": {"size": "3x3", "alphabet": 2},
                   "random": {"count": 500, "max": 32, "seed": 0},
                   "lemmas": {"size": "3x3", "alphabet": 2}}


def _cmd_verify(args) -> int:
    opts = dict(_VERIFY_OPTIONS[args.mode])
    for name in ("size", "alphabet", "count", "max", "seed"):
        if getattr(args, name) is not None:
            if name not in opts:
                raise BadSpecError(f"--mode {args.mode} reads no --{name}")
            opts[name] = getattr(args, name)
    if args.mode == "random":
        count, side, seed = opts["count"], opts["max"], opts["seed"]
        # a draw is refused before it is made if the codec would refuse it
        if count < 1 or not 1 <= side <= math.isqrt(_MAX_CELLS):
            raise BadSpecError("--count must be at least 1, and --max in "
                               f"1..{math.isqrt(_MAX_CELLS)}")
        if seed < 0:
            raise BadSpecError(f"--seed {seed} is negative")
        rep = run_random(count=count, max_side=side, seed=seed)
    else:
        m, n = _parse_size(opts["size"])
        run = run_exhaustive if args.mode == "exhaustive" else run_lemmas
        rep = run(m, n, opts["alphabet"])
    print(rep.line())
    return 0 if rep.passed else 1


def _cmd_compare(args) -> int:
    p = read_grid(args.input)
    c = compare(p)
    b, s = c.baseline, c.codec
    print(f"baseline singles (C-i): {c.singles_baseline}    "
          f"codec singles (B1): {c.singles_codec}")
    print(f"baseline sections l0/l1/l2/l3: "
          f"{b.l0:.1f}/{b.l1:.1f}/{b.l2:.1f}/{b.l3:.1f}  total {b.total:.1f}")
    print(f"codec    sections l0/l1/l2/l3: "
          f"{s.l0:.1f}/{s.l1:.1f}/{s.l2:.1f}/{s.l3:.1f}  total {s.total:.1f}")
    print(f"total ratio (baseline/codec): {c.total_ratio:.3f}")
    if b.middle_regime_empty:
        print("note: width cap floor(log2 log2 n) < 2, so every multi-column "
              "window was attributed to the long regime")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-cse",
        description="Lossless 2D codec over torus window counts")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="grid file to container")
    c.add_argument("-i", "--input", required=True)
    c.add_argument("-o", "--output", required=True)
    c.add_argument("--stats-json", metavar="PATH")
    c.add_argument("--strict", action="store_true",
                   help="refuse inputs that would take the raw path")
    c.set_defaults(func=_cmd_compress)

    d = sub.add_parser("decompress", help="container to grid file")
    d.add_argument("-i", "--input", required=True)
    d.add_argument("-o", "--output", required=True)
    d.set_defaults(func=_cmd_decompress)

    s = sub.add_parser("stats", help="section lengths as JSON")
    s.add_argument("-i", "--input", required=True)
    s.set_defaults(func=_cmd_stats)

    g = sub.add_parser("gen", help="synthetic grid sources")
    g.add_argument("--kind", choices=("iid", "markov2d"), required=True)
    g.add_argument("--params", default="",
                   help='iid: "0.8,0.2"; markov2d: "h=...|...;v=...|...;w=0.5"')
    g.add_argument("--size", required=True, metavar="MxN")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--mode", choices=("exhaustive", "random", "lemmas"),
                   required=True)
    v.add_argument("--size", metavar="MxN", help="default 3x3")
    v.add_argument("--alphabet", type=int, help="default 2")
    v.add_argument("--count", type=int, help="random only, default 500")
    v.add_argument("--max", type=int, help="random only, default 32")
    v.add_argument("--seed", type=int, help="random only, default 0")
    v.set_defaults(func=_cmd_verify)

    m = sub.add_parser("compare", help="conventional 1D coder vs this codec")
    m.add_argument("-i", "--input", required=True)
    m.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnknownExtensionError, BadSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TorusCseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
