"""Closed-loop benchmark of the torus-cse codec.

    python3 perfbench/run.py --workload iid64 --seed 1 --seconds 10 --trace 0

One process, one op at a time, no threads: each grid of the seeded corpus is
compressed, then its container decompressed and checked, before the next grid
starts.  Whole passes over the corpus repeat while the next one is expected to
end within --seconds (there is always at least one).  The program is built from
`src/` next to this directory; nothing is installed.

--trace 0 prints the end-to-end metrics: op speed and latency, rate, and per-op
peak memory from a separate tracemalloc pass, plus set-up time from fresh child
processes.  --trace 1 prints per-layer metrics: an untraced pass, then the same
passes with spans around the program's layer entry points, then an untimed
layer-memory pass and an untimed `stats` pass.  The last stdout line is one JSON
object; the lines above it repeat each metric with its unit.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: single-threaded BLAS

import argparse
import bz2
import contextlib
import gc
import hashlib
import importlib
import io
import json
import lzma
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
import zlib
from pathlib import Path
from time import perf_counter

import numpy as np

import setup_probe
import speedmeter
import tracing
import workloads
from speedmeter import clock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 9
MB = 1e6
ESCAPE_FLAG = 0x01  # v1 container: byte 7 is the flags byte, bit 0 = escape


def load_program():
    """Import torus_cse from this checkout's src/, never from elsewhere."""
    if not (SRC / "torus_cse" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    tc = importlib.import_module("torus_cse")
    if Path(tc.__file__).resolve().parent.parent != SRC.resolve():
        return None
    return tc


class ApiOps:
    """Round trips through torus_cse.compress / torus_cse.decompress."""

    def __init__(self, tc, corpus: workloads.Corpus, workdir: Path) -> None:
        self.tc = tc
        self.blocks = [tc.from_numpy(it.grid, it.alphabet) for it in corpus.items]

    def encode(self, i: int):
        block = self.blocks[i]
        t0 = clock()
        data = self.tc.compress(block)
        return clock() - t0, data

    def decode(self, i: int, data: bytes):
        t0 = clock()
        out = self.tc.decompress(data)
        dt = clock() - t0
        return dt, out == self.blocks[i]


class CliOps(ApiOps):
    """Round trips through in-process `torus-cse compress --stats-json` and
    `torus-cse decompress` on PGM files; the output PGM must match byte for
    byte and both commands must exit 0."""

    def __init__(self, tc, corpus: workloads.Corpus, workdir: Path) -> None:
        super().__init__(tc, corpus, workdir)
        self.cli = importlib.import_module("torus_cse.cli")
        self.pgm = [workloads.pgm_bytes(it) for it in corpus.items]
        self.paths = []
        for i, pgm in enumerate(self.pgm):
            src = workdir / f"g{i}.pgm"
            src.write_bytes(pgm)
            self.paths.append(tuple(str(p) for p in (
                src, workdir / f"g{i}.tcse", workdir / f"g{i}.json",
                workdir / f"g{i}-back.pgm")))

    def encode(self, i: int):
        src, box, js, _ = self.paths[i]
        argv = ["compress", "-i", src, "-o", box, "--stats-json", js]
        t0 = clock()
        code = self.cli.main(argv)
        dt = clock() - t0
        if code != 0:
            raise RuntimeError(f"compress exited {code}")
        return dt, Path(box).read_bytes()

    def decode(self, i: int, data: bytes):
        _, box, _, back = self.paths[i]
        argv = ["decompress", "-i", box, "-o", back]
        t0 = clock()
        code = self.cli.main(argv)
        dt = clock() - t0
        return dt, code == 0 and Path(back).read_bytes() == self.pgm[i]


class Tally:
    """Per-op times and outcomes of the timed passes."""

    def __init__(self) -> None:
        self.enc: list[float] = []
        self.dec: list[float] = []
        self.enc_cells = 0
        self.dec_cells = 0
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.slices: list[float] = []  # speed-meter samples, when sampled

    @property
    def op_seconds(self) -> float:
        return sum(self.enc) + sum(self.dec)


def _failed(tally: Tally, what: str) -> None:
    tally.failed += 1
    print(f"FAILED {what}", file=sys.stderr)


def one_pass(ops, corpus: workloads.Corpus, tally: Tally, containers: list) -> None:
    """Each grid once: compress, decompress, check; the first pass fixes the
    containers and every later pass must reproduce them byte for byte."""
    for i, item in enumerate(corpus.items):
        tally.attempted += 1
        try:
            dt, data = ops.encode(i)
        except Exception:  # count the failed op and go on with the next grid
            _failed(tally, f"compress of grid {i}:\n{traceback.format_exc()}")
            continue
        tally.enc.append(dt)
        tally.enc_cells += item.cells
        if containers[i] is None:
            containers[i] = data
        elif containers[i] != data:
            _failed(tally, f"compress of grid {i} changed its container")
        tally.attempted += 1
        try:
            dt, ok = ops.decode(i, data)
        except Exception:
            _failed(tally, f"decompress of grid {i}:\n{traceback.format_exc()}")
            continue
        tally.dec.append(dt)
        tally.dec_cells += item.cells
        if not ok:
            _failed(tally, f"decompress of grid {i} returned another grid")


def run_passes(ops, corpus, containers, seconds=None, passes=None,
               sample_speed=False) -> Tally:
    """Whole passes: a fixed number, or while the next should end in time.
    With `sample_speed` the speed meter runs alongside the ops."""
    tally = Tally()
    gc.collect()
    t0 = perf_counter()
    meter = speedmeter.sampling() if sample_speed else contextlib.nullcontext([])
    with contextlib.redirect_stdout(io.StringIO()), meter as slices:
        while True:
            one_pass(ops, corpus, tally, containers)
            tally.passes += 1
            elapsed = perf_counter() - t0
            if passes is not None:
                if tally.passes >= passes:
                    break
            elif elapsed * (tally.passes + 1) / tally.passes > seconds:
                break
    tally.slices = list(slices)
    return tally


def peak_side(ops, corpus, side: str, containers) -> float:
    """Median over the corpus' peak grids of the tracemalloc peak of one
    `side` ("enc" or "dec") op above the traced memory at its start, in MB.
    The largest single peak moved by a fifth between seeds of mixed-small,
    the median of its nine largest grids by under 5%."""
    peaks = []
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for i in corpus.peak_items:
                gc.collect()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                if side == "enc":
                    ok = ops.encode(i)[1] == containers[i]
                else:
                    ok = ops.decode(i, containers[i])[1]
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                if not ok:
                    raise RuntimeError(f"memory pass: {side} of grid {i} disagrees")
    finally:
        tracemalloc.stop()
    return statistics.median(peaks) / MB


def peak_pass(args, ops, corpus, containers, workdir: Path) -> tuple[float, float]:
    """Compress peaks here while a child process takes the decompress peaks
    of the same containers; the two are independent and this halves the
    wall time of the slow traced-allocation pass on two cores."""
    decdir = workdir / "dec"
    decdir.mkdir()
    for i in corpus.peak_items:
        (decdir / f"g{i}.tcse").write_bytes(containers[i])
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--dec-peak", str(decdir)],
        stdout=subprocess.PIPE, text=True)
    try:
        enc = peak_side(ops, corpus, "enc", containers)
        out, _ = child.communicate(timeout=150)
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
    if child.returncode != 0:
        raise RuntimeError("decompress memory pass failed")
    return enc, float(out.split()[-1])


def dec_peak_child(workload: str, seed: int, decdir: Path) -> int:
    tc = load_program()
    corpus = workloads.build(workload, seed)
    mode = "cli" if workload == "cli32" else "api"
    setup_probe.warm_up(mode, str(decdir))
    ops = (CliOps if mode == "cli" else ApiOps)(tc, corpus, decdir)
    containers = {i: (decdir / f"g{i}.tcse").read_bytes() for i in corpus.peak_items}
    print(peak_side(ops, corpus, "dec", containers))
    return 0


def measure_setup(mode: str, workdir: Path) -> tuple[list[float], list[float]]:
    """Fresh-process import plus one small round trip, SETUP_REPS times:
    the seconds, and the same scaled to reference speed by the slices each
    child times after its round trip."""
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), mode,
             str(workdir)],
            capture_output=True, text=True, timeout=120, check=True)
        setup, speed = map(float, proc.stdout.split()[-2:])
        raw.append(setup)
        scaled.append(setup * speedmeter.factor([speed]))
    return raw, scaled


def _elias_delta_bits(v: int) -> int:
    n = v.bit_length()
    return n + 2 * (n.bit_length() - 1)


def _cell_bits(item: workloads.Item) -> int:
    return max(1, (item.alphabet - 1).bit_length())


def escape_bytes(item: workloads.Item) -> int:
    """Size of the grid as a v1 escape container: 9-byte header, Elias delta
    m and n, then the raw cells."""
    m, n = item.grid.shape
    head = _elias_delta_bits(m) + _elias_delta_bits(n)
    return 9 + (head + m * n * _cell_bits(item) + 7) // 8


def reference_bytes(item: workloads.Item) -> dict[str, int]:
    """Escape container size and stdlib zlib/bz2/lzma output sizes over the
    grid's bit-packed cells (row-major, most significant bit first)."""
    cb = _cell_bits(item)
    planes = (item.grid[..., None] >> np.arange(cb - 1, -1, -1)) & 1
    packed = np.packbits(planes.astype(np.uint8).ravel()).tobytes()
    return {"escape": escape_bytes(item),
            "zlib": len(zlib.compress(packed, 9)),
            "bz2": len(bz2.compress(packed, 9)),
            "lzma": len(lzma.compress(packed))}


def digest(containers) -> str:
    h = hashlib.sha256()
    for c in containers:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


def _timing_metrics(tally: Tally, scale: float) -> dict:
    """Speed and latency of the timed ops, their times multiplied by `scale`."""
    enc = [scale * t for t in tally.enc]
    dec = [scale * t for t in tally.dec]
    return {
        "enc_cells_per_s": (tally.enc_cells / sum(enc), "cells/s"),
        "dec_cells_per_s": (tally.dec_cells / sum(dec), "cells/s"),
        "enc_ms_p50": (1e3 * np.percentile(enc, 50), "ms"),
        "dec_ms_p50": (1e3 * np.percentile(dec, 50), "ms"),
        "enc_ms_p90": (1e3 * np.percentile(enc, 90), "ms"),
        "dec_ms_p90": (1e3 * np.percentile(dec, 90), "ms"),
    }


def end_to_end(args, ops, corpus, workdir, mode):
    setups, scaled_setups = measure_setup(mode, workdir)
    containers = [None] * len(corpus.items)
    tally = run_passes(ops, corpus, containers, seconds=args.seconds,
                       sample_speed=True)
    if tally.failed:
        return tally, containers, {}, []
    enc_peak, dec_peak = peak_pass(args, ops, corpus, containers, workdir)
    bpp = 8 * sum(map(len, containers)) / corpus.cells
    scale = speedmeter.factor(tally.slices)
    metrics = _timing_metrics(tally, scale)
    metrics.update({
        "bpp": (bpp, "bits/cell"),
        "enc_peak_mb": (enc_peak, "MB"),
        "dec_peak_mb": (dec_peak, "MB"),
        "setup_s": (statistics.median(scaled_setups), "s"),
    })
    measured = "  ".join(f"{k} {v:.6g}" for k, (v, _) in
                         _timing_metrics(tally, 1.0).items())
    notes = [
        f"timed: {tally.passes} pass(es), {len(tally.enc)} compress + "
        f"{len(tally.dec)} decompress ops in {tally.op_seconds:.3f} s",
        f"latency samples per side: {len(tally.enc)}"
        + ("" if len(tally.enc) >= 100 else
           " (under 100: p90 is not a tail estimate here)"),
        f"speed meter: {len(tally.slices)} slices, median "
        f"{1e3 * statistics.median(tally.slices):.4f} ms against "
        f"{1e3 * speedmeter.REF_SLICE_S:.4f} ms at reference speed; "
        f"times are scaled by {scale:.4f}",
        f"as measured, unscaled: {measured}",
        f"peak memory: median tracemalloc peak over grids {list(corpus.peak_items)}",
        f"setup_s: median of {SETUP_REPS} child processes, scaled by each "
        f"child's own slices (measured {min(setups):.4f}..{max(setups):.4f} s, "
        f"median {statistics.median(setups):.4f} s)",
    ]
    refs = [reference_bytes(it) for it in corpus.items]
    rates = "  ".join(
        f"{k} {8 * sum(r[k] for r in refs) / corpus.cells:.4f}"
        for k in ("escape", "zlib", "bz2", "lzma"))
    notes.append(f"reference bpp (not gated): {rates}")
    return tally, containers, metrics, notes


def per_layer(tc, ops, corpus, seconds, spans_path):
    containers = [None] * len(corpus.items)
    base = run_passes(ops, corpus, containers, seconds=seconds)
    if base.failed:
        return base, containers, {}, []
    traced_containers = [None] * len(corpus.items)
    rec = tracing.SpanRecorder()
    with rec.installed():
        traced = run_passes(ops, corpus, traced_containers, passes=base.passes)
    problems = []
    if digest(traced_containers) != digest(containers):
        problems.append("traced containers differ from untraced ones")
    base.attempted += traced.attempted
    base.failed += traced.failed

    peaks = tracing.PeakRecorder()
    tracemalloc.start()
    try:
        with peaks.installed(), contextlib.redirect_stdout(io.StringIO()):
            for i in corpus.peak_items:
                if ops.encode(i)[1] != containers[i]:
                    problems.append(f"layer-memory pass changed grid {i}")
    finally:
        tracemalloc.stop()

    bits = {"l0": 0.0, "l1": 0.0, "l2": 0.0, "l3": 0.0}
    escapes = 0
    for block, data in zip(ops.blocks, containers):
        if data[7] & ESCAPE_FLAG:
            escapes += 1
            continue
        st = tc.stats(block)
        for k in bits:
            bits[k] += getattr(st, k)
    escape_total = sum(escape_bytes(it) for it in corpus.items)

    t = rec.self_times()
    rec.save(spans_path)
    per = 1.0 / base.passes

    def own(name):
        return t.get(name, (0.0, 0.0, 0))[0] * per

    def total(name):
        return t.get(name, (0.0, 0.0, 0))[1] * per

    def calls(name):
        return t.get(name, (0.0, 0.0, 0))[2] * per

    walked = settled = 0
    for max1 in rec.walk_tables:
        w, s = tracing.settled_counts(max1)
        walked += w
        settled += s
    overhead = traced.op_seconds - base.op_seconds
    metrics = {
        "engine.walk_enc_s": (own("engine.walk_enc"), "s"),
        "engine.walk_dec_s": (own("engine.walk_dec"), "s"),
        "engine.walk_calls": (calls("engine.walk_enc") + calls("engine.walk_dec"), "count"),
        "engine.census_s": (own("engine.census"), "s"),
        "engine.census_calls": (calls("engine.census"), "count"),
        "engine.member_grid_s": (own("engine.member_grid"), "s"),
        "engine.walk_peak_mb": (peaks.peak.get("engine.walk", 0) / MB, "MB"),
        "engine.sizes_walked": (walked * per, "count"),
        "engine.settled_sizes": (settled * per, "count"),
        "engine.settled_share": (settled / walked if walked else 0.0, "ratio"),
        "blocks.is_primitive_s": (own("blocks.is_primitive"), "s"),
        "blocks.is_primitive_calls": (calls("blocks.is_primitive"), "count"),
        "blocks.rank_of_s": (own("blocks.rank_of"), "s"),
        "blocks.rank_of_calls": (calls("blocks.rank_of"), "count"),
        "blocks.primitive_peak_mb": (peaks.peak.get("blocks.primitive", 0) / MB, "MB"),
        "blocks.from_numpy_s": (own("blocks.from_numpy"), "s"),
        "rangecoder.encode_s": (own("rangecoder.encode"), "s"),
        "rangecoder.encode_calls": (calls("rangecoder.encode"), "count"),
        "rangecoder.decode_s": (own("rangecoder.decode"), "s"),
        "rangecoder.decode_calls": (calls("rangecoder.decode"), "count"),
        "bits.write_bits_s": (own("bits.write_bits"), "s"),
        "bits.write_bits_calls": (calls("bits.write_bits"), "count"),
        "bits.read_bits_s": (own("bits.read_bits"), "s"),
        "bits.read_bits_calls": (calls("bits.read_bits"), "count"),
        "codec.compress_self_s": (own("codec.compress"), "s"),
        "codec.decompress_self_s": (own("codec.decompress"), "s"),
        "codec.escape_share": (escapes / len(containers), "ratio"),
        "codec.coded_vs_escape": (sum(map(len, containers)) / escape_total, "ratio"),
        "codec.l0_bits": (bits["l0"], "bits"),
        "codec.l1_bits": (bits["l1"], "bits"),
        "codec.l2_bits": (bits["l2"], "bits"),
        "codec.l3_bits": (bits["l3"], "bits"),
        "cli.stats_s": (total("cli.stats"), "s"),
        "gridio.read_s": (own("gridio.read"), "s"),
        "gridio.write_s": (own("gridio.write"), "s"),
        "trace.overhead_s": (overhead * per, "s"),
        "trace.overhead_share": (overhead / base.op_seconds, "ratio"),
    }
    notes = [
        f"passes: {base.passes} untraced ({base.op_seconds:.3f} s of ops), "
        f"{traced.passes} traced ({traced.op_seconds:.3f} s); "
        f"{len(rec.start)} spans written to {spans_path.relative_to(HERE.parent)}",
        "times and counts are per corpus pass; *_s are self times except "
        "cli.stats_s, which includes the walk it re-runs",
        f"layer memory: tracemalloc over compress of grids {list(corpus.peak_items)}",
        f"traced containers_sha256 {digest(traced_containers)}",
    ] + [f"PROBLEM {p}" for p in problems]
    if problems:
        base.failed += len(problems)
    return base, containers, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dec-peak", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dec_peak:
        return dec_peak_child(args.workload, args.seed, args.dec_peak)

    tc = load_program()
    if tc is None:
        print(f"error: no torus_cse package under {SRC}", file=sys.stderr)
        return 2
    corpus = workloads.build(args.workload, args.seed)
    mode = "cli" if args.workload == "cli32" else "api"
    workdir = OUT / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_probe.warm_up(mode, str(workdir))
        ops = (CliOps if mode == "cli" else ApiOps)(tc, corpus, workdir)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            tally, containers, metrics, notes = per_layer(
                tc, ops, corpus, args.seconds, spans)
        else:
            tally, containers, metrics, notes = end_to_end(
                args, ops, corpus, workdir, mode)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = tally.failed == 0 and bool(metrics)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(corpus.items)} grids, {corpus.cells} cells")
    print(f"corpus_sha256 {corpus.sha256()}")
    if not tally.failed:
        print(f"containers_sha256 {digest(containers)}")
    for line in notes:
        print(line)
    print(f"fail_frac {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
