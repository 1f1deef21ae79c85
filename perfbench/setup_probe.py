"""One cold start of the program: import it, then one small round trip.

run.py starts this as a child process to measure set-up time, and calls
`warm_up` itself before it times anything.  As a script it prints the
seconds from just before the import to the end of the round trip, then the
median of SPEED_SLICES speed-meter slices taken after it:

    python3 perfbench/setup_probe.py <src dir> <api|cli> <scratch dir>
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from time import perf_counter

SPEED_SLICES = 41

# a fixed primitive 8x8 binary grid, so the warm-up takes the coded path
_ROWS = [[int((i * 5 + j * 3 + i * j) % 7 < 3) for j in range(8)]
         for i in range(8)]


def warm_up(mode: str, workdir: str) -> None:
    import torus_cse

    block = torus_cse.make_block(_ROWS, 2)
    if mode == "api":
        ok = torus_cse.decompress(torus_cse.compress(block)) == block
    else:
        from torus_cse import cli

        src = os.path.join(workdir, "warm.pgm")
        box = os.path.join(workdir, "warm.tcse")
        back = os.path.join(workdir, "warm-back.pgm")
        pgm = b"P5\n8 8\n1\n" + bytes(v for row in _ROWS for v in row)
        with open(src, "wb") as fh:
            fh.write(pgm)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (cli.main(["compress", "-i", src, "-o", box]),
                     cli.main(["decompress", "-i", box, "-o", back]))
        with open(back, "rb") as fh:
            ok = codes == (0, 0) and fh.read() == pgm
    if not ok:
        raise RuntimeError(f"{mode} warm-up round trip failed")


if __name__ == "__main__":
    src_dir, run_mode, scratch = sys.argv[1:4]
    t0 = perf_counter()
    sys.path.insert(0, src_dir)
    warm_up(run_mode, scratch)
    setup = perf_counter() - t0
    import statistics

    import speedmeter

    speed = statistics.median(speedmeter.work_slice() for _ in range(SPEED_SLICES))
    print(f"{setup:.9f} {speed:.9f}")
