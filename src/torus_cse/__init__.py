"""Lossless 2D codec built on torus window counting."""

# numpy imports numpy.ma lazily, on the first plain np.unique call, and the
# codec never makes one.  perfbench's speed meter makes that call from a
# 25 ms SIGALRM handler; a first import there that spans two ticks nests the
# handler until RecursionError, which lands in the op being timed.
import numpy.ma  # noqa: F401

from .blocks import Block, from_numpy, is_primitive, make_block
from .codec import CodewordStats, compress, decompress, stats
from .errors import TorusCseError

__all__ = [
    "Block",
    "CodewordStats",
    "TorusCseError",
    "compress",
    "decompress",
    "from_numpy",
    "is_primitive",
    "make_block",
    "stats",
]
__version__ = "0.1.0"
