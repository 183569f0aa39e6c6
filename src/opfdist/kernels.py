"""The measures' per-feature loops, compiled once and loaded with ctypes.

``kernelgen`` writes the C of the 31 loop functions of
``distances._measures`` from their source.  ``load`` builds it with the
system ``cc`` (``FLAGS``: ``-O2 -fno-fast-math -ffp-contract=off``, and
``exp``/``log`` from libm), into this package's ``__pycache__``, under a
name that hashes the sources of ``distances``, ``kernelgen`` and this
module with the flags and the machine.  The library is written to a
temporary name and renamed into place, so a reader never sees a partial
file.  An import that finds it parses, generates and compiles nothing.

``load`` returns None where there is no compiler, the cache cannot be
written or the build fails; ``distances`` then keeps its numpy block
form, which it also keeps when the compiled loops differ from it on a
sentinel block.  No setting selects the path.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import platform
import sys
from pathlib import Path
from typing import Callable

import numpy as np

FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-fno-builtin-exp",
         "-fno-builtin-log", "-fPIC")
# Pairs per tile of the longer side; a tile's sums stay in locals.
TILE = 4

_HERE = Path(__file__).resolve()


def cache_path(sources) -> Path:
    """The library built from these sources: its name hashes their bytes,
    the generator's and this module's, the flags and the machine."""
    h = hashlib.sha256()
    for path in (_HERE, _HERE.with_name("kernelgen.py"), *sources):
        h.update(Path(path).read_bytes())
    # platform.machine() is os.uname().machine on POSIX and also exists
    # where os.uname does not (Windows)
    h.update(repr((FLAGS, TILE, sys.platform, platform.machine())).encode())
    return (_HERE.parent / "__pycache__"
            / f"opfdist_kernels.{h.hexdigest()[:24]}.so")


def load(measures: Callable, sources, *, eps: float,
         exp_max: float) -> dict[str, Callable] | None:
    """name -> compiled block function of every loop function of
    ``measures`` (``distances._measures``, whose module is among
    ``sources``), built on first use; None where there is no compiler,
    the cache cannot be written or the build fails.

    A block function takes two float64 row matrices A (m, d) and B (k, d),
    of any strides, and returns what the numpy block form returns: the
    (m, k) matrix, a column (m, 1) or a row (1, k), or a tuple of these.
    """
    try:
        path = cache_path(sources)
        if not path.exists():
            from .kernelgen import build
            if not build(measures, path, flags=FLAGS, tile=TILE, eps=eps,
                         exp_max=exp_max):
                return None
        lib = ctypes.CDLL(str(path))
        table = json.loads(ctypes.c_char_p.in_dll(lib, "opf_meta").value)
    except OSError:
        return None
    return {e["name"]: _wrap(getattr(lib, "opf_" + e["name"]), e)
            for e in table}


_OUT = {"full": lambda m, k: (m, k), "col": lambda m, k: (m, 1),
        "row": lambda m, k: (1, k)}


def _wrap(fn, entry) -> Callable:
    shapes = [_OUT[s] for s in entry["shapes"]]
    fn.argtypes = ([ctypes.c_void_p, ctypes.c_long, ctypes.c_long] * 2
                   + [ctypes.c_long] * 3 + [ctypes.c_int]
                   + [ctypes.c_void_p] * len(shapes))
    fn.restype = ctypes.c_int
    as_tuple = entry["tuple"]

    def block(A: np.ndarray, B: np.ndarray):
        if A.strides[0] % 8 or A.strides[1] % 8:
            A = np.ascontiguousarray(A)
        if B.strides[0] % 8 or B.strides[1] % 8:
            B = np.ascontiguousarray(B)
        (m, d), k = A.shape, len(B)
        outs = [np.empty(s(m, k)) for s in shapes]
        # tile the side that pads fewer pairs
        tile_a = -(-k // TILE) * m > -(-m // TILE) * k
        if fn(A.ctypes.data, A.strides[0] // 8, A.strides[1] // 8,
              B.ctypes.data, B.strides[0] // 8, B.strides[1] // 8,
              m, k, d, tile_a, *(o.ctypes.data for o in outs)):
            raise MemoryError(f"{entry['name']}: no memory for the tiles")
        return tuple(outs) if as_tuple else outs[0]

    block.__name__ = block.__qualname__ = entry["name"]
    return block
