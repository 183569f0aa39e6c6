"""The measures' compiled loops: generation, build, cache and fallback."""
from __future__ import annotations

import inspect
import os
import platform
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import opfdist
from opfdist import distances, kernels, registry
from opfdist.kernels import Refused, generate

CODES = [d.code for d in registry()]
PACKAGE = Path(opfdist.__file__).resolve().parent

needs_compiled = pytest.mark.skipif(
    "compiled" not in distances._BLOCKS,
    reason="the compiled loops are not in use on this host")


def _generate(body):
    """``generate`` over a ``_measures`` that holds the function ``body``."""
    source = ("def _measures(pairs, div, mul, exp, log, sqrt, root, lo, hi, "
              "width, share):\n"
              + textwrap.indent(textwrap.dedent(body), "    ")
              + "    return {}\n")
    return generate(source, eps=distances.EPS, exp_max=distances.EXP_MAX)


def test_generator_lowers_the_30_loop_functions():
    _, table = generate(inspect.getsource(distances._measures),
                        eps=distances.EPS, exp_max=distances.EXP_MAX)
    assert len(table) == 30
    shapes = {e["name"]: (e["shapes"], e["tuple"]) for e in table}
    # sum a^2 is a column and sum b^2 a row, as numpy broadcasts them
    assert shapes["inner"] == (["full", "col", "row"], True)
    assert shapes["exp_ratio"] == (["full", "full"], True)
    assert shapes["chebyshev"] == (["full"], False)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_generated_c_compiles_without_warnings(tmp_path):
    # compiled and linked as _build does; the warnings are not in FLAGS,
    # where a warning from another compiler would silently drop the
    # compiled path
    source, _ = generate(inspect.getsource(distances._measures),
                         eps=distances.EPS, exp_max=distances.EXP_MAX)
    c_file = tmp_path / "src.c"
    c_file.write_text(source + "\n" + kernels.FIT_C)
    done = subprocess.run(
        ["cc", *kernels.FLAGS, "-Wall", "-Wextra", "-Werror", "-shared",
         "-o", str(tmp_path / "lib.so"), str(c_file), "-lm"],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("body,what", [
    ("s += a ** b", "unknown operation"),
    ("s += a % b", "unknown operation"),
    ("s += foo(a)", "unknown operation"),
    ("s += div(a, b, 2.0)", "unknown operation"),
    ("s += hi(*order(a, b))", "unknown operation"),
    ("s += a if a > b else b", "unknown operation"),
    ("s += 1", "unknown operation"),
    ("s += a < b < 2.0", "unknown operation"),
    ("s += x", "unknown name"),
    ("s += width(x)", "unknown operation"),
    ("s **= a", "unknown augmented assignment"),
    ("if a < b:\n    s += a", "unknown statement"),
    ("d = a - b", "never added to"),
    ("p, q = a, b\ns += p * q", "unknown assignment"),
    ("p = q = a\ns += p * q", "unknown assignment"),
    ("exp = a\ns += exp(b)", "name is assigned"),
])
def test_generator_refuses_what_it_does_not_know(body, what):
    fn = ("def f(x, y):\n    s = 0.0\n    for a, b in pairs(x, y):\n"
          + textwrap.indent(body, "        ") + "\n    return s\n")
    with pytest.raises(Refused, match=f"^f .*{what}"):
        _generate(fn)


@pytest.mark.parametrize("fn,what", [
    ("def f(x, y):\n    s = 0\n    for a, b in pairs(x, y):\n"
     "        s += a\n    return s\n", "float constant"),
    ("def f(x, y):\n    s = 0.0\n    for a, b in pairs(y, x):\n"
     "        s += a\n    return s\n", "pairs"),
    ("def f(x, y):\n    s = 0.0\n    for a, b in pairs(x, y):\n"
     "        s += a\n    for a, b in pairs(x, y):\n        s += b\n"
     "    return s\n", "one loop"),
    ("@cache\ndef f(x, y):\n    s = 0.0\n    for a, b in pairs(x, y):\n"
     "        s += a * b\n    return s\n", "decorator"),
    ("@share()\ndef f(x, y):\n    s = 0.0\n    for a, b in pairs(x, y):\n"
     "        s += a * b\n    return s\n", "decorator"),
    ("def f(x, y):\n    s = t = 0.0\n    for a, b in pairs(x, y):\n"
     "        t += a * a\n        s += t * b\n    return s\n",
     "another shape"),
    ("def f(x, y):\n    s = 0.0\n    for a, b in pairs(x, y):\n"
     "        s += 1.0\n    return s\n", "sums no feature"),
    ("def f(x, y):\n    s = 0.0\n    for a, b in pairs(x, y):\n"
     "        d = a - b\n        s += d\n    return d\n", "unknown name"),
])
def test_generator_refuses_unknown_shapes_of_function(fn, what):
    with pytest.raises(Refused, match=f"^f .*{what}"):
        _generate(fn)


@needs_compiled
def test_compiled_loops_equal_numpy_on_strided_rows_and_both_tilings(
        monkeypatch):
    rng = np.random.default_rng(9)
    big = rng.choice([0.0, -0.0, 0.5, 2.0, -1.5, 3.0], (40, 14))
    # views with negative, column-major and zero strides, and shapes
    # that tile either side with or without a remainder
    cases = [(big[:1], big), (big, big[:1]), (big[:17], big[3:6]),
             (big[:9, ::-2], big[::-3, 1::2]), (np.asfortranarray(big[:7]), np.asfortranarray(big)[5:14]),
             (np.broadcast_to(big[0], (5, 14)), big[::-1]),
             (big[:8], big[8:16]), (big[:3], big[:0])]
    for A, B in cases:
        monkeypatch.setattr(distances, "KERNELS", "numpy")
        want = distances.pairwise_many(CODES, A, B)
        monkeypatch.setattr(distances, "KERNELS", "compiled")
        got = distances.pairwise_many(CODES, A, B)
        for c, g, w in zip(CODES, got, want):
            assert g.shape == w.shape == (len(A), len(B)), c
            assert (g.view(np.uint64) == w.view(np.uint64)).all(), \
                (c, A.strides, B.strides)


# --- a fresh interpreter over a copy of the package ------------------------

CHILD = """\
import sys
popen = []
sys.addaudithook(lambda event, args: event == "subprocess.Popen"
                 and popen.append(args[0]))
sys.path.insert(0, sys.argv[1])
import numpy as np
import opfdist
from opfdist import distances
assert opfdist.__file__.startswith(sys.argv[1]), opfdist.__file__
A = np.load(sys.argv[2])
np.save(sys.argv[3], np.stack(distances.pairwise_many(
    [d.code for d in distances.registry()], A, A[::-1])))
print(distances.KERNELS, len(popen), _fits(A))
"""


def _fits(A):
    """A digest of the forests of every measure on the rows A; repr tells
    -0.0 from 0.0.  The child runs this function's source too."""
    import hashlib
    from opfdist import distances, forest
    forests = forest.train_measures(
        A, np.arange(len(A)) % 3, [d.code for d in distances.registry()])
    return hashlib.sha256(repr(forests).encode()).hexdigest()


def _rows():
    rng = np.random.default_rng(17)
    return rng.choice([0.0, -0.0, 0.25, 1.0, 3.0, -2.0, 499.0], (11, 4))


def _import_copy(tmp_path, src, path_dirs, prelude=""):
    rows = tmp_path / "rows.npy"
    out = tmp_path / "out.npy"
    np.save(rows, _rows())
    env = dict(os.environ, PATH=os.pathsep.join(map(str, path_dirs)))
    code = prelude + inspect.getsource(_fits) + CHILD
    done = subprocess.run([sys.executable, "-c", code, str(src), str(rows),
                           str(out)], capture_output=True, text=True,
                          env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    kernels_used, popen, fits = done.stdout.split()
    return kernels_used, int(popen), np.load(out), fits


def _copy_package(tmp_path, *, library: bool):
    src = tmp_path / "src"
    shutil.copytree(PACKAGE, src / "opfdist",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if library:
        cache = src / "opfdist" / "__pycache__"
        cache.mkdir()
        for lib in (PACKAGE / "__pycache__").glob("opfdist_kernels.*.so"):
            shutil.copy2(lib, cache)
    return src


def _failing_cc(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text("#!/bin/sh\nexit 1\n")
    cc.chmod(0o755)
    return bin_dir


def _numpy_matrices(monkeypatch):
    """The matrices and the forests' digest of the child, on numpy."""
    monkeypatch.setattr(distances, "KERNELS", "numpy")
    A = _rows()
    return np.stack(distances.pairwise_many(CODES, A, A[::-1])), _fits(A)


@pytest.mark.parametrize("case", ["failing_cc", "no_cc", "unwritable_cache"])
def test_no_compiled_loops_leave_numpy_and_identical_matrices(
        tmp_path, monkeypatch, case):
    src = _copy_package(tmp_path, library=False)
    path = os.environ.get("PATH", "").split(os.pathsep)
    if case == "failing_cc":
        path = [_failing_cc(tmp_path)]
    elif case == "no_cc":
        (tmp_path / "empty").mkdir()
        path = [tmp_path / "empty"]
    else:
        # a file where the cache directory should be
        (src / "opfdist" / "__pycache__").write_text("")
    kernels_used, popen, got, fits = _import_copy(tmp_path, src, path)
    assert kernels_used == "numpy"
    assert popen == (1 if case == "failing_cc" else 0)
    want, want_fits = _numpy_matrices(monkeypatch)
    assert (got.view(np.uint64) == want.view(np.uint64)).all()
    assert fits == want_fits


def test_cache_path_and_import_work_without_os_uname(tmp_path, monkeypatch):
    # os.uname exists on POSIX only; on Windows the import must still reach
    # the numpy fallback
    if hasattr(os, "uname"):
        # the same string, so a warm cache keeps its library's name
        assert platform.machine() == os.uname().machine
    want = kernels.cache_path(distances._measures)
    monkeypatch.delattr(os, "uname", raising=False)
    monkeypatch.setattr(platform, "_uname_cache", None, raising=False)
    path = kernels.cache_path(distances._measures)
    assert path.parent == want.parent
    assert path.name.startswith("opfdist_kernels.")
    monkeypatch.undo()
    src = _copy_package(tmp_path, library=False)
    (tmp_path / "empty").mkdir()
    # numpy reads os.uname on Linux at import, so it is imported first
    kernels_used, popen, got, fits = _import_copy(
        tmp_path, src, [tmp_path / "empty"],
        prelude="import numpy, os, platform\ndel os.uname\n"
                "platform._uname_cache = None\n")
    assert (kernels_used, popen) == ("numpy", 0)
    want, want_fits = _numpy_matrices(monkeypatch)
    assert (got.view(np.uint64) == want.view(np.uint64)).all()
    assert fits == want_fits


@needs_compiled
def test_an_import_with_a_warm_cache_never_calls_the_compiler(
        tmp_path, monkeypatch):
    src = _copy_package(tmp_path, library=True)
    # a cc on PATH that would fail, were it called
    kernels_used, popen, got, fits = _import_copy(tmp_path, src,
                                            [_failing_cc(tmp_path)])
    assert (kernels_used, popen) == ("compiled", 0)
    want, want_fits = _numpy_matrices(monkeypatch)
    assert (got.view(np.uint64) == want.view(np.uint64)).all()
    assert fits == want_fits


@needs_compiled
def test_a_cold_cache_builds_once_and_replaces_stale_libraries(tmp_path):
    src = _copy_package(tmp_path, library=False)
    cache = src / "opfdist" / "__pycache__"
    cache.mkdir()
    (cache / "opfdist_kernels.0123.so").write_text("stale")
    path = os.environ.get("PATH", "").split(os.pathsep)
    kernels_used, popen, _, _ = _import_copy(tmp_path, src, path)
    # one compiler call builds the whole library
    assert (kernels_used, popen) == ("compiled", 1)
    built = sorted(p.name for p in cache.glob("opfdist_kernels.*"))
    assert built == [p.name for p in
                     (PACKAGE / "__pycache__").glob("opfdist_kernels.*.so")]
    assert _import_copy(tmp_path, src, path)[:2] == ("compiled", 0)
