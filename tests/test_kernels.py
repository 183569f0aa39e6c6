"""The measures' compiled loops: generation, build, cache and fallback."""
from __future__ import annotations

import ctypes
import inspect
import json
import os
import platform
import re
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
              "width, flip, share):\n"
              + textwrap.indent(textwrap.dedent(body), "    ")
              + "    return {}\n")
    return generate(source, eps=distances.EPS, exp_max=distances.EXP_MAX)


def test_generator_lowers_the_28_loop_functions():
    _, table = generate(inspect.getsource(distances._measures),
                        eps=distances.EPS, exp_max=distances.EXP_MAX)
    assert len(table) == 28
    assert all(e.keys() == {"name", "results"} for e in table)
    results = {e["name"]: e["results"] for e in table}
    # every result is (m, k), sum a^2 and sum b^2 too
    assert results["inner"] == 3
    assert results["exp_ratio"] == 2
    assert results["chebyshev"] == 1
    # D29 is D28 read as (y, x), and Topsoe's second sum D36's
    assert "pearson_chi2" not in results and "neyman_chi2" in results


def _compile(source: str, built: Path) -> ctypes.CDLL:
    """``source`` and ``FIT_C`` compiled and linked as ``_build`` does,
    with no warning, and loaded.  The warnings are not in FLAGS, where a
    warning from another compiler would silently drop the compiled
    path."""
    c_file = built.with_suffix(".c")
    c_file.write_text(source + "\n" + kernels.FIT_C)
    done = subprocess.run(
        ["cc", *kernels.FLAGS, "-Wall", "-Wextra", "-Werror", "-shared",
         "-o", str(built), str(c_file), "-lm"],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return ctypes.CDLL(str(built))


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_generated_c_compiles_without_warnings(tmp_path):
    source, _ = generate(inspect.getsource(distances._measures),
                         eps=distances.EPS, exp_max=distances.EXP_MAX)
    _compile(source, tmp_path / "lib.so")


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
    # in the table, but applied only to finished sums, so not lowered
    ("s += mul(a, b)", "unknown operation"),
    ("s += log(a)", "unknown operation"),
    # the loops compare only with != and add only with +=
    ("s += a < b", "unknown operation"),
    ("s -= a", "unknown augmented assignment"),
    ("s **= a", "unknown augmented assignment"),
    ("if a < b:\n    s += a", "unknown statement"),
    ("d = a - b", "never added to"),
    ("p, q = a, b\ns += p * q", "unknown assignment"),
    ("p = q = a\ns += p * q", "unknown assignment"),
    ("exp = a\ns += exp(b)", "name is assigned"),
    ("flip = a\ns += flip", "name is assigned"),
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
    ("def f(x, y):\n    s = 0.0\n    for a, b in pairs(x, y):\n"
     "        d = a - b\n        s += d\n    return d\n", "unknown name"),
    ("def f(x, y):\n    s = 0.0\n    for a, b in pairs(x, y):\n"
     "        s += abs(a - b)\n    return div(s, width(x))\n",
     "unknown operation"),
    # a tuple is returned only for more than one value
    ("def f(x, y):\n    s = 0.0\n    for a, b in pairs(x, y):\n"
     "        s += a\n    return (s,)\n", "at least two values"),
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


@needs_compiled
def test_the_sentinel_refuses_a_signed_zero_and_other_shapes():
    loops = kernels.load(distances._measures, eps=distances.EPS,
                         exp_max=distances.EXP_MAX)
    named = {}  # the numpy named sums, by name
    distances._measures(**dict(
        distances._BLOCK, share=lambda f: named.setdefault(f.__name__, f)))
    A, B = distances._sentinel_rows()
    with np.errstate(all="ignore"):  # the sentinel overflows on purpose
        got, want = loops["inner"](A, B), named["inner"](A, B)
        # a +0.0 distance, since B repeats rows of A
        assert (named["sq_diff"](A, B).view(np.uint64) == 0).any()
    # inner's sums a^2 and b^2: (m, k) compiled, a column and a row in numpy
    assert [g.shape for g in got] == [(7, 11)] * 3
    assert [w.shape for w in want] == [(7, 11), (7, 1), (1, 11)]
    assert distances._same_bits({"inner": loops["inner"]},
                                {"inner": named["inner"]})

    def negative_zero(X, Y):
        out = loops["sq_diff"](X, Y)
        out.flat[np.flatnonzero(out.view(np.uint64) == 0)[:1]] = -0.0
        return out
    for wrong in (negative_zero,
                  lambda X, Y: loops["sq_diff"](X, Y)[:, :1],
                  lambda X, Y: loops["sq_diff"](X, Y).T):
        assert not distances._same_bits({"sq_diff": wrong},
                                        {"sq_diff": named["sq_diff"]})
    assert not distances._same_bits(
        {"inner": lambda X, Y: tuple(g.T for g in loops["inner"](X, Y))},
        {"inner": named["inner"]})


@needs_compiled
def test_a_loop_returns_a_tuple_exactly_where_it_has_more_than_one_result():
    _, table = generate(inspect.getsource(distances._measures),
                        eps=distances.EPS, exp_max=distances.EXP_MAX)
    loops = kernels.load(distances._measures, eps=distances.EPS,
                         exp_max=distances.EXP_MAX)
    A, B = np.ones((3, 2)), np.ones((5, 2))
    for e in table:
        got = loops[e["name"]](A, B)
        if e["results"] > 1:
            assert type(got) is tuple and len(got) == e["results"], e
            assert [g.shape for g in got] == [(3, 5)] * e["results"], e
        else:
            assert type(got) is np.ndarray and got.shape == (3, 5), e


def _library_loops(lib) -> dict:
    """name -> block function of each loop of the library ``lib``, through
    its ``opf_meta`` table, as ``kernels.load`` wraps them."""
    table = json.loads(ctypes.c_char_p.in_dll(lib, "opf_meta").value)
    return {e["name"]: kernels._wrap(getattr(lib, "opf_" + e["name"]), e)
            for e in table}


def _loop_copy(lib) -> str:
    lib.opf_loop_copy.restype = ctypes.c_char_p
    return lib.opf_loop_copy().decode()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_the_avx2_and_baseline_copies_agree_bit_for_bit(tmp_path):
    # the sentinel and the oracles test only the copy this CPU runs: build
    # the same source with the clones compiled out, and compare it with
    # the package's library (which the sentinel may have refused) on
    # blocks of zeros of both signs, ties, subnormals, huge values,
    # infinities and NaN
    source, _ = generate(inspect.getsource(distances._measures),
                         eps=distances.EPS, exp_max=distances.EXP_MAX)
    cloned = "#define OPF_CLONED 1\n"
    assert source.count(cloned) == 1
    path = kernels.cache_path(distances._measures)
    package = (ctypes.CDLL(str(path)) if path.exists()
               else _compile(source, tmp_path / "package.so"))
    baseline = _compile(source.replace(cloned, ""), tmp_path / "baseline.so")
    assert _loop_copy(package) in ("avx2", "default")
    if distances.KERNELS == "compiled":
        assert _loop_copy(package) == distances.LOOP_COPY
    assert _loop_copy(baseline) == "default"
    got, want = _library_loops(package), _library_loops(baseline)
    assert sorted(got) == sorted(want) and len(got) == 28

    rng = np.random.default_rng(34)
    # and values whose products and quotients round
    values = np.concatenate([
        [0.0, -0.0, 0.0, 5e-324, -2.5e-310, 1e-300, 1e300, -1e300, np.inf,
         -np.inf, np.nan, 1.0, 1.0, -3.0, 499.0, 501.0],
        rng.uniform(0.0, 2.0, 16), rng.uniform(-1.0, 1.0, 4)])
    tilings = set()
    for d in (1, 3, 13, 50):
        A = rng.choice(values, (11, d))
        # ties: B repeats rows of A
        B = np.vstack([A[::3], rng.choice(values, (6, d))])
        cases = [(A, B), (A[:5], B), (A[:7], B[:5]), (A, B[:2]),
                 (A[:1], B), (B, A[:1]), (A[::-2], B[1::2, ::-1]),
                 (np.asfortranarray(A[:6]), B[::-1])]
        for X, Y in cases:
            m, k = len(X), len(Y)
            tilings.add(-(-k // kernels.TILE) * m > -(-m // kernels.TILE) * k)
            with np.errstate(all="ignore"):
                for name in got:
                    g, w = got[name](X, Y), want[name](X, Y)
                    g, w = (g, w) if isinstance(g, tuple) else ((g,), (w,))
                    for x, y in zip(g, w, strict=True):
                        # NaN equals NaN, as on the sentinel: a sum of two
                        # NaNs may keep either payload
                        same = ((x.view(np.uint64) == y.view(np.uint64))
                                | (np.isnan(x) & np.isnan(y)))
                        assert x.shape == y.shape and same.all(), \
                            (name, d, X.shape, X.strides, Y.strides)
    assert tilings == {True, False}


# --- the C helpers ----------------------------------------------------------

HELPER_LOOP = """
OPF_CLONES void t_{fn}(const double *x, const double *y, double *out, long n)
{{
    for (long i = 0; i < n; i++)
        out[i] = {fn}(x[i], y[i]);
}}
"""


def _helpers() -> str:
    return kernels._HELPERS.format(
        tile=kernels.TILE, eps=kernels._c_const(distances.EPS.hex()),
        exp_max=kernels._c_const(distances.EXP_MAX.hex()))


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
@pytest.mark.parametrize("fn", ["opf_div", "opf_div_masked"],
                         ids=["branching", "masked"])
def test_the_helpers_give_the_scalar_bits(tmp_path, fn):
    lib = _compile(_helpers() + HELPER_LOOP.format(fn=fn),
                   tmp_path / "helpers.so")
    values = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300,
              -1e300, np.inf, -np.inf, np.nan)
    pairs = [(p, q) for p in values for q in values]
    x, y = np.array(pairs).T
    c_fn = getattr(lib, "t_" + fn)
    c_fn.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_long]
    c_fn.restype = None
    want = np.array([distances._div(p, q) for p, q in pairs])
    # each pair in each lane of an AVX2 vector, and in the scalar tail
    for start in range(4):
        X, Y, W = x[start:].copy(), y[start:].copy(), want[start:]
        got = np.empty_like(X)
        c_fn(X.ctypes.data, Y.ctypes.data, got.ctypes.data, len(X))
        same = ((got.view(np.uint64) == W.view(np.uint64))
                | (np.isnan(got) & np.isnan(W)))
        assert same.all(), (fn, start, list(zip(X[~same], Y[~same])))


def test_every_helper_is_called_by_a_generated_loop():
    # -Wall does not warn about an unused static inline function, so a
    # helper whose last caller is gone would stay unseen
    source, _ = generate(inspect.getsource(distances._measures),
                         eps=distances.EPS, exp_max=distances.EXP_MAX)
    helpers = _helpers()
    assert source.startswith(helpers)
    starts = list(re.finditer(r"^static inline \w+ (\w+)\(", helpers, re.M))
    bodies = {m[1]: helpers[m.end():end] for m, end in zip(
        starts, [m.start() for m in starts[1:]] + [len(helpers)])}

    def calls(text):
        return {h for h in bodies if re.search(rf"\b{h}\(", text)}
    used, todo = set(), calls(source[len(helpers):])
    while todo:
        h = todo.pop()
        used.add(h)
        todo |= calls(bodies[h]) - used
    assert {"opf_div", "opf_bits"} <= used
    assert set(bodies) - used == set()


def test_the_generator_picks_each_loops_div_helper(monkeypatch):
    def loops():
        """name -> C text of each generated loop function"""
        source, _ = generate(inspect.getsource(distances._measures),
                             eps=distances.EPS, exp_max=distances.EXP_MAX)
        return {name: text for text, name in re.findall(
            r"(^OPF_CLONES int opf_(\w+)\(.*?^}\n)", source, re.M | re.S)}
    chosen = loops()
    assert len(chosen) == 28
    for name, text in chosen.items():
        if "opf_exp(" in text:
            assert "_masked(" not in text, name
        else:
            assert "opf_div(" not in text, name
    assert sum("_masked(" in text for text in chosen.values()) == 17
    assert all("opf_div(" in chosen[name]
               for name in ("k_divergence", "exp_ratio"))
    # the loops that call neither helper are the same text either way:
    # noise-fit runs only sq_diff (D3)
    monkeypatch.setattr(kernels, "_swapped_helpers",
                        lambda loop: kernels._MASKED)
    all_masked = loops()
    monkeypatch.setattr(kernels, "_swapped_helpers", lambda loop: {})
    all_branching = loops()
    plain = {name for name, text in all_branching.items()
             if "opf_div(" not in text}
    assert plain == {"sq_diff", "abs_diff", "inner", "sqrt_diff", "chebyshev",
                     "hamming", "lorentzian", "bhattacharyya", "jensen"}
    for name in plain:
        assert chosen[name] == all_masked[name] == all_branching[name], name


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
