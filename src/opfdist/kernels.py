"""The measures' per-feature loops, compiled to C from their one definition.

``distances._measures`` writes each measure once, over a table of
operations.  Of its functions, 28 hold a ``for a, b in pairs(x, y)``
loop: the 8 named sums and 20 other measures.  ``generate``
reads the source of ``_measures`` (its AST) and lowers each of them to
one C function that evaluates it on every pair of rows of two matrices,
as the block table ``distances._BLOCK`` defines it:

* Python float arithmetic (``+ - * /``, unary minus) on float constants,
  one operation per C expression, so that each rounds once, in the same
  order (``-ffp-contract=off`` keeps a product and a sum apart);
* ``abs``, and ``!=``, which adds 1.0 or 0.0 to a sum;
* ``div``, ``exp``, ``sqrt``, ``root``, ``lo`` and ``hi``, with the
  conditionals of their scalar form; ``exp`` calls libm, as
  ``math.exp`` does.

These are the operations that the 28 loops call, and a sum grows only
by ``+=``.  Any other construct raises ``Refused``, ``mul``, ``log``
and ``width`` included: the measures apply them only to finished sums,
in Python.  Every result is the (m, k) matrix: every sum accumulates per
pair, feature by feature in component order, so each entry is the block
form's, bit for bit.  Where the block form returns a column or a row (a
sum over one argument only, ``sum a^2``), each entry sums the same terms
in the same order.  A loop that returns more than one value returns a
tuple of them, and one value alone.

The pairs run in tiles of ``TILE`` entries of one side, with the
features inside, so that a tile's sums stay in locals: one pass over the
features, where numpy makes one pass per operation.  Each function picks
the tiled side from m and k, the side that pads fewer pairs.  Terms of
one argument alone are computed once per entry of that argument, not
once per pair.

``div`` has two C helpers with the same bits.  ``opf_div`` branches as
the scalar form does; under the trapping math of ``FLAGS`` gcc keeps
that branch as control flow and leaves the loop that calls it scalar.  ``opf_div_masked`` always divides (by ``EPS``
where the divisor is a zero), then masks the quotient's bits to +0.0
where the scalar form returns 0, and gcc vectorizes those loops.
``_swapped_helpers`` picks the ``div`` of each loop: the masked one,
except in the loops that call ``exp``, where it measured slower.

One more part, ``FIT_C``, is written by hand, since it does not depend
on the measures: Prim and the competition over a cached stack of
matrices, which ``forest`` runs in place of its numpy loops where the
compiled loops are in use.  It only compares and selects finite
doubles, so no rounding can change its result.

``load`` builds the C once, the generated source and ``FIT_C`` as one
file in one call of the system ``cc`` (``FLAGS``: ``-O2 -fno-fast-math
-ffp-contract=off``, and ``exp`` from libm), into this package's
``__pycache__``, as one library under a name that hashes
the source of this module and of the measures' module with the machine,
and calls it through ctypes.  The library is written to a temporary name
and renamed into place, so a reader never sees a partial file.  An
import that finds it parses, generates and compiles nothing.

On x86_64 with glibc, where the compiler knows ``target_clones``, each
generated loop is compiled twice in that one call: an AVX2 copy and a
baseline copy.  The loader picks one by CPU when the library loads (an
ifunc), and the library's ``opf_loop_copy`` names it, "avx2" or
"default".  Elsewhere only the baseline copy is built.  The bits are
the same: both copies run the same C under ``FLAGS``, so nothing is
contracted or reassociated; AVX2 does not imply FMA; add, sub, mul, div
and sqrt round each lane as SSE2 rounds it; ``exp`` stays a scalar
libm call; and each pair still sums feature by feature in order.  The
C Prim and competition are not cloned: their argmin tracking does not
vectorize, and a clone measured no faster.

``load`` returns None where there is no compiler, the cache cannot be
written or the build fails; ``distances`` then keeps its numpy block
form, which it also keeps when the compiled loops differ from it on a
sentinel block.  No setting selects the path.
"""

from __future__ import annotations

import ast
import ctypes
import hashlib
import inspect
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path
from typing import Callable

import numpy as np

FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-fno-builtin-exp",
         "-fPIC")
# Pairs per tile of one side; a tile's sums stay in locals.
TILE = 4
# The calling convention of every loop function: two row matrices with
# their strides in elements, the sizes, then one output pointer per
# (m, k) result.
_PARAMS = (("const double *A", ctypes.c_void_p), ("long as0", ctypes.c_long),
           ("long as1", ctypes.c_long), ("const double *B", ctypes.c_void_p),
           ("long bs0", ctypes.c_long), ("long bs1", ctypes.c_long),
           ("long m", ctypes.c_long), ("long k", ctypes.c_long),
           ("long d", ctypes.c_long))

_HERE = Path(__file__).resolve()


class Refused(ValueError):
    """The generator met a construct it does not know how to lower."""


# name in the table of operations -> (arity, C function), for the
# operations that the loops call
_CALLS = {"abs": (1, "fabs"), "div": (2, "opf_div"), "exp": (1, "opf_exp"),
          "sqrt": (1, "opf_sqrt"), "root": (1, "sqrt"),
          "lo": (2, "opf_lo"), "hi": (2, "opf_hi")}
_BINOPS = {"Add": "+", "Sub": "-", "Mult": "*", "Div": "/"}
# every name of the table, which a loop may not assign
_OPERATIONS = {*_CALLS, "mul", "log", "width", "pairs", "flip", "share"}


class _Loop:
    """One loop function lowered to a graph of operations.

    Nodes are interned tuples: ("a",), ("b",), ("const", hex), ("acc",
    name) (a sum's value before this feature), ("fin", name) (its value
    after the loop), ("bin", op, x, y), ("neg", x), ("cmp", op, x, y) and
    ("call", c_function, *args).  ``deps[node]`` names the leaves that a
    node reads: "a", "b", "acc" and "fin".  Each of ``returns`` is one
    (m, k) result.
    """

    def __init__(self, fn):
        self.name = fn.name
        self.where = f"{fn.name} (line {fn.lineno})"
        self.nodes: list[tuple] = []
        self.ids: dict[tuple, int] = {}
        self.deps: list[frozenset] = []
        self._lower(fn)

    def refuse(self, node, what: str):
        code = "" if node is None else f": {ast.unparse(node)}"
        raise Refused(f"{self.where}: {what}{code}")

    def node(self, *key) -> int:
        if key not in self.ids:
            op = key[0]
            if op in ("a", "b", "acc", "fin"):
                deps = frozenset([op])
            elif op == "const":
                deps = frozenset()
            else:
                deps = frozenset().union(
                    *(self.deps[k] for k in key if type(k) is int))
            self.ids[key] = len(self.nodes)
            self.nodes.append(key)
            self.deps.append(deps)
        return self.ids[key]

    def _lower(self, fn):
        for d in fn.decorator_list:
            if not (isinstance(d, ast.Name) and d.id == "share"):
                self.refuse(d, "unknown decorator")
        args = fn.args
        if (args.posonlyargs or args.kwonlyargs or args.vararg or args.kwarg
                or args.defaults or len(args.args) != 2):
            self.refuse(None, "a measure takes (x, y)")
        x, y = (a.arg for a in args.args)
        body = list(fn.body)
        init: dict[str, float] = {}
        while body and isinstance(body[0], ast.Assign):
            stmt = body.pop(0)
            if not (isinstance(stmt.value, ast.Constant)
                    and type(stmt.value.value) is float):
                self.refuse(stmt, "a sum starts at a float constant")
            for t in stmt.targets:
                if not isinstance(t, ast.Name):
                    self.refuse(stmt, "unknown assignment")
                init[t.id] = stmt.value.value
        if (len(body) != 2 or not isinstance(body[0], ast.For)
                or not isinstance(body[1], ast.Return)):
            self.refuse(fn, "expected sums, one loop and a return")
        loop, ret = body
        it = loop.iter
        if not (isinstance(loop.target, ast.Tuple)
                and len(loop.target.elts) == 2
                and all(isinstance(e, ast.Name) for e in loop.target.elts)
                and isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "pairs" and not it.keywords
                and [getattr(a, "id", None) for a in it.args] == [x, y]
                and not loop.orelse):
            self.refuse(loop, "expected for a, b in pairs(x, y)")
        a, b = (e.id for e in loop.target.elts)
        env = {name: self.node("acc", name) for name in init}
        env[a], env[b] = self.node("a"), self.node("b")
        for stmt in loop.body:
            self._statement(stmt, env)
        self.init = init
        self.update = {}
        for name in init:
            if env[name] == self.node("acc", name):
                self.refuse(loop, f"{name} is never added to")
            self.update[name] = env[name]
        env = {name: self.node("fin", name) for name in init}
        if ret.value is None:
            self.refuse(ret, "a measure returns a value")
        items = (ret.value.elts if isinstance(ret.value, ast.Tuple)
                 else [ret.value])
        if isinstance(ret.value, ast.Tuple) and len(items) < 2:
            self.refuse(ret, "a tuple returns at least two values")
        self.returns = [self._expr(e, env) for e in items]

    def _statement(self, stmt, env):
        if isinstance(stmt, ast.AugAssign):
            t = stmt.target
            if (not isinstance(t, ast.Name) or t.id not in env
                    or not isinstance(stmt.op, ast.Add)):
                self.refuse(stmt, "unknown augmented assignment")
            env[t.id] = self.node("bin", "+", env[t.id],
                                  self._expr(stmt.value, env))
        elif isinstance(stmt, ast.Assign):
            t = stmt.targets[0]
            if len(stmt.targets) != 1 or not isinstance(t, ast.Name):
                self.refuse(stmt, "unknown assignment")
            if t.id in _OPERATIONS:
                self.refuse(stmt, "an operation's name is assigned")
            env[t.id] = self._expr(stmt.value, env)
        else:
            self.refuse(stmt, "unknown statement")

    def _expr(self, e, env) -> int:
        if isinstance(e, ast.Name):
            if e.id not in env:
                self.refuse(e, "unknown name")
            return env[e.id]
        if isinstance(e, ast.Constant) and type(e.value) is float:
            return self.node("const", e.value.hex())
        if isinstance(e, ast.BinOp) and type(e.op).__name__ in _BINOPS:
            return self.node("bin", _BINOPS[type(e.op).__name__],
                             self._expr(e.left, env),
                             self._expr(e.right, env))
        if isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub):
            return self.node("neg", self._expr(e.operand, env))
        if (isinstance(e, ast.Compare) and len(e.ops) == 1
                and isinstance(e.ops[0], ast.NotEq)):
            return self.node("cmp", "!=", self._expr(e.left, env),
                             self._expr(e.comparators[0], env))
        if (isinstance(e, ast.Call) and isinstance(e.func, ast.Name)
                and not e.keywords
                and not any(isinstance(a, ast.Starred) for a in e.args)):
            name = e.func.id
            if name in _CALLS and len(e.args) == _CALLS[name][0]:
                return self.node("call", _CALLS[name][1],
                                 *(self._expr(a, env) for a in e.args))
        self.refuse(e, "unknown operation")


# --- C ----------------------------------------------------------------------

_HELPERS = """\
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* an AVX2 copy and a baseline copy of each loop, one picked by the loader
   (an ifunc, so glibc only; math.h has defined __GLIBC__ there) */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define OPF_CLONED 1
#endif
#endif
#ifdef OPF_CLONED
#define OPF_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define OPF_CLONES
#endif

/* the copy of the loops that the loader picked on this CPU */
const char *opf_loop_copy(void)
{{
#ifdef OPF_CLONED
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? "avx2" : "default";
#else
    return "default";
#endif
}}

#define TILE {tile}
static const double EPS = {eps};
static const double EXP_MAX = {exp_max};

static inline double opf_div(double n, double d)
{{
    if (d == 0.0)
        return n == 0.0 ? 0.0 : n / EPS;
    return n / d;
}}

/* opf_div, branch free: it computes the quotient always, then masks
   its bits.  A zero mask is all ones where v is +0.0 or -0.0. */
static inline uint64_t opf_bits(double v)
{{
    uint64_t u;
    memcpy(&u, &v, sizeof u);
    return u;
}}
static inline double opf_double(uint64_t u)
{{
    double v;
    memcpy(&v, &u, sizeof v);
    return v;
}}
static inline uint64_t opf_zero_mask(double v)
{{
    return -(uint64_t)((opf_bits(v) << 1) == 0);
}}
static inline double opf_div_masked(double n, double d)
{{
    const uint64_t dz = opf_zero_mask(d);
    const double q = n / opf_double((opf_bits(d) & ~dz) | (opf_bits(EPS) & dz));
    return opf_double(opf_bits(q) & ~(dz & opf_zero_mask(n)));
}}
static inline double opf_exp(double t) {{ return exp(t > EXP_MAX ? EXP_MAX : t); }}
static inline double opf_sqrt(double v) {{ return v < 0.0 ? 0.0 : sqrt(v); }}
static inline double opf_lo(double p, double q) {{ return p < q ? p : q; }}
static inline double opf_hi(double p, double q) {{ return p > q ? p : q; }}
"""


# Which loops call the bit-mask opf_div_masked in place of the branching
# opf_div.  Both give the same bits, but under trapping math (FLAGS) gcc
# keeps the branch's ?: as control flow, and leaves a loop that calls it
# scalar ("not vectorized: control flow in loop"); the masks let it
# vectorize.  Loops that call exp keep the branching helper: their libm
# calls stay scalar, and the masks measured slower there (one code's
# 100 x 600 block, d=200, one CPU, AVX2 copy, gcc 12, min of 3 rounds):
# D35 went from 185 to 244 ms, D38 from 190 to 243 ms and D36 from 93 to
# 121 ms.
_MASKED = {"opf_div": "opf_div_masked"}


def _swapped_helpers(loop: _Loop) -> dict[str, str]:
    """C helper -> the helper that ``loop``'s C calls in its place."""
    calls = {key[1] for key in loop.nodes if key[0] == "call"}
    return {} if "opf_exp" in calls else _MASKED


def _c_const(h: str) -> str:
    # C99 hex float literal, exact
    return h if h[0] != "-" else f"(-{h[1:]})"


class _Emitter:
    def __init__(self, loop: _Loop):
        self.loop = loop
        self.calls = _swapped_helpers(loop)

    def expr(self, k: int, leaf) -> str:
        key = self.loop.nodes[k]
        got = leaf(k)
        if got is not None:
            return got
        if key[0] == "const":
            return _c_const(key[1])
        return f"v{k}"

    def define(self, k: int, leaf) -> str:
        key = self.loop.nodes[k]
        op, args = key[0], key[1:]
        e = lambda i: self.expr(i, leaf)  # noqa: E731
        if op == "bin":
            body = f"{e(args[1])} {args[0]} {e(args[2])}"
        elif op == "neg":
            body = f"-{e(args[0])}"
        elif op == "cmp":
            body = f"(double)({e(args[1])} {args[0]} {e(args[2])})"
        else:
            fn = self.calls.get(args[0], args[0])
            body = f"{fn}({', '.join(e(i) for i in args[1:])})"
        return f"const double v{k} = {body};"

    def closure(self, roots, stop) -> list[int]:
        """Nodes the roots need, in dependency order, not crossing
        ``stop(k)`` (leaves and values computed elsewhere)."""
        seen: set[int] = set()
        order: list[int] = []

        def visit(k):
            if k in seen or stop(k):
                return
            seen.add(k)
            for c in self.loop.nodes[k][1:]:
                if type(c) is int:
                    visit(c)
            order.append(k)
        for r in roots:
            visit(r)
        return order

    def lines(self, nodes, leaf) -> list[str]:
        return [self.define(k, leaf) for k in nodes]


def _is_leaf(key) -> bool:
    return key[0] in ("a", "b", "const", "acc", "fin")


def _function(L: _Loop) -> str:
    em = _Emitter(L)
    nests = [_pair_nest(L, em, t) for t in (True, False)]
    bufs = [b for _, new in nests for b in new]
    body = ["if (tile_a) {", *("    " + ln for ln in nests[0][0]),
            "} else {", *("    " + ln for ln in nests[1][0]), "}"]
    outs = [f"double *out{q}" for q in range(len(L.returns))]
    params = ", ".join([p for p, _ in _PARAMS] + outs)
    # tile the side that pads fewer pairs, in long long, which holds the
    # products where a long is 32 bits (Windows)
    src = [f"OPF_CLONES int opf_{L.name}({params})", "{", "    int rc = -1;",
           "    const int tile_a = (long long)((k + TILE - 1) / TILE) * m > "
           "(long long)((m + TILE - 1) / TILE) * k;"]
    src += [f"    double *{b} = NULL;" for b in bufs]
    src += ["    " + ln for ln in body]
    src += ["    rc = 0;", "done:"]
    src += [f"    free({b});" for b in bufs]
    src += ["    return rc;", "}", ""]
    return "\n".join(src)


def _pair_nest(L: _Loop, em: _Emitter, tile_a: bool):
    """The loops over pairs, and the buffers they allocate: for each row of
    the untiled side, for each tile of TILE entries of the tiled side, the
    features, with the tile's sums in locals, then the tile's results.
    The tiled side is copied into tile-major order, zero padded; its
    one-argument terms are computed there, once per entry."""
    # side: (letter, index, count, matrix, strides)
    tiled = ("a", "i", "m", "A", "as0", "as1") if tile_a else \
        ("b", "j", "k", "B", "bs0", "bs1")
    outer = ("b", "j", "k", "B", "bs0", "bs1") if tile_a else \
        ("a", "i", "m", "A", "as0", "as1")
    ts, ti, tn, TM, t0, t1 = tiled
    os_, oi, on, OM, o0, o1 = outer
    sums = list(L.init)
    leafkey = lambda k: _is_leaf(L.nodes[k])  # noqa: E731
    every = em.closure([L.update[n] for n in sums], leafkey)
    # terms of the tiled side alone become tables; of the outer side
    # alone (or of constants), locals per feature
    alone = [k for k in every if L.deps[k] == frozenset([ts])]
    hoist = [k for k in every if L.deps[k] <= frozenset([os_])]
    inner = [k for k in every if k not in alone and k not in hoist]
    # of those, the tables are the ones that the pair terms read
    read = {c for k in inner for c in L.nodes[k][1:] if type(c) is int}
    table = [k for k in alone if k in read]
    tables = {k: f"h{ts}{k}" for k in table}

    def prep_leaf(k):
        return ts if L.nodes[k][0] == ts else None

    def pair_leaf(k):
        key = L.nodes[k]
        if key[0] == ts:
            return f"{ts}t[p + t]"
        if k in tables:
            return f"{tables[k]}[p + t]"
        if key[0] == os_:
            return os_
        if key[0] == "acc":
            return f"s_{key[1]}[t]"
        return None

    def fin_leaf(k):
        key = L.nodes[k]
        return f"s_{key[1]}[t]" if key[0] == "fin" else None

    bufs = [f"{ts}t", *tables.values()]
    src = [f"const long nt = ({tn} + TILE - 1) / TILE;"]
    src += [f"{b} = malloc(sizeof(double) * (nt * d * TILE + 1));"
            for b in bufs]
    src += [f"if ({' || '.join('!' + b for b in bufs)})", "    goto done;",
            "for (long tt = 0; tt < nt; tt++)",
            "    for (long f = 0; f < d; f++)",
            "        for (int t = 0; t < TILE; t++) {",
            f"            const long {ti} = tt * TILE + t;",
            "            const long p = (tt * d + f) * TILE + t;",
            f"            const double {ts} = {ti} < {tn} ? "
            f"{TM}[{ti} * {t0} + f * {t1}] : 0.0;",
            f"            {ts}t[p] = {ts};"]
    prep = em.closure(table, leafkey)
    src += ["            " + ln for ln in em.lines(prep, prep_leaf)]
    src += [f"            {tables[k]}[p] = v{k};" for k in table]
    src += ["        }",
            f"for (long {oi} = 0; {oi} < {on}; {oi}++)",
            "    for (long tt = 0; tt < nt; tt++) {"]
    src += [f"        double s_{n}[TILE];" for n in sums]
    src.append("        for (int t = 0; t < TILE; t++) {")
    src += [f"            s_{n}[t] = {_c_const(L.init[n].hex())};"
            for n in sums]
    src.append("        }")
    src += ["        for (long f = 0; f < d; f++) {",
            f"            const double {os_} = {OM}[{oi} * {o0} + f * {o1}];",
            "            const long p = (tt * d + f) * TILE;"]
    src += ["            " + ln for ln in em.lines(hoist, pair_leaf)]
    src.append("            for (int t = 0; t < TILE; t++) {")
    src += ["                " + ln for ln in em.lines(inner, pair_leaf)]
    src += [f"                s_{n}[t] = {em.expr(L.update[n], pair_leaf)};"
            for n in sums]
    src += ["            }", "        }",
            "        for (int t = 0; t < TILE; t++) {",
            f"            const long {ti} = tt * TILE + t;",
            f"            if ({ti} >= {tn})",
            "                break;"]
    fin = em.closure(L.returns, leafkey)
    src += ["            " + ln for ln in em.lines(fin, fin_leaf)]
    src += [f"            out{q}[i * k + j] = {em.expr(r, fin_leaf)};"
            for q, r in enumerate(L.returns)]
    src += ["        }", "    }"]
    return src, bufs


def generate(source: str, *, eps: float,
             exp_max: float) -> tuple[str, list]:
    """One C source for the loop functions in ``source`` (the text of
    ``_measures``): the helpers, one function per loop and the table
    ``opf_meta``; and that table: one entry per function, with its name
    and its number of (m, k) results.  Raises ``Refused`` on any construct
    it does not know."""
    tree = ast.parse(textwrap.dedent(source))
    (outer,) = tree.body
    loops = [_Loop(fn) for fn in outer.body
             if isinstance(fn, ast.FunctionDef)
             and any(isinstance(s, ast.For) for s in ast.walk(fn))]
    table = [{"name": L.name, "results": len(L.returns)} for L in loops]
    meta = json.dumps(table).replace("\\", "\\\\").replace('"', '\\"')
    helpers = _HELPERS.format(tile=TILE, eps=_c_const(eps.hex()),
                              exp_max=_c_const(exp_max.hex()))
    functions = "\n".join(_function(L) for L in loops)
    return (f'{helpers}\n{functions}\n'
            f'const char *const opf_meta = "{meta}";\n'), table


# Prim and the competition (``forest._mst_parents`` and ``forest._compete``)
# over the first k matrices of a C-ordered (k', n, n) stack, k <= k', each
# matrix alone.  Extraction takes the first minimum key (strict <), a
# settled node reads +inf, and a node changes only on a strict
# improvement.  The next extraction is found in the pass that relaxes the
# row, once every key of that step is final.  Arcs are finite, so the
# comparisons are the numpy loops' comparisons.
FIT_C = """\
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

int opf_prim(const double *stack, int64_t k, int64_t n, int64_t *parent)
{
    double *key = malloc(sizeof(double) * n);
    char *open = malloc(n);
    if (!key || !open) {
        free(key);
        free(open);
        return -1;
    }
    for (int64_t at = 0; at < k; at++) {
        const double *arcs = stack + at * n * n;
        int64_t *par = parent + at * n;
        for (int64_t v = 0; v < n; v++) {
            key[v] = INFINITY;
            open[v] = 1;
            par[v] = -1;
        }
        int64_t u = 0;  /* the root */
        for (int64_t step = 0; step < n; step++) {
            const double *row = arcs + u * n;
            int64_t next = 0;
            double best = INFINITY;
            open[u] = 0;
            key[u] = INFINITY;
            for (int64_t v = 0; v < n; v++) {
                if (open[v] && row[v] < key[v]) {
                    key[v] = row[v];
                    par[v] = u;
                }
                if (key[v] < best) {
                    best = key[v];
                    next = v;
                }
            }
            u = next;
        }
    }
    free(key);
    free(open);
    return 0;
}

/* cost holds the starting costs (0 at prototypes, +inf elsewhere) */
int opf_compete(const double *stack, int64_t k, int64_t n, double *cost,
                int64_t *pred, int64_t *order)
{
    double *key = malloc(sizeof(double) * n);
    if (!key)
        return -1;
    for (int64_t at = 0; at < k; at++) {
        const double *arcs = stack + at * n * n;
        double *c = cost + at * n;
        int64_t *p = pred + at * n;
        int64_t *o = order + at * n;
        int64_t s = 0;
        for (int64_t v = 0; v < n; v++) {
            key[v] = c[v];
            p[v] = -1;
            if (key[v] < key[s])
                s = v;
        }
        for (int64_t step = 0; step < n; step++) {
            const double *row = arcs + s * n;
            const double cs = key[s];
            int64_t next = 0;
            double best = INFINITY;
            key[s] = INFINITY;
            o[step] = s;
            for (int64_t t = 0; t < n; t++) {
                const double offer = row[t] > cs ? row[t] : cs;
                if (offer < c[t]) {
                    c[t] = offer;
                    key[t] = offer;
                    p[t] = s;
                }
                if (key[t] < best) {
                    best = key[t];
                    next = t;
                }
            }
            s = next;
        }
    }
    free(key);
    return 0;
}
"""


# --- build, cache and load ---------------------------------------------------


def cache_path(measures: Callable) -> Path:
    """The library built from ``measures``: its name hashes the bytes of
    this module (``FLAGS`` and ``TILE`` included) and of the module that
    defines ``measures``, and the machine."""
    h = hashlib.sha256()
    for path in (_HERE, inspect.getfile(measures)):
        h.update(Path(path).read_bytes())
    # platform.machine() is os.uname().machine on POSIX and also exists
    # where os.uname does not (Windows)
    h.update(repr((sys.platform, platform.machine())).encode())
    return (_HERE.parent / "__pycache__"
            / f"opfdist_kernels.{h.hexdigest()[:24]}.so")


def _build(measures: Callable, path: Path, *, eps: float,
           exp_max: float) -> bool:
    """Generate the C of ``measures``' loops, compile it with ``FIT_C`` as
    one source in one call of the system ``cc`` (``cc FLAGS -shared -o
    lib src.c -lm``), and rename the library into ``path``; False where
    there is no ``cc``, the generator refuses, or writing or compiling
    fails.  Libraries beside it with its prefix and another hash are
    removed."""
    cc = shutil.which("cc")
    if cc is None:
        return False
    try:
        source, _ = generate(inspect.getsource(measures), eps=eps,
                             exp_max=exp_max)
        path.parent.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
            c_file, built = Path(tmp) / "src.c", Path(tmp) / path.name
            c_file.write_text(source + "\n" + FIT_C)
            if subprocess.run(
                    [cc, *FLAGS, "-shared", "-o", str(built), str(c_file),
                     "-lm"], stdin=subprocess.DEVNULL, capture_output=True,
                    timeout=600).returncode:
                return False
            os.replace(built, path)
        prefix = path.name.split(".")[0]
        for stale in path.parent.glob(prefix + ".*.so"):
            if stale != path:
                stale.unlink(missing_ok=True)
    except (OSError, subprocess.SubprocessError, Refused):
        return False
    return True


def load(measures: Callable, *, eps: float,
         exp_max: float) -> dict[str, Callable] | None:
    """name -> compiled block function of every loop function of
    ``measures`` (``distances._measures``), "prim" and "compete" (see
    ``FIT_C``), and "loop_copy", built on first use; None where there is
    no compiler, the cache cannot be written or the build fails.

    A block function takes two float64 row matrices A (m, d) and B (k, d),
    of any strides, and returns the (m, k) matrix, or a tuple of them
    where the measure returns more than one value.  Where the numpy block
    form returns a column (m, 1) or a row (1, k) (a sum over one
    argument), each of its columns or rows holds that column's or row's
    bits.

    ``prim(stack, k)`` returns the (k, n) Prim parents, -1 at each root,
    of the first k matrices of a C-ordered float64 (k', n, n) stack, and
    ``compete(stack, k, proto)`` the (k, n) costs, predecessors (-1 at the
    prototypes) and settling order of their competition from the (k, n)
    prototype mask ``proto``, as ``forest``'s numpy loops return them.

    ``loop_copy()`` returns the copy of the loops that the loader picked
    on this CPU: "avx2" or "default".
    """
    try:
        path = cache_path(measures)
        if not path.exists() and not _build(measures, path, eps=eps,
                                            exp_max=exp_max):
            return None
        lib = ctypes.CDLL(str(path))
        table = json.loads(ctypes.c_char_p.in_dll(lib, "opf_meta").value)
    except OSError:
        return None
    loops = {e["name"]: _wrap(getattr(lib, "opf_" + e["name"]), e)
             for e in table}
    loop_copy = lib.opf_loop_copy
    loop_copy.argtypes, loop_copy.restype = [], ctypes.c_char_p
    return {**loops, **_fit_functions(lib),
            "loop_copy": lambda: loop_copy().decode()}


def _wrap(fn, entry) -> Callable:
    """The block function of the library's loop function ``fn``, whose
    ``opf_meta`` entry is ``entry``: it allocates the entry's number of
    (m, k) results and returns them, as a tuple where there are more than
    one."""
    results = entry["results"]
    fn.argtypes = [t for _, t in _PARAMS] + [ctypes.c_void_p] * results
    fn.restype = ctypes.c_int

    def block(A: np.ndarray, B: np.ndarray):
        if A.strides[0] % 8 or A.strides[1] % 8:
            A = np.ascontiguousarray(A)
        if B.strides[0] % 8 or B.strides[1] % 8:
            B = np.ascontiguousarray(B)
        (m, d), k = A.shape, len(B)
        outs = [np.empty((m, k)) for _ in range(results)]
        if fn(A.ctypes.data, A.strides[0] // 8, A.strides[1] // 8,
              B.ctypes.data, B.strides[0] // 8, B.strides[1] // 8,
              m, k, d, *(o.ctypes.data for o in outs)):
            raise MemoryError(f"{entry['name']}: no memory for the tiles")
        return tuple(outs) if results > 1 else outs[0]

    block.__name__ = block.__qualname__ = entry["name"]
    return block


def _fit_functions(lib) -> dict[str, Callable]:
    """"prim" and "compete" of ``load``, on ``FIT_C``'s two functions."""
    ptr, index = ctypes.c_void_p, ctypes.c_int64
    c_prim, c_compete = lib.opf_prim, lib.opf_compete
    c_prim.argtypes = [ptr, index, index, ptr]
    c_compete.argtypes = [ptr, index, index, ptr, ptr, ptr]
    c_prim.restype = c_compete.restype = ctypes.c_int

    def arcs(stack: np.ndarray, k: int) -> int:
        if (stack.dtype != np.float64 or not stack.flags.c_contiguous
                or stack.ndim != 3 or stack.shape[1] != stack.shape[2]
                or not 1 <= k <= len(stack)):
            raise ValueError("expected a C-ordered float64 stack of at "
                             "least k n x n matrices")
        return stack.shape[1]

    def prim(stack: np.ndarray, k: int) -> np.ndarray:
        n = arcs(stack, k)
        parent = np.empty((k, n), dtype=np.int64)
        if c_prim(stack.ctypes.data, k, n, parent.ctypes.data):
            raise MemoryError("prim: no memory for the keys")
        return parent

    def compete(stack: np.ndarray, k: int, proto: np.ndarray):
        n = arcs(stack, k)
        cost = np.where(proto, 0.0, np.inf)
        if cost.shape != (k, n):
            raise ValueError("expected a (k, n) prototype mask")
        pred = np.empty((k, n), dtype=np.int64)
        order = np.empty((k, n), dtype=np.int64)
        if c_compete(stack.ctypes.data, k, n, cost.ctypes.data,
                     pred.ctypes.data, order.ctypes.data):
            raise MemoryError("compete: no memory for the keys")
        return cost, pred, order
    return {"prim": prim, "compete": compete}
