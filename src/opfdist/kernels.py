"""The measures' per-feature loops, compiled to C from their one definition.

``distances._measures`` writes each measure once, over a table of
operations.  Of its functions, 30 hold a ``for a, b in pairs(x, y)``
loop: the 10 named sums and 20 other measures.  ``generate``
reads the source of ``_measures`` (its AST) and lowers each of them to
one C function that evaluates it on every pair of rows of two matrices,
as the block table ``distances._BLOCK`` defines it:

* Python float arithmetic (``+ - * /``, unary minus) on float constants,
  one operation per C expression, so that each rounds once, in the same
  order (``-ffp-contract=off`` keeps a product and a sum apart);
* ``abs``, and comparisons, which add 1.0 or 0.0 to a sum;
* ``div``, ``mul``, ``exp``, ``log``, ``sqrt``, ``root``, ``lo``, ``hi``
  and ``width``, with the conditionals of their scalar form;
  ``exp`` and ``log`` call libm, as ``math.exp``/``math.log`` do.

Any other construct raises ``Refused``.  A sum over one argument only (a
column ``sum a^2`` or a row ``sum b^2``) is returned as a column or a
row, as numpy broadcasting returns it.  Every pair accumulates feature
by feature in component order, so each entry is the block form's, bit
for bit.

The pairs run in tiles of ``TILE`` entries of one side, with the
features inside, so that a tile's sums stay in locals: one pass over the
features, where numpy makes one pass per operation.  Terms of one
argument alone are computed once per entry of that argument, not once
per pair.

One more part, ``FIT_C``, is written by hand, since it does not depend
on the measures: Prim and the competition over a cached stack of
matrices, which ``forest`` runs in place of its numpy loops where the
compiled loops are in use.  It only compares and selects finite
doubles, so no rounding can change its result.

``load`` builds the C once, the generated source and ``FIT_C`` as one
file in one call of the system ``cc`` (``FLAGS``: ``-O2 -fno-fast-math
-ffp-contract=off``, and ``exp``/``log`` from libm), into this
package's ``__pycache__``, as one library under a name that hashes
the source of this module and of the measures' module with the machine,
and calls it through ctypes.  The library is written to a temporary name
and renamed into place, so a reader never sees a partial file.  An
import that finds it parses, generates and compiles nothing.

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
         "-fno-builtin-log", "-fPIC")
# Pairs per tile of the longer side; a tile's sums stay in locals.
TILE = 4
# The calling convention of every loop function: two row matrices with
# their strides in elements, the sizes, which side is tiled, then one
# output pointer per result.
_PARAMS = (("const double *A", ctypes.c_void_p), ("long as0", ctypes.c_long),
           ("long as1", ctypes.c_long), ("const double *B", ctypes.c_void_p),
           ("long bs0", ctypes.c_long), ("long bs1", ctypes.c_long),
           ("long m", ctypes.c_long), ("long k", ctypes.c_long),
           ("long d", ctypes.c_long), ("int tile_a", ctypes.c_int))

_HERE = Path(__file__).resolve()


class Refused(ValueError):
    """The generator met a construct it does not know how to lower."""


# name in the table of operations -> (arity, C function)
_CALLS = {"abs": (1, "fabs"), "div": (2, "opf_div"), "mul": (2, "opf_mul"),
          "exp": (1, "opf_exp"), "log": (1, "opf_log"),
          "sqrt": (1, "opf_sqrt"), "root": (1, "sqrt"),
          "lo": (2, "opf_lo"), "hi": (2, "opf_hi")}
_BINOPS = {"Add": "+", "Sub": "-", "Mult": "*", "Div": "/"}
_CMPOPS = {"Eq": "==", "NotEq": "!=", "Lt": "<", "LtE": "<=", "Gt": ">",
           "GtE": ">="}
_OPERATIONS = {*_CALLS, "width", "pairs", "share"}


class _Loop:
    """One loop function lowered to a graph of operations.

    Nodes are interned tuples: ("a",), ("b",), ("const", hex), ("width",),
    ("acc", name) (a sum's value before this feature), ("fin", name) (its
    value after the loop), ("bin", op, x, y), ("neg", x), ("cmp", op, x, y)
    and ("call", c_function, *args).  ``deps[node]`` names what a node
    reads: "a", "b", "acc:<name>" and "fin:<name>".
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
            if op in ("a", "b"):
                deps = frozenset([op])
            elif op in ("acc", "fin"):
                deps = frozenset([f"{op}:{key[1]}"])
            elif op in ("const", "width"):
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
        self._shapes(loop)
        env = {name: self.node("fin", name) for name in init}
        env[x] = env[y] = None  # only as the argument of width
        if ret.value is None:
            self.refuse(ret, "a measure returns a value")
        items = (ret.value.elts if isinstance(ret.value, ast.Tuple)
                 else [ret.value])
        self.tuple = isinstance(ret.value, ast.Tuple)
        self.returns = [self._expr(e, env) for e in items]
        self.out_shapes = []
        for e, r in zip(items, self.returns):
            reads = {self.shape[d[4:]] for d in self.deps[r]
                     if d.startswith("fin:")}
            if not reads:
                self.refuse(e, "a result reads no sum")
            self.out_shapes.append(
                reads.pop() if len(reads) == 1 else "full")

    def _statement(self, stmt, env):
        if isinstance(stmt, ast.AugAssign):
            t = stmt.target
            op = _BINOPS.get(type(stmt.op).__name__)
            if not isinstance(t, ast.Name) or t.id not in env or op is None:
                self.refuse(stmt, "unknown augmented assignment")
            env[t.id] = self.node("bin", op, env[t.id],
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
            if env.get(e.id) is None:
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
                and type(e.ops[0]).__name__ in _CMPOPS):
            return self.node("cmp", _CMPOPS[type(e.ops[0]).__name__],
                             self._expr(e.left, env),
                             self._expr(e.comparators[0], env))
        if (isinstance(e, ast.Call) and isinstance(e.func, ast.Name)
                and not e.keywords
                and not any(isinstance(a, ast.Starred) for a in e.args)):
            name = e.func.id
            if (name == "width" and len(e.args) == 1
                    and isinstance(e.args[0], ast.Name)
                    and e.args[0].id in env and env[e.args[0].id] is None):
                return self.node("width")
            if name in _CALLS and len(e.args) == _CALLS[name][0]:
                return self.node("call", _CALLS[name][1],
                                 *(self._expr(a, env) for a in e.args))
        self.refuse(e, "unknown operation")

    def _shapes(self, loop):
        # a sum over both arguments fills the (m, k) matrix; over one, a
        # column (m, 1) or a row (1, k), as numpy broadcasting gives it
        reads = {n: {d[4:] for d in self.deps[u] if d.startswith("acc:")}
                 for n, u in self.update.items()}
        sides = {n: self.deps[u] & {"a", "b"} for n, u in self.update.items()}
        changed = True
        while changed:
            changed = False
            for n in sides:
                grown = sides[n].union(*(sides[r] for r in reads[n]))
                changed |= grown != sides[n]
                sides[n] = grown
        names = {frozenset("a"): "col", frozenset("b"): "row",
                 frozenset("ab"): "full"}
        self.shape = {}
        for n, s in sides.items():
            if not s:
                self.refuse(loop, f"{n} sums no feature")
            self.shape[n] = names[frozenset(s)]
        for n, r in reads.items():
            if any(self.shape[o] != self.shape[n] for o in r):
                self.refuse(loop, f"{n} reads a sum of another shape")


# --- C ----------------------------------------------------------------------

_HELPERS = """\
#include <math.h>
#include <stdlib.h>

#define TILE {tile}
static const double EPS = {eps};
static const double EXP_MAX = {exp_max};

static inline double opf_div(double n, double d)
{{
    if (d == 0.0)
        return n == 0.0 ? 0.0 : n / EPS;
    return n / d;
}}
static inline double opf_mul(double p, double q)
{{
    return (p == 0.0 || q == 0.0) ? 0.0 : p * q;
}}
static inline double opf_exp(double t) {{ return exp(t > EXP_MAX ? EXP_MAX : t); }}
static inline double opf_log(double v) {{ return log(v > 0.0 ? v : EPS); }}
static inline double opf_sqrt(double v) {{ return v < 0.0 ? 0.0 : sqrt(v); }}
static inline double opf_lo(double p, double q) {{ return p < q ? p : q; }}
static inline double opf_hi(double p, double q) {{ return p > q ? p : q; }}
"""


def _c_const(h: str) -> str:
    # C99 hex float literal, exact
    return h if h[0] != "-" else f"(-{h[1:]})"


class _Emitter:
    def __init__(self, loop: _Loop):
        self.loop = loop

    def expr(self, k: int, leaf) -> str:
        key = self.loop.nodes[k]
        got = leaf(k)
        if got is not None:
            return got
        op = key[0]
        if op == "const":
            return _c_const(key[1])
        if op == "width":
            return "(double)d"
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
            body = f"{args[0]}({', '.join(e(i) for i in args[1:])})"
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
    return key[0] in ("a", "b", "const", "width", "acc", "fin")


def _function(loop: _Loop) -> str:
    em = _Emitter(loop)
    L = loop
    names = list(L.init)
    by_shape = {s: [n for n in names if L.shape[n] == s]
                for s in ("col", "row", "full")}
    outs = [f"double *out{q}" for q in range(len(L.returns))]
    body: list[str] = []
    bufs: list[str] = []
    leafkey = lambda k: _is_leaf(L.nodes[k])  # noqa: E731

    # sums of one argument: one loop over that argument's rows
    for shape, side, idx, n_rows, M, s0, s1 in (
            ("col", "a", "i", "m", "A", "as0", "as1"),
            ("row", "b", "j", "k", "B", "bs0", "bs1")):
        accs = by_shape[shape]
        if not accs:
            continue
        store = "ca" if shape == "col" else "ra"
        rets = [q for q, s in enumerate(L.out_shapes) if s == shape]

        def leaf(k, side=side, store=store, idx=idx):
            key = L.nodes[k]
            if key[0] == side:
                return side
            if key[0] == "acc":
                return f"s_{key[1]}"
            if key[0] == "fin":
                return f"{store}_{key[1]}[{idx}]"
            return None
        new = [f"{store}_{n}" for n in accs]
        bufs += new
        body += [f"{b} = malloc(sizeof(double) * ({n_rows} + 1));"
                 for b in new]
        body += [f"if ({' || '.join('!' + b for b in new)})",
                 "    goto done;",
                 f"for (long {idx} = 0; {idx} < {n_rows}; {idx}++) {{"]
        body += [f"    double s_{n} = {_c_const(L.init[n].hex())};"
                 for n in accs]
        body += ["    for (long f = 0; f < d; f++) {",
                 f"        const double {side} = "
                 f"{M}[{idx} * {s0} + f * {s1}];"]
        terms = em.closure([L.update[n] for n in accs], leafkey)
        body += ["        " + ln for ln in em.lines(terms, leaf)]
        body += [f"        s_{n} = {em.expr(L.update[n], leaf)};"
                 for n in accs]
        body.append("    }")
        body += [f"    {store}_{n}[{idx}] = s_{n};" for n in accs]
        fin = em.closure([L.returns[q] for q in rets], leafkey)
        body += ["    " + ln for ln in em.lines(fin, leaf)]
        body += [f"    out{q}[{idx}] = {em.expr(L.returns[q], leaf)};"
                 for q in rets]
        body.append("}")

    rets = [q for q, s in enumerate(L.out_shapes) if s == "full"]
    if rets:
        nests = [_pair_nest(L, em, by_shape["full"], rets, t)
                 for t in (True, False)]
        bufs += [b for _, new in nests for b in new]
        body.append("if (tile_a) {")
        body += ["    " + ln for ln in nests[0][0]]
        body.append("} else {")
        body += ["    " + ln for ln in nests[1][0]]
        body.append("}")
    params = ", ".join([p for p, _ in _PARAMS] + outs)
    src = [f"int opf_{L.name}({params})", "{", "    int rc = -1;"]
    src += [f"    double *{b} = NULL;" for b in bufs]
    src += ["    " + ln for ln in body]
    src += ["    rc = 0;", "done:"]
    src += [f"    free({b});" for b in bufs]
    src += ["    return rc;", "}", ""]
    return "\n".join(src)


def _pair_nest(L: _Loop, em: _Emitter, full, rets, tile_a: bool):
    """The loops over pairs, and the buffers they allocate: for each row of
    the untiled side, for each tile of TILE entries of the tiled side, the
    features, with the tile's sums in locals.  The tiled side is copied
    into tile-major order, zero padded; its one-argument terms are
    computed there, once per entry."""
    # side: (letter, index, count, matrix, strides)
    tiled = ("a", "i", "m", "A", "as0", "as1") if tile_a else \
        ("b", "j", "k", "B", "bs0", "bs1")
    outer = ("b", "j", "k", "B", "bs0", "bs1") if tile_a else \
        ("a", "i", "m", "A", "as0", "as1")
    ts, ti, tn, TM, t0, t1 = tiled
    os_, oi, on, OM, o0, o1 = outer
    leafkey = lambda k: _is_leaf(L.nodes[k])  # noqa: E731
    every = em.closure([L.update[n] for n in full], leafkey)
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
        if key[0] == "fin":
            n = key[1]
            return {"full": f"s_{n}[t]", "col": f"ca_{n}[i]",
                    "row": f"ra_{n}[j]"}[L.shape[n]]
        return None

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
    src += [f"        double s_{n}[TILE];" for n in full]
    if full:
        src.append("        for (int t = 0; t < TILE; t++) {")
        src += [f"            s_{n}[t] = {_c_const(L.init[n].hex())};"
                for n in full]
        src.append("        }")
    src += ["        for (long f = 0; f < d; f++) {",
            f"            const double {os_} = {OM}[{oi} * {o0} + f * {o1}];",
            "            const long p = (tt * d + f) * TILE;"]
    src += ["            " + ln for ln in em.lines(hoist, pair_leaf)]
    src.append("            for (int t = 0; t < TILE; t++) {")
    src += ["                " + ln for ln in em.lines(inner, pair_leaf)]
    src += [f"                s_{n}[t] = {em.expr(L.update[n], pair_leaf)};"
            for n in full]
    src += ["            }", "        }",
            "        for (int t = 0; t < TILE; t++) {",
            f"            const long {ti} = tt * TILE + t;",
            f"            if ({ti} >= {tn})",
            "                break;"]
    fin = em.closure([L.returns[q] for q in rets], leafkey)
    src += ["            " + ln for ln in em.lines(fin, fin_leaf)]
    src += [f"            out{q}[i * k + j] = "
            f"{em.expr(L.returns[q], fin_leaf)};" for q in rets]
    src += ["        }", "    }"]
    return src, bufs


def generate(source: str, *, eps: float,
             exp_max: float) -> tuple[str, list]:
    """One C source for the loop functions in ``source`` (the text of
    ``_measures``): the helpers, one function per loop and the table
    ``opf_meta``; and that table: one entry per function, with its name,
    its result shapes and whether it returns a tuple.  Raises ``Refused``
    on any construct it does not know."""
    tree = ast.parse(textwrap.dedent(source))
    (outer,) = tree.body
    loops = [_Loop(fn) for fn in outer.body
             if isinstance(fn, ast.FunctionDef)
             and any(isinstance(s, ast.For) for s in ast.walk(fn))]
    table = [{"name": L.name, "shapes": L.out_shapes, "tuple": L.tuple}
             for L in loops]
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
    ``measures`` (``distances._measures``), and "prim" and "compete" (see
    ``FIT_C``), built on first use; None where there is no compiler, the
    cache cannot be written or the build fails.

    A block function takes two float64 row matrices A (m, d) and B (k, d),
    of any strides, and returns what the numpy block form returns: the
    (m, k) matrix, a column (m, 1) or a row (1, k), or a tuple of these.

    ``prim(stack, k)`` returns the (k, n) Prim parents, -1 at each root,
    of the first k matrices of a C-ordered float64 (k', n, n) stack, and
    ``compete(stack, k, proto)`` the (k, n) costs, predecessors (-1 at the
    prototypes) and settling order of their competition from the (k, n)
    prototype mask ``proto``, as ``forest``'s numpy loops return them.
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
    return {**loops, **_fit_functions(lib)}


_OUT = {"full": lambda m, k: (m, k), "col": lambda m, k: (m, 1),
        "row": lambda m, k: (1, k)}


def _wrap(fn, entry) -> Callable:
    shapes = [_OUT[s] for s in entry["shapes"]]
    fn.argtypes = ([t for _, t in _PARAMS]
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
