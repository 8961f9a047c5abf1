"""The writer of the closed-loop kernel: `engine._evaluate` with each call
of a law written in as the law's body.

A law is a function as its module defines it: a plain function of `state`,
`rheology`, `hydraulics`, `smc` or `energetics`, or `engine._bounded`. The
writer parses `_evaluate` and each law it calls with `ast`, afresh for each
use, from its source sliced from its file by its code object, and uses the
tree only if it compiles to that code, so a file edited after import is
not read as the code that runs. One syntax-tree transform, `_LawWriter`,
writes a law's body where its call stands, in place, and moves nothing. A
law is straight-line: assignments, then one `return`, each choice a
conditional expression. A law called as the whole value of an assignment
(`x = law(...)`, `a, b = law(...)`) is written in place of that
assignment: the parameters replaced by the call's arguments, the locals
renamed per call (`_consistency_guard1_x`), and its `return` an
assignment to the target. A law of one `return` whose arguments are names,
or attributes read once, is written in place of its call. Nested laws are
placed by the same rule. The kernel's `def` is `_evaluate`'s own, renamed
and printed with `ast.unparse`. The operations and their order are those
of `_evaluate`, so every float is the same. Every call of a law is written
in, or the writer raises ValueError naming the law and the form it does
not take: a call elsewhere, a law that holds an `if` statement or reads a
global the kernel reads as another object, and a law whose source cannot
be read or is not that of its code. A call of a function that is not a
law, such as `_raise_non_finite`, stays a call.

`write` hands back the kernel's `def` with its source, and `write_block`
writes `engine`'s block filler from that tree, never parsed again, and a
template, `_BLOCK`: the kernel's statements with its `if not full` return
dropped, written over a block of rows by `_Lines`; the names its
`_bounded` assignment binds are the logged states, and compared with the
states `_bounded` reads they give the protection bits. `_Lines` prints
each operation in parentheses, in the order of the tree: `+ - * /` and
comparisons run in numpy, `**` and `math.exp` on Python floats one element
at a time, and a conditional expression over arithmetic as `np.where`, so
every float is the kernel's. The law rule places `lyapunov_rate` for
dV/dt.

`generated` prints both functions for the shipped code as the module
`_generated`, with the calls they read and, by interpreter, a digest of
each function the writer read; `python -m blowdown._kernel_writer` rewrites
it, keeping the other interpreters' digests. It is a build tool that no run
imports: a run calls what `_generated` holds, or `_evaluate` itself.
"""

from __future__ import annotations

import ast
import linecache
import math
import operator
import sys
import types

_LAW_MODULES = frozenset(f"{__package__}.{m}" for m in (
    "state", "rheology", "hydraulics", "smc", "energetics"))
_BOUNDED = (f"{__package__}.engine", "_bounded")


def write(fn, name: str, kernel_globals: dict):
    """(source, tree, calls): the source of a function `name`, `fn` with
    each law's body written in, to run with `kernel_globals`; its `def`,
    read by `_facts`, which `write_block` writes over rows; and the
    (namespace, name, object) of each call it looked up. ValueError if
    the source of `fn` cannot be read or is not that of its code, or if a
    law cannot be written in."""
    kernel = _form(fn)
    writer = _LawWriter(kernel_globals, kernel)
    for arg in kernel.args.args:
        arg.annotation = None
    kernel.name, kernel.decorator_list, kernel.returns = name, [], None
    kernel.body = [ast.Expr(ast.Constant(
        f"`{fn.__name__}` with each law's body written in.")),
        *writer.body(kernel.statements)]
    return ast.unparse(_facts(kernel)) + "\n", kernel, writer.calls


#: `engine`'s block filler. `{t}`, `{y}`, `{u}` and `{mask}` index the raw
#: columns and `{s_q}` is the table's column of s_q. `{kernel}` stands for
#: the kernel's statements, `{rows}` for the row's own, `_DV_DT`, both
#: written over the block, and `{columns}` for one assignment a column.
#: The raw rows are the first cells of the table's own rows: the filler
#: copies them first and writes `table` only once every column is computed,
#: so a block it raises on keeps them for `engine._fill_rows`.
_BLOCK = '''def _fill_block(table, raw, start, stop, p):
    """Rows `start` to `stop` of `table`, rebuilt from the same rows of
    `raw`: the kernel's statements, written over a block of rows."""
    block = raw[start:stop].T.copy()
    if not np.isfinite(block).all():
        raise FloatingPointError('a raw value is not finite')
    t, y, u = block[{t}], block[{y}], block[{u}]
    mask = block[{mask}].astype(int)
    {kernel}
    t_prev = np.concatenate((
        [table.item(start - 1, 0) if start else math.inf], t[:-1]))
    s_prev = np.concatenate((
        [table.item(start - 1, {s_q}) if start else 0.0], s_q[:-1]))
    {rows}
    out = table[start:stop]
    {columns}
'''
_DV_DT = """dt = t - t_prev if t > t_prev else 1.0
    dVdt = lyapunov_rate(s_q, s_prev, dt)
    dVdt = dVdt if t > t_prev else 0.0"""


def write_block(kernel, g: dict):
    """(source, calls): `_fill_block(table, raw, start, stop, p)`, which
    fills rows `start` to `stop` of a trajectory table from the raw rows
    `engine._drive` packed (`_RAW_COLUMNS`: the time, the state, the held
    inputs and the protection bits gathered): the state within its bounds,
    the inputs, the reconstructions, dV/dt against the row before and the
    mask with the bits the state needs, one column at a time. `kernel` is
    the tree `write` gave, taken as it is, and `g` is `engine`'s namespace,
    which the filler runs in. `_Lines` writes the kernel's statements and
    the row's own over the block; `lyapunov_rate` is placed by the rule for
    laws first, and `calls` are those it looked up. ValueError if the
    kernel, `_bounded` or a statement is of a form the filler cannot
    take."""
    raw, columns = g["_RAW_COLUMNS"], g["TRAJECTORY_COLUMNS"]
    y, u = raw.index(g["_STATE_NAMES"][0]), raw.index(g["_INPUT_NAMES"][0])
    at = dict(t=raw.index("t"), y=f"{y}:{y + len(g['_STATE_NAMES'])}",
              u=f"{u}:{u + len(g['_INPUT_NAMES'])}",
              mask=raw.index("protection_mask"), s_q=columns.index("s_q"))
    [fill] = ast.parse(_BLOCK.format(**at, kernel="pass", rows=_DV_DT,
                                     columns="pass")).body
    statements, binds, values = _over_rows(kernel, g)
    dv_dt = fill.body[8:-2]  # `{rows}`
    fill.body[5:6] = binds  # in place of `{kernel}`
    writer = _LawWriter(g, _facts(fill))
    own = writer.kernel_locals - set(kernel.params)
    _require(not own & (kernel.stored | kernel.reads.keys()),
             "the kernel uses none of the filler's own names")
    writer.kernel_locals |= kernel.stored
    rows = _Lines(g, {"t": None, "y": (), "u": g["_INPUT_NAMES"],
                      "mask": None})
    kernel_rows = rows.statements(statements + binds)
    rows.vector.update(t_prev=True, s_prev=True)
    row_rows = rows.statements(writer.body(dv_dt))
    lines = "\n    ".join
    source = _BLOCK.format(**at, kernel=lines(kernel_rows),
                           rows=lines(row_rows), columns=lines(
                               f"out[:, {k}] = {values.get(name, name)}"
                               for k, name in enumerate(columns)))
    return source, writer.calls


#: The head of `_generated.py`.
_GENERATED = '''\
"""The closed-loop kernel and the block filler as `_kernel_writer` writes
them for the shipped laws, with the calls they read and, by interpreter,
the digest of each function the writer read. `engine` compiles them at the
first run whose loaded code has this interpreter's digests, and runs them
while each call is the object it was loaded with; otherwise it runs
`_evaluate`. Written by `python -m blowdown._kernel_writer`; not edited by
hand.
"""
'''


def generated(g: dict, digests: dict) -> str:
    """The text of `_generated.py`: the kernel and the block filler as
    `write` and `write_block` write them in `g`, `engine`'s namespace; the
    (module, name) of each call either reads; and, by interpreter cache
    tag, `engine._digest` of `_evaluate` and of each of those calls: this
    interpreter's, and those `digests` holds for others, of as many
    calls."""
    kernel_source, kernel, calls = write(g["_evaluate"], "_kernel", g)
    fill_source, fill_calls = write_block(kernel, g)
    read = {(ns["__name__"], name): obj
            for ns, name, obj in calls + fill_calls}
    here = tuple(map(g["_digest"], (g["_evaluate"], *read.values())))
    digests = {tag: values for tag, values in digests.items()
               if len(values) == len(here)}
    digests[sys.implementation.cache_tag] = here
    for source in (kernel_source, fill_source):
        _require("'''" not in source and "\\" not in source,
                 "a source that a raw string can hold")
    names = [f"{module}.{name}" for module, name in (
        (g["__name__"], "_evaluate"), *read)]
    lines = [_GENERATED, f"KERNEL = r'''{kernel_source}'''", "",
             f"FILL_BLOCK = r'''{fill_source}'''", "",
             "#: (module, name) of each call the kernel or the filler reads.",
             "CALLS = (", *(f"    {key!r}," for key in read), ")", "",
             "#: By interpreter cache tag, `engine._digest` of"
             " `engine._evaluate` and of", "#: each function of `CALLS`.",
             "DIGESTS = {"]
    for tag, values in sorted(digests.items()):
        lines += [f"    {tag!r}: (", *(
            f"        0x{value:08x},  # {name}"
            for value, name in zip(values, names, strict=True)), "    ),"]
    return "\n".join(lines + ["}", ""])


def main() -> None:
    """Writes `_generated.py` beside `engine`, from the loaded code, with
    the digests the module it replaces holds for other interpreters."""
    from pathlib import Path

    from . import engine
    try:
        from ._generated import DIGESTS
    except (ImportError, SyntaxError):  # none yet, or one cut short
        DIGESTS = {}
    path = Path(engine.__file__).with_name("_generated.py")
    path.write_text(generated(vars(engine), DIGESTS))
    print(f"wrote {path}")


def _over_rows(kernel, g: dict):
    """(statements, binds, values): the kernel's statements for a snapshot,
    its list of `y` and its `if not full` return dropped; statements
    binding its return's reconstructions to their columns' names, `m`, the
    protection bits, and `protection_mask`; and the value written to each
    column not of that name. The kernel's `_bounded` assignment gives the
    logged states, and compared with the states `_bounded` reads they give
    the bits. ValueError if the kernel or `_bounded` is of another form."""
    *params, full = kernel.params
    listed, *statements, last = [s for s in kernel.statements if not (
        type(s) is ast.If and not s.orelse and type(s.test) is ast.UnaryOp
        and type(s.test.op) is ast.Not and _is_name(s.test.operand, full))]
    _require(kernel.reads.get(full, 0)
             == len(kernel.statements) - len(statements) - 2,
             "`full` is read only by an `if not full` dropped")
    _require(type(listed) is ast.Assign
             and _is_name(listed.targets[0], "y"),
             "the kernel first makes a list of `y`")
    [bounding] = [s for s in _form(g["_evaluate"]).statements
                  if type(s) is ast.Assign and _plain_call(s.value)
                  and s.value.func.id == "_bounded"]
    y, bounded = bounding.value.args[0], bounding.targets[0]
    reads = _form(g["_bounded"]).statements[0].value.elts
    _require(params == ["y", "p", "u"] and _is_name(y, "y")
             and type(bounded) is ast.Tuple and _names(bounded)
             and all(type(r) is ast.Subscript and type(r.slice) is ast.Constant
                     for r in reads), "`_bounded(y, p)` reads `y[k]`")
    _require(type(last) is ast.Return and type(last.value) is ast.Tuple
             and len(last.value.elts) == 2
             and type(last.value.elts[1]) is ast.Tuple,
             "the kernel returns (derivatives, snapshot)")
    values = {name: f"y[{k}]" for k, name in enumerate(g["_STATE_NAMES"])}
    values.update((name, f"u[{k}]")
                  for k, name in enumerate(g["_INPUT_NAMES"]))
    bits = None
    for i, (state, read) in enumerate(zip(bounded.elts, reads, strict=True)):
        bit = ast.Compare(ast.Subscript(y, read.slice, ast.Load()),
                          [ast.NotEq()], [_name(state.id)])
        bit = ast.BinOp(bit, ast.LShift(), ast.Constant(i)) if i else bit
        bits = bit if bits is None else ast.BinOp(bits, ast.BitOr(), bit)
        values[g["_STATE_NAMES"][read.slice.value]] = state.id
    binds = [_assign(_name(name, ast.Store), value) for name, value in zip(
        g["SNAPSHOT_COLUMNS"], last.value.elts[1].elts, strict=True)
        if not _is_name(value, name)]
    return statements, [*binds, _assign(_name("m", ast.Store), bits), _assign(
        _name("protection_mask", ast.Store),
        ast.BinOp(_name("mask"), ast.BitOr(), _name("m")))], values


def _require(condition: bool, form: str) -> None:
    if not condition:
        raise ValueError(f"not of the form the writer takes: {form}")


def _is_name(node, name: str) -> bool:
    return type(node) is ast.Name and node.id == name


def _source(code) -> str:
    """A function's source, sliced from its file by its code object:
    from its `def` to the last line any of its instructions spans. (Under
    `-X no_debug_ranges` an instruction spans only its first line, so a
    function ending in a statement written over lines does not parse.)"""
    end = max(filter(None, map(operator.itemgetter(1), code.co_positions())))
    lines = linecache.getlines(code.co_filename)
    return "".join(lines[code.co_firstlineno - 1:end])


#: Expressions with a scope of their own: kept as they are written.
_OWN_SCOPE = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
              ast.GeneratorExp)
#: What a law may not hold: a statement other than an assignment, `return`
#: or an expression; a scope of its own; or an expression with an effect on
#: the frame that runs it.
_NOT_PLAIN = frozenset(ast.stmt.__subclasses__()).difference((
    ast.Return, ast.Expr, ast.Assign)).union(_OWN_SCOPE, (
        ast.NamedExpr, ast.Yield, ast.YieldFrom, ast.Await))
#: Nodes the writer never changes.
_LEAVES = frozenset(kind for base in (
    ast.expr_context, ast.operator, ast.unaryop, ast.cmpop, ast.boolop)
    for kind in base.__subclasses__()).union((ast.Constant,))


def _form(function):
    """A function's `def`, parsed afresh from its source, for the writer to
    change in place; ValueError if its source cannot be read or does not
    compile to the function's code. It carries what the writer reads of it,
    walked once: `statements`, its body after the docstring; `params`; the
    names it assigns, `stored`; the times it reads each name, `reads`; the
    names it calls, `calls`; and whether it is `plain`, holding only
    assignments, `return` and expressions."""
    try:
        tree = ast.parse(_source(function.__code__))
    except SyntaxError:  # a function written indented, inside a block
        tree = ast.Module([], [])
    fn = tree.body[0] if len(tree.body) == 1 else None
    if not isinstance(fn, ast.FunctionDef) or not _loaded(tree, function):
        raise ValueError(
            f"the source of `{function.__name__}` is not its code")
    return _facts(fn)


def _facts(fn: ast.FunctionDef) -> ast.FunctionDef:
    """`fn` with the facts `_form` lists read into it."""
    a = fn.args
    fn.statements = fn.body[ast.get_docstring(fn, clean=False) is not None:]
    fn.params = tuple(arg.arg for arg in a.args)
    fn.stored, fn.calls, fn.reads = set(), set(), {}
    fn.plain = not (a.posonlyargs or a.vararg or a.kwonlyargs or a.kwarg
                    or a.defaults)
    for statement in fn.statements:
        _read(statement, fn)
    return fn


def _read(node, fn) -> None:
    """Reads `node` into the facts of `fn`, the `def` that holds it."""
    kind = type(node)
    if kind is ast.Name:
        if type(node.ctx) is ast.Load:
            fn.reads[node.id] = fn.reads.get(node.id, 0) + 1
        else:
            fn.stored.add(node.id)
        return
    if kind is ast.Call and _plain_call(node):
        fn.calls.add(node.func.id)
    elif kind in _NOT_PLAIN or kind is ast.Assign and len(node.targets) != 1:
        fn.plain = False
    for field in node._fields:
        value = getattr(node, field)
        for child in value if type(value) is list else (value,):
            if isinstance(child, ast.AST) and type(child) not in _LEAVES:
                _read(child, fn)


#: What a code object does, as the writer compares a function's source with
#: the function that is loaded.
_DOES = operator.attrgetter("co_code", "co_consts", "co_names")


def _loaded(tree: ast.Module, function) -> bool:
    """Whether `tree`, a function's definition, compiles to the function's
    code, in a module that imports the modules it reads or in one that does
    not: CPython compiles a method call on an imported name as an attribute
    load."""
    code = function.__code__
    modules = [name for name in code.co_names if isinstance(
        function.__globals__.get(name), types.ModuleType)]
    heads = [ast.parse(f"import {', '.join(modules)}").body] if modules else []
    for head in heads + [[]]:
        compiled = compile(ast.Module(head + tree.body, []), code.co_filename,
                           "exec", dont_inherit=True)
        defined = [c for c in compiled.co_consts if type(c) is types.CodeType]
        if len(defined) == 1 and _DOES(defined[0]) == _DOES(code):
            return True
    return False


def _plain_call(node) -> bool:
    """Whether `node` calls a name with positional arguments alone."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and not node.keywords
            and ast.Starred not in map(type, node.args))


def _is_law(obj) -> bool:
    """A function of a law module, or `engine._bounded`."""
    return (type(obj) is types.FunctionType
            and (obj.__module__ in _LAW_MODULES
                 or (obj.__module__, obj.__name__) == _BOUNDED))


def _loads_once(node) -> bool:
    """Whether `node` is a name or an attribute of one, such as `p.eps`."""
    while type(node) is ast.Attribute:
        node = node.value
    return type(node) is ast.Name


def _names(target) -> bool:
    """Whether `target` is a name or a tuple of names."""
    return type(target) is ast.Name or type(target) is ast.Tuple and all(
        type(t) is ast.Name for t in target.elts)


def _assign(target, value) -> ast.Assign:
    return ast.Assign([target], value, lineno=0)  # `ast.unparse` reads it


def _name(name: str, ctx=ast.Load) -> ast.Name:
    return ast.Name(name, ctx())


class _LawWriter(ast.NodeTransformer):
    """Writes a function's statements with each law call as the law's body.

    It changes the trees of `_evaluate` and its laws in place, each parsed
    for this use. `calls` holds the (namespace, name, object) of each call
    looked up, and `sites` counts the calls of each law written in. `names`
    maps each parameter and local of the law being written to the node
    written for it. Nothing is moved: a law called as the whole value of an
    assignment is written in place of that assignment, a law of one
    `return` whose arguments need no local is written in place of its call,
    and any other call of a law raises ValueError.
    """

    def __init__(self, kernel_globals: dict, kernel):
        # The kernel's own names: a law may not read a global of one.
        self.kernel_globals = kernel_globals
        self.kernel_locals = kernel.stored.union(kernel.params)
        self.calls, self.sites = [], {}
        self.names, self.ns = {}, kernel_globals

    def body(self, statements, target=None) -> list:
        """`statements` written out. With a `target`, a law's, its `return
        v` assigns v to it."""
        out = []
        for s in statements:
            kind = type(s)
            if kind is ast.If:  # the kernel's own: a law holds none
                s.test = self.visit(s.test)
                s.body, s.orelse = self.body(s.body), self.body(s.orelse)
                out.append(s)
            elif kind is ast.Return:
                s.value = s.value and self.visit(s.value)
                return out + [_assign(target, s.value) if target else s]
            elif (kind is ast.Assign and len(s.targets) == 1
                  and _plain_call(s.value) and _names(s.targets[0])):
                out += self.site(s.value, self.visit(s.targets[0]))
            else:
                out.append(self.visit(s))
        return out

    def visit(self, node):
        kind = type(node)
        if kind is ast.Name:
            new = self.names.get(node.id, node)
            if new is node or type(node.ctx) is ast.Load:
                return new
            return ast.Name(new.id, node.ctx)  # a local, renamed
        if kind in _LEAVES or kind in _OWN_SCOPE:
            return node  # nothing in it to rename or write in
        if kind is ast.Call and type(node.func) is ast.Name:
            return self.site(node)
        return self.generic_visit(node)

    def site(self, node: ast.Call, target=None):
        """A call written in: with a `target`, the statements assigning its
        value to it, else the expression standing for the call. A call of
        a function that is not a law stays a call."""
        name, ns = node.func.id, self.ns
        self.generic_visit(node)  # its arguments, and a local it calls
        if name not in self.names and name in ns:
            self.calls.append((ns, name, ns[name]))
            if _is_law(ns[name]):
                _require(_plain_call(node), f"`{name}` is called with "
                         "positional arguments alone")
                return self.law(ns[name], node.args, target)
        return node if target is None else [_assign(target, node)]

    def law(self, law, args: list, target):
        """`law`'s body for arguments `args`: with a `target`, its statements
        assigning its value to it; else the expression of a law of one
        `return` with no argument to bind. A name, or an attribute of one
        read at most once, is written where its parameter is read; any other
        argument is bound to a local first. Parameters and locals take a
        prefix of their own per call. ValueError if `law` is of another
        form, or reads a global the kernel reads as another object."""
        form, name = _form(law), f"`{law.__name__}`"
        body, ns, missing = form.statements, law.__globals__, object()
        returns = [s.value for s in body if type(s) is ast.Return]
        _require(form.plain and returns and returns[0] is not None
                 and len(args) == len(form.params), f"{name} is straight-line"
                 ": assignments, then a `return` of a value, each choice a"
                 " conditional expression, and called with its parameters")
        for free in form.reads.keys() - form.stored - set(form.params):
            _require(free in form.calls and _is_law(ns.get(free)) or (
                free not in self.kernel_locals and ns.get(free, missing)
                is self.kernel_globals.get(free, missing)),
                f"{name} reads `{free}` as the kernel reads it")
        self.sites[law] = site = self.sites.get(law, 0) + 1
        prefix = f"_{law.__name__.lstrip('_')}{site}_"
        names, binds = {}, []
        for param, arg in zip(form.params, args):
            if param not in form.stored and (type(arg) is ast.Name or (
                    form.reads.get(param, 0) <= 1 and _loads_once(arg))):
                names[param] = arg
            else:
                names[param] = _name(prefix + param)
                binds.append(_assign(_name(prefix + param, ast.Store), arg))
        names.update((local, _name(prefix + local)) for local in form.stored)
        _require(target is not None or not binds and len(body) == 1,
                 f"{name} is called as the whole value of an assignment, or"
                 " is one `return` whose arguments are names or attributes"
                 " read once")
        saved = self.names, self.ns
        self.names, self.ns = names, ns
        written = (self.visit(body[0].value) if target is None
                   else binds + self.body(body, target))
        self.names, self.ns = saved
        return written


def _is_math(node, name: str, g: dict) -> bool:
    """Whether `node` is `math.name`, with `math` the module."""
    return (type(node) is ast.Attribute and node.attr == name
            and _is_name(node.value, "math") and g.get("math") is math)


def _arithmetic(node) -> bool:
    """Whether `node` holds no call and no `**`: what may run on every row
    of a block, whichever value a row takes."""
    return not any(type(n) in (ast.Call, ast.Pow) for n in ast.walk(node))


def _tuple(items) -> str:
    return ", ".join(items) + ("," if len(items) == 1 else "")


#: The symbol of each operator the filler writes. Numpy runs those of
#: `_NUMPY` on vectors as Python runs them on floats, bools and ints.
_SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
            ast.Pow: "**", ast.BitOr: "|", ast.BitAnd: "&", ast.LShift: "<<",
            ast.USub: "-", ast.UAdd: "+", ast.Not: "not ", ast.Lt: "<",
            ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
            ast.NotEq: "!=", ast.And: "and", ast.Or: "or"}
_NUMPY = frozenset(("+", "-", "*", "/", "|", "&", "<<", "<", "<=", ">", ">=",
                    "==", "!="))


class _Lines:
    """Writes scalar statements over a block of rows, as lines of source,
    each operation in parentheses in the order of the tree.

    A name holds a vector, one value a row, or one value for all rows; a
    table of `tables` holds a vector a state (`y[k]`) or a field
    (`u.name`). `+ - * /`, comparisons and the bit operators run in numpy,
    which, like Python's floats, follows IEEE. `**` and `math.exp` of a
    vector run on Python floats, one element at a time (`engine._pow`,
    `_exp`): numpy's `power` and `exp` round otherwise. A conditional
    expression, `and` or `or` over names, constants and arithmetic becomes
    `np.where`, `&` or `|`. An `if not math.isfinite(x)` raises
    FloatingPointError unless x is finite on every row, and the block is
    then done row by row. Any other `if`, and anything else over vectors,
    raises ValueError.
    """

    def __init__(self, g: dict, tables: dict):
        self.g, self.tables = g, tables
        #: Whether each name bound holds a vector; None for a tuple of them.
        self.vector = dict.fromkeys(tables, True)

    def load(self, name: str):
        """(name, vector?) of `name`; a global or a parameter is one value
        for all rows."""
        vector = self.vector.get(name, False)
        _require(vector is not None, f"`{name}` is read by its items")
        return name, vector

    def statements(self, statements) -> list:
        out = []
        for s in statements:
            kind = type(s)
            if kind is ast.Assign and len(s.targets) == 1:
                out.append(self.assign(s.targets[0], s.value))
            elif kind is ast.If and not s.orelse and type(
                    s.test) is ast.UnaryOp and type(s.test.op) is ast.Not and (
                    type(s.test.operand) is ast.Call) and _is_math(
                    s.test.operand.func, "isfinite", self.g):
                [value] = s.test.operand.args
                out.append(f"if not np.isfinite({self.expr(value)[0]}).all():"
                           " raise FloatingPointError('not finite on every"
                           " row')")
            else:
                raise ValueError(f"not a statement over rows: {ast.dump(s)}")
        return out

    def assign(self, target, value) -> str:
        if type(target) is ast.Name:
            text, vector = self.expr(value)
            self.vector[target.id] = (None if vector and type(value) is
                                      ast.Tuple else vector)
            return f"{target.id} = {text}"
        _require(_names(target), "a name or a tuple of names is assigned")
        names = [t.id for t in target.elts]
        if type(value) is ast.Tuple and len(value.elts) == len(names):
            pairs = [self.expr(v) for v in value.elts]
            text = _tuple([v for v, _ in pairs])
            self.vector.update(zip(names, (v for _, v in pairs)))
        else:
            text, vector = self.expr(value)
            _require(not vector, "a tuple of vectors is assigned by its items")
            self.vector.update(dict.fromkeys(names, False))
        return f"{_tuple(names)} = {text}"

    def expr(self, node):
        """(source, vector?) of the expression `node`."""
        kind = type(node)
        if kind is ast.Constant:
            return repr(node.value), False
        if kind is ast.Name:
            return self.load(node.id)
        if kind is ast.Attribute:
            value, vector = self.expr(node.value)
            fields = self.tables.get(getattr(node.value, "id", None))
            if fields:
                return f"{value}[{fields.index(node.attr)}]", True
            _require(not vector, "a vector has no attributes")
            return f"{value}.{node.attr}", False
        if kind is ast.Subscript:
            (value, vector), (index, by_row) = map(self.expr, (
                node.value, node.slice))
            _require(not by_row and (not vector or self.tables.get(getattr(
                node.value, "id", None)) == ()), "a vector is read as `y[k]`")
            return f"{value}[{index}]", vector
        if kind is ast.Tuple:
            items = [self.expr(e) for e in node.elts]
            return f"({_tuple([i for i, _ in items])})", any(
                v for _, v in items)
        if kind is ast.Call and not node.keywords:
            func, args = self.expr(node.func)[0], list(map(self.expr,
                                                           node.args))
            if not any(v for _, v in args):
                return f"{func}({', '.join(a for a, _ in args)})", False
            _require(len(args) == 1 and _is_math(node.func, "exp", self.g),
                     "a call over vectors is `math.exp`")
            return f"_exp({args[0][0]})", True
        if kind is ast.IfExp:
            (test, by_row), (body, a), (orelse, b) = map(self.expr, (
                node.test, node.body, node.orelse))
            if not by_row:
                return f"({body} if {test} else {orelse})", a or b
            _require(_arithmetic(node.body) and _arithmetic(node.orelse),
                     "a conditional expression over arithmetic")
            return f"np.where({test}, {body}, {orelse})", True
        if kind is ast.BoolOp:
            values = [self.expr(v) for v in node.values]
            vector, symbol = any(v for _, v in values), _SYMBOLS[type(node.op)]
            if vector:
                _require(all(type(v) in (ast.Compare, ast.BoolOp)
                             and _arithmetic(v) for v in node.values),
                         "`and` and `or` over comparisons")
                symbol = "&" if symbol == "and" else "|"
            return f"({f' {symbol} '.join(t for t, _ in values)})", vector
        if kind in (ast.BinOp, ast.UnaryOp, ast.Compare):
            operands, ops = (
                ([node.left, node.right], [node.op]) if kind is ast.BinOp
                else ([node.operand], [node.op]) if kind is ast.UnaryOp
                else ([node.left, *node.comparators], node.ops))
            _require(all(type(op) in _SYMBOLS for op in ops),
                     "an operator the filler writes")
            texts = [self.expr(x) for x in operands]
            vector, symbols = any(v for _, v in texts), [
                _SYMBOLS[type(op)] for op in ops]
            if vector and symbols == ["**"]:
                return f"_pow({texts[0][0]}, {texts[1][0]})", True
            _require(not vector or len(symbols) == 1 and symbols[0] in _NUMPY,
                     "an operator numpy runs as Python does")
            if kind is ast.UnaryOp:
                return f"({symbols[0]}{texts[0][0]})", vector
            text = texts[0][0] + "".join(
                f" {s} {t}" for s, (t, _) in zip(symbols, texts[1:]))
            return f"({text})", vector
        raise ValueError(f"not an expression over rows: {ast.dump(node)}")


if __name__ == "__main__":
    main()
