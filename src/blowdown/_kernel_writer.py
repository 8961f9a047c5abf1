"""The writer of the closed-loop kernel: `engine._evaluate` with each call
of a law written in as the law's body.

A law is a function as its module defines it: a plain function of `state`,
`rheology`, `hydraulics`, `smc` or `energetics`, or `engine._bounded`. The
writer parses `_evaluate` and each law it calls with `ast`, once per
function, from its source sliced from its file by its code object, and uses
the tree only if it compiles to that code, so a file edited after import is
not read as the code that runs. One syntax-tree transform, `_LawWriter`,
writes a law's body where its call stands, and moves nothing. A law called
as the whole value of an assignment (`x = law(...)`, `a, b = law(...)`) is
written in place of that assignment: the parameters replaced by the call's
arguments, the locals renamed per call (`_consistency_guard1_x`), each
`return` an assignment to the target, and an `if` that returns taking the
statements after it as its `else`. A law of one `return` whose arguments
are names, or attributes read once, is written in place of its call. Any
other call stays a call; nested laws are placed by the same rule. The
kernel's `def` is `_evaluate`'s own, renamed and printed with `ast.unparse`.
The operations and their order are those of `_evaluate`, so every float is
the same. A law held as a wrapper (`__wrapped__`) or a replacement, and a
law whose source cannot be read or is not that of its code, stay calls.

`write` hands back the kernel's `def` with its source, and `write_row`
writes `engine`'s row writer from a template, `_ROW`, that calls
`_protect` and `evaluate_snapshot`. Fused, the two calls give way to
statements built from that tree, never parsed again: `_protect`'s refusal
of a non-finite state, then the kernel's statements with its `if not
full` return dropped; the names its `_bounded` assignment binds are the
logged states, and compared with the states `_bounded` reads they give
the protection bits. The law rule places `lyapunov_rate` for dV/dt and
visits nothing of the kernel's statements.

`engine` imports this module when it generates the kernel, at the first
run, so importing the package or parsing a scenario compiles none of it.
"""

from __future__ import annotations

import ast
import functools
import linecache
import operator
import types

_LAW_MODULES = frozenset(f"{__package__}.{m}" for m in (
    "state", "rheology", "hydraulics", "smc", "energetics"))
_BOUNDED = (f"{__package__}.engine", "_bounded")


def write(fn, name: str, kernel_globals: dict):
    """(source, tree, calls): the source of a function `name`, `fn` with
    each law's body written in, to run with `kernel_globals`; its `def`,
    read by `_facts`, which `write_row` fuses with the row writer; and the
    (namespace, name, object) of each call it looked up. ValueError if the
    source of `fn` cannot be read or is not that of its code."""
    form = _form(fn)
    if form is None:
        raise ValueError(f"the source of {fn.__name__} is not its code")
    writer = _LawWriter(kernel_globals, form)
    doc = f"`{fn.__name__}` with each law's body written in."
    args = _with(form.args, args=[_with(a, annotation=None)
                                  for a in form.args.args])
    kernel = _facts(_with(form, name=name, decorator_list=[], returns=None,
                          args=args, body=[ast.Expr(ast.Constant(doc)),
                                           *writer.body(form.statements)]))
    return ast.unparse(kernel) + "\n", kernel, writer.calls


#: The row writer calling through: `{doc}` ends its docstring, `{snapshot}`
#: names the `SNAPSHOT_COLUMNS`, `{s_q}` is the column of s_q, `{size}` the
#: bytes of a row and `{values}` its values in `TRAJECTORY_COLUMNS` order.
_ROW = '''def _log_row(table, i, t, y, p, u, mask):
    """Row `i` of `table`, {doc}."""
    y = y if type(y) is list else y.tolist()
    y, m = _protect(y, p)
    {snapshot} = evaluate_snapshot(y, p, u)
    dVdt = 0.0
    if i and t > (t_prev := table.item(i - 1, 0)):
        dVdt = lyapunov_rate(s_q, table.item(i - 1, {s_q}), t - t_prev)
    _pack_into(table, i * {size}, {values})
'''


def write_row(kernel, g: dict):
    """(source, calls): `_log_row(table, i, t, y, p, u, mask)`, which writes
    row `i` of a trajectory table, the row logged at `t`, with one
    `_pack_into` call in `TRAJECTORY_COLUMNS` order: the protected state,
    the inputs `u`, the reconstructions, dV/dt against row `i - 1`, and
    `mask` with the bits the state needs. `g` is `engine`'s namespace, which
    the writer runs in. With None for `kernel`, the row calls `_protect` and
    `evaluate_snapshot`; with the tree `write` gave, it is fused with the
    kernel's statements (`_fused`), taken as they are. `lyapunov_rate` is
    placed by the rule for laws, and `calls` are those it looked up."""
    columns, snapshot = g["TRAJECTORY_COLUMNS"], g["SNAPSHOT_COLUMNS"]
    values = {"protection_mask": "mask | m",  # else the column's own name
              **{name: f"y[{k}]" for k, name in enumerate(g["_STATE_NAMES"])},
              **{name: f"u.{name}" for name in g["_INPUT_NAMES"]}}
    fused = kernel is not None and _fused(kernel, values, g)
    [row] = ast.parse(_ROW.format(
        doc="with the kernel's statements written in" if fused
        else "calling `_protect` and `evaluate_snapshot`",
        snapshot=", ".join(snapshot), s_q=columns.index("s_q"),
        size=8 * len(columns),
        values=", ".join(values.get(name, name) for name in columns))).body
    doc, convert, *own, zero, rate, pack = row.body
    written, own = fused or ([], own)
    row.body = [convert, *own, zero, rate, pack]  # not the kernel's
    writer = _LawWriter(g, _facts(row))
    if fused:
        _require(not (writer.kernel_locals - set(kernel.params))
                 & (kernel.stored | kernel.reads.keys()),
                 "the kernel uses none of the row writer's own names")
        writer.kernel_locals |= kernel.stored
    row.body = [doc, convert, *written, *own, *writer.body([zero, rate]), pack]
    return ast.unparse(row) + "\n", writer.calls


def _fused(kernel, values: dict, g: dict):
    """(written, own): the fused row writer's body around `kernel`, the tree
    `write` gave. `written` is `_protect`'s refusal of a non-finite state,
    then the kernel's statements for a snapshot, its `if not full` return
    dropped. The kernel's `_bounded` assignment gives the logged states, put
    in `values`; `own` binds `m`, their comparison with the states
    `_bounded` reads, and its return's reconstructions to their columns'
    names. ValueError if the kernel or `_protect` is of another form."""
    *params, full = kernel.params
    protect = _form(g["_protect"])
    refusal = protect.statements[0]
    _require(type(refusal) is ast.If and not refusal.orelse
             and [type(s) for s in refusal.body] == [ast.Raise]
             and protect.params[0] == "y",
             "`_protect(y, p)` begins with its refusal")
    [bounding] = [s for s in _form(g["_evaluate"]).statements
                  if type(s) is ast.Assign and _plain_call(s.value)
                  and s.value.func.id == "_bounded"]
    y, bounded = bounding.value.args[0], bounding.targets[0]
    reads = _form(g["_bounded"]).statements[0].value.elts
    _require(params == ["y", "p", "u"] and _is_name(y, "y")
             and type(bounded) is ast.Tuple and _names(bounded)
             and all(type(r) is ast.Subscript and type(r.slice) is ast.Constant
                     for r in reads), "`_bounded(y, p)` reads `y[k]`")
    *statements, last = kept = [s for s in kernel.statements if not (
        type(s) is ast.If and not s.orelse and type(s.test) is ast.UnaryOp
        and type(s.test.op) is ast.Not and _is_name(s.test.operand, full))]
    _require(kernel.reads.get(full, 0) == len(kernel.statements) - len(kept),
             "`full` is read only by an `if not full` dropped")
    _require(type(last) is ast.Return and type(last.value) is ast.Tuple
             and len(last.value.elts) == 2
             and type(last.value.elts[1]) is ast.Tuple,
             "the kernel returns (derivatives, snapshot)")
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
    return [refusal, *statements], [_assign(_name("m", ast.Store), bits),
                                    *binds]


def _require(condition: bool, form: str) -> None:
    if not condition:
        raise ValueError(f"not of the form a row writer fuses: {form}")


def _is_name(node, name: str) -> bool:
    return type(node) is ast.Name and node.id == name


@functools.lru_cache(maxsize=None)
def _source(code) -> str:
    """A function's source, sliced once from its file by its code object:
    from its `def` to the last line any of its instructions spans. (Under
    `-X no_debug_ranges` an instruction spans only its first line, so a
    function ending in a statement written over lines does not parse.)"""
    end = max(filter(None, map(operator.itemgetter(1), code.co_positions())))
    lines = linecache.getlines(code.co_filename)
    return "".join(lines[code.co_firstlineno - 1:end])


#: Expressions with a scope of their own: kept as they are written.
_OWN_SCOPE = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
              ast.GeneratorExp)
#: What a law may not hold: a statement other than an assignment, `if`,
#: `return` or an expression; a scope of its own; or an expression with an
#: effect on the frame that runs it.
_NOT_PLAIN = frozenset(ast.stmt.__subclasses__()).difference((
    ast.If, ast.Return, ast.Expr, ast.Assign)).union(_OWN_SCOPE, (
        ast.NamedExpr, ast.Yield, ast.YieldFrom, ast.Await))
#: Nodes the writer never changes.
_LEAVES = frozenset(kind for base in (
    ast.expr_context, ast.operator, ast.unaryop, ast.cmpop, ast.boolop)
    for kind in base.__subclasses__()).union((ast.Constant,))


@functools.lru_cache(maxsize=None)
def _form(function):
    """A function's `def`, parsed once from its source; None if its source
    cannot be read or does not compile to the function's code. It carries
    what the writer reads of it, walked once: `statements`, its body after
    the docstring; `params`; the names it assigns, `stored`; the times it
    reads each name, `reads`; the names it calls, `calls`; and whether it
    is `plain`, holding only assignments, `if`, `return` and expressions."""
    try:
        tree = ast.parse(_source(function.__code__))
    except SyntaxError:  # a function written indented, inside a block
        return None
    fn = tree.body[0] if len(tree.body) == 1 else None
    if not isinstance(fn, ast.FunctionDef) or not _loaded(tree, function):
        return None
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
    """A law as its module defines it: not a wrapper, not a replacement."""
    return (type(obj) is types.FunctionType
            and not hasattr(obj, "__wrapped__")
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


def _returns(statement) -> bool:
    """Whether `statement` returns, or is an `if` with a branch that does."""
    return type(statement) is ast.Return or type(statement) is ast.If and any(
        map(_returns, statement.body + statement.orelse))


def _with(node, **fields):
    """`node` with `fields` replaced, or `node` itself if none changed: a
    parsed tree is never changed, so each law's is read again per call.
    Nodes compare by identity, and lists of them item by item."""
    if {field: getattr(node, field) for field in fields} == fields:
        return node
    new = type(node).__new__(type(node))
    vars(new).update(vars(node), **fields)
    return new


def _assign(target, value) -> ast.Assign:
    return ast.Assign([target], value, lineno=0)  # `ast.unparse` reads it


def _name(name: str, ctx=ast.Load) -> ast.Name:
    return ast.Name(name, ctx())


class _KeepCall(Exception):
    """A law whose body cannot be written in where it is called."""


class _LawWriter(ast.NodeTransformer):
    """Writes a function's statements with each law call as the law's body.

    It visits the trees of `_evaluate` and its laws without changing them,
    building a node where one of its parts changes. `calls` and `kept` hold
    the (namespace, name, object) of each call looked up, and of each left
    a call; `sites` counts the calls of each law written in. `names` maps
    each parameter and local of the law being written to the node written
    for it. Nothing is moved: a law called as the whole value of an
    assignment is written in place of that assignment, a law of one
    `return` whose arguments need no local is written in place of its call,
    and any other call stays a call.
    """

    def __init__(self, kernel_globals: dict, kernel):
        # The kernel's own names: a law reading a global of one stays a call.
        self.kernel_globals = kernel_globals
        self.kernel_locals = kernel.stored.union(kernel.params)
        self.calls, self.kept, self.sites = [], [], {}
        self.names, self.ns = {}, kernel_globals

    def body(self, statements, target=None) -> list:
        """`statements` written out. With a `target`, each `return v`
        assigns v to it, and an `if` that returns takes the statements after
        it as its `else`."""
        out = []
        for i, s in enumerate(statements):
            kind = type(s)
            if kind is ast.If:
                branch = target if _returns(s) else None
                orelse = s.orelse + statements[i + 1:] if branch else s.orelse
                out.append(_with(s, test=self.visit(s.test),
                                 body=self.body(s.body, branch),
                                 orelse=self.body(orelse, branch)))
                if branch:
                    return out
            elif kind is ast.Return:
                value = s.value and self.visit(s.value)
                if target is None:
                    return out + [_with(s, value=value)]
                if value is None:
                    raise _KeepCall  # a law with no value
                return out + [_assign(target, value)]
            elif (kind is ast.Assign and len(s.targets) == 1
                  and _plain_call(s.value) and _names(s.targets[0])):
                out += self.site(s.value, self.visit(s.targets[0]))
            else:
                out.append(self.visit(s))
        if target is not None:
            raise _KeepCall  # a path of a law ends with no value
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
        if kind is ast.Call and _plain_call(node):
            return self.site(node)
        return self.generic_visit(node)

    def generic_visit(self, node):
        fields = {}
        for field in node._fields:
            old = getattr(node, field)
            if type(old) is list:
                fields[field] = [self.visit(x) if isinstance(x, ast.AST)
                                 else x for x in old]
            elif isinstance(old, ast.AST) and type(old) not in _LEAVES:
                fields[field] = self.visit(old)
        return _with(node, **fields)

    def site(self, node: ast.Call, target=None):
        """A call written in: with a `target`, the statements assigning its
        value to it, else the expression standing for the call."""
        args = [self.visit(a) for a in node.args]
        name, ns = node.func.id, self.ns
        if name not in self.names and name in ns:
            self.calls.append((ns, name, ns[name]))
            try:
                return self.law(ns[name], args, target)
            except _KeepCall:
                self.kept.append((ns, name, ns[name]))
        call = _with(node, func=self.visit(node.func), args=args)
        return call if target is None else [_assign(target, call)]

    def law(self, law, args: list, target):
        """`law`'s body for arguments `args`: with a `target`, its statements
        assigning its value to it; else the expression of a law of one
        `return` with no argument to bind. A name, or an attribute of one
        read at most once, is written where its parameter is read; any other
        argument is bound to a local first. Parameters and locals take a
        prefix of their own per call."""
        form = _is_law(law) and _form(law)
        if not form or not form.plain or len(args) != len(form.params):
            raise _KeepCall
        ns, missing = law.__globals__, object()
        for free in form.reads.keys() - form.stored - set(form.params):
            if free in form.calls and free in ns:
                continue  # a law written in, or else checked below
            if free in self.kernel_locals or ns.get(
                    free, missing) is not self.kernel_globals.get(free,
                                                                  missing):
                raise _KeepCall  # the kernel would read another object
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
        body = form.statements
        if target is None and (binds or len(body) != 1 or type(
                body[0]) is not ast.Return or body[0].value is None):
            raise _KeepCall
        kept, saved = len(self.kept), (self.names, self.ns)
        self.names, self.ns = names, ns
        try:
            written = (self.visit(body[0].value) if target is None
                       else binds + self.body(body, target))
        finally:
            self.names, self.ns = saved
        if any(n is ns and (name in self.kernel_locals
                            or self.kernel_globals.get(name) is not obj)
               for n, name, obj in self.kept[kept:]):
            raise _KeepCall  # a call the kernel would resolve elsewhere
        return written
