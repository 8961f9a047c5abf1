"""The writer of the closed-loop kernel: `engine._evaluate` with each call
of a law written in as the law's body.

A law is a function as its module defines it: a plain function of `state`,
`rheology`, `hydraulics`, `smc` or `energetics`, or `engine._bounded`. The
writer reads the source of `_evaluate` and of each law it calls with `ast`,
once per function, sliced from its file by its code object, and uses it
only if it compiles to that code, so a file edited after import is not
read as the code that runs. Each call of a law becomes the law's body: the
parameters replaced by the call's arguments, the locals renamed per call
(`_consistency_guard1_x`), each `return` an assignment, and an `if` that
returns taking the statements after it as its `else`; nested laws are
written in the same way. The operations and their order are those of
`_evaluate`, so every float is the same. A law held as a wrapper
(`__wrapped__`) or a replacement, a law whose source cannot be read or is
not that of its code, and a law needing statements in a branch that may
not run stay calls.

`engine` imports this module when it generates the kernel, at the first
run, so importing the package or parsing a scenario compiles none of it.
"""

from __future__ import annotations

import ast
import functools
import linecache
import operator
import re
import types
from typing import NamedTuple

_LAW_MODULES = frozenset(f"{__package__}.{m}" for m in (
    "state", "rheology", "hydraulics", "smc", "energetics"))
_BOUNDED = (f"{__package__}.engine", "_bounded")


def write(fn, name: str, kernel_globals: dict):
    """(source, calls): the source of a function `name`, `fn` with each
    law's body written in, to run with `kernel_globals`, and the (namespace,
    name, object) of each call it looked up. (None, []) if the source of
    `fn` cannot be read or is not that of its code."""
    form = _form(fn)
    if form is None:
        return None, []
    writer = _LawWriter(kernel_globals, form.stored)
    lines = writer.lines(form.body, {}, kernel_globals)
    return (f"def {name}({', '.join(form.params)}):\n"
            f'    """`{fn.__name__}` with each law\'s body written in."""\n'
            + "".join(f"    {line}\n" for line in lines)), writer.calls


@functools.lru_cache(maxsize=None)
def _source(code) -> str:
    """A function's source, sliced once from its file by its code object:
    its lines up to the last that holds code, and those after it indented
    deeper than its `def`, which end a statement written over lines."""
    lines = linecache.getlines(code.co_filename)
    first = code.co_firstlineno - 1
    if first >= len(lines):
        return ""
    depth = _depth(lines[first])
    end = max(line for _, _, line in code.co_lines() if line)
    while end < len(lines) and (_depth(lines[end]) > depth
                                or not lines[end].strip()):
        end += 1
    return "".join(lines[first:end])


def _depth(line: str) -> int:
    return len(line) - len(line.lstrip())


class _Name(str):
    """A name in a function's source: a law's parameters and locals are
    renamed where its body is written in."""


class _Call(NamedTuple):
    """A call by name, with plain arguments, in a function's source."""
    name: str
    args: list  # each argument's group
    seps: tuple  # the source around the arguments: "(", ", ", ")"
    conditional: bool  # in a branch of its statement that may not run


class _Form(NamedTuple):
    """A function's body as the kernel writer reads it. Each statement is a
    tuple of its kind and its parts; an expression is a group: a list of
    source text, `_Name`s and `_Call`s."""
    params: tuple
    body: list
    stored: frozenset  # names the body assigns
    reads: dict  # times the body reads each name
    calls: frozenset  # names the body calls
    plain: bool  # only assignments, `if`, `return` and expressions


@functools.lru_cache(maxsize=None)
def _form(function):
    """The `_Form` of a function, parsed once from its source; None if its
    source cannot be read or does not compile to the function's code."""
    source = _source(function.__code__).encode()
    try:
        tree = ast.parse(source)
    except SyntaxError:  # a function written indented, inside a block
        return None
    fn = tree.body[0] if len(tree.body) == 1 else None
    if not isinstance(fn, ast.FunctionDef) or not _loaded(tree, function):
        return None
    reader = _Reader(source)
    body = [reader.statement(s) for s in
            fn.body[ast.get_docstring(fn, clean=False) is not None:]]
    a = fn.args
    plain = reader.plain and not (a.posonlyargs or a.vararg or a.kwonlyargs
                                  or a.kwarg or a.defaults)
    return _Form(tuple(arg.arg for arg in a.args), body,
                 frozenset(reader.stored), reader.reads,
                 frozenset(reader.calls), plain)


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


class _Reader:
    """Reads statements into `_Form` tuples, from a function's source."""

    def __init__(self, source: bytes):
        self.source = source
        self.starts = [0]  # the byte offset of each line
        for line in source.splitlines(True):
            self.starts.append(self.starts[-1] + len(line))
        self.stored, self.reads, self.calls = set(), {}, set()
        self.plain = True

    def statement(self, s):
        if isinstance(s, ast.If):
            body = [self.statement(x) for x in s.body]
            orelse = [self.statement(x) for x in s.orelse]
            return ("if", self.group(s.test), body, orelse, any(
                x[0] == "return" or (x[0] == "if" and x[4])
                for x in body + orelse))
        if isinstance(s, ast.Return):
            return "return", s.value and self.group(s.value)
        if isinstance(s, ast.Assign) and len(s.targets) == 1:
            target = s.targets[0]
            names = ((target.id,) if isinstance(target, ast.Name) else
                     tuple(t.id for t in target.elts)
                     if isinstance(target, ast.Tuple) and all(
                         isinstance(t, ast.Name) for t in target.elts)
                     else None)
            value = self.group(s.value)
            call = _plain_call(s.value) and next(p for p in value
                                                 if type(p) is _Call)
            return "assign", self.group(target), names, value, call
        self.plain &= isinstance(s, ast.Expr)
        # Another compound statement is kept as it is written: no law call
        # in it is moved ahead of it.
        return "other", self.group(s, not isinstance(s, ast.Expr))

    def group(self, node, conditional: bool = False) -> list:
        """`node`'s source as text, `_Name`s and `_Call`s."""
        holes = []
        self.holes(node, conditional, holes)
        holes.sort(key=operator.itemgetter(0))
        starts, group = self.starts, []
        at = starts[node.lineno - 1] + node.col_offset
        for start, end, piece in holes:
            group += self.source[at:start].decode(), piece
            at = end
        end = starts[node.end_lineno - 1] + node.end_col_offset
        group.append(self.source[at:end].decode())
        if isinstance(node, ast.expr) and node.end_lineno > node.lineno:
            group[0], group[-1] = f"({group[0]}", f"{group[-1]})"  # its lines
        return group

    def holes(self, node, conditional: bool, holes: list) -> None:
        """(start, end, piece) of each name and call by name in `node`,
        outside the calls found."""
        kind = type(node)
        if kind is ast.Constant:
            return
        if kind is ast.Name:
            if type(node.ctx) is ast.Load:
                self.reads[node.id] = self.reads.get(node.id, 0) + 1
            else:
                self.stored.add(node.id)
            start = self.starts[node.lineno - 1] + node.col_offset
            holes.append((start, start + len(node.id.encode()),
                          _Name(node.id)))
        elif kind is ast.Attribute:
            self.holes(node.value, conditional, holes)
        elif _plain_call(node):
            self.call(node, conditional, holes)
        elif kind is ast.IfExp:
            self.holes(node.test, conditional, holes)
            self.holes(node.body, True, holes)
            self.holes(node.orelse, True, holes)
        elif kind is ast.BoolOp:
            for i, value in enumerate(node.values):
                self.holes(value, conditional or i > 0, holes)
        elif issubclass(kind, _OWN_SCOPE):
            self.plain = False  # kept as it is written
        else:
            self.plain &= not issubclass(kind, (ast.NamedExpr, ast.Yield,
                                                ast.YieldFrom, ast.Await))
            for field in node._fields:
                child = getattr(node, field)
                if isinstance(child, list):
                    for c in child:
                        if isinstance(c, ast.AST):
                            self.holes(c, conditional, holes)
                elif isinstance(child, ast.AST):
                    self.holes(child, conditional, holes)

    def call(self, node: ast.Call, conditional: bool, holes: list) -> None:
        name, starts = node.func.id, self.starts
        self.calls.add(name)
        self.reads[name] = self.reads.get(name, 0) + 1
        start = starts[node.lineno - 1] + node.col_offset
        ends = [start + len(name.encode())]  # ends of the source around args
        for a in node.args:
            ends += (starts[a.lineno - 1] + a.col_offset,
                     starts[a.end_lineno - 1] + a.end_col_offset)
        ends.append(starts[node.end_lineno - 1] + node.end_col_offset)
        holes.append((start, ends[-1], _Call(
            name, [self.group(a, conditional) for a in node.args],
            tuple(self.source[a:b].decode()
                  for a, b in zip(ends[::2], ends[1::2])),
            conditional)))


#: Expressions with a scope of their own: kept as they are written.
_OWN_SCOPE = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
              ast.GeneratorExp)


def _plain_call(node) -> bool:
    """Whether `node` calls a name with positional arguments alone."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and not node.keywords
            and not any(isinstance(a, ast.Starred) for a in node.args))


#: An attribute of a name, such as `p.eps`: read once, written in place.
_LOAD = re.compile(r"[A-Za-z_][\w.]*")


def _is_law(obj) -> bool:
    """A law as its module defines it: not a wrapper, not a replacement."""
    return (type(obj) is types.FunctionType
            and not hasattr(obj, "__wrapped__")
            and (obj.__module__ in _LAW_MODULES
                 or (obj.__module__, obj.__name__) == _BOUNDED))


class _KeepCall(Exception):
    """A law whose body cannot be written in where it is called."""


class _LawWriter:
    """Writes a function's statements with each law call as the law's body.

    Lines are relative to the statements' own indentation. A law whose body
    needs statements puts them in `before`, the lines run ahead of the
    statement that calls it; where `before` is None the call may not run,
    and only a law of one `return` is written in there.
    """

    def __init__(self, kernel_globals: dict, kernel_locals: frozenset):
        self.kernel_globals = kernel_globals
        self.kernel_locals = kernel_locals
        self.calls = []  # (namespace, name, object) of each call looked up
        self.kept = []  # (namespace, name, object) of each left a call
        self.sites = {}  # calls written in, per law

    def lines(self, statements, names: dict, ns: dict, target=None) -> list:
        """The lines of `statements`, with `names` renamed and the functions
        they call looked up in `ns`. With a `target`, a tuple of names, each
        `return v` assigns v to it, and an `if` that returns takes the
        statements after it as its `else`."""
        out = []
        for i, s in enumerate(statements):
            before, kind = [], s[0]
            if kind == "if":
                _, test, body, orelse, returns = s
                test = self.text(test, names, ns, before)
                branch = target if returns else None
                if branch:
                    orelse = orelse + statements[i + 1:]
                out += before + [f"if {test}:"] + _indented(
                    self.lines(body, names, ns, branch))
                if orelse:
                    out += ["else:"] + _indented(
                        self.lines(orelse, names, ns, branch))
                if branch:
                    return out
            elif kind == "return":
                _, value = s
                if target is None:
                    line = ("return " + self.text(value, names, ns, before)
                            if value else "return")
                    return out + before + [line]
                if not value:
                    raise _KeepCall  # a law with no value
                line = self.text(value, names, ns, before)
                return out + before + [f"{', '.join(target)} = {line}"]
            elif kind == "assign":
                _, group, targets, value, call = s
                targets = targets and tuple(names.get(t, t) for t in targets)
                if targets and call:
                    lines = self.site(call, names, ns, before, targets)
                    if isinstance(lines, str):  # left a call
                        lines = [f"{', '.join(targets)} = {lines}"]
                else:
                    lhs = (", ".join(targets) if targets else
                           self.text(group, names, ns, None))
                    lines = [f"{lhs} = "
                             + self.text(value, names, ns, before)]
                out += before + lines
            else:
                line = self.text(s[1], names, ns, before)
                out += before + [line]
        if target is not None:
            raise _KeepCall  # a path of a law ends with no value
        return out

    def text(self, group, names: dict, ns: dict, before) -> str:
        """The source of a group, with `names` renamed and its law calls
        written in."""
        out = []
        for piece in group:
            if type(piece) is _Name:
                out.append(names.get(piece, piece))
            elif type(piece) is _Call:
                out.append(self.site(piece, names, ns, before))
            else:
                out.append(piece)
        return "".join(out)

    def site(self, call: _Call, names, ns, before, target=None):
        """A call written in: the lines assigning a law's value to `target`,
        else the text standing for the call."""
        hoist = None if call.conditional else before
        args = [self.text(g, names, ns, hoist) for g in call.args]
        name = call.name
        if name not in names and name in ns:
            self.calls.append((ns, name, ns[name]))
            try:
                return self.law(ns[name], args, hoist, target)
            except _KeepCall:
                self.kept.append((ns, name, ns[name]))
        seps = call.seps
        return (names.get(name, name) + seps[0]
                + "".join(a + sep for a, sep in zip(args, seps[1:])))

    def law(self, law, args: list, before, target):
        """`law`'s body for arguments `args`: the text of a law of one
        `return` with no argument to bind, else its lines, returned with a
        `target`, or put in `before` with the name of their value. A name,
        or an attribute of one read at most once, is written where its
        parameter is read; any other argument is bound to a local first.
        Parameters and locals take a prefix of their own per call."""
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
            if param not in form.stored and (arg.isidentifier() or (
                    form.reads.get(param, 0) <= 1 and _LOAD.fullmatch(arg))):
                names[param] = arg
            else:
                names[param] = prefix + param
                binds.append(f"{prefix}{param} = {arg}")
        names.update((local, prefix + local) for local in form.stored)
        kept, body, hoisted = len(self.kept), form.body, []
        one_line = (not binds and len(body) == 1 and body[0][0] == "return"
                    and body[0][1])
        if one_line:
            text = self.text(body[0][1], names, ns,
                             None if before is None else hoisted)
        elif target is None and before is None:
            raise _KeepCall
        else:
            hoisted = binds + self.lines(body, names, ns,
                                         target or (prefix[:-1],))
        if any(n is ns and (name in self.kernel_locals
                            or self.kernel_globals.get(name) is not obj)
               for n, name, obj in self.kept[kept:]):
            raise _KeepCall  # a call the kernel would resolve elsewhere
        if one_line and target is not None:
            return hoisted + [f"{', '.join(target)} = {text}"]
        if target is not None:
            return hoisted
        if hoisted:
            before += hoisted
        return f"({text})" if one_line else prefix[:-1]


def _indented(lines: list) -> list:
    return [f"    {line}" for line in lines]
