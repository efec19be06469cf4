"""AST → Python transpiler.

Every miniCUDA function becomes a Python function executed once per simulated
thread. The generated code

* accumulates a per-thread cycle count ``_c`` using the
  :class:`~repro.sim.costmodel.CostModel` weights (constants are folded at
  generation time);
* attributes the cycles of transform-inserted statements to their breakdown
  region (``_rt.reg_agg`` / ``_rt.reg_disagg``, for Fig. 10);
* reports dynamic launches to the execution context
  (``_c = _rt.launch(...)``), which records the launching block and the
  thread-cycle offset of the launch;
* compiles kernels that use ``__syncthreads()`` into *generators* that yield
  their cycle count at each barrier so the block executor can rotate threads
  and re-synchronize their clocks;
* binds each indexed pointer ``x`` to its backing list and offset
  (``_A_x``, ``_O_x``) after every assignment to it and, for a parameter,
  before the first statement (or loop) that indexes it, so ``x[i]`` is
  the list index ``_A_x[_O_x + i]``;
* coerces every store to the stored-to element or variable type
  (``int(v)`` / ``float(v)``) unless a small static typer (:meth:`_kind`)
  proves *v* already has that type — lists do not coerce the way numpy
  arrays did.

Calling conventions:

* kernel: ``k_<name>(_rt, _bix, _tix, _gdim, _bdim, *params) -> cycles``
  (generators return cycles via ``StopIteration.value``);
* device function: ``f_<name>(_rt, _bix, _tix, _gdim, _bdim, *params)
  -> value`` with its cycles added to ``_rt.tc`` (the per-thread spill
  counter reset by the executor), so device calls compose in expressions.
"""

from ..errors import CodegenError
from ..minicuda import ast
from ..minicuda.ast import region_of
from ..minicuda.visitor import find_all
from ..sim.costmodel import CostModel, call_cost

_BARRIER_CALLS = ("__syncthreads",)

_CMP_OPS = {"==": "==", "!=": "!=", "<": "<", ">": ">", "<=": "<=",
            ">=": ">="}
_ARITH_OPS = {"+": "+", "-": "-", "*": "*", "<<": "<<", ">>": ">>",
              "&": "&", "|": "|", "^": "^"}

_MATH_FUNCS = {
    "ceil": "_m.ceil", "ceilf": "_m.ceil",
    "floor": "_m.floor", "floorf": "_m.floor",
    "sqrt": "_m.sqrt", "sqrtf": "_m.sqrt",
    "exp": "_m.exp", "expf": "_m.exp",
    "log": "_m.log", "logf": "_m.log",
    "pow": "_m.pow", "powf": "_m.pow",
    "tanh": "_m.tanh", "tanhf": "_m.tanh",
    "fabs": "abs", "fabsf": "abs", "abs": "abs",
    "min": "min", "max": "max", "fminf": "min", "fmaxf": "max",
}

_ATOMIC_METHODS = {
    "atomicAdd": "atomic_add", "atomicSub": "atomic_sub",
    "atomicMax": "atomic_max", "atomicMin": "atomic_min",
    "atomicCAS": "atomic_cas", "atomicExch": "atomic_exch",
    "atomicOr": "atomic_or", "atomicAnd": "atomic_and",
}

#: Scalar type names by the kind of Python value that memory of the type
#: holds (``bool`` elements are stored as ints; see engine.values).
_INT_TYPES = frozenset({"int", "unsigned", "unsigned int", "long",
                        "unsigned long", "short", "char"})
_FLOAT_TYPES = frozenset({"float", "double"})

_RESERVED_MEMBERS = {
    ("threadIdx", "x"): "_tix", ("threadIdx", "y"): "_tiy",
    ("threadIdx", "z"): "_tiz",
    ("blockIdx", "x"): "_bix", ("blockIdx", "y"): "_biy",
    ("blockIdx", "z"): "_biz",
    ("blockDim", "x"): "_bdim.x", ("blockDim", "y"): "_bdim.y",
    ("blockDim", "z"): "_bdim.z",
    ("gridDim", "x"): "_gdim.x", ("gridDim", "y"): "_gdim.y",
    ("gridDim", "z"): "_gdim.z",
}


def _mangle(name):
    return "v_" + name


def _storage_kind(type_):
    """'int' / 'float' for what memory holding *type_* elements stores
    (device arrays coerce ``bool`` to int), None for pointers and others."""
    if type_.pointers:
        return None
    if type_.name in _INT_TYPES or type_.name == "bool":
        return "int"
    if type_.name in _FLOAT_TYPES:
        return "float"
    return None


def scalar_kind(type_):
    """'int' / 'float' for a scalar variable or parameter of *type_* (None
    for bool, dim3 and pointers, whose values are not coerced)."""
    if type_.pointers or type_.name == "bool":
        return None
    return _storage_kind(type_)


def _binary_kind(op, lhs, rhs):
    """Static kind of ``lhs op rhs`` given its operand kinds."""
    if lhs is None or rhs is None or op in _CMP_OPS or op in ("&&", "||"):
        return None
    if lhs == rhs == "int":
        return "int"
    if op in ("+", "-", "*", "/", "%"):
        return "float"
    return None


def _coerced(kind, value_kind, code):
    """*code* converted to *kind* unless its static kind already is."""
    if kind is None or kind == value_kind:
        return code
    return "%s(%s)" % (kind, code)


class FunctionCodegen:
    """Generate Python source for one miniCUDA function."""

    def __init__(self, func, program_info, cost_model, macros):
        self.func = func
        self.info = program_info      # ProgramInfo: names of funcs/globals
        self.cm = cost_model
        self.macros = macros
        self.lines = []
        self.types = {p.name: p.type for p in func.params}
        self.arrays = set()           # __shared__ / local arrays (lists)
        for decl_stmt in find_all(func, ast.DeclStmt):
            for decl in decl_stmt.decls:
                self.types[decl.name] = decl.type
                if decl.array_size is not None:
                    self.arrays.add(decl.name)
        self.hoisted = {
            base.name for base in self._pointer_bases(func)
            if base.name not in self.arrays
            and self.types[base.name].pointers > 0}
        # Parameters are bound lazily, before the first statement that
        # indexes them; each nested block gets its own scope of bindings.
        self._lazy = self.hoisted & {p.name for p in func.params}
        self._bound = [set()]
        self.has_barrier = any(
            isinstance(c.func, ast.Ident) and c.func.name in _BARRIER_CALLS
            for c in find_all(func, ast.Call))
        if self.has_barrier and func.is_device:
            raise CodegenError(
                "device function %r uses __syncthreads(); barriers are only "
                "supported directly inside kernels" % func.name)

    def _pointer_bases(self, node):
        """Variables of this function that *node* indexes, dereferences
        or hands to an atomic."""
        for sub in node.walk():
            if isinstance(sub, ast.Index):
                base = sub.base
            elif isinstance(sub, ast.Unary) and sub.op == "*":
                base = sub.operand
            elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Ident)
                  and sub.func.name in _ATOMIC_METHODS and sub.args):
                base = sub.args[0]
            else:
                continue
            if isinstance(base, ast.Ident) and base.name in self.types:
                yield base

    def _emit_hoist(self, indent, name):
        """Bind ``_A_x, _O_x`` to pointer x's list and offset; inline
        attribute loads for a Ptr, :func:`~repro.engine.values.hoist`
        (lists, null pointers) otherwise."""
        if name in self.hoisted:
            var = _mangle(name)
            self._emit(indent, "if %s.__class__ is _Ptr: _A_%s = %s.array; "
                               "_O_%s = %s.offset" % (var, name, var, name,
                                                      var))
            self._emit(indent, "else: _A_%s, _O_%s = _hoist(%s)" % (
                name, name, var))
            self._bound[-1].add(name)

    def _bind_params(self, indent, *nodes):
        """Hoist the pointer parameters *nodes* index that no enclosing
        scope has bound yet. Locals need none of this: they are hoisted
        at their declaration, which dominates every use."""
        names = {base.name for node in nodes if node is not None
                 for base in self._pointer_bases(node)
                 if base.name in self._lazy}
        for name in sorted(names):
            if not any(name in scope for scope in self._bound):
                self._emit_hoist(indent, name)

    def _unconditional(self, stmt):
        """Parts of *stmt* that run whenever it does (an ``if``'s branches
        do not): what a loop binds before its first iteration."""
        if isinstance(stmt, ast.Compound):
            for inner in stmt.stmts:
                yield from self._unconditional(inner)
        elif isinstance(stmt, ast.If):
            yield stmt.cond
        elif isinstance(stmt, (ast.While, ast.DoWhile, ast.For)):
            yield stmt.cond
            yield getattr(stmt, "step", None)
            yield from self._unconditional(stmt.body)
        else:
            yield stmt

    def _enter_scope(self):
        self._bound.append(set())

    def _exit_scope(self):
        self._bound.pop()

    # -- entry point --------------------------------------------------------

    @property
    def _ctx_args(self):
        """Thread-context parameters threaded through every call.

        Programs that never read threadIdx/blockIdx .y/.z use the compact
        1-D context (faster: millions of simulated thread calls); programs
        with multi-dimensional kernels get the full 3-D context.
        """
        if self.info.multi_dim:
            return "_bix, _biy, _biz, _tix, _tiy, _tiz, _gdim, _bdim"
        return "_bix, _tix, _gdim, _bdim"

    def generate(self):
        func = self.func
        prefix = "k_" if func.is_kernel else "f_"
        params = ", ".join(_mangle(p.name) for p in func.params)
        header = "def %s%s(_rt, %s%s):" % (
            prefix, func.name, self._ctx_args,
            (", " + params) if params else "")
        self._emit(0, header)
        # Sec. VIII-D: the mere presence of a dynamic launch in a kernel
        # makes the compiler emit (and the hardware execute) a large number
        # of extra instructions even when the launch never happens.
        contains_launch = bool(find_all(func, ast.Launch))
        if contains_launch and func.is_kernel:
            self._emit(1, "_c = %d" % self.cm.cdp_code_tax)
        else:
            self._emit(1, "_c = 0")
        self._gen_compound(func.body, 1)
        if func.is_kernel:
            self._emit(1, "return _c")
        else:
            self._emit(1, "_rt.tc += _c")
            self._emit(1, "return None")
        return "\n".join(self.lines)

    def _emit(self, indent, text):
        self.lines.append("    " * indent + text)

    # -- cost helpers ------------------------------------------------------

    def _weight(self, expr):
        if expr is None:
            return 0
        total = 0
        for node in expr.walk():
            if isinstance(node, (ast.Binary, ast.Assign, ast.Ternary,
                                 ast.Cast)):
                total += self.cm.alu
            elif isinstance(node, ast.Unary) and node.op != "&":
                total += self.cm.alu
            elif isinstance(node, ast.Index):
                total += self.cm.mem
            elif isinstance(node, ast.Call):
                total += self._call_weight(node)
        return total

    def _call_weight(self, call):
        if isinstance(call.func, ast.Ident):
            name = call.func.name
            if name in _BARRIER_CALLS:
                return 0  # charged at the yield site
            if name in self.info.functions:
                return self.cm.call
            return call_cost(self.cm, name)
        return self.cm.call

    def _emit_cost(self, indent, weight, region):
        if weight <= 0:
            return
        self._emit(indent, "_c += %d" % weight)
        if region in ("agg", "disagg"):
            self._emit(indent, "_rt.reg_%s += %d" % (region, weight))

    # -- statements -----------------------------------------------------------

    def _gen_compound(self, compound, indent):
        if not compound.stmts:
            self._emit(indent, "pass")
            return
        # Group consecutive simple statements to merge their cost updates.
        pending = []

        def flush():
            if not pending:
                return
            weight = sum(self._stmt_weight(s) for s in pending)
            self._emit_cost(indent, weight, region_of(pending[0]))
            for simple in pending:
                self._bind_params(indent, simple)
                self._gen_simple(simple, indent)
            pending.clear()

        prev_region = None
        for stmt in compound.stmts:
            if self._is_simple(stmt):
                if pending and region_of(stmt) != prev_region:
                    flush()
                pending.append(stmt)
                prev_region = region_of(stmt)
            else:
                flush()
                self._gen_stmt(stmt, indent)
        flush()

    def _is_simple(self, stmt):
        """Statements whose cost can be merged and emitted inline."""
        if isinstance(stmt, ast.DeclStmt):
            return True
        if isinstance(stmt, ast.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, ast.Launch):
                return False
            if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Ident)
                    and expr.func.name in _BARRIER_CALLS):
                return False
            return True
        return False

    def _stmt_weight(self, stmt):
        if isinstance(stmt, ast.DeclStmt):
            return sum(self._weight(d.init) for d in stmt.decls
                       if d.init is not None)
        return self._weight(stmt.expr)

    def _gen_stmt(self, stmt, indent):
        region = region_of(stmt)
        if isinstance(stmt, (ast.ExprStmt, ast.DeclStmt, ast.Return)):
            self._bind_params(indent, stmt)
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            self._bind_params(indent, *self._unconditional(stmt))
        if isinstance(stmt, ast.Compound):
            self._gen_compound(stmt, indent)
        elif isinstance(stmt, ast.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, ast.Launch):
                self._gen_launch(expr, indent)
            elif (isinstance(expr, ast.Call)
                  and isinstance(expr.func, ast.Ident)
                  and expr.func.name in _BARRIER_CALLS):
                self._gen_barrier(indent, region)
            else:
                self._emit_cost(indent, self._weight(expr), region)
                self._gen_simple(stmt, indent)
        elif isinstance(stmt, ast.DeclStmt):
            self._emit_cost(indent, self._stmt_weight(stmt), region)
            self._gen_simple(stmt, indent)
        elif isinstance(stmt, ast.If):
            self._bind_params(indent, stmt.cond)
            self._emit_cost(indent, self._weight(stmt.cond), region)
            self._emit(indent, "if %s:" % self._cond(stmt.cond))
            self._gen_nested(stmt.then, indent + 1)
            if stmt.orelse is not None:
                self._emit(indent, "else:")
                self._gen_nested(stmt.orelse, indent + 1)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt.cond, stmt.body, indent, region)
        elif isinstance(stmt, ast.DoWhile):
            self._emit(indent, "while True:")
            self._enter_scope()
            self._gen_nested(stmt.body, indent + 1)
            self._emit_cost(indent + 1, self._weight(stmt.cond), region)
            self._emit(indent + 1, "if not (%s):" % self._cond(stmt.cond))
            self._emit(indent + 2, "break")
            self._exit_scope()
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._gen_stmt(stmt.init, indent)
            self._bind_params(indent, stmt.cond, stmt.step,
                              *self._unconditional(stmt.body))
            self._gen_while(stmt.cond, stmt.body, indent, region,
                            step=stmt.step)
        elif isinstance(stmt, ast.Return):
            if self.func.is_kernel:
                if stmt.value is not None:
                    raise CodegenError("kernel returning a value")
                self._emit(indent, "return _c")
            else:
                self._emit(indent, "_rt.tc += _c")
                value = ("None" if stmt.value is None
                         else self._expr(stmt.value))
                self._emit(indent, "return %s" % value)
        elif isinstance(stmt, ast.Break):
            self._emit(indent, "break")
        elif isinstance(stmt, ast.Continue):
            self._emit(indent, "continue")
        else:
            raise CodegenError(
                "cannot generate statement %r" % type(stmt).__name__)

    def _gen_nested(self, stmt, indent):
        self._enter_scope()
        if isinstance(stmt, ast.Compound):
            self._gen_compound(stmt, indent)
        else:
            self._gen_stmt(stmt, indent)
        self._exit_scope()

    def _gen_while(self, cond, body, indent, region, step=None):
        self._emit(indent, "while True:")
        self._enter_scope()
        if cond is not None:
            self._emit_cost(indent + 1, self._weight(cond), region)
            self._emit(indent + 1, "if not (%s):" % self._cond(cond))
            self._emit(indent + 2, "break")
        self._gen_nested(body, indent + 1)
        if step is not None:
            self._emit_cost(indent + 1, self._weight(step), region)
            self._gen_expr_effect(step, indent + 1)
        self._exit_scope()

    def _gen_barrier(self, indent, region):
        if not self.has_barrier:
            raise CodegenError("internal: barrier in non-barrier kernel")
        self._emit_cost(indent, self.cm.sync, region)
        self._emit(indent, "_c = yield _c")

    def _gen_launch(self, launch, indent):
        if launch.kernel not in self.info.kernels:
            raise CodegenError("launch of unknown kernel %r" % launch.kernel)
        args = "".join(a + ", " for a in self._call_args(launch.kernel,
                                                         launch.args))
        self._emit(indent, "_c = _rt.launch(%r, _D3.of(%s), _D3.of(%s), "
                           "(%s), _c)" % (
                               launch.kernel, self._expr(launch.grid),
                               self._expr(launch.block), args))

    def _gen_simple(self, stmt, indent):
        """Emit a DeclStmt or effect-only ExprStmt (cost already emitted)."""
        if isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                if decl.array_size is not None:
                    self._gen_array_decl(decl, indent)
                else:
                    self._gen_decl(decl, indent)
        else:
            self._gen_expr_effect(stmt.expr, indent)

    def _gen_array_decl(self, decl, indent):
        """``__shared__ T buf[n]`` → one block-scoped array shared by all
        threads; a plain ``T buf[n]`` → a per-thread local array."""
        size = self._expr(decl.array_size)
        if decl.is_shared:
            self._emit(indent, "%s = _rt.shared_array(%r, %s, %r)" % (
                _mangle(decl.name), decl.name, size, decl.type.name))
        else:
            self._emit(indent, "%s = _local_array(%s, %r)" % (
                _mangle(decl.name), size, decl.type.name))

    def _gen_decl(self, decl, indent):
        name = _mangle(decl.name)
        kind = scalar_kind(decl.type)
        if decl.init is None:
            if decl.type.name == "dim3" and decl.type.pointers == 0:
                default = "_D3()"
            else:
                default = "0.0" if kind == "float" else "0"
            self._emit(indent, "%s = %s" % (name, default))
        else:
            value = self._expr(decl.init)
            if decl.type.name == "dim3" and decl.type.pointers == 0:
                value = "_D3.of(%s)" % value
            value = _coerced(kind, self._kind(decl.init), value)
            self._emit(indent, "%s = %s" % (name, value))
        self._emit_hoist(indent, decl.name)

    def _gen_expr_effect(self, expr, indent):
        """An expression evaluated for effect (assignment, call, ++/--)."""
        if isinstance(expr, ast.Assign):
            self._gen_assign(expr, indent)
        elif isinstance(expr, ast.Unary) and expr.op in ("++", "--"):
            op = "+=" if expr.op == "++" else "-="
            self._emit(indent, "%s %s 1" % (self._lvalue(expr.operand), op))
            self._emit_hoist_target(indent, expr.operand)
        elif isinstance(expr, ast.Call):
            if (isinstance(expr.func, ast.Ident)
                    and expr.func.name == "cudaMalloc"):
                self._cuda_malloc_stmt(expr.args, indent)
            else:
                emitted = self._expr(expr)
                if emitted != "None":
                    self._emit(indent, emitted)
        elif isinstance(expr, ast.Launch):
            self._gen_launch(expr, indent)
        else:
            # Pure expression statement: cost was counted; no effect.
            self._emit(indent, "pass")

    def _gen_assign(self, assign, indent):
        target = assign.target
        value = self._expr(assign.value)
        lvalue = self._lvalue(target)
        kind = self._target_kind(target)
        op = assign.op
        if op == "=":
            if (isinstance(target, ast.Ident)
                    and self._type_name(target.name) == "dim3"):
                value = "_D3.of(%s)" % value
            value = _coerced(kind, self._kind(assign.value), value)
            self._emit(indent, "%s = %s" % (lvalue, value))
        elif op in ("/=", "%="):
            helper = "_div" if op == "/=" else "_mod"
            result = _binary_kind(op[0], self._kind(target),
                                  self._kind(assign.value))
            self._emit(indent, "%s = %s" % (lvalue, _coerced(
                kind, result, "%s(%s, %s)" % (helper, lvalue, value))))
        else:
            result = _binary_kind(op[:-1], self._kind(target),
                                  self._kind(assign.value))
            if kind is None or result == kind:
                self._emit(indent, "%s %s %s" % (lvalue, op, value))
            else:
                self._emit(indent, "%s = %s((%s) %s (%s))" % (
                    lvalue, kind, lvalue, op[:-1], value))
        self._emit_hoist_target(indent, target)

    def _emit_hoist_target(self, indent, target):
        if isinstance(target, ast.Ident):
            self._emit_hoist(indent, target.name)

    def _target_kind(self, target):
        """The kind a store to *target* must have (None: no coercion, or
        left to ``Ptr.__setitem__`` at run time)."""
        if isinstance(target, ast.Ident):
            if target.name in self.types:
                return scalar_kind(self.types[target.name])
            return None
        if isinstance(target, ast.Member):
            return "int"              # dim3 components
        return self._element_kind(target)

    def _element_kind(self, expr):
        """Storage kind of ``x[i]`` / ``*x`` for a pointer or array
        variable ``x`` of this function, else None."""
        if isinstance(expr, ast.Index):
            base = expr.base
        elif isinstance(expr, ast.Unary) and expr.op == "*":
            base = expr.operand
        else:
            return None
        if not (isinstance(base, ast.Ident) and base.name in self.types):
            return None
        base_type = self.types[base.name]
        if base.name in self.arrays:
            return _storage_kind(base_type)
        if base_type.pointers > 0:
            return _storage_kind(base_type.pointee())
        return None

    def _kind(self, expr):
        """'int' / 'float' when *expr* statically evaluates to a Python
        int / float, else None (unknown, bool, pointer, dim3)."""
        if isinstance(expr, ast.IntLit):
            return "int"
        if isinstance(expr, ast.FloatLit):
            return "float"
        if isinstance(expr, ast.Ident):
            name = expr.name
            if name in self.types:
                if name in self.arrays:
                    return None
                return scalar_kind(self.types[name])
            if name == "warpSize" or name in self.macros:
                return "int"
            return None
        if isinstance(expr, ast.Member):
            if isinstance(expr.obj, ast.Ident) and (
                    (expr.obj.name, expr.attr) in _RESERVED_MEMBERS
                    or self._type_name(expr.obj.name) == "dim3"):
                return "int"
            return None
        if isinstance(expr, ast.Index) or (
                isinstance(expr, ast.Unary) and expr.op == "*"):
            return self._element_kind(expr)
        if isinstance(expr, ast.Unary):
            if expr.op in ("-", "+"):
                return self._kind(expr.operand)
            return "int" if expr.op == "~" else None
        if isinstance(expr, ast.Binary):
            return _binary_kind(expr.op, self._kind(expr.lhs),
                                self._kind(expr.rhs))
        if isinstance(expr, ast.Ternary):
            then = self._kind(expr.then)
            return then if then == self._kind(expr.orelse) else None
        if isinstance(expr, ast.Cast):
            return scalar_kind(expr.type)
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Ident):
            name = expr.func.name
            if name in ("ceil", "ceilf", "floor", "floorf"):
                return "int"          # math.ceil/floor return ints
            if _MATH_FUNCS.get(name, "").startswith("_m."):
                return "float"
            if name in _MATH_FUNCS and expr.args:
                kinds = {self._kind(a) for a in expr.args}
                return kinds.pop() if len(kinds) == 1 else None
        return None

    def _type_name(self, var_name):
        var_type = self.types.get(var_name)
        if var_type is not None and var_type.pointers == 0:
            return var_type.name
        return None

    def _lvalue(self, expr):
        if isinstance(expr, ast.Ident):
            if expr.name in self.types:
                return _mangle(expr.name)
            if expr.name in self.info.global_scalars:
                return "g_%s[0]" % expr.name
            raise CodegenError("assignment to unknown name %r" % expr.name)
        if isinstance(expr, ast.Index):
            return self._index(expr.base, self._expr(expr.index))
        if isinstance(expr, ast.Member):
            if isinstance(expr.obj, ast.Ident) and \
                    (expr.obj.name, expr.attr) in _RESERVED_MEMBERS:
                raise CodegenError("assignment to reserved variable")
            return "%s.%s" % (self._expr(expr.obj), expr.attr)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return self._index(expr.operand, "0")
        raise CodegenError(
            "unsupported assignment target %r" % type(expr).__name__)

    def _index(self, base, index):
        """``base[index]``, as a direct list index for hoisted pointers."""
        if isinstance(base, ast.Ident) and base.name in self.hoisted:
            return "_A_%s[%s]" % (base.name, self._offset(base.name, index))
        return "%s[%s]" % (self._expr(base), index)

    @staticmethod
    def _offset(name, index):
        return "_O_%s" % name if index == "0" else "_O_%s + %s" % (
            name, index)

    # -- expressions ---------------------------------------------------------

    def _cond(self, expr):
        return self._expr(expr)

    def _expr(self, expr):
        if isinstance(expr, ast.IntLit):
            return repr(expr.value)
        if isinstance(expr, ast.FloatLit):
            return repr(expr.value)
        if isinstance(expr, ast.BoolLit):
            return "True" if expr.value else "False"
        if isinstance(expr, ast.StrLit):
            return repr(expr.value)
        if isinstance(expr, ast.Ident):
            return self._ident(expr.name)
        if isinstance(expr, ast.Member):
            return self._member(expr)
        if isinstance(expr, ast.Index):
            return self._index(expr.base, self._expr(expr.index))
        if isinstance(expr, ast.Binary):
            return self._binary(expr)
        if isinstance(expr, ast.Unary):
            return self._unary(expr)
        if isinstance(expr, ast.Ternary):
            return "(%s if %s else %s)" % (
                self._expr(expr.then), self._cond(expr.cond),
                self._expr(expr.orelse))
        if isinstance(expr, ast.Cast):
            return self._cast(expr)
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Assign):
            raise CodegenError(
                "assignment used as a value; restructure the source")
        if isinstance(expr, ast.Launch):
            raise CodegenError("launch used as a value")
        raise CodegenError(
            "cannot generate expression %r" % type(expr).__name__)

    def _ident(self, name):
        if name in self.types:
            return _mangle(name)
        if name == "warpSize":
            return "32"
        if name in self.macros:
            return repr(int(self.macros[name]))
        if name in self.info.global_scalars:
            return "g_%s[0]" % name
        if name in self.info.global_arrays:
            return "g_%s" % name
        raise CodegenError(
            "unknown identifier %r in %r (missing macro definition?)"
            % (name, self.func.name))

    def _member(self, expr):
        if isinstance(expr.obj, ast.Ident):
            key = (expr.obj.name, expr.attr)
            if key in _RESERVED_MEMBERS:
                replacement = _RESERVED_MEMBERS[key]
                if not self.info.multi_dim and replacement in (
                        "_tiy", "_tiz", "_biy", "_biz"):
                    return "0"
                return replacement
        return "%s.%s" % (self._expr(expr.obj), expr.attr)

    def _binary(self, expr):
        lhs, rhs = self._expr(expr.lhs), self._expr(expr.rhs)
        op = expr.op
        if op in ("/", "%"):
            ints = self._kind(expr.lhs) == self._kind(expr.rhs) == "int"
            helper = ("_i" if ints else "_") + ("div" if op == "/" else "mod")
            return "%s(%s, %s)" % (helper, lhs, rhs)
        if op == "&&":
            return "((%s) and (%s))" % (lhs, rhs)
        if op == "||":
            return "((%s) or (%s))" % (lhs, rhs)
        if op in _CMP_OPS or op in _ARITH_OPS:
            return "(%s %s %s)" % (lhs, op, rhs)
        raise CodegenError("unknown binary operator %r" % op)

    def _unary(self, expr):
        if expr.op in ("++", "--"):
            raise CodegenError(
                "++/-- only supported as statements or loop steps")
        operand = self._expr(expr.operand)
        if expr.op == "-":
            return "(-%s)" % operand
        if expr.op == "+":
            return "(+%s)" % operand
        if expr.op == "!":
            return "(not (%s))" % operand
        if expr.op == "~":
            return "(~int(%s))" % operand
        if expr.op == "*":
            return self._index(expr.operand, "0")
        if expr.op == "&":
            raise CodegenError(
                "address-of is only supported in atomic/cudaMalloc calls")
        raise CodegenError("unknown unary operator %r" % expr.op)

    def _cast(self, expr):
        operand = self._expr(expr.operand)
        if expr.type.pointers > 0:
            return operand
        name = expr.type.name
        if name in ("float", "double"):
            return "float(%s)" % operand
        if name == "bool":
            return "bool(%s)" % operand
        return "int(%s)" % operand

    def _call(self, expr):
        if not isinstance(expr.func, ast.Ident):
            raise CodegenError("indirect calls are not supported")
        name = expr.func.name
        if name in _ATOMIC_METHODS:
            return self._atomic(name, expr.args)
        if name in _MATH_FUNCS:
            args = ", ".join(self._expr(a) for a in expr.args)
            return "%s(%s)" % (_MATH_FUNCS[name], args)
        if name == "dim3":
            args = [self._expr(a) for a in expr.args]
            while len(args) < 3:
                args.append("1")
            return "_D3(%s)" % ", ".join(args[:3])
        if name in ("__threadfence", "__threadfence_block", "__syncwarp"):
            return "None"
        if name == "printf":
            args = ", ".join(self._expr(a) for a in expr.args)
            return "_rt.printf(%s)" % args
        if name == "cudaMalloc":
            raise CodegenError("cudaMalloc is only supported as a statement")
        if name == "memset":
            ptr, value, _size = (self._expr(a) for a in expr.args)
            return "%s.fill(%s)" % (ptr, value)
        if name in self.info.functions:
            args = "".join(", " + a for a in self._call_args(name, expr.args))
            return "f_%s(_rt, %s%s)" % (name, self._ctx_args, args)
        raise CodegenError(
            "call to unknown function %r in %r" % (name, self.func.name))

    def _call_args(self, callee, args):
        """Argument code for a call or launch of *callee*, each scalar
        coerced to its parameter's type as a C call converts it."""
        params = self.info.params.get(callee, ())
        code = []
        for k, arg in enumerate(args):
            kind = scalar_kind(params[k]) if k < len(params) else None
            code.append(_coerced(kind, self._kind(arg), self._expr(arg)))
        return code

    def _pointer_ref(self, arg):
        """Resolve an atomic's pointer argument to ('array expr', 'index',
        element kind)."""
        if isinstance(arg, ast.Unary) and arg.op == "&":
            inner = arg.operand
            if isinstance(inner, ast.Index):
                base = inner.base
                index = self._expr(inner.index)
                kind = self._element_kind(inner)
            elif isinstance(inner, ast.Ident):
                if inner.name in self.info.global_scalars:
                    return "g_%s" % inner.name, "0", None
                raise CodegenError(
                    "atomic on non-global scalar %r" % inner.name)
            else:
                raise CodegenError("unsupported address-of operand in atomic")
        else:
            base, index = arg, "0"
            kind = self._element_kind(ast.Unary("*", arg))
        if isinstance(base, ast.Ident) and base.name in self.hoisted:
            return "_A_%s" % base.name, self._offset(base.name, index), kind
        return self._expr(base), index, kind

    def _atomic(self, name, args):
        base, index, kind = self._pointer_ref(args[0])
        # atomicCAS(p, compare, value) stores only its last operand.
        stored = len(args) - 1
        rest = "".join(
            ", " + (_coerced(kind, self._kind(a), self._expr(a))
                    if k == stored else self._expr(a))
            for k, a in enumerate(args) if k > 0)
        return "_rt.%s(%s, %s%s)" % (
            _ATOMIC_METHODS[name], base, index, rest)

    def _cuda_malloc_stmt(self, args, indent):
        """``cudaMalloc(&p, bytes)`` → device-heap allocation into local p.

        ``sizeof(T)`` lexes to 4, so *bytes* is in 4-byte units; the element
        type comes from the pointer's declaration.
        """
        target = args[0]
        if not (isinstance(target, ast.Unary) and target.op == "&"
                and isinstance(target.operand, ast.Ident)):
            raise CodegenError("cudaMalloc target must be &local_pointer")
        var = target.operand.name
        var_type = self.types.get(var)
        if var_type is None or var_type.pointers == 0:
            raise CodegenError("cudaMalloc target %r is not a pointer" % var)
        elem = var_type.pointee()
        size = self._expr(args[1])
        self._emit(indent, "%s = _rt.device_malloc((%s) // 4, %r)" % (
            _mangle(var), size, elem.name))
        self._emit_hoist(indent, var)


class ProgramInfo:
    """Name environment shared by all functions of one program."""

    def __init__(self, program):
        self.functions = {f.name for f in program.functions()
                          if f.body is not None}
        self.multi_dim = any(
            isinstance(node, ast.Member)
            and isinstance(node.obj, ast.Ident)
            and node.obj.name in ("threadIdx", "blockIdx")
            and node.attr in ("y", "z")
            for node in program.walk())
        self.kernels = {f.name for f in program.kernels()}
        self.params = {f.name: [p.type for p in f.params]
                       for f in program.functions()}
        self.global_scalars = set()
        self.global_arrays = set()
        for decl in program.decls:
            if isinstance(decl, ast.DeclStmt):
                for var in decl.decls:
                    if var.array_size is not None or var.type.pointers > 0:
                        self.global_arrays.add(var.name)
                    else:
                        self.global_scalars.add(var.name)


def generate_module_source(program, macros=None, cost_model=None):
    """Python module source implementing every function of *program*.

    Returns (source, kernel_info) where kernel_info maps kernel name to a
    dict with 'has_barrier' and 'params' (list of (name, Type)).
    """
    macros = macros or {}
    cost_model = cost_model or CostModel()
    info = ProgramInfo(program)
    chunks = [
        "import math as _m",
        "from repro.engine.values import (Dim3 as _D3, Ptr as _Ptr,"
        " hoist as _hoist)",
        "from repro.engine.builtins import (c_div as _div, c_mod as _mod,"
        " int_div as _idiv, int_mod as _imod, local_array as _local_array)",
        "",
    ]
    kernel_info = {}
    for func in program.functions():
        if func.body is None:
            continue
        generator = FunctionCodegen(func, info, cost_model, macros)
        chunks.append(generator.generate())
        chunks.append("")
        if func.is_kernel:
            kernel_info[func.name] = {
                "has_barrier": generator.has_barrier,
                "multi_dim": info.multi_dim,
                "params": [(p.name, p.type) for p in func.params],
            }
    return "\n".join(chunks), kernel_info
