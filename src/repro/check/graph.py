"""Project symbol/import/call-graph builder for whole-program analysis.

The flow passes in :mod:`repro.check.analyze` need three things the
per-file lint cannot see:

* **symbol resolution across modules** — what ``register`` means inside
  ``experiments/ext_mixed.py`` (it is ``repro.experiments.base.register``,
  possibly re-exported through one or more ``__init__.py`` hops);
* **a call graph** — which functions a process-pool worker can reach,
  including functions that are never *called* by name but escape by
  reference into registry tables (``SweepSpec(run_unit=...)``,
  ``pool.submit(fn, ...)``);
* **the repo's registration idioms, reified** — the experiment registry
  (``register(...)`` / ``attach_sweep``/``SweepSpec``) and pool
  submission sites, so passes can reason about worker-reachable state
  without executing any project code.

Everything here is static: modules come in as
:class:`~repro.check.parse.ParsedModule` objects (parsed exactly once,
see :mod:`repro.check.parse`) and nothing is imported or run.
Resolution is best-effort by design — an unresolvable name yields no
edge rather than an error, and import cycles are cut with a visited
set — because the passes built on top are linters, not compilers: a
missed edge costs a missed finding, never a crash.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.check.parse import ParsedModule, modules_by_name

#: Attribute names that stand for dynamic dispatch through the
#: experiment registry: a reachable function touching one of these
#: reaches every function registered in the corresponding table.
_REGISTRY_ATTRS = {
    "fn": "drivers",          # Experiment.fn(...) — run_experiment's dispatch
    "units": "units",         # SweepSpec.units(...)
    "run_unit": "run_units",  # SweepSpec.run_unit(...)
    "combine": "combines",    # SweepSpec.combine(...)
}

#: Constructor calls whose module-level result is a mutable container.
_MUTABLE_CONSTRUCTORS = {
    "list", "dict", "set", "bytearray", "defaultdict", "deque",
    "OrderedDict", "Counter",
}


@dataclass
class FunctionInfo:
    """One function or method, addressable as ``module:Qual.name``."""

    qualname: str
    module: str
    local_name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    lineno: int
    params: List[str] = field(default_factory=list)
    kwonly: List[str] = field(default_factory=list)
    defaults: Dict[str, ast.expr] = field(default_factory=dict)
    #: Attribute names read anywhere in the body (registry-dispatch map).
    attrs_used: Set[str] = field(default_factory=set)

    @property
    def all_params(self) -> List[str]:
        return self.params + self.kwonly


@dataclass
class ModuleSymbols:
    """Per-module top-level namespace, statically recovered."""

    name: str
    #: local name -> canonical dotted target ("repro.obs.events.TASK",
    #: "numpy", ...). ImportFrom targets include the imported symbol.
    imports: Dict[str, str] = field(default_factory=dict)
    #: local (possibly dotted, for methods) name -> FunctionInfo.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: module-level simple assignments: name -> value expression.
    assigns: Dict[str, ast.expr] = field(default_factory=dict)
    #: module-level names bound to mutable container displays/constructors.
    mutables: Dict[str, ast.stmt] = field(default_factory=dict)
    #: class names defined at top level (for constructor-call resolution).
    classes: Set[str] = field(default_factory=set)


@dataclass
class ExperimentRecord:
    """One ``register(...)`` site."""

    experiment_id: str
    module: str
    lineno: int
    col: int
    driver: Optional[str] = None  # qualname


@dataclass
class SweepRecord:
    """One ``attach_sweep(id, SweepSpec(...))`` site."""

    experiment_id: str
    module: str
    lineno: int
    col: int
    units: Optional[str] = None      # qualnames
    run_unit: Optional[str] = None
    combine: Optional[str] = None


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c`` (None otherwise)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ProjectGraph:
    """Symbols, call/ref edges, and registry tables for a module set."""

    def __init__(self, modules: Sequence[ParsedModule]):
        self.modules: Dict[str, ParsedModule] = modules_by_name(modules)
        self.symbols: Dict[str, ModuleSymbols] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: caller qualname (or "module-name::<module>") -> callee qualnames;
        #: includes by-reference escapes (callbacks, tables, submit args).
        self.edges: Dict[str, Set[str]] = {}
        self.experiments: Dict[str, ExperimentRecord] = {}
        self.sweeps: Dict[str, SweepRecord] = {}
        #: Functions handed to a process pool via ``<x>.submit(fn, ...)``.
        self.pool_roots: Set[str] = set()
        for module in self.modules.values():
            self._collect_symbols(module)
        for module in self.modules.values():
            self._collect_edges(module)
        self._link_sweep_drivers()

    # -- symbol collection ---------------------------------------------------

    def _collect_symbols(self, module: ParsedModule) -> None:
        syms = ModuleSymbols(name=module.name)
        self.symbols[module.name] = syms
        for node in module.tree.body:
            self._collect_statement(module, syms, node, prefix="")

    def _collect_statement(
        self, module: ParsedModule, syms: ModuleSymbols, node: ast.stmt, prefix: str
    ) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                syms.imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = self._import_base(module, node)
            if base is None:
                return
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                syms.imports[local] = f"{base}.{alias.name}" if base else alias.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local = f"{prefix}{node.name}"
            info = self._function_info(module, local, node)
            syms.functions[local] = info
            self.functions[info.qualname] = info
            for decorator in node.decorator_list:
                self._maybe_register(module, decorator, info)
        elif isinstance(node, ast.ClassDef) and not prefix:
            syms.classes.add(node.name)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._collect_statement(
                        module, syms, item, prefix=f"{node.name}."
                    )
        elif isinstance(node, ast.Assign) and not prefix:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    syms.assigns[target.id] = node.value
                    if self._is_mutable_value(node.value):
                        syms.mutables[target.id] = node
        elif isinstance(node, ast.AnnAssign) and not prefix:
            if isinstance(node.target, ast.Name) and node.value is not None:
                syms.assigns[node.target.id] = node.value
                if self._is_mutable_value(node.value):
                    syms.mutables[node.target.id] = node

    def _import_base(self, module: ParsedModule, node: ast.ImportFrom) -> Optional[str]:
        if not node.level:
            return node.module or ""
        # Relative import: anchor at the module's package.
        pkg = module.name.split(".")
        if not module.is_package_init:
            pkg = pkg[:-1]
        up = node.level - 1
        if up > len(pkg):
            return None
        base_parts = pkg[: len(pkg) - up] if up else pkg
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts)

    @staticmethod
    def _is_mutable_value(value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            if name is not None and name.split(".")[-1] in _MUTABLE_CONSTRUCTORS:
                return True
        return False

    def _function_info(
        self, module: ParsedModule, local: str, node: ast.AST
    ) -> FunctionInfo:
        args = node.args
        params = [a.arg for a in list(args.posonlyargs) + list(args.args)]
        kwonly = [a.arg for a in args.kwonlyargs]
        defaults: Dict[str, ast.expr] = {}
        positional = list(args.posonlyargs) + list(args.args)
        for arg, default in zip(positional[len(positional) - len(args.defaults):],
                                args.defaults):
            defaults[arg.arg] = default
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if kw_default is not None:
                defaults[arg.arg] = kw_default
        attrs = {
            sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
        }
        return FunctionInfo(
            qualname=f"{module.name}:{local}",
            module=module.name,
            local_name=local,
            node=node,
            lineno=node.lineno,
            params=params,
            kwonly=kwonly,
            defaults=defaults,
            attrs_used=attrs,
        )

    # -- name resolution -----------------------------------------------------

    def resolve_function(
        self, module_name: str, name: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[FunctionInfo]:
        """Resolve a (possibly dotted) local name to a project function.

        Follows import chains and ``__init__.py`` re-exports; cycles in
        the import graph are cut with a visited set, so mutually
        importing modules resolve without recursing forever.
        """
        seen = _seen if _seen is not None else set()
        if (module_name, name) in seen:
            return None
        seen.add((module_name, name))
        syms = self.symbols.get(module_name)
        if syms is None:
            return None
        if name in syms.functions:
            return syms.functions[name]
        head, _, tail = name.partition(".")
        if head in syms.imports:
            target = syms.imports[head]
            full = f"{target}.{tail}" if tail else target
            return self._resolve_dotted(full, seen)
        return None

    def _resolve_dotted(
        self, dotted: str, seen: Set[Tuple[str, str]]
    ) -> Optional[FunctionInfo]:
        """Resolve an absolute dotted path against the module set."""
        parts = dotted.split(".")
        # Longest module-name prefix wins; the remainder is looked up
        # inside that module (possibly another import to chase).
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            if mod in self.symbols:
                rest = ".".join(parts[cut:])
                return self.resolve_function(mod, rest, seen)
        return None

    def resolve_constant(
        self, module_name: str, name: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[ast.expr]:
        """Resolve a dotted name to a module-level assigned expression."""
        seen = _seen if _seen is not None else set()
        if (module_name, name) in seen:
            return None
        seen.add((module_name, name))
        syms = self.symbols.get(module_name)
        if syms is None:
            return None
        if name in syms.assigns:
            return syms.assigns[name]
        head, _, tail = name.partition(".")
        if head in syms.imports:
            target = syms.imports[head]
            full = f"{target}.{tail}" if tail else target
            parts = full.split(".")
            for cut in range(len(parts) - 1, 0, -1):
                mod = ".".join(parts[:cut])
                if mod in self.symbols:
                    return self.resolve_constant(mod, ".".join(parts[cut:]), seen)
        return None

    def resolve_mutable(
        self, module_name: str, name: str
    ) -> Optional[Tuple[str, str, ast.stmt]]:
        """Resolve ``name`` to a module-level mutable binding.

        Returns ``(owning_module, owning_name, assign_node)`` — chasing
        imports, so ``from state import CACHE`` mutations resolve to the
        defining module.
        """
        seen: Set[Tuple[str, str]] = set()
        current_module, current_name = module_name, name
        while (current_module, current_name) not in seen:
            seen.add((current_module, current_name))
            syms = self.symbols.get(current_module)
            if syms is None:
                return None
            if current_name in syms.mutables:
                return current_module, current_name, syms.mutables[current_name]
            if current_name in syms.assigns:
                return None  # bound, but not to a mutable display
            if current_name in syms.imports:
                target = syms.imports[current_name]
                parts = target.split(".")
                for cut in range(len(parts) - 1, 0, -1):
                    mod = ".".join(parts[:cut])
                    if mod in self.symbols and cut < len(parts):
                        current_module = mod
                        current_name = ".".join(parts[cut:])
                        break
                else:
                    return None
                continue
            return None
        return None

    # -- registry extraction -------------------------------------------------

    def _resolves_to(self, module: ParsedModule, node: ast.expr, target: str) -> bool:
        """True when a call's func resolves to ``target`` (a function
        name like ``register``, matched against the tail of the resolved
        dotted path or the bare local name)."""
        name = dotted_name(node)
        if name is None:
            return False
        if name.split(".")[-1] != target:
            return False
        return True

    def _maybe_register(
        self, module: ParsedModule, decorator: ast.expr, info: FunctionInfo
    ) -> None:
        if not isinstance(decorator, ast.Call):
            return
        if not self._resolves_to(module, decorator.func, "register"):
            return
        experiment_id = self._literal_str(module, decorator.args[0]) if decorator.args else None
        if experiment_id is None:
            return
        self.experiments[experiment_id] = ExperimentRecord(
            experiment_id=experiment_id,
            module=module.name,
            lineno=decorator.lineno,
            col=decorator.col_offset,
            driver=info.qualname,
        )

    def _literal_str(self, module: ParsedModule, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        name = dotted_name(node)
        if name is not None:
            resolved = self.resolve_constant(module.name, name)
            if isinstance(resolved, ast.Constant) and isinstance(resolved.value, str):
                return resolved.value
        return None

    def _maybe_attach_sweep(self, module: ParsedModule, call: ast.Call) -> None:
        if not self._resolves_to(module, call.func, "attach_sweep"):
            return
        if len(call.args) < 2:
            return
        experiment_id = self._literal_str(module, call.args[0])
        if experiment_id is None:
            return
        spec = call.args[1]
        record = SweepRecord(
            experiment_id=experiment_id,
            module=module.name,
            lineno=call.lineno,
            col=call.col_offset,
        )
        if isinstance(spec, ast.Call) and self._resolves_to(module, spec.func, "SweepSpec"):
            self._fill_sweep_from_spec(module, spec, record)
        else:
            name = dotted_name(spec)
            if name is not None:
                resolved = self.resolve_constant(module.name, name)
                if isinstance(resolved, ast.Call) and self._resolves_to(
                    module, resolved.func, "SweepSpec"
                ):
                    self._fill_sweep_from_spec(module, resolved, record)
        self.sweeps[experiment_id] = record

    def _fill_sweep_from_spec(
        self, module: ParsedModule, spec: ast.Call, record: SweepRecord
    ) -> None:
        slots = ["units", "run_unit", "combine"]
        values: Dict[str, ast.expr] = {}
        for i, arg in enumerate(spec.args[: len(slots)]):
            values[slots[i]] = arg
        for kw in spec.keywords:
            if kw.arg in slots:
                values[kw.arg] = kw.value
        for slot, value in values.items():
            name = dotted_name(value)
            if name is None:
                continue
            info = self.resolve_function(module.name, name)
            if info is not None:
                setattr(record, slot, info.qualname)

    def _link_sweep_drivers(self) -> None:
        """Ref edges from each sweep/driver record into the call graph."""
        for record in self.sweeps.values():
            owner = f"{record.module}::<module>"
            for slot in ("units", "run_unit", "combine"):
                target = getattr(record, slot)
                if target is not None:
                    self.edges.setdefault(owner, set()).add(target)

    # -- edge collection -----------------------------------------------------

    def _collect_edges(self, module: ParsedModule) -> None:
        syms = self.symbols[module.name]
        module_scope = f"{module.name}::<module>"

        def add_edge(scope: str, callee: FunctionInfo) -> None:
            self.edges.setdefault(scope, set()).add(callee.qualname)

        def walk(node: ast.AST, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                child_scope = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = self._owning_info(module, child)
                    child_scope = info.qualname if info is not None else scope
                if isinstance(child, ast.Call):
                    self._record_call(module, child, scope, add_edge)
                elif isinstance(child, (ast.Name, ast.Attribute)) and isinstance(
                    getattr(child, "ctx", None), ast.Load
                ):
                    # Escaping references: callbacks, tables, submit args.
                    name = dotted_name(child)
                    if name is not None and not isinstance(
                        getattr(child, "_graph_parent_call", None), ast.Call
                    ):
                        info = self.resolve_function(module.name, name)
                        if info is not None:
                            add_edge(scope, info)
                    walk(child, scope)
                    continue
                walk(child, child_scope)

        # Registry tables and sweep attachments live at module top level.
        for node in module.tree.body:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                self._maybe_attach_sweep(module, node.value)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                self._maybe_attach_sweep(module, node.value)

        # Tag call funcs so the reference walk does not double-count
        # them (a called name is an edge via _record_call already).
        for sub in ast.walk(module.tree):
            if isinstance(sub, ast.Call):
                sub.func._graph_parent_call = sub  # type: ignore[attr-defined]

        walk(module.tree, module_scope)
        del syms  # (symbols already collected; kept for symmetry)

    def _owning_info(
        self, module: ParsedModule, node: ast.AST
    ) -> Optional[FunctionInfo]:
        for info in self.symbols[module.name].functions.values():
            if info.node is node:
                return info
        return None

    def _record_call(
        self, module: ParsedModule, call: ast.Call, scope: str, add_edge
    ) -> None:
        name = dotted_name(call.func)
        if name is not None:
            info = self.resolve_function(module.name, name)
            if info is not None:
                add_edge(scope, info)
        # Pool submission: `<pool>.submit(fn, ...)` makes fn (and its
        # closure) run in a worker process.
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "submit"
            and call.args
        ):
            target = dotted_name(call.args[0])
            if target is not None:
                info = self.resolve_function(module.name, target)
                if info is not None:
                    self.pool_roots.add(info.qualname)

    # -- reachability --------------------------------------------------------

    def reachable_from(
        self, roots: Sequence[str], follow_registry: bool = True
    ) -> Set[str]:
        """Qualnames reachable from ``roots`` over call/ref edges.

        With ``follow_registry`` (the default), dynamic dispatch through
        the experiment registry is modelled: a reachable function that
        touches ``.fn`` reaches every registered driver, and one that
        touches ``.units``/``.run_unit``/``.combine`` reaches every
        sweep's corresponding callback — the tables are data, but the
        analysis treats them as edges.
        """
        seen: Set[str] = set()
        frontier = [root for root in roots if root in self.functions]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for callee in self.edges.get(current, ()):
                if callee not in seen:
                    frontier.append(callee)
            info = self.functions.get(current)
            if info is None or not follow_registry:
                continue
            extra: List[Optional[str]] = []
            if "fn" in info.attrs_used:
                extra.extend(rec.driver for rec in self.experiments.values())
            for attr, kind in _REGISTRY_ATTRS.items():
                if attr == "fn" or attr not in info.attrs_used:
                    continue
                slot = {"units": "units", "run_units": "run_unit",
                        "combines": "combine"}[kind]
                extra.extend(getattr(rec, slot) for rec in self.sweeps.values())
            for qualname in extra:
                if qualname is not None and qualname not in seen:
                    frontier.append(qualname)
        return seen


def build_graph(modules: Sequence[ParsedModule]) -> ProjectGraph:
    """Build the project graph over an already-parsed module set."""
    return ProjectGraph(modules)
