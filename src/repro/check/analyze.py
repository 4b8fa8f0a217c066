"""Whole-program flow analysis: ``python -m repro.check analyze``.

Two passes over the :mod:`repro.check.graph` project graph, each one a
rule (RTX008–RTX009) targeting a *cross-module* determinism hazard the
per-file lint cannot see:

* **RTX008 parallel shared-state** — module-level mutables (and
  default-argument aliases) mutated inside any function reachable from
  a process-pool submission.  Reachability includes dynamic dispatch
  through the experiment registry (drivers, sweep callbacks), so a
  driver that memoizes into a module dict is caught even though no
  textual call chain reaches it.
* **RTX009 unit flow** — flow-sensitive time-unit inference: µs/ms/s
  "types" seeded from name suffixes propagate through assignments,
  arithmetic (with explicit 1e3/1e6 conversions recognized), and
  resolved call/return boundaries; mixing two different known units in
  one expression, assignment, argument, or return is a finding.

Two passes are retired, and their ids are not reused.  Cache-key
completeness: the runtime puts every declared experiment option into
each result-cache key itself.  Trace-emit conformance: the
:class:`~repro.obs.trace.RunTrace` emitters fix each kind's ``args``
keys in their signatures, and the sanitizer rejects any other kind or
key at run time.

Findings render exactly like lint findings (``path:line:col RTXnnn``)
and honour inline ``# repro-check: allow`` waivers, the one way to
accept a finding.  ``--format json`` emits a machine-readable report
for CI artifacts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.check.graph import (
    FunctionInfo,
    ProjectGraph,
    build_graph,
    dotted_name,
)
from repro.check.lint import Finding, apply_waivers
from repro.check.parse import ParsedModule, PathLike, load_modules
from repro.check.rules import PARALLEL_SHARED_STATE, UNIT_FLOW

# -- shared context -----------------------------------------------------------


@dataclass
class AnalysisContext:
    modules: List[ParsedModule]
    graph: ProjectGraph
    findings: List[Finding] = field(default_factory=list)

    def module_of(self, name: str) -> Optional[ParsedModule]:
        return self.graph.modules.get(name)

    def flag(self, module: ParsedModule, node: ast.AST, rule, message: str) -> None:
        self.findings.append(
            Finding(
                path=module.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )


# -- RTX008: parallel shared-state -------------------------------------------

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "appendleft", "sort",
    "reverse",
}


def check_shared_state(ctx: AnalysisContext) -> None:
    graph = ctx.graph
    rule = PARALLEL_SHARED_STATE
    if not graph.pool_roots:
        return
    reachable = graph.reachable_from(sorted(graph.pool_roots))
    for qualname in sorted(reachable):
        info = graph.functions.get(qualname)
        if info is None:
            continue
        module = ctx.module_of(info.module)
        if module is None:
            continue
        _check_function_mutations(ctx, module, info, rule)


def _check_function_mutations(
    ctx: AnalysisContext, module: ParsedModule, info: FunctionInfo, rule
) -> None:
    graph = ctx.graph
    node = info.node
    global_decls: Set[str] = set()
    local_names: Set[str] = set(info.all_params)

    def add_bound_names(target: ast.expr) -> None:
        # Only plain-name (and destructuring) targets bind locals;
        # `CACHE[k] = v` / `obj.attr = v` mutate an existing object and
        # must NOT shadow the shared name they store into.
        if isinstance(target, ast.Name):
            local_names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                add_bound_names(element)
        elif isinstance(target, ast.Starred):
            add_bound_names(target.value)

    for sub in ast.walk(node):
        if isinstance(sub, ast.Global):
            global_decls.update(sub.names)
        elif isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                add_bound_names(target)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            add_bound_names(sub.target)
        elif isinstance(sub, ast.comprehension):
            add_bound_names(sub.target)
        elif isinstance(sub, ast.withitem) and sub.optional_vars is not None:
            add_bound_names(sub.optional_vars)
    local_names -= global_decls

    #: Parameters aliasing shared state: a mutable default display, or a
    #: default naming a module-level mutable.
    shared_params: Dict[str, str] = {}
    for param, default in info.defaults.items():
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            shared_params[param] = "mutable default"
        elif isinstance(default, (ast.Name, ast.Attribute)):
            name = dotted_name(default)
            if name is not None and graph.resolve_mutable(info.module, name):
                shared_params[param] = f"default aliasing module global `{name}`"

    def shared_target(expr: ast.expr) -> Optional[str]:
        """Describe ``expr`` if it names worker-shared state."""
        name = dotted_name(expr)
        if name is None:
            return None
        head = name.split(".")[0]
        if head in shared_params:
            return f"parameter `{head}` ({shared_params[head]})"
        if head in local_names:
            return None
        resolved = graph.resolve_mutable(info.module, name)
        if resolved is not None:
            owner_module, owner_name, _ = resolved
            where = (
                f"module-level mutable `{owner_name}`"
                if owner_module == info.module
                else f"module-level mutable `{owner_module}.{owner_name}`"
            )
            return where
        return None

    fn_label = info.local_name

    for sub in ast.walk(node):
        if isinstance(sub, (ast.Assign, ast.AugAssign)):
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    described = shared_target(target.value)
                    if described is not None:
                        ctx.flag(
                            module, sub, rule,
                            f"`{fn_label}` (reachable from a process-pool "
                            f"submission) writes into {described}; worker "
                            "state leaks across work units and breaks "
                            "serial/parallel byte-identity",
                        )
                elif isinstance(target, ast.Name) and target.id in global_decls:
                    resolved = graph.resolve_mutable(info.module, target.id)
                    in_assigns = target.id in graph.symbols.get(
                        info.module, None
                    ).assigns if graph.symbols.get(info.module) else False
                    if resolved is not None or in_assigns:
                        ctx.flag(
                            module, sub, rule,
                            f"`{fn_label}` (reachable from a process-pool "
                            f"submission) rebinds module global "
                            f"`{target.id}`; worker state leaks across "
                            "work units",
                        )
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr in _MUTATOR_METHODS:
                described = shared_target(sub.func.value)
                if described is not None:
                    ctx.flag(
                        module, sub, rule,
                        f"`{fn_label}` (reachable from a process-pool "
                        f"submission) calls .{sub.func.attr}() on "
                        f"{described}; worker state leaks across work "
                        "units and breaks serial/parallel byte-identity",
                    )


# -- RTX009: flow-sensitive unit inference -----------------------------------

#: Unit scale indices: value_in_us = value * 1000**index.
_UNITS = {"us": 0, "ms": 1, "s": 2}
_UNIT_LABEL = {"us": "microseconds", "ms": "milliseconds", "s": "seconds"}

_SUFFIX_UNITS: Tuple[Tuple[str, str], ...] = (
    ("_us", "us"), ("_usec", "us"), ("_usecs", "us"),
    ("_ms", "ms"), ("_msec", "ms"), ("_msecs", "ms"),
    ("_seconds", "s"), ("_secs", "s"), ("_sec", "s"), ("_s", "s"),
)

#: Calls whose return unit is known a priori.
_KNOWN_CALL_UNITS = {
    "perf_counter": "s",
    "monotonic": "s",
    "process_time": "s",
    "total_seconds": "s",
}

#: Conversion factors: multiplying by 1000**k moves k steps toward µs.
_FACTOR_STEPS = {
    1000: 1, 1000.0: 1, 1_000_000: 2, 1_000_000.0: 2,
    0.001: -1, 1e-06: -2,
}


def unit_of_name(name: str) -> Optional[str]:
    lower = name.lower()
    for suffix, unit in _SUFFIX_UNITS:
        if lower.endswith(suffix):
            return unit
    return None


class _UnitPass:
    def __init__(self, ctx: AnalysisContext):
        self.ctx = ctx
        self.graph = ctx.graph
        #: qualname -> inferred return unit.
        self.returns: Dict[str, Optional[str]] = {}

    def run(self) -> None:
        # Phase 1: return units from name suffixes, then one inference
        # sweep so unsuffixed helpers returning µs expressions count.
        for qualname, info in self.graph.functions.items():
            self.returns[qualname] = unit_of_name(info.local_name.split(".")[-1])
        for _ in range(2):
            for qualname, info in self.graph.functions.items():
                if self.returns[qualname] is None:
                    self.returns[qualname] = self._infer_return(info)
        # Phase 2: the reporting pass.
        for qualname in sorted(self.graph.functions):
            info = self.graph.functions[qualname]
            module = self.ctx.module_of(info.module)
            if module is not None:
                self._check_function(module, info)

    # -- return-unit inference (no findings emitted) ------------------------

    def _infer_return(self, info: FunctionInfo) -> Optional[str]:
        env = self._seed_env(info)
        units: Set[str] = set()
        for sub in ast.walk(info.node):
            if isinstance(sub, ast.Return) and sub.value is not None:
                unit = self._infer(sub.value, env, info, report=None)
                if unit is not None:
                    units.add(unit)
        return units.pop() if len(units) == 1 else None

    def _seed_env(self, info: FunctionInfo) -> Dict[str, Optional[str]]:
        env: Dict[str, Optional[str]] = {}
        for param in info.all_params:
            unit = unit_of_name(param)
            if unit is not None:
                env[param] = unit
        return env

    # -- checking ------------------------------------------------------------

    def _check_function(self, module: ParsedModule, info: FunctionInfo) -> None:
        env = self._seed_env(info)
        return_unit = self.returns.get(info.qualname)
        name_unit = unit_of_name(info.local_name.split(".")[-1])

        def report(node: ast.AST, message: str) -> None:
            self.ctx.flag(module, node, UNIT_FLOW, message)

        def visit_block(stmts: Sequence[ast.stmt]) -> None:
            for stmt in stmts:
                visit(stmt)

        def visit(stmt: ast.stmt) -> None:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return  # nested defs are analyzed via their own info, if any
            if isinstance(stmt, ast.Assign):
                unit = self._infer(stmt.value, env, info, report)
                for target in stmt.targets:
                    self._bind_unit(target, unit, env, report, stmt)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                unit = self._infer(stmt.value, env, info, report)
                self._bind_unit(stmt.target, unit, env, report, stmt)
            elif isinstance(stmt, ast.AugAssign):
                value_unit = self._infer(stmt.value, env, info, report)
                if isinstance(stmt.op, (ast.Add, ast.Sub)) and isinstance(
                    stmt.target, ast.Name
                ):
                    target_unit = env.get(stmt.target.id) or unit_of_name(
                        stmt.target.id
                    )
                    if (
                        target_unit is not None
                        and value_unit is not None
                        and target_unit != value_unit
                    ):
                        report(
                            stmt,
                            f"augmented assignment mixes "
                            f"{_UNIT_LABEL[target_unit]} "
                            f"(`{stmt.target.id}`) with a "
                            f"{_UNIT_LABEL[value_unit]} value",
                        )
            elif isinstance(stmt, ast.Return):
                if stmt.value is not None:
                    unit = self._infer(stmt.value, env, info, report)
                    if (
                        name_unit is not None
                        and unit is not None
                        and unit != name_unit
                    ):
                        report(
                            stmt,
                            f"function `{info.local_name}` is named in "
                            f"{_UNIT_LABEL[name_unit]} but returns a "
                            f"{_UNIT_LABEL[unit]} value",
                        )
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                iter_unit = self._infer(stmt.iter, env, info, report)
                self._bind_unit(stmt.target, iter_unit, env, None, stmt)
                visit_block(stmt.body)
                visit_block(stmt.orelse)
            elif isinstance(stmt, (ast.If, ast.While)):
                self._infer(stmt.test, env, info, report)
                visit_block(stmt.body)
                visit_block(stmt.orelse)
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    self._infer(item.context_expr, env, info, report)
                visit_block(stmt.body)
            elif isinstance(stmt, ast.Try):
                visit_block(stmt.body)
                for handler in stmt.handlers:
                    visit_block(handler.body)
                visit_block(stmt.orelse)
                visit_block(stmt.finalbody)
            elif isinstance(stmt, ast.Expr):
                self._infer(stmt.value, env, info, report)

        visit_block(getattr(info.node, "body", []))
        _ = return_unit  # reserved for future cross-checks

    def _bind_unit(
        self,
        target: ast.expr,
        unit: Optional[str],
        env: Dict[str, Optional[str]],
        report,
        stmt: ast.stmt,
    ) -> None:
        if isinstance(target, ast.Name):
            declared = unit_of_name(target.id)
            if (
                report is not None
                and declared is not None
                and unit is not None
                and unit != declared
            ):
                report(
                    stmt,
                    f"assigning a {_UNIT_LABEL[unit]} value to "
                    f"`{target.id}`, which is named in "
                    f"{_UNIT_LABEL[declared]}",
                )
            env[target.id] = declared if declared is not None else unit
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_unit(element, None, env, None, stmt)
        elif isinstance(target, ast.Attribute):
            declared = unit_of_name(target.attr)
            if (
                report is not None
                and declared is not None
                and unit is not None
                and unit != declared
            ):
                report(
                    stmt,
                    f"assigning a {_UNIT_LABEL[unit]} value to "
                    f"`.{target.attr}`, which is named in "
                    f"{_UNIT_LABEL[declared]}",
                )

    # -- expression inference ------------------------------------------------

    def _infer(
        self,
        node: ast.expr,
        env: Dict[str, Optional[str]],
        info: FunctionInfo,
        report,
    ) -> Optional[str]:
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return unit_of_name(node.id)
        if isinstance(node, ast.Attribute):
            return unit_of_name(node.attr)
        if isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node, env, info, report)
        if isinstance(node, ast.UnaryOp):
            return self._infer(node.operand, env, info, report)
        if isinstance(node, ast.Compare):
            self._check_compare(node, env, info, report)
            return None
        if isinstance(node, ast.Call):
            return self._infer_call(node, env, info, report)
        if isinstance(node, ast.IfExp):
            self._infer(node.test, env, info, report)
            body = self._infer(node.body, env, info, report)
            orelse = self._infer(node.orelse, env, info, report)
            return body if body is not None else orelse
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            units = {
                u for u in (
                    self._infer(e, env, info, report) for e in node.elts
                ) if u is not None
            }
            return units.pop() if len(units) == 1 else None
        if isinstance(node, ast.Subscript):
            self._infer(node.value, env, info, report)
            # Element of a suffixed collection keeps the collection unit.
            name = dotted_name(node.value)
            if name is not None:
                return unit_of_name(name.split(".")[-1])
            return None
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            local = dict(env)
            for generator in node.generators:
                gen_unit = self._infer(generator.iter, local, info, report)
                self._bind_unit(generator.target, gen_unit, local, None, node)
            return self._infer(node.elt, local, info, report)
        # Fall through: inspect children without deriving a unit.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._infer(child, env, info, report)
        return None

    def _infer_binop(self, node: ast.BinOp, env, info, report) -> Optional[str]:
        left = self._infer(node.left, env, info, report)
        right = self._infer(node.right, env, info, report)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left is not None and right is not None and left != right:
                if report is not None:
                    report(
                        node,
                        f"{'adds' if isinstance(node.op, ast.Add) else 'subtracts'} "
                        f"a {_UNIT_LABEL[right]} value "
                        f"{'to' if isinstance(node.op, ast.Add) else 'from'} a "
                        f"{_UNIT_LABEL[left]} value",
                    )
                return left
            return left if left is not None else right
        if isinstance(node.op, (ast.Mult, ast.Div)):
            unit, other = (left, node.right) if left is not None else (right, node.left)
            if left is not None and right is not None:
                return None  # µs·µs etc: no longer a time
            if unit is None:
                return None
            steps = self._conversion_steps(other)
            if steps is None:
                return unit  # scaling by a unitless quantity
            direction = steps if isinstance(node.op, ast.Mult) else -steps
            # Multiplying by 1000**k moves k steps toward µs on the
            # {us:0, ms:1, s:2} index (dividing moves away).
            index = _UNITS[unit] - direction
            for name, idx in _UNITS.items():
                if idx == index:
                    return name
            return None
        if isinstance(node.op, (ast.FloorDiv, ast.Mod)):
            return left
        return None

    @staticmethod
    def _conversion_steps(node: ast.expr) -> Optional[int]:
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return _FACTOR_STEPS.get(node.value)
        return None

    def _check_compare(self, node: ast.Compare, env, info, report) -> None:
        operands = [node.left] + list(node.comparators)
        units = [self._infer(op, env, info, report) for op in operands]
        known = [(op, u) for op, u in zip(operands, units) if u is not None]
        for (_, a), (_, b) in zip(known, known[1:]):
            if a != b and report is not None:
                report(
                    node,
                    f"comparison mixes {_UNIT_LABEL[a]} and "
                    f"{_UNIT_LABEL[b]} values",
                )
                return

    def _infer_call(self, node: ast.Call, env, info, report) -> Optional[str]:
        for arg in node.args:
            self._infer(arg, env, info, report)
        name = dotted_name(node.func)
        tail = name.split(".")[-1] if name is not None else None

        callee = (
            self.graph.resolve_function(info.module, name)
            if name is not None else None
        )
        # Argument/parameter unit agreement across the call boundary.
        if callee is not None:
            positional = callee.params
            offset = 1 if positional and positional[0] in ("self", "cls") else 0
            for i, arg in enumerate(node.args):
                if i + offset >= len(positional):
                    break
                self._check_arg(
                    arg, positional[i + offset], env, info, report
                )
            for kw in node.keywords:
                if kw.arg is not None:
                    self._check_arg(kw.value, kw.arg, env, info, report)
        else:
            # Unresolved callee: a suffixed keyword name still declares
            # the expected unit (dataclass fields, config kwargs).
            for kw in node.keywords:
                if kw.arg is not None:
                    self._check_arg(kw.value, kw.arg, env, info, report)

        if tail in ("min", "max", "sum", "abs", "sorted"):
            units = {
                u for u in (
                    self._infer(arg, env, info, report) for arg in node.args
                ) if u is not None
            }
            if len(units) > 1 and report is not None and tail in ("min", "max"):
                pair = sorted(units)
                report(
                    node,
                    f"{tail}() mixes {_UNIT_LABEL[pair[0]]} and "
                    f"{_UNIT_LABEL[pair[1]]} arguments",
                )
            return units.pop() if len(units) == 1 else None

        if callee is not None:
            return self.returns.get(callee.qualname)
        if tail is not None:
            if tail in _KNOWN_CALL_UNITS:
                return _KNOWN_CALL_UNITS[tail]
            declared = unit_of_name(tail)
            if declared is not None:
                return declared
        return None

    def _check_arg(self, arg: ast.expr, param: str, env, info, report) -> None:
        declared = unit_of_name(param)
        if declared is None or report is None:
            return
        unit = self._infer(arg, env, info, None)
        if unit is not None and unit != declared:
            report(
                arg,
                f"passing a {_UNIT_LABEL[unit]} value where parameter "
                f"`{param}` expects {_UNIT_LABEL[declared]}",
            )


def check_unit_flow(ctx: AnalysisContext) -> None:
    _UnitPass(ctx).run()


# -- driver -------------------------------------------------------------------

_PASSES = (
    ("RTX008", check_shared_state),
    ("RTX009", check_unit_flow),
)


def analyze_modules(
    modules: Sequence[ParsedModule],
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
) -> List[Finding]:
    """Run the flow passes over an already-parsed module set.

    ``select``/``ignore`` filter by rule id (select wins first, then
    ignore removes); passes whose rule is filtered out are skipped
    entirely.  Inline ``# repro-check: allow`` waivers are honoured the
    same way the lint honours them.
    """
    wanted = {
        rule_id for rule_id, _ in _PASSES
        if (select is None or rule_id in select)
        and (ignore is None or rule_id not in ignore)
    }
    ctx = AnalysisContext(modules=list(modules), graph=build_graph(modules))
    for rule_id, pass_fn in _PASSES:
        if rule_id in wanted:
            pass_fn(ctx)
    lines_by_path = {module.path: module.lines for module in modules}
    findings = apply_waivers(ctx.findings, lines_by_path)
    return sorted(findings, key=lambda f: f.sort_key)


def analyze_paths(
    paths: Sequence[PathLike],
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
) -> List[Finding]:
    """Parse (once) and analyze files and directory trees."""
    return analyze_modules(load_modules(list(paths)), select=select, ignore=ignore)


def report_json(findings: Sequence[Finding]) -> Dict[str, object]:
    """Machine-readable ``--format json`` document."""
    def render(finding: Finding) -> Dict[str, object]:
        return {
            "path": Path(finding.path).as_posix(),
            "line": finding.line,
            "col": finding.col,
            "rule": finding.rule.rule_id,
            "name": finding.rule.name,
            "message": finding.message,
        }

    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule.rule_id] = counts.get(finding.rule.rule_id, 0) + 1
    return {
        "version": 1,
        "tool": "repro.check analyze",
        "findings": [render(f) for f in findings],
        "counts": dict(sorted(counts.items())),
    }
