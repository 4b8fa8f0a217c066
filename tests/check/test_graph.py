"""Tests for the project graph builder (repro.check.graph)."""

from pathlib import Path

from repro.check.graph import build_graph
from repro.check.parse import load_modules, parse_source

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def module(source, path):
    """Parse ``source`` as if it lived at ``path`` under src/repro."""
    return parse_source(source, path=path)


class TestSymbolResolution:
    def test_direct_function_resolves(self):
        graph = build_graph([
            module("def helper():\n    return 1\n", "src/repro/util.py"),
        ])
        info = graph.resolve_function("repro.util", "helper")
        assert info is not None and info.qualname == "repro.util:helper"

    def test_import_chain_resolves_across_modules(self):
        graph = build_graph([
            module("def helper():\n    return 1\n", "src/repro/impl.py"),
            module(
                "from repro.impl import helper\n\ndef use():\n    return helper()\n",
                "src/repro/app.py",
            ),
        ])
        info = graph.resolve_function("repro.app", "helper")
        assert info is not None and info.qualname == "repro.impl:helper"
        assert "repro.impl:helper" in graph.edges.get("repro.app:use", set())

    def test_reexport_through_package_init(self):
        graph = build_graph([
            module("def helper():\n    return 1\n", "src/repro/util/impl.py"),
            module(
                "from repro.util.impl import helper\n",
                "src/repro/util/__init__.py",
            ),
            module(
                "from repro.util import helper\n\ndef use():\n    return helper()\n",
                "src/repro/app.py",
            ),
        ])
        info = graph.resolve_function("repro.app", "helper")
        assert info is not None and info.qualname == "repro.util.impl:helper"

    def test_relative_reexport_through_package_init(self):
        graph = build_graph([
            module("def helper():\n    return 1\n", "src/repro/util/impl.py"),
            module("from .impl import helper\n", "src/repro/util/__init__.py"),
            module(
                "from repro.util import helper as h\n\ndef use():\n    return h()\n",
                "src/repro/app.py",
            ),
        ])
        info = graph.resolve_function("repro.app", "h")
        assert info is not None and info.qualname == "repro.util.impl:helper"

    def test_import_cycle_terminates(self):
        graph = build_graph([
            module("from repro.cyc_b import beta as alpha\n", "src/repro/cyc_a.py"),
            module("from repro.cyc_a import alpha as beta\n", "src/repro/cyc_b.py"),
        ])
        # Neither name ever reaches a def: resolution must give up
        # (None) instead of recursing forever.
        assert graph.resolve_function("repro.cyc_a", "alpha") is None
        assert graph.resolve_function("repro.cyc_b", "beta") is None

    def test_mutable_resolves_through_import(self):
        graph = build_graph([
            module("CACHE = {}\n", "src/repro/state.py"),
            module(
                "from repro.state import CACHE\n\ndef f(k):\n    return CACHE\n",
                "src/repro/user.py",
            ),
        ])
        resolved = graph.resolve_mutable("repro.user", "CACHE")
        assert resolved is not None
        owner_module, owner_name, _ = resolved
        assert (owner_module, owner_name) == ("repro.state", "CACHE")

    def test_non_mutable_binding_is_not_a_mutable(self):
        graph = build_graph([
            module("LIMIT = 3\n", "src/repro/state.py"),
        ])
        assert graph.resolve_mutable("repro.state", "LIMIT") is None


REGISTRY_SRC = """
from repro.experiments.base import SweepSpec, WorkUnit, attach_sweep, register


@register("exp-a", "A", options=("alpha",))
def run_a(scale, seed, options=None):
    return {}


def _units(scale, seed, options):
    return [WorkUnit("exp-a", "k", params={"alpha": options.get("alpha")}, seed=seed)]


def _run_unit(unit):
    return {}


def _combine(results, scale, seed):
    return {}


attach_sweep(
    "exp-a",
    SweepSpec(units=_units, run_unit=_run_unit, combine=_combine),
)
"""

DISPATCH_SRC = """
def dispatch_driver(exp):
    return exp.fn(1.0, 0, None)


def dispatch_sweep(spec, unit):
    return spec.run_unit(unit)


def plain(x):
    return x
"""


class TestRegistryExtraction:
    def build(self):
        return build_graph([
            module(REGISTRY_SRC, "src/repro/experiments/ext_demo.py"),
            module(DISPATCH_SRC, "src/repro/runtime/dispatch.py"),
        ])

    def test_register_site_recorded_with_options(self):
        graph = self.build()
        exp = graph.experiments["exp-a"]
        assert exp.driver == "repro.experiments.ext_demo:run_a"

    def test_sweep_slots_resolved_to_qualnames(self):
        graph = self.build()
        sweep = graph.sweeps["exp-a"]
        assert sweep.units == "repro.experiments.ext_demo:_units"
        assert sweep.run_unit == "repro.experiments.ext_demo:_run_unit"
        assert sweep.combine == "repro.experiments.ext_demo:_combine"

    def test_fn_attr_reaches_registered_drivers(self):
        graph = self.build()
        reachable = graph.reachable_from(["repro.runtime.dispatch:dispatch_driver"])
        assert "repro.experiments.ext_demo:run_a" in reachable

    def test_run_unit_attr_reaches_sweep_callbacks(self):
        graph = self.build()
        reachable = graph.reachable_from(["repro.runtime.dispatch:dispatch_sweep"])
        assert "repro.experiments.ext_demo:_run_unit" in reachable

    def test_registry_dispatch_can_be_disabled(self):
        graph = self.build()
        reachable = graph.reachable_from(
            ["repro.runtime.dispatch:dispatch_driver"], follow_registry=False
        )
        assert "repro.experiments.ext_demo:run_a" not in reachable

    def test_plain_function_reaches_nothing_dynamic(self):
        graph = self.build()
        reachable = graph.reachable_from(["repro.runtime.dispatch:plain"])
        assert reachable == {"repro.runtime.dispatch:plain"}


class TestPoolRoots:
    def test_submit_argument_becomes_root(self):
        graph = build_graph([
            module(
                "def worker(unit):\n    return unit\n\n"
                "def drive(pool, units):\n"
                "    return [pool.submit(worker, u) for u in units]\n",
                "src/repro/runtime/engine.py",
            ),
        ])
        assert graph.pool_roots == {"repro.runtime.engine:worker"}


class TestRealTree:
    """The graph against the actual repo: the idioms it must reify."""

    def build(self):
        return build_graph(load_modules([REPO_SRC]))

    def test_experiment_registry_recovered(self):
        graph = self.build()
        exp = graph.experiments["ext-fleet"]
        assert exp.driver is not None and exp.driver.startswith(
            "repro.experiments.ext_fleet:"
        )

    def test_sweep_callbacks_recovered(self):
        graph = self.build()
        sweep = graph.sweeps["ext-fleet"]
        assert sweep.units == "repro.experiments.ext_fleet:_units"

    def test_pool_submission_roots_are_the_engine_workers(self):
        graph = self.build()
        assert graph.pool_roots == {
            "repro.runtime.engine:_worker_whole",
            "repro.runtime.engine:_worker_unit",
        }

    def test_workers_reach_sweep_callbacks_through_registry(self):
        graph = self.build()
        reachable = graph.reachable_from(sorted(graph.pool_roots))
        assert "repro.experiments.ext_fleet:_run_unit" in reachable
        assert "repro.experiments.ext_mixed:_run_unit" in reachable
