"""Call-graph builder: resolution, typing, and the real-tree rate floor.

Fixture modules are indexed in memory via
:func:`repro.devtools.graph.index_from_sources`; the last test indexes
the installed tree and asserts the resolution-rate floor the roadmap
promises (>= 90 % of non-external call sites resolved).
"""

from __future__ import annotations

import ast
import textwrap

from repro.devtools.engine import default_root
from repro.devtools.graph import bind_arguments, index_from_root, index_from_sources


def _index(sources: dict[str, str]):
    return index_from_sources({m: textwrap.dedent(s) for m, s in sources.items()})


def _graph(sources: dict[str, str]):
    _, index = _index(sources)
    return index.call_graph()


# ----------------------------------------------------------------------
# Edge resolution
# ----------------------------------------------------------------------
def test_direct_call_resolves_to_module_function():
    graph = _graph(
        {
            "repro.fix.a": """
            def helper():
                return 1

            def caller():
                return helper()
            """
        }
    )
    assert [(s.caller, s.target) for s in graph.edges] == [
        ("repro.fix.a.caller", "repro.fix.a.helper")
    ]


def test_cross_module_call_through_import():
    graph = _graph(
        {
            "repro.fix.a": """
            def helper():
                return 1
            """,
            "repro.fix.b": """
            from repro.fix.a import helper

            def caller():
                return helper()
            """,
        }
    )
    targets = {s.target for s in graph.edges}
    assert "repro.fix.a.helper" in targets


def test_reexport_chases_to_definition():
    graph = _graph(
        {
            "repro.fix.impl": """
            def work():
                return 1
            """,
            "repro.fix.api": """
            from repro.fix.impl import work

            __all__ = ["work"]
            """,
            "repro.fix.user": """
            from repro.fix.api import work

            def caller():
                return work()
            """,
        }
    )
    assert {s.target for s in graph.edges} == {"repro.fix.impl.work"}


def test_constructor_call_targets_init():
    graph = _graph(
        {
            "repro.fix.a": """
            class Widget:
                def __init__(self, n):
                    self.n = n

            def make():
                return Widget(3)
            """
        }
    )
    assert {s.target for s in graph.edges} == {"repro.fix.a.Widget.__init__"}


def test_method_call_through_annotated_parameter():
    graph = _graph(
        {
            "repro.fix.a": """
            class Device:
                def run(self):
                    return 1

            def drive(dev: Device):
                return dev.run()
            """
        }
    )
    assert "repro.fix.a.Device.run" in {s.target for s in graph.edges}


def test_method_call_through_self_attribute():
    graph = _graph(
        {
            "repro.fix.a": """
            class Engine:
                def spin(self):
                    return 1

            class Car:
                def __init__(self):
                    self.engine = Engine()

                def go(self):
                    return self.engine.spin()
            """
        }
    )
    assert "repro.fix.a.Engine.spin" in {s.target for s in graph.edges}


def test_inherited_method_resolves_through_base():
    graph = _graph(
        {
            "repro.fix.a": """
            class Base:
                def shared(self):
                    return 1

            class Child(Base):
                pass

            def use(c: Child):
                return c.shared()
            """
        }
    )
    assert "repro.fix.a.Base.shared" in {s.target for s in graph.edges}


def test_external_call_is_classified_not_unresolved():
    graph = _graph(
        {
            "repro.fix.a": """
            import numpy as np

            def zeros():
                return np.zeros(4)
            """
        }
    )
    (site,) = graph.sites
    assert site.kind == "external"
    assert site.target == "numpy.zeros"


def test_unknown_receiver_is_reported_unresolved_not_dropped():
    graph = _graph(
        {
            "repro.fix.a": """
            def poke(thing):
                return thing.wiggle()
            """
        }
    )
    (site,) = graph.sites
    assert site.kind == "unresolved"
    assert site.reason  # explains *why* it could not resolve
    assert graph.stats()["unresolved"] == 1


# ----------------------------------------------------------------------
# Stats / output formats
# ----------------------------------------------------------------------
def test_stats_rate_excludes_external_sites():
    graph = _graph(
        {
            "repro.fix.a": """
            import numpy as np

            def helper():
                return 1

            def caller(thing):
                helper()
                np.zeros(3)
                return thing.wiggle()
            """
        }
    )
    stats = graph.stats()
    assert stats["total_sites"] == 3
    assert stats["external"] == 1
    assert stats["resolved"] == 1
    assert stats["unresolved"] == 1
    assert stats["resolution_rate"] == 0.5


def test_to_dict_and_dot_render_edges():
    graph = _graph(
        {
            "repro.fix.a": """
            def helper():
                return 1

            def caller():
                return helper()
            """
        }
    )
    payload = graph.to_dict()
    assert payload["schema"] == 1
    assert payload["edges"][0]["target"] == "repro.fix.a.helper"
    assert "external" not in payload  # opt-in only
    dot = graph.to_dot()
    assert dot.startswith("digraph callgraph {")
    assert '"repro.fix.a.caller" -> "repro.fix.a.helper";' in dot


def test_to_dict_include_external_lists_them():
    graph = _graph(
        {
            "repro.fix.a": """
            import numpy as np

            def zeros():
                return np.zeros(4)
            """
        }
    )
    payload = graph.to_dict(include_external=True)
    assert payload["external"][0]["target"] == "numpy.zeros"


# ----------------------------------------------------------------------
# Argument binding (used by DET003's interprocedural step)
# ----------------------------------------------------------------------
def test_bind_arguments_maps_positional_and_keyword():
    contexts, index = _index(
        {
            "repro.fix.a": """
            def callee(rng, scale=1.0):
                return scale

            def caller():
                return callee(7, scale=2.0)
            """
        }
    )
    (site,) = index.call_graph().edges
    fn = index.functions["repro.fix.a.callee"]
    binding = bind_arguments(site, fn)
    assert isinstance(binding["rng"], ast.Constant) and binding["rng"].value == 7
    assert isinstance(binding["scale"], ast.Constant) and binding["scale"].value == 2.0


def test_bind_arguments_skips_self_for_bound_methods():
    contexts, index = _index(
        {
            "repro.fix.a": """
            class Sim:
                def step(self, seed):
                    return seed

            def drive(sim: Sim):
                return sim.step(11)
            """
        }
    )
    (site,) = index.call_graph().edges
    fn = index.functions["repro.fix.a.Sim.step"]
    binding = bind_arguments(site, fn)
    assert "self" not in binding
    assert binding["seed"].value == 11


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------
def test_installed_tree_resolution_rate_meets_floor():
    contexts, index, skipped = index_from_root(default_root())
    assert skipped == []  # the shipped tree always parses
    stats = index.call_graph().stats()
    assert stats["total_sites"] > 1000  # sanity: the whole tree was walked
    assert stats["resolution_rate"] >= 0.90
