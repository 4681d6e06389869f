"""End-to-end construction: grow a core, orient it, extend to the whole graph."""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .bounds import BoundReport, rational_str
from .check import certify
from .errors import CertifiedFailureError
from .extension import ExtensionTrace, extend_orientation
from .graph import Graph
from .growth import GrowthResult, grow_core, subgraph_adjacency
from .orientation import Orientation, orient_adjacency


@dataclass
class PipelineResult:
    """Everything one run produces: orientation, bound report, and evidence."""

    graph: dict
    epsilon: Fraction
    bound: BoundReport
    growth: GrowthResult
    extension: ExtensionTrace
    orientation: Orientation
    achieved: int
    core_diameter: int
    invariants: list[dict]
    timings: dict[str, float]

    @property
    def all_passed(self) -> bool:
        return all(item["ok"] for item in self.invariants)

    def to_json_dict(self) -> dict:
        return {
            "graph": dict(self.graph),
            "epsilon": rational_str(self.epsilon),
            "bound": self.bound.to_json_dict(),
            "core_size": len(self.growth.core_vertices),
            "core_diameter": self.core_diameter,
            "achieved": self.achieved,
            "invariants": [dict(item) for item in self.invariants],
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
            "ok": self.all_passed,
        }

    def trace_records(self) -> list[dict]:
        """Replayable record stream: growth, then extension, then the verdict."""
        out = self.growth.trace.to_records()
        out.extend(self.extension.to_records())
        out.append(
            {
                "type": "pipeline_final",
                "achieved": self.achieved,
                "core_diameter": self.core_diameter,
                "bound_total": rational_str(self.bound.total),
                "invariants": [dict(item) for item in self.invariants],
                "ok": self.all_passed,
            }
        )
        return out


def _raise_on_failed(checks: list[dict]) -> None:
    failed = [c for c in checks if not c["ok"]]
    if failed:
        raise CertifiedFailureError(
            "pipeline invariant failed", details={"invariants": failed}
        )


def run_pipeline(g: Graph, eps: Fraction | int) -> PipelineResult:
    """Produce a strong orientation of g with certified diameter bound.

    Composes the three phases, then ``certify`` replays their trace: any
    failed check raises CertifiedFailureError instead of returning a report.
    When the extension stops on a construction guard first, the growth trace
    is certified alone, so a core that breaks a growth property is named as
    such rather than by the guard it tripped.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    growth = grow_core(g, eps)
    timings["grow"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    arcs = orient_adjacency(subgraph_adjacency(set(growth.core_vertices), set(growth.core_edges)))
    timings["orient_core"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        o, ext = extend_orientation(g, growth.core_vertices, arcs)
    except CertifiedFailureError:
        _raise_on_failed(certify(g, growth.trace.to_records()))
        raise
    timings["extend"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    invariants = certify(g, growth.trace.to_records() + ext.to_records())
    timings["certify"] = time.perf_counter() - t0
    _raise_on_failed(invariants)
    bound = growth.bound
    return PipelineResult(
        graph={"n": g.n, "m": g.m, "min_degree": bound.min_degree, "girth": bound.girth},
        epsilon=bound.epsilon,
        bound=bound,
        growth=growth,
        extension=ext,
        orientation=o,
        achieved=ext.final["diameter"],
        core_diameter=ext.final["core_diameter"],
        invariants=invariants,
        timings=timings,
    )
