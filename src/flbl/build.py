"""End-to-end label construction pipelines for the four schemes."""

from __future__ import annotations

from dataclasses import dataclass

from . import labelfile as LF
from .euler import EulerFrame
from .graph import Graph, reduce_degree3
from .hierarchy import build_edge_hierarchy
from .labels_rand import build_rand_long, build_rand_short
from .labels_simple import build_simple_labels
from .labels_sqrt import build_sqrt_labels


@dataclass
class BuildResult:
    scheme: int
    vertex_labels: list
    edge_labels: list
    meta: object
    h: int
    phi: object
    certified: bool


def build_scheme(g: Graph, scheme: int, f: int, phi_mode: str = "auto",
                 seed: int = 0, hier=None) -> BuildResult:
    """Build labels for the original graph under the requested scheme.

    Scheme 2 routes through the degree-3 reduction: the stored labels are
    the reduced-graph labels of original edges and representative
    vertices.  A prebuilt hierarchy (on the graph the scheme labels) may
    be passed to amortize construction across f values.
    """
    if scheme == LF.SCHEME_SIMPLE:
        if hier is None:
            hier = build_edge_hierarchy(g, mode=phi_mode)
        frame = EulerFrame(g, hier)
        vl, labels, meta = build_simple_labels(g, hier, frame, f)
        return BuildResult(scheme, vl, labels, meta, hier.h, hier.phi, hier.certified)
    if scheme == LF.SCHEME_SQRT:
        red = reduce_degree3(g)
        if hier is None:
            hier = build_edge_hierarchy(red.reduced, mode=phi_mode)
        frame = EulerFrame(red.reduced, hier)
        vl3, labels3, meta = build_sqrt_labels(red.reduced, hier, frame, f)
        meta.n = g.n
        meta.aux_n = red.reduced.n
        meta.m = g.m
        meta.aux_m = red.reduced.m
        meta.vertex_map = list(red.vertex_map)
        vl = [vl3[red.vertex_map[v]] for v in range(g.n)]
        labels = labels3[:g.m]  # original edges keep their ids
        return BuildResult(scheme, vl, labels, meta, hier.h, hier.phi, hier.certified)
    if scheme in (LF.SCHEME_RAND_LONG, LF.SCHEME_RAND_SHORT):
        build = build_rand_short if scheme == LF.SCHEME_RAND_SHORT else build_rand_long
        vl, labels, meta = build(g, f, seed=seed)
        return BuildResult(scheme, vl, labels, meta, 1, meta.phi, True)
    raise ValueError(f"unknown scheme {scheme}")


def to_label_file(res: BuildResult) -> LF.LabelFile:
    return LF.make_label_file(res.scheme, res.meta, res.vertex_labels, res.edge_labels)
