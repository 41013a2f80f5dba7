"""Full-view barrier coverage for mobile camera sensor networks.

A numpy-backed library that plans two-row line deployments, relocates
randomly scattered mobile cameras onto a grid lattice, extracts
minimum-camera barriers from a weighted coverage graph, and runs seeded
Monte Carlo coverage experiments.
"""

import importlib

#: The module of every name in :data:`__all__` but ``__version__``: the
#: package's one map from a name to its module.  Each is imported from its
#: module the first time it is read (PEP 562), here or as an attribute of
#: :mod:`cambarrier.cli`, so that ``import cambarrier.cli`` loads no module
#: a command does not run.
_EXPORTS = {
    "EPS": "geometry",
    "TAU": "geometry",
    "Point2D": "geometry",
    "Segment": "geometry",
    "CameraParams": "geometry",
    "CameraPose": "geometry",
    "normalize_bearing": "geometry",
    "check_positive": "geometry",
    "full_view_covered_point": "full_view",
    "full_view_covered_segment": "full_view",
    "SWING_FOV": "line_model",
    "LineDeploymentParams": "line_model",
    "LineDeployment": "line_model",
    "DeploymentCheck": "line_model",
    "optimal_params": "line_model",
    "validate_params": "line_model",
    "camera_density": "line_model",
    "cameras_for_barrier": "line_model",
    "place_line_deployment": "line_model",
    "GridModel": "grid_model",
    "VertexAssignment": "grid_model",
    "CameraRecord": "grid_model",
    "DeploymentPlan": "grid_model",
    "CameraOutsideRegionError": "grid_deploy",
    "grid_length_bound": "grid_model",
    "partition": "grid_deploy",
    "elect_grid_heads": "grid_deploy",
    "assign_to_vertices": "grid_deploy",
    "assign_orientations": "grid_deploy",
    "run_algorithm1": "grid_deploy",
    "cell_fully_staffed": "grid_model",
    "staffed_cells": "grid_model",
    "staffed_mask": "grid_deploy",
    "duty_mask": "grid_model",
    "cell_full_view_verified": "grid_deploy",
    "SOURCE": "barrier_graph",
    "SINK": "barrier_graph",
    "CoverageGraph": "barrier_graph",
    "BarrierResult": "barrier_graph",
    "build_graph": "barrier_graph",
    "prune_degree_one": "barrier_graph",
    "shortest_barrier": "barrier_graph",
    "extract_barrier": "barrier_graph",
    "barrier_json": "barrier_graph",
    "distinct_cameras": "barrier_graph",
    "duty_slots": "barrier_graph",
    "slot_cameras": "barrier_graph",
    "column_counts": "barrier_graph",
    "k_barrier_count": "barrier_graph",
    "ScenarioConfig": "simulate",
    "SweepRow": "simulate",
    "SweepResult": "simulate",
    "random_deploy": "simulate",
    "trial_seed": "simulate",
    "barrier_exists": "barrier_graph",
    "barrier_exists_mobile": "simulate",
    "barrier_exists_static": "simulate",
    "coverage_probability_sweep": "simulate",
    "barrier_camera_count_sweep": "simulate",
    "fig3_sweep": "simulate",
    "with_overrides": "simulate",
    "CSV_HEADER": "serialize",
    "format_number": "serialize",
    "dumps": "serialize",
    "sweep_csv_text": "serialize",
    "cameras_from_list": "serialize",
    "line_deployment_json": "serialize",
    "plan_to_dict": "serialize",
    "plan_json": "serialize",
    "plan_duties": "serialize",
    "plan_from_dict": "serialize",
    "graph_to_dict": "serialize",
}

__version__ = "0.1.0"

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
