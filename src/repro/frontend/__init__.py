"""Instruction-delivery front end: branch prediction and fetch.

All three Ultrascalar processors "speculate on branches, and
effortlessly recover from branch mispredictions"; the speculation
itself comes from this front end.  The fetch unit walks the predicted
path (optionally through a trace cache so a single cycle can span taken
branches) and hands static indices, with the predictions of the
conditional branches among them, to whichever processor model is
running.
"""

from repro.frontend.branch_predictor import (
    AlwaysNotTaken,
    AlwaysTaken,
    BackwardTaken,
    BimodalPredictor,
    BranchPredictor,
    GSharePredictor,
    PerfectPredictor,
)
from repro.frontend.fetch import FetchUnit

__all__ = [
    "AlwaysNotTaken",
    "AlwaysTaken",
    "BackwardTaken",
    "BimodalPredictor",
    "BranchPredictor",
    "GSharePredictor",
    "PerfectPredictor",
    "FetchUnit",
]
