"""Native qualitative reasoning over region-sequence trajectories.

Two trajectory calculi (``tc6`` and ``tc10``) ship as built-ins; arbitrary
calculi load from JSON.  The package classifies trajectory pairs, decides
model existence for constraint networks over any loaded calculus, verifies
composition tables against brute-force enumeration, and emits four ASP
encodings of the same decision problem for cross-validation.
"""

from .calculus import (Calculus, CalculusError, RelationId, RelationSet,
                       ValidationReport, builtin, builtin_tc6, builtin_tc10,
                       iter_bits, load_calculus, save_calculus, validate_calculus)
from .grids import GapError, GridSpec, OutOfBoxError, bridge_gaps, regionize
from .solver import (Assignment, Constraint, Instance, InstanceError, Network,
                     SolveTimeout, UnsupportedCalculusError, algebraic_closure,
                     build_network, enumerate_models, load_instance, make_instance,
                     models_to_json, solve, verify_assignment)
from .trajectories import (InfeasibleError, InvalidTrajectoryError, Trajectory,
                           classify, classify_name, enumerate_trajectories,
                           random_trajectory, validate_trajectory)
from .asp import EmitError, ProgramText, emit_instance_facts, emit_program
from .oracle import (BruteForceResult, SoundnessReport, brute_force_solve,
                     corrupt_cell, coverage_report, definition_holds,
                     random_cell_corruptions, relations_holding, verify_soundness)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
