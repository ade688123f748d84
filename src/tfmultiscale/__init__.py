"""Partially explicit multiscale solvers for time-fractional diffusion in
high-contrast media."""

from .assembly import (PermeabilityField, WeightedField, assemble,
                       kappa_tilde, load_vector, msfem_partition)
from .fractional import L1Kernel, caputo_apply, history_rhs, make_kernel
from .grid import GridHierarchy, build_grids
from .harness import (ExperimentConfig, error_series, experiment_config,
                      gen_field, gen_forcing, run_experiment)
from .schemes import (ReducedSystem, Trajectory, fine_reference, reduce,
                      run_scheme, step_explicit, step_implicit, step_partial)
from .spaces import (AuxSpace, CoarseSpaces, ReducedBasis, aux_spectral,
                     build_spaces, cem_basis, combine, v2_aux_spectral,
                     v2_basis)
from .stability import (StabilityReport, build_report, contrast_sweep,
                        dt_max_explicit, dt_max_partial, energy_audit,
                        estimate_gamma, lambda_max)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
