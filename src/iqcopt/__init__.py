"""Certification and synthesis of first-order optimization algorithms
via integral quadratic constraints and semidefinite programming."""

from .algorithms import (AlgorithmRealization, SectorBounds,
                         StructuredControllerForm, check_equilibrium_conditions,
                         from_structured, load_algorithm, make_named,
                         save_algorithm)
from .engines import (BisectionConfig, BmiResult, CertificationResult,
                      certify_h2, certify_rate, certify_structured_rate,
                      fundamental_lower_bound, h2_norm_linear, synthesize_bmi,
                      synthesize_convex, verify_fdi)
from .errors import (ArgumentError, DimensionError, DivergenceError,
                     DomainError, InfeasiblePrecondition, IqcError,
                     NotCertifiable, PreconditionError, SingularityError,
                     SolverError, StructureError, UnsupportedError)
from .lmi import (H2Certificate, RateCertificate, SynthesisResult,
                  assemble_convex_synth, assemble_convex_synth_perf,
                  assemble_h2, assemble_rate, assemble_rate_reduced,
                  assemble_structured_rate, assemble_structured_synth)
from .multipliers import (ZamesFalbParameters, ZamesFalbStructure,
                          verify_membership)
from .plantbuild import (AugmentedPlant, PerformanceAugmentedPlant,
                         build_perf_plant, build_rate_plant,
                         default_noise_channel)
from .problem import SdpProblem
from .sampling import RandomFunctionSpec, sample_function, simulate_h2
from .sdp import SdpSolution, SolverOptions, solve
from .statespace import StateSpace, eval_frequency

__version__ = "0.1.0"
