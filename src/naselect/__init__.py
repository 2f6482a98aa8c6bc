"""Greatest partially non-anticipative multiselectors over finite function families.

The library represents disturbances and trajectories as finite symbol
sequences on a rational time grid, projects set-valued response maps onto
prefix-non-anticipative ones, composes the projections along prefix chains,
decides step-by-step feasibility, simulates the stepwise procedure against
an adversary, and certifies everything against brute-force enumeration.
"""

from .errors import (
    AdversaryError,
    BudgetExceededError,
    InfeasibleError,
    InstanceMismatchError,
    NaselectError,
    ProcedureStuckError,
    UsageError,
    ValidationError,
)
from .multifunction import (
    Instance,
    Multifunction,
    dom,
    is_total,
    mf_by_names,
    mf_le,
    mf_meet,
)
from .nonanticipation import (
    NaReport,
    NaWitness,
    canonical_chain,
    compose_chain,
    feasible,
    greatest_na,
    is_chain_na,
    is_prefix_na,
    meet_of_projections,
    project,
)
from .oracle import (
    DEFAULT_BUDGET,
    EnumBudget,
    brute_greatest,
)
from .scenarios import (
    ControlSystem,
    RhoSearchResult,
    alpha_rho,
    build_example1,
    build_example2,
    build_example3,
    build_example4,
    build_scenario,
    example3_system,
    integrate,
    optimal_rho,
    random_instance,
)
from .signals import (
    RestrictionKey,
    SignalFamily,
    signal_classes,
)
from .stepwise import (
    Adversary,
    InteractiveAdversary,
    ScriptedAdversary,
    Step,
    StepTrace,
    WitnessReport,
    enumerate_omega_delta,
    legal_extensions,
    run_exhaustive,
    run_stepwise,
    validate_trace,
    verify_witness,
)
from .timebase import (
    Partition,
    Prefix,
    PrefixChain,
    TimeGrid,
    full_partition,
    grid,
    partition_to_chain,
)

__all__ = [name for name in dir() if not name.startswith("_")]
