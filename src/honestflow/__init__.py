"""honestflow: boundary-interaction expansions and honesty diagnostics for
collisionless transport.

The package evolves densities under free drift with re-entry through a
positive norm-one boundary rule, splits the evolution by the number of
boundary crossings, and measures whether the total mass is fully accounted
for (honesty) or leaks at the boundary (a positive defect).  Two geometry
families are built in: 1D interval unions with unit drift (exact
piecewise-constant evolution) and 2D convex billiards (weighted particle
ensembles, specular reflection).
"""

from .boundary import (
    BoundaryRule,
    BoundaryVector,
    absorbing_resolvent_at,
    apply_rule,
    damped_transit,
    incoming_extension_at,
    outgoing_resolvent_trace,
    resolvent_at,
)
from .densities import (
    ParticleEnsemble,
    PiecewiseDensity,
    ReboundCounts,
    free_stream,
    restrict,
    sample_ensemble,
    sample_ladder_positions,
    transport_counts_times,
    transport_ensemble,
)
from .expansion import (
    Expansion,
    MassBalanceReport,
    TruncationReport,
    composition_residual,
    evolve,
    evolve_scaled,
    integrated_trace,
    mass_balance,
    mc_mass_estimate,
    order_density,
    order_value,
)
from .geometry import (
    Billiard,
    BoundaryPointError,
    IntervalUnion,
    NoBackwardExit,
    StayTimeViolation,
    TANGENT_EPS,
    VelocitySpec,
    advect,
    boundary_foot,
    rebound_sequence,
    stay_times,
)
from .honesty import (
    DefectReport,
    EnsembleDecayReport,
    IntervalHonestyReport,
    MassLossResult,
    ResolventReport,
    SufficiencyReport,
    absorption_rate_estimate,
    defect,
    ensemble_trace_decay,
    flux_gap,
    honesty_on_interval,
    mass_defect_estimate,
    mass_loss,
    resolvent_defect,
    sufficient_honesty_check,
)
from .scenarios import (
    BUILTIN_NAMES,
    ConfigError,
    ScenarioConfig,
    ScenarioResult,
    builtin_config_text,
    initial_density,
    load_config,
    parse_config,
    resolve_config,
    run_scenario,
    summary_text,
    time_series_csv,
    with_overrides,
    write_reports,
)
from .steps import StepFunction

__version__ = "0.1.0"
