"""Consensus ensemble optimization on convex feasible sets.

A population of particles is repeatedly pulled toward its Boltzmann-
weighted consensus point (predictor) and projected back onto the feasible
set (corrector).  The package bundles the solver core, exact projections
for simplex/box/ball constraints, benchmark and portfolio objectives,
market-data plumbing, deterministic reference baselines, convergence
diagnostics, and a small CLI pipeline.
"""

from .baseline import (
    grid_search_simplex,
    simplex_lattice,
)
from .core import (
    CboParams,
    Ensemble,
    NoiseMode,
    RunTrace,
    TraceRecord,
    cbo_step,
    consensus_point,
    draw_step_noise,
    init_ensemble,
    mean_pairwise_sq,
    predictor_step,
    run,
    write_trace_csv,
)
from .diagnostics import (
    DecayReport,
    LaplacePoint,
    Verdict,
    check_params,
    decay_experiment,
    error_trace,
    laplace_sweep,
    summary_text,
)
from .errors import (
    CbOptError,
    ConfigurationError,
    DegeneratePortfolioError,
    EstimationError,
    IngestionError,
    NumericDomainError,
)
from .market import (
    FrontierCloud,
    PriceSeries,
    ReturnsSeries,
    cml,
    demo_market,
    estimate_stats,
    format_prices,
    format_stats,
    log_returns,
    parse_prices,
    parse_stats,
    sample_frontier,
    synthetic_market,
)
from .objectives import (
    MarketStats,
    Objective,
    neg_sharpe,
    rastrigin,
    sharpe_components,
    sphere,
)
from .projections import (
    SimplexProjector,
    ball,
    box,
    parse_projector,
    simplex,
)

__version__ = "0.1.0"
