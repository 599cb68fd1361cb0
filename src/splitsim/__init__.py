"""splitsim: a desk-scale lab for positive-time product-formula simulation.

Simulates exp(-iHt) for H = H_1 + ... + H_m by products of single-term
exponentials with strictly positive durations, deterministically (plain and
palindromic splitting) and randomized (per-stage mixtures evaluated exactly as
mixed-unitary channels). Measures exact trace-distance error, evaluates the
mixture error bound, audits the third-order coefficient obstruction and
reproduces the N = Theta(t^2/eps) and N = Theta(t^{3/2} eps^{-1/2}) cost
scalings.
"""

from .matkernel import (
    DensityMatrix,
    expm_hermitian,
    pure_density,
    spectral_norm,
    trace_distance,
    trace_norm,
)
from .hamiltonians import (
    TermSet,
    random_termset,
    spin_chain_termset,
    termset_to_json,
    total,
)
from .schedules import (
    UnitaryMixture,
    Word,
    alg1_stage_mixture,
    alg2_stage_mixture,
    strang_word,
    trotter_word,
    word_unitary,
)
from .channels import (
    BoundReport,
    evolve_states,
    exact_evolution,
    expected_sq_deviation,
    lemma1_report,
    mean_unitary,
    word_stack,
)
from .series import (
    TruncatedSeries,
    interleaving_profile,
    s_value,
    word_series,
)
from .bounds import (
    Lemma2Result,
    ScheduleAudit,
    audit_schedule,
    lemma2_max,
)
from .harness import (
    RunConfig,
    ScalingConfig,
    SweepResult,
    fit_loglog,
    lemma1_campaign,
    scaling_cross_check,
    sweep_error_vs_K,
)

__version__ = "0.1.0"
