"""Shared numerical tolerances and reproducibility constants.

Every tolerance used by validation checks lives here so the numbers are
configuration, not magic literals scattered through the code.
"""

# Hermiticity checks: looser on caller-supplied matrices, tighter on matrices
# this package constructs itself.
HERMITIAN_INPUT_ATOL = 1e-8
HERMITIAN_OUTPUT_ATOL = 1e-10

# Density-matrix validation (Hermiticity, unit trace, positivity).
DENSITY_ATOL = 1e-10
# Channel outputs accumulate a little extra floating-point noise.
CHANNEL_OUTPUT_ATOL = 1e-9

# A Lemma-1 campaign instance violates dominance when its observed increase
# exceeds the bound by more than this.
DOMINANCE_SLACK = 1e-8

# Mixture probabilities must sum to one within this.
PROBABILITY_SUM_ATOL = 1e-12

# Per-term duration totals must equal one unit stage within this before
# third-order coefficients are extracted or audited.
NORMALIZATION_ATOL = 1e-9

# Coordinate-ascent polish stops once a full sweep of pair moves improves the
# objective by less than this.
POLISH_IMPROVEMENT_TOL = 1e-10
# Below this sweep gain the polish hands over to Newton steps on the active face.
POLISH_NEWTON_GAIN = 1e-3

# Sweep errors below this floor mean the instance is effectively commuting and
# slope fits would be meaningless.
COMMUTING_ERROR_FLOOR = 1e-12

# All pairwise commutators of a random term draw below this marks the draw as
# degenerate (every splitting would be exact).
DEGENERATE_COMMUTATOR_FLOOR = 1e-6

# All seeded randomness goes through numpy's default_rng (PCG64) so results
# replicate bit-for-bit across platforms.
RNG_NAME = "numpy-PCG64"

# Documented envelope: dense superoperators reach dim**2 = 4096 at dim 64.
SUPPORTED_MAX_DIM = 64

# Largest m of a random term set, which stacks all m(m-1)/2 pairwise
# commutators: m = 200 takes 2.6 GB at dim 64, m = 32 takes 106 MB.
SUPPORTED_MAX_TERMS = 32

# Largest state panel: its (panel, dim, dim) complex projector stack is 64 MB
# at dim 64.
SUPPORTED_MAX_PANEL = 1024

# Largest Lemma-2 coordinate count; the polish of the uniform point costs
# about n**3 and takes about 0.04 s at n=32 and 0.13 s at n=64 (one Python
# thread on a 2-vCPU VM).
LEMMA2_MAX_N = 64

# Scaling envelope: rounding in the panel error picks K below eps 1e-8 (strang
# K**2 * error 0.96 at K = 2**16, 85 at 2**20) and past K = 2**22 (trotter).
SCALING_MIN_EPS = 1e-8
SCALING_MAX_K_CAP = 2**22
