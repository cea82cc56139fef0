"""Simulation and spectral numerics for heavy-tailed random difference equations.

The toolkit simulates R_n = M_n R_{n-1} + Q_n for user-specified laws of
(M, Q), solves for the tail index through the direction-space transfer
operator, estimates directional tail constants and the angular tail
measure, and verifies the stable limit of normalized partial sums.
"""

from .batches import SampleBatch
from .env_models import (
    ConfigurationError,
    ConstantMatrix,
    ConstantVector,
    DiagonalTimesRotation,
    Environment,
    GaussianMatrix,
    GaussianVector,
    MatrixMixture,
    ScalarTwoPoint,
    Similarity,
    TwoPointVector,
    check_assumptions,
    sample_pairs,
    sample_q,
)
from .recursion import (
    LyapunovEstimate,
    PathConfig,
    SeriesConfig,
    birkhoff_sums,
    lyapunov,
    sample_stationary,
)
from .rng import substream
from .spectral import (
    SphereGrid,
    SpectralSolution,
    build_grid,
    goldie_constant,
    solve_kappa,
    spectral_radius,
)
from .stable_limit import (
    StableLaw,
    c_kappa,
    centering,
    compute_stable_law,
    cos_tail_constant,
    empirical_cf,
    nondegeneracy,
    stable_fit_check,
    transposed_positivity_check,
)
from .tails import (
    SpectralMeasure,
    check_product_structure,
    check_sigma_invariance,
    direct_K,
    estimate_sigma,
    hill_tail_index,
    tail_functional,
)

__version__ = "0.1.0"
