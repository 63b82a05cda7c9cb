"""Strong-coupling (quantum Zeno) limits of GKLS dynamics.

Numerical machinery for the adiabatic-limit statement

    e^{t(gamma B + C)} -> e^{t gamma B} e^{t C_Z} P_phi  +  O(1/gamma),

where B is a semigroup generator with spectrum in the closed left
half-plane, C_Z is the Zeno projection of C onto the peripheral
eigenspaces of B, and P_phi the peripheral projection.  The package
computes spectral decompositions of nonnormal matrices, compiles GKLS
systems to superoperators, measures limit errors, evaluates three
error bounds (the semigroup constant M in them is a sampled estimate),
and ships a three-level reference model plus a
dephasing-qubit example with closed-form answers.  The public surface
is what the limit, its measured error and its bounds need: each public
name is read somewhere in the package.
"""

from .errors import (
    DimensionError,
    EstimationError,
    FactorizationError,
    IllConditionedDecompositionError,
    PeripheralDefectError,
    SpectrumViolationError,
    UnsupportedInputError,
    ValidationError,
    ZenoLimitsError,
)
from .linalg import expm, sandwich_super, schur, spectral_norm, vec
from .spectral import (
    GapData,
    SpectralCluster,
    SpectralDecomposition,
    condition_number,
    decompose,
    gaps,
    peripheral_projection,
    reduced_resolvent,
    spectral_expm,
)
from .gkls import (
    GklsSystem,
    PurityOptions,
    Superoperator,
    canonicalize,
    cptp_check,
    gkls_form_check,
    liouvillian,
    no_go_check,
    purity_decay_rate,
)
from .zeno import (
    BoundInputs,
    ZenoSplit,
    adiabatic_error,
    bound_adiabatic,
    bound_cptp,
    bound_simplified,
    commutator_projections,
    fast_oscillation_zeno,
    pulsed_zeno_product,
    zeno_split,
)
from .models import (
    DephasingQubitExample,
    ThreeLevelParams,
    dephasing_qubit_example,
    gkls_corpus,
    gkls_pair_corpus,
    random_gkls,
    three_level_analytic_propagator,
    three_level_generators,
    three_level_peripheral,
    three_level_zeno_generator,
)
from .experiments import SweepConfig, run_sweep, spectral_property_check

__version__ = "0.1.0"
