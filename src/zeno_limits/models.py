"""Canonical model library.

The centerpiece is a three-level system driven by two GKLS generators:

* a weak generator built from K = diag(Omega0, Omega1, Omega2) and the
  dephasing jump L = sqrt(Gamma) (|1><1| + |2><2|);
* a strong generator built from H = g(|0><1| + |1><0|) + w2 |2><2| and
  the decay jump F = sqrt(kappa) |1><2|.

The strong generator combines amplitude damping from level 2 into level 1
with persistent Rabi oscillations between levels 0 and 1, so its
peripheral spectrum is {0, -2ig, +2ig}.  Closed forms are provided for
its propagator e^{tD}, the three peripheral eigenprojections, and the
Zeno-projected weak generator; each is assembled term by term as a sum of
sandwich maps under the package-wide column-stacking convention, so the
formulas are directly testable as matrices.

Also here: the dephasing-qubit example with its projected generators
(one of GKLS form, one not), and seeded random GKLS systems normalized to
unit generator norm, in two fixed corpora of 50 draws from seed 1000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import _read
from .errors import ValidationError
from .gkls import (
    GklsSystem,
    Superoperator,
    dissipator_superoperator,
    hamiltonian_superoperator,
    liouvillian,
)
from .linalg import expm, sandwich_super, spectral_norm, vec

__all__ = [
    "ThreeLevelParams",
    "three_level_system_pair",
    "three_level_generators",
    "three_level_analytic_propagator",
    "ThreeLevelPeripheral",
    "three_level_peripheral",
    "three_level_zeno_generator",
    "DephasingQubitExample",
    "dephasing_qubit_example",
    "random_gkls",
    "gkls_corpus",
    "gkls_pair_corpus",
]


@dataclass(frozen=True)
class ThreeLevelParams:
    """Parameters of the three-level model.

    omega0, omega1, omega2 are the level frequencies of the weak
    Hamiltonian K; gamma the dephasing rate; g the 0-1 coupling and w2
    the level-2 frequency of the strong Hamiltonian H; kappa the 2 -> 1
    decay rate.  Requires kappa > 0 and g > 0 (the two projection
    mechanisms must both act) and gamma >= 0 (``_PARAMETER_SIGNS``).
    """

    omega0: float = 0.0
    omega1: float = 1.0
    omega2: float = 2.0
    gamma: float = 2.0
    g: float = 1.0
    w2: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        for f in fields(self):  # ints become floats
            object.__setattr__(self, f.name, _read.real(f"three-level parameter {f.name}", getattr(self, f.name),
                                                        _PARAMETER_SIGNS.get(f.name)))

    @classmethod
    def from_json(cls, obj) -> "ThreeLevelParams":
        if not isinstance(obj, dict):
            raise ValidationError(f"three-level parameters must be a JSON object, got {obj!r}")
        _read.names("three-level parameters", obj, {f.name for f in fields(cls)})
        return cls(**obj)


#: the sign each bounded :class:`ThreeLevelParams` field must have
_PARAMETER_SIGNS = {"gamma": "nonnegative", "g": "positive", "kappa": "positive"}


def _basis_ops():
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    x = np.zeros((3, 3), dtype=complex)
    x[0, 1] = x[1, 0] = 1.0
    y = np.zeros((3, 3), dtype=complex)
    y[0, 1] = -1j
    y[1, 0] = 1j
    z = np.diag([1.0, -1.0, 0.0]).astype(complex)
    e22 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    return p, x, y, z, e22


def three_level_system_pair(params: ThreeLevelParams) -> tuple[GklsSystem, GklsSystem]:
    """The (weak, strong) Hilbert-space systems (K, L) and (H, F)."""
    params = _read.instance("params", params, ThreeLevelParams)
    k = np.diag([params.omega0, params.omega1, params.omega2]).astype(complex)
    l = math.sqrt(params.gamma) * np.diag([0.0, 1.0, 1.0]).astype(complex)
    h = np.array([[0.0, params.g, 0.0],
                  [params.g, 0.0, 0.0],
                  [0.0, 0.0, params.w2]], dtype=complex)
    f = np.zeros((3, 3), dtype=complex)
    f[1, 2] = math.sqrt(params.kappa)
    weak = GklsSystem(d=3, hamiltonian=k, jumps=(l,))
    strong = GklsSystem(d=3, hamiltonian=h, jumps=(f,))
    return weak, strong


def three_level_generators(params: ThreeLevelParams) -> tuple[Superoperator, Superoperator]:
    """Compiled superoperators (L_super, D_super) of the two generators."""
    weak, strong = three_level_system_pair(params)
    return liouvillian(weak), liouvillian(strong)


def three_level_analytic_propagator(params: ThreeLevelParams, t: float) -> Superoperator:
    """Closed form of e^{tD} for the strong generator.

    Conjugation by e^{-itH} wraps a damped sandwich on the coherence
    block plus a relaxation feed from level 2 into the 0-1 block whose Y
    and Z weights carry the kappa / (kappa^2 + 4 g^2) denominators.
    """
    params, t = _read.instance("params", params, ThreeLevelParams), _read.real("t", t, "nonnegative")  # t >= 0
    p, x, y, z, e22 = _basis_ops()
    g, kap = params.g, params.kappa
    h = np.array([[0.0, g, 0.0], [g, 0.0, 0.0], [0.0, 0.0, params.w2]], dtype=complex)
    u = expm(-1j * h, t)
    damped = p + math.exp(-kap * t / 2.0) * e22
    den = kap ** 2 + 4.0 * g ** 2
    coef_y = (kap / den) * (2.0 * g - math.exp(-kap * t)
                            * (2.0 * g * math.cos(2 * g * t) + kap * math.sin(2 * g * t)))
    coef_z = (kap / den) * (kap - math.exp(-kap * t)
                            * (kap * math.cos(2 * g * t) - 2.0 * g * math.sin(2 * g * t)))
    feed = 0.5 * ((1.0 - math.exp(-kap * t)) * p - coef_y * y - coef_z * z)
    inner = sandwich_super(damped, damped) + np.outer(vec(feed), vec(e22).conj())
    mat = sandwich_super(u, u.conj().T) @ inner
    return Superoperator(d=3, mat=mat, provenance="propagator")


@dataclass(frozen=True)
class ThreeLevelPeripheral:
    """Peripheral eigenstructure of the strong generator.

    eigenvalues = (0, -2ig, +2ig) with projections (p_0, p_plus, p_minus);
    p_phi is their sum.
    """

    p_phi: Superoperator
    p_0: Superoperator
    p_plus: Superoperator
    p_minus: Superoperator
    eigenvalues: tuple[complex, complex, complex]


def three_level_peripheral(params: ThreeLevelParams) -> ThreeLevelPeripheral:
    """Closed forms of P_phi and the three peripheral eigenprojections."""
    params = _read.instance("params", params, ThreeLevelParams)
    p, x, y, z, e22 = _basis_ops()
    g, kap = params.g, params.kappa
    den = kap ** 2 + 4.0 * g ** 2
    eye3 = np.eye(3, dtype=complex)

    p0 = 0.5 * (np.outer(vec(p), vec(eye3).conj()) + np.outer(vec(x), vec(x).conj()))

    plus = np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2)
    minus = np.array([1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2)

    def p_pm(sign: int) -> np.ndarray:
        ket = plus if sign > 0 else minus
        bra = minus if sign > 0 else plus
        main = sandwich_super(np.outer(ket, ket.conj()), np.outer(bra, bra.conj()))
        coef = 0.5 * (kap / den) * (kap + sign * 2j * g)
        corr = coef * np.outer(vec(np.outer(ket, bra.conj())), vec(e22).conj())
        return main - corr

    pphi = sandwich_super(p, p) + np.outer(
        vec(0.5 * (p - (kap / den) * (2.0 * g * y + kap * z))), vec(e22).conj())
    return ThreeLevelPeripheral(
        p_phi=Superoperator(3, pphi, "projected"),
        p_0=Superoperator(3, p0, "projected"),
        p_plus=Superoperator(3, p_pm(+1), "projected"),
        p_minus=Superoperator(3, p_pm(-1), "projected"),
        eigenvalues=(0.0, -2j * g, +2j * g),
    )


def three_level_zeno_generator(params: ThreeLevelParams) -> Superoperator:
    """Closed form of the projected weak generator sum_k P_k L P_k.

    -(Gamma/8) [ 2 X tr(X .) + Y tr(Y .) + Z tr(Z .)
                 - kappa/(kappa^2 + 4g^2) (kappa Z + 2 g Y) <2|.|2> ]
    """
    params = _read.instance("params", params, ThreeLevelParams)
    _, x, y, z, e22 = _basis_ops()
    g, kap = params.g, params.kappa
    den = kap ** 2 + 4.0 * g ** 2
    mat = (2.0 * np.outer(vec(x), vec(x).conj())
           + np.outer(vec(y), vec(y).conj())
           + np.outer(vec(z), vec(z).conj())
           - np.outer(vec((kap / den) * (kap * z + 2.0 * g * y)), vec(e22).conj()))
    return Superoperator(3, -(params.gamma / 8.0) * mat, "projected")


# ---------------------------------------------------------------------------
# dephasing qubit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DephasingQubitExample:
    """Qubit dephasing generator D(|+><+|) projected by oscillations of H.

    The Hamiltonian H = |0><0| only supplies the Bohr-frequency
    projections; the generator being projected is the dephasing part
    alone (``l_super``, built from the jump |+><+| with no Hamiltonian
    term).  ``expected_zeno`` sums all frequency components,
    equals (1/8)(D_X + D_Y), and is of GKLS form.  ``expected_non_gkls``
    is the kernel-only compression P_0 L P_0, equal to expected_zeno
    minus (1/8) D_Z, and is not.
    """

    system: GklsSystem
    hamiltonian: np.ndarray = field(repr=False)
    jump: np.ndarray = field(repr=False)
    l_super: Superoperator = field(repr=False)
    expected_zeno: Superoperator = field(repr=False)
    expected_non_gkls: Superoperator = field(repr=False)


def dephasing_qubit_example() -> DephasingQubitExample:
    h = np.diag([1.0, 0.0]).astype(complex)
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    jump = np.outer(plus, plus.conj())
    system = GklsSystem(d=2, hamiltonian=h, jumps=(jump,))

    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    y = np.array([[0.0, -1j], [1j, 0.0]])
    z = np.diag([1.0, -1.0]).astype(complex)

    def diss(op):
        return dissipator_superoperator([op], 2)

    zeno = (diss(x) + diss(y)) / 8.0
    non_gkls = zeno - diss(z) / 8.0
    return DephasingQubitExample(
        system=system,
        hamiltonian=h,
        jump=jump,
        l_super=Superoperator(2, dissipator_superoperator([jump], 2), "dissipator"),
        expected_zeno=Superoperator(2, zeno, "projected"),
        expected_non_gkls=Superoperator(2, non_gkls, "projected"),
    )


# ---------------------------------------------------------------------------
# random corpus
# ---------------------------------------------------------------------------

def random_gkls(d: int, n_jumps: int, seed: int) -> GklsSystem:
    """Seeded random GKLS system, normalized so the compiled generator has
    unit spectral norm.

    H is a Gaussian Hermitian matrix; jumps are complex Gaussian matrices
    made traceless.  Deterministic per seed.
    """
    d, n_jumps = _read.integer("dimension d", d, 2, 4), _read.integer("n_jumps", n_jumps, 0, 3)
    seed = _read.integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (a + a.conj().T) / 2.0
    jumps = []
    for _ in range(n_jumps):
        l = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        jumps.append(l - (np.trace(l) / d) * np.eye(d))
    scale = spectral_norm(hamiltonian_superoperator(h) + dissipator_superoperator(jumps, d))
    if scale > 0:
        h, jumps = h / scale, [l / math.sqrt(scale) for l in jumps]
    return GklsSystem(d=d, hamiltonian=h, jumps=tuple(jumps))


def gkls_corpus() -> list[GklsSystem]:
    """The 50 random systems from seed 1000 on, cycling d in {2, 3, 4}."""
    return [random_gkls(2 + i % 3, 1 + i % 3, 1000 + i) for i in range(50)]


def gkls_pair_corpus() -> list[tuple[GklsSystem, GklsSystem]]:
    """The 50 (strong, weak) same-dimension pairs from seed 1000 on, for limit-error experiments."""
    return [(random_gkls(2 + i % 3, 1 + i % 3, 1000 + 2 * i),
             random_gkls(2 + i % 3, 1 + (i + 1) % 3, 1001 + 2 * i)) for i in range(50)]
