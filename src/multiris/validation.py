"""Self-check suite and the random instance builders it runs on.

The builders are also what the test suite uses to synthesize impedance
networks: blocks are drawn so that every matrix the models invert stays far
from the condition cap, which keeps equivalence checks at their algebraic
tolerance instead of drowning in roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import multiport
from .cascade import (
    CascadeChannels,
    ScatteringStack,
    assemble,
    assemble_physics_channel,
    assemble_widely_used,
    cascade_from_network,
)
from .errors import DimensionMismatch
from .fading import FadingSpec, draw_los_link, gen_cascade
from .multiport import (
    Dimensions,
    MultiportNetwork,
    RisLoadStack,
    block_subdiagonal_inverse,
    channel_z_cascade,
    channel_z_general,
    channel_z_matched,
    channel_z_pure_cascade,
    scattering_to_z,
    z_to_scattering,
)
from .optimize import (
    InnerProblemData,
    OptimizerConfig,
    alg1_optimize,
    channel_gain,
    inner_objective,
    inner_solve_diagonal,
    inner_solve_unitary,
    los_optimal_phases_physics,
    los_optimal_phases_widely,
    upper_bound_physics,
    upper_bound_widely,
)
from .rng import RandomStream


# -- random instance builders ----------------------------------------------------


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary matrix: the unitary polar factor W V^H of a complex
    Gaussian matrix W S V^H, whose law is invariant under unitaries on both sides."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, _, vh = np.linalg.svd(g)
    return w @ vh


def well_conditioned_block(n: int, rng: np.random.Generator) -> np.ndarray:
    """Generic non-Hermitian block with singular values in [1, 2] (cond <= 2)."""
    s = rng.uniform(1.0, 2.0, n)
    return haar_unitary(n, rng) @ np.diag(s) @ haar_unitary(n, rng).conj().T

def bidiagonal_instance(l: int, n: int, rng: np.random.Generator):
    """Diagonal and subdiagonal blocks for a well-conditioned structured inverse.

    Subdiagonal entries are scaled 1/(2 sqrt(n)) so the assembled matrix and
    its inverse both stay mild, keeping the dense oracle comparison honest.
    """
    diag = [well_conditioned_block(n, rng) for _ in range(l)]
    sub = [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / (2.0 * np.sqrt(n))
           for _ in range(l - 1)]
    return diag, sub


def assemble_block_bidiagonal(diag, sub) -> np.ndarray:
    l = len(diag)
    n = diag[0].shape[0]
    m = np.zeros((l * n, l * n), dtype=complex)
    for k in range(l):
        m[k * n:(k + 1) * n, k * n:(k + 1) * n] = diag[k]
    for k in range(l - 1):
        m[(k + 1) * n:(k + 2) * n, k * n:(k + 1) * n] = sub[k]
    return m


def random_diagonal_lossless_loads(l: int, n: int, rng: np.random.Generator,
                                   z0: float = multiport.DEFAULT_Z0) -> RisLoadStack:
    """Purely reactive single-connected loads, kept away from the open-circuit point."""
    loads = []
    for _ in range(l):
        theta = rng.uniform(0.35, 2.0 * np.pi - 0.35, n)
        loads.append(np.diag(1j * z0 * np.tan((np.pi - theta) / 2.0)))
    return RisLoadStack(tuple(loads))


def random_full_lossless_loads(l: int, n: int, rng: np.random.Generator,
                               z0: float = multiport.DEFAULT_Z0) -> RisLoadStack:
    """Purely reactive fully-connected loads: Z = j X with X real symmetric."""
    loads = []
    for _ in range(l):
        g = rng.standard_normal((n, n))
        loads.append(1j * z0 * (g + g.T) / 2.0)
    return RisLoadStack(tuple(loads))


def network_from_cascade(ch: CascadeChannels, z0: float = multiport.DEFAULT_Z0) -> MultiportNetwork:
    """Impedance network realizing a cascade: transfer blocks are 2*z0 times the
    channel blocks, end and surface arrays matched to z0."""
    l = ch.n_l
    n_i, n_t, n_r = ch.width(0), ch.n_t, ch.n_r
    for k in range(l):
        if ch.width(k) != n_i:
            raise DimensionMismatch("impedance synthesis needs uniform surface widths")
    dims = Dimensions(n_t=n_t, n_r=n_r, n_i=n_i, l=l)
    ports = dims.ports
    # every end and surface array matched: the diagonal blocks are z0*I
    z = z0 * np.eye(dims.n_ports, dtype=complex)
    z[ports(0), ports("t")] = 2.0 * z0 * ch.h_it_1
    for k in range(l - 1):
        z[ports(k + 1), ports(k)] = 2.0 * z0 * ch.inter[k]
    z[ports("r"), ports(l - 1)] = 2.0 * z0 * ch.h_ri_l
    if ch.sides is not None:
        z[ports("r"), ports("t")] = 2.0 * z0 * ch.sides.h_rt
        for k in range(l - 1):
            z[ports("r"), ports(k)] = 2.0 * z0 * ch.sides.h_ri[k]
            z[ports(k + 1), ports("t")] = 2.0 * z0 * ch.sides.h_it[k]
    return MultiportNetwork(dims, z, z0)


def random_phase_stack(widths, rng: np.random.Generator) -> ScatteringStack:
    """Diagonal surfaces of the given widths with uniform random phases."""
    thetas = tuple(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, w)) for w in widths)
    return ScatteringStack("diagonal", thetas)


# -- check suite --------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_error: float
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format_text(self) -> str:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.name}: max_error={c.max_error:.3e} {c.detail}")
        lines.append(f"validation {'passed' if self.passed else 'FAILED'} "
                     f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)")
        return "\n".join(lines)


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-30)
    return float(np.linalg.norm(a - b) / scale)


def _check_structured_inverse(stream: RandomStream) -> CheckResult:
    worst = 0.0
    rng = stream.generator()
    for _ in range(50):
        l = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        diag, sub = bidiagonal_instance(l, n, rng)
        m = assemble_block_bidiagonal(diag, sub)
        blocks = block_subdiagonal_inverse(diag, sub)
        inv_blocks = np.block(blocks) if l > 1 else blocks[0][0]
        worst = max(worst, _rel_err(inv_blocks, np.linalg.inv(m)))
    return CheckResult("structured_inverse_oracle", worst < 1e-10, worst,
                       "blockwise inverse vs dense inverse, 50 instances")


def _check_model_chain(stream: RandomStream) -> CheckResult:
    worst = 0.0
    rng = stream.generator()
    for i in range(20):
        l = int(rng.integers(1, 5))
        dims = Dimensions(n_t=2, n_r=2, n_i=int(rng.integers(2, 5)), l=l)
        ch = gen_cascade(dims, FadingSpec("rayleigh", 1 / np.sqrt(2 * dims.n_i)),
                         stream.child("ch", i))
        net = network_from_cascade(ch)
        loads = (random_diagonal_lossless_loads(l, dims.n_i, rng) if i % 2 == 0
                 else random_full_lossless_loads(l, dims.n_i, rng))
        h_general = channel_z_general(net, loads)
        h_cascade = channel_z_cascade(net, loads)
        h_matched = channel_z_matched(net, loads)
        h_pure = channel_z_pure_cascade(net, loads)
        thetas = [z_to_scattering(z, net.z0) for z in loads.loads]
        h_s = assemble_physics_channel(cascade_from_network(net), thetas)
        for other in (h_cascade, h_matched, h_pure, h_s):
            worst = max(worst, _rel_err(h_general, other))
    return CheckResult("impedance_model_chain", worst < 1e-12, worst,
                       "general = structured = matched = pure cascade = scattering assembly")


def _check_conversion_roundtrip(stream: RandomStream) -> CheckResult:
    worst = 0.0
    rng = stream.generator()
    for _ in range(20):
        n = int(rng.integers(1, 7))
        z = random_full_lossless_loads(1, n, rng).loads[0]
        theta = z_to_scattering(z)
        worst = max(worst, _rel_err(scattering_to_z(theta), z))
        worst = max(worst, float(np.abs(theta.conj().T @ theta - np.eye(n)).max()))
    return CheckResult("scattering_conversion_roundtrip", worst < 1e-10, worst,
                       "z -> theta -> z and losslessness of theta")


def _check_structural_null(stream: RandomStream) -> CheckResult:
    dims = Dimensions(n_t=2, n_r=2, n_i=4, l=3)
    ch = gen_cascade(dims, FadingSpec("rayleigh", 1 / np.sqrt(2 * dims.n_i)), stream)
    identity = [np.eye(4) for _ in range(3)]
    h = assemble_physics_channel(ch, identity)
    worst = float(np.abs(h).max())
    return CheckResult("identity_nulls_physics_channel", worst == 0.0, worst,
                       "Theta = I must zero the physical cascade exactly")


def _check_transmissive_equivalence(stream: RandomStream) -> CheckResult:
    # a surface used transmissively (offset 0) contributes Theta, a reflective
    # one (offset 1) Theta - I; the dense product multiplies out n x n matrices
    worst = 0.0
    rng = stream.generator()
    for trial in range(10):
        l = int(rng.integers(1, 4))
        dims = Dimensions(n_t=2, n_r=2, n_i=2, l=l)
        ch = gen_cascade(dims, FadingSpec("rayleigh", 1 / np.sqrt(2 * dims.n_i)),
                         stream.child("ch", trial))
        stack = random_phase_stack((dims.n_i,) * l, rng)
        offsets = rng.integers(0, 2, l).tolist()
        dense = ch.h_it_1
        for theta, d, hop in zip(stack.thetas, offsets, (*ch.inter, ch.h_ri_l)):
            dense = hop @ (np.diag(theta) - d * np.eye(dims.n_i)) @ dense
        worst = max(worst, _rel_err(assemble(ch, stack, offsets), dense))
    return CheckResult("transmissive_drops_structural_term", worst < 1e-12, worst,
                       "random reflective/transmissive surfaces vs the dense product")


def _check_inner_solvers(stream: RandomStream) -> CheckResult:
    worst = 0.0
    rng = stream.generator()
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g_ri = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g_it = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g_rt = complex(rng.standard_normal() + 1j * rng.standard_normal())
        u = np.zeros(2, dtype=complex)
        u[0] = 1.0
        data = InnerProblemData(g_rt, g_ri, g_it, u, u)
        diag_val = inner_objective(data, inner_solve_diagonal(data))
        expect_diag = (abs(g_rt) + np.sum(np.abs(g_ri) * np.abs(g_it))) ** 2
        worst = max(worst, abs(diag_val - expect_diag) / expect_diag)
        theta_u = inner_solve_unitary(data)
        uni_val = inner_objective(data, theta_u)
        expect_uni = (abs(g_rt) + np.linalg.norm(g_ri) * np.linalg.norm(g_it)) ** 2
        worst = max(worst, abs(uni_val - expect_uni) / expect_uni)
        worst = max(worst, float(np.abs(theta_u.conj().T @ theta_u - np.eye(n)).max()))
    return CheckResult("inner_solver_optima", worst < 1e-9, worst,
                       "closed-form inner optima match their analytic values")


def _check_los_closed_forms(stream: RandomStream) -> CheckResult:
    worst = 0.0
    n_i, l, n_t, n_r = 8, 2, 2, 2
    shapes = [(n_i, n_t)] + [(n_i, n_i)] * (l - 1) + [(n_r, n_i)]
    for trial in range(10):
        sub = stream.child("los", trial)
        links = [draw_los_link(rows, cols, 1.0, sub.child("link", k))
                 for k, (rows, cols) in enumerate(shapes)]
        ch = CascadeChannels(links[0].matrix(),
                             tuple(m.matrix() for m in links[1:-1]),
                             links[-1].matrix())
        g_w = channel_gain(assemble_widely_used(ch, los_optimal_phases_widely(ch)))
        expect_w = float(n_i) ** (2 * l) * n_r * n_t
        worst = max(worst, abs(g_w - expect_w) / expect_w)
        # physics optimum, checked against the drawn steering vectors directly
        g_p = channel_gain(assemble_physics_channel(ch, los_optimal_phases_physics(ch)))
        expect_p = float(n_r * n_t)
        for k in range(l):
            c = links[k + 1].b @ links[k].a
            expect_p *= (abs(c) + n_i) ** 2
        worst = max(worst, abs(g_p - expect_p) / expect_p)
    return CheckResult("los_closed_form_gains", worst < 1e-9, worst,
                       "optimal line-of-sight gains match their per-draw closed forms")


def _check_bound_compliance(stream: RandomStream) -> CheckResult:
    worst_gap = 0.0
    rng = stream.generator()
    for trial in range(6):
        dims = Dimensions(n_t=2, n_r=2, n_i=int(rng.integers(3, 7)), l=int(rng.integers(1, 4)))
        ch = gen_cascade(dims, FadingSpec("rayleigh"), stream.child("bc", trial))
        for model, bound in (("physics", upper_bound_physics(ch)),
                             ("widely_used", upper_bound_widely(ch))):
            cfg = OptimizerConfig(model=model, architecture="diagonal")
            res = alg1_optimize(ch, cfg, stream.child("opt", model, trial))
            worst_gap = max(worst_gap, (res.gain - bound) / bound)
            if any(np.diff(res.gain_trace) < -1e-9 * max(res.gain, 1.0)):
                worst_gap = max(worst_gap, 1.0)
    return CheckResult("gain_below_bound_and_monotone", worst_gap <= 1e-9, worst_gap,
                       "alternating optimizer never beats its bound, trace non-decreasing")


def validate(seed: int = 20240817) -> ValidationReport:
    """Run the built-in consistency checks and return the report."""
    stream = RandomStream(seed, ("validate",))
    checks = (
        _check_structured_inverse(stream.child("prop1")),
        _check_model_chain(stream.child("chain")),
        _check_conversion_roundtrip(stream.child("convert")),
        _check_structural_null(stream.child("null")),
        _check_transmissive_equivalence(stream.child("sector")),
        _check_inner_solvers(stream.child("inner")),
        _check_los_closed_forms(stream.child("los")),
        _check_bound_compliance(stream.child("bound")),
    )
    return ValidationReport(checks)
