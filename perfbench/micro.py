"""Fixed-input per-call timings of single layers (the micro.* metrics).

Inputs come from one fixed seed, independent of --seed, so every run times
the same calls. Each function is called a few times untimed first; the
reported value is the median of the timed calls in microseconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from multiris.cascade import ScatteringStack, assemble_physics_channel
from multiris.fading import FadingSpec, gen_cascade
from multiris.multiport import Dimensions
from multiris.optimize import (
    InnerProblemData,
    OptimizerConfig,
    alg1_optimize,
    dominant_singular_pair,
    inner_solve_diagonal,
    inner_solve_unitary,
    upper_bound_physics,
    upper_bound_widely,
)
from multiris.rng import RandomStream

MICRO_SEED = 20240409
_RAYLEIGH = FadingSpec("rayleigh")


def _cascade(l: int, n: int):
    return gen_cascade(Dimensions(n_t=2, n_r=2, n_i=n, l=l), _RAYLEIGH,
                       RandomStream(MICRO_SEED, ("micro", l, n)))


def _complex(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _inner_data(rng: np.random.Generator, n: int) -> InnerProblemData:
    u = _complex(rng, 2)
    v = _complex(rng, 2)
    return InnerProblemData(complex(_complex(rng, 1)[0]), _complex(rng, n), _complex(rng, n),
                            u / np.linalg.norm(u), v / np.linalg.norm(v))


def _median_us(fn, calls: int, warmup: int = 2) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def run_micro() -> dict[str, float]:
    rng = RandomStream(MICRO_SEED, ("micro-inputs",)).generator()
    l2_n8, l4_n128, l12_n8 = _cascade(2, 8), _cascade(4, 128), _cascade(12, 8)
    h2, h128 = _complex(rng, 2, 2), _complex(rng, 128, 128)
    stack = ScatteringStack("diagonal", tuple(
        np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 128))) for _ in range(4)))
    diag128, unit32 = _inner_data(rng, 128), _inner_data(rng, 32)
    sweep = OptimizerConfig(model="physics", max_outer_iters=1)

    def alg1(ch):
        return lambda: alg1_optimize(ch, sweep, RandomStream(MICRO_SEED, ("micro-alg1",)))

    dims = Dimensions(n_t=2, n_r=2, n_i=128, l=4)
    stream = RandomStream(MICRO_SEED, ("micro-gen",))
    return {
        "micro.gen_cascade.l4_n128_us":
            _median_us(lambda: gen_cascade(dims, _RAYLEIGH, stream), 60),
        "micro.dominant_singular_pair.2x2_us":
            _median_us(lambda: dominant_singular_pair(h2), 300),
        "micro.dominant_singular_pair.n128_us":
            _median_us(lambda: dominant_singular_pair(h128), 30),
        "micro.assemble_physics_channel.l4_n128_us":
            _median_us(lambda: assemble_physics_channel(l4_n128, stack), 100),
        "micro.inner_solve_diagonal.n128_us":
            _median_us(lambda: inner_solve_diagonal(diag128), 500),
        "micro.inner_solve_unitary.n32_us":
            _median_us(lambda: inner_solve_unitary(unit32), 200),
        "micro.upper_bound_physics.l4_n128_us":
            _median_us(lambda: upper_bound_physics(l4_n128), 7),
        "micro.upper_bound_physics.l12_n8_us":
            _median_us(lambda: upper_bound_physics(l12_n8), 7),
        "micro.upper_bound_widely.l4_n128_us":
            _median_us(lambda: upper_bound_widely(l4_n128), 7),
        "micro.alg1_sweep.l2_n8_us": _median_us(alg1(l2_n8), 60),
        "micro.alg1_sweep.l4_n128_us": _median_us(alg1(l4_n128), 9),
    }
