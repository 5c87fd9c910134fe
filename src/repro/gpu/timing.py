"""GL_TIME_ELAPSED measurement noise model.

The paper notes timer queries "can be noisy and introduce profiling
overhead"; it fights that with 100 frames x 5 repeats per variant.  We model
measured draw time as

    measured = true * (1 + eps) + overhead,   eps ~ N(0, sigma)

with per-platform sigma (Intel least noisy per Section VI-D-7, mobile worst)
plus timer quantization.  All randomness is seeded for reproducibility.

The randomness never depends on the true time: :meth:`TimerModel.noise`
draws the per-query factors ``1 + eps (+ drift)`` on their own and
:meth:`TimerModel.apply` turns factors into readings, so one stream of
factors can time any number of shaders under the same seed.
:meth:`TimerModel.measure` draws and applies in one step and is the
reference the split path is held to, bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class TimerModel:
    """Timer-query noise model: gaussian noise, overhead, quantization, drift."""
    sigma: float             # relative gaussian noise per query
    overhead_ns: float       # profiling overhead added to each query
    quantum_ns: float        # timer resolution
    drift_sigma: float = 0.0  # slow per-frame drift (thermal, mobile)

    def measure(self, true_ns: float, rng: random.Random) -> float:
        drift = rng.gauss(0.0, self.drift_sigma) if self.drift_sigma else 0.0
        noisy = true_ns * (1.0 + rng.gauss(0.0, self.sigma) + drift)
        noisy += self.overhead_ns
        if self.quantum_ns > 0:
            noisy = round(noisy / self.quantum_ns) * self.quantum_ns
        return max(noisy, 0.0)

    def noise(self, rng: random.Random, count: int) -> Tuple[float, ...]:
        """The factors of *count* consecutive queries: the multipliers of
        the true time that *count* :meth:`measure` calls on the same
        ``rng`` would use, drawn in the same order and summed with the same
        float association, so the ``rng`` is left in the same state too.
        """
        gauss = rng.gauss
        sigma, drift_sigma = self.sigma, self.drift_sigma
        if drift_sigma:
            return tuple([_noise_factor(gauss(0.0, drift_sigma),
                                        gauss(0.0, sigma))
                          for _ in range(count)])
        return tuple([1.0 + gauss(0.0, sigma) + 0.0 for _ in range(count)])

    def apply(self, true_ns: float,
              factors: Sequence[float]) -> List[float]:
        """The readings of queries timing a *true_ns* draw with *factors*
        (see :meth:`noise`): the arithmetic of :meth:`measure`, one fused
        expression per query, so the readings equal its results bit for
        bit."""
        overhead, quantum = self.overhead_ns, self.quantum_ns
        if quantum > 0:
            return [max(round((true_ns * factor + overhead) / quantum)
                        * quantum, 0.0)
                    for factor in factors]
        return [max(true_ns * factor + overhead, 0.0) for factor in factors]


def _noise_factor(drift: float, noise: float) -> float:
    """``1.0 + noise + drift`` with the drift sample drawn first.

    ``measure`` draws the drift before the noise but sums left-to-right as
    ``(1.0 + noise) + drift``; call arguments evaluate left-to-right, so
    this helper preserves both the RNG draw order and the float-addition
    association.
    """
    return 1.0 + noise + drift
