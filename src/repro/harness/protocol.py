"""The measurement protocol: 100 frames x 5 repeats of timed draws.

Paper Section IV-B: draws are timed with GL_TIME_ELAPSED; "the tests were
run for 100 frames, and then repeated 5 times per shader variant.  These
large numbers of samples are used to reduce noise."  The paper's frames
hold 1000 draws on desktop and 100 on mobile; the model times one
representative draw per frame (:func:`protocol_noise` says why).  The
protocol reports the mean of the five repeat means plus dispersion
statistics.

The protocol's randomness is drawn apart from its arithmetic:
:func:`protocol_noise` draws one run's timer factors from an rng, and
:func:`run_protocol` applies them to a true draw time.  The draws never
depend on the true time, so every shader measured under one seed on one
platform can share one stream; applying it is bit-identical to one
:meth:`TimerModel.measure <repro.gpu.timing.TimerModel.measure>` call per
frame on that rng.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.gpu.timing import TimerModel

FRAMES_PER_RUN = 100
REPEATS = 5

#: One protocol run's timer factors: one tuple of per-frame factors per
#: repeat.
ProtocolNoise = Tuple[Tuple[float, ...], ...]


@dataclass(frozen=True)
class Measurement:
    """Aggregated timing for one shader variant on one platform.

    Immutable: an environment hands one instance to every report of the
    same true draw time under one seed."""

    mean_ns: float
    std_ns: float
    repeat_means: Tuple[float, ...] = ()

    @property
    def mean_us(self) -> float:
        return self.mean_ns / 1000.0


def protocol_noise(timer: TimerModel, rng: random.Random,
                   frames: int = FRAMES_PER_RUN,
                   repeats: int = REPEATS) -> ProtocolNoise:
    """Draw the timer factors of one protocol run, repeat by repeat.

    Each frame's sample is one representative timed draw (noise across a
    frame's draw calls is highly correlated — thermal state, clocks — so
    additional draws add little independent information).
    """
    return tuple(timer.noise(rng, frames) for _ in range(repeats))


def run_protocol(true_ns: float, timer: TimerModel,
                 noise: ProtocolNoise) -> Measurement:
    """Simulate the full measurement protocol for a known true draw time,
    timing each frame with its factor from *noise* (see
    :func:`protocol_noise`) through :meth:`TimerModel.apply
    <repro.gpu.timing.TimerModel.apply>`, one pass per repeat."""
    repeat_means: List[float] = []
    for factors in noise:
        samples = timer.apply(true_ns, factors)
        repeat_means.append(sum(samples) / len(samples))
    mean = sum(repeat_means) / len(repeat_means)
    variance = sum((m - mean) ** 2 for m in repeat_means) / max(
        len(repeat_means) - 1, 1)
    return Measurement(mean_ns=mean, std_ns=math.sqrt(variance),
                       repeat_means=tuple(repeat_means))
