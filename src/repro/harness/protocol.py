"""The measurement protocol: 100 frames x 5 repeats of timed draws.

Paper Section IV-B: draws are timed with GL_TIME_ELAPSED; "the tests were
run for 100 frames, and then repeated 5 times per shader variant.  These
large numbers of samples are used to reduce noise."  Each frame's sample is
the mean over the frame's draw calls; the protocol reports the mean of the
five repeat means plus dispersion statistics.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List

from repro.gpu.timing import TimerModel

FRAMES_PER_RUN = 100
REPEATS = 5


@dataclass
class Measurement:
    """Aggregated timing for one shader variant on one platform."""

    mean_ns: float
    std_ns: float
    repeat_means: List[float] = field(default_factory=list)

    @property
    def mean_us(self) -> float:
        return self.mean_ns / 1000.0


def run_protocol(true_ns: float, timer: TimerModel, rng: random.Random,
                 frames: int = FRAMES_PER_RUN, repeats: int = REPEATS,
                 draws_per_frame: int = 1) -> Measurement:
    """Simulate the full measurement protocol for a known true draw time.

    Each frame's sample is one representative timed draw (noise across a
    frame's draws is highly correlated — thermal state, clocks — so
    additional draws add little independent information).  A repeat's
    frames are sampled through :meth:`TimerModel.measure_many`, which is
    bit-identical to calling :meth:`TimerModel.measure` once per frame.
    """
    repeat_means: List[float] = []
    for _ in range(repeats):
        frame_samples = timer.measure_many(true_ns, rng, frames)
        repeat_means.append(sum(frame_samples) / len(frame_samples))
    mean = sum(repeat_means) / len(repeat_means)
    variance = sum((m - mean) ** 2 for m in repeat_means) / max(
        len(repeat_means) - 1, 1)
    return Measurement(mean_ns=mean, std_ns=math.sqrt(variance),
                       repeat_means=repeat_means)
