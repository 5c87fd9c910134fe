"""The eight optimization flags explored by the paper.

Six are LunarGlass defaults (ADCE, Hoist, Unroll, Coalesce, GVN, integer
Reassociate); two are the paper's additional unsafe floating-point passes
(FP-Reassociate and Const-Div-to-Mul).  All 256 on/off combinations form the
exhaustive search space of Section III-A.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterator, Tuple

#: Number of flags == bits in a combination index.
FLAG_COUNT = 8
#: Size of the exhaustive search space (2 ** FLAG_COUNT).
SPACE_SIZE = 1 << FLAG_COUNT

#: Canonical flag order used for combination indexing (bit 0 = adce).
ALL_FLAG_NAMES: Tuple[str, ...] = (
    "adce", "coalesce", "gvn", "reassociate", "unroll", "hoist",
    "fp_reassociate", "div_to_mul",
)

#: Human-readable labels matching the paper's Table I columns.
FLAG_LABELS = {
    "adce": "ADCE",
    "coalesce": "Coalesce",
    "gvn": "GVN",
    "reassociate": "Reassociate",
    "unroll": "Unroll",
    "hoist": "Hoist",
    "fp_reassociate": "FP Reassociate",
    "div_to_mul": "Div to Mul",
}


@dataclass(frozen=True)
class OptimizationFlags:
    """An immutable set of the paper's eight flag bits — one point in the
    256-combination space."""
    adce: bool = False
    coalesce: bool = False
    gvn: bool = False
    reassociate: bool = False
    unroll: bool = False
    hoist: bool = False
    fp_reassociate: bool = False
    div_to_mul: bool = False

    @staticmethod
    def none() -> "OptimizationFlags":
        return OptimizationFlags()

    @staticmethod
    def all() -> "OptimizationFlags":
        return OptimizationFlags(**{name: True for name in ALL_FLAG_NAMES})

    @staticmethod
    def from_index(index: int) -> "OptimizationFlags":
        """Decode combination 0..255 (bit i = ALL_FLAG_NAMES[i])."""
        if not 0 <= index < 256:
            raise ValueError(f"combination index {index} out of range")
        return OptimizationFlags(
            **{name: bool(index >> bit & 1) for bit, name in enumerate(ALL_FLAG_NAMES)}
        )

    @cached_property
    def index(self) -> int:
        """The combination index (bit i = ALL_FLAG_NAMES[i]), computed once
        per instance."""
        return sum(
            (1 << bit) if getattr(self, name) else 0
            for bit, name in enumerate(ALL_FLAG_NAMES)
        )

    def __getstate__(self) -> dict:
        """Pickle the eight flags alone, as before ``index`` was cached."""
        return {name: getattr(self, name) for name in ALL_FLAG_NAMES}

    def enabled(self) -> Tuple[str, ...]:
        return tuple(name for name in ALL_FLAG_NAMES if getattr(self, name))

    def with_flag(self, name: str, value: bool = True) -> "OptimizationFlags":
        if name not in ALL_FLAG_NAMES:
            raise ValueError(f"unknown flag {name!r}")
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current[name] = value
        return OptimizationFlags(**current)

    @staticmethod
    def single(name: str) -> "OptimizationFlags":
        return OptimizationFlags.none().with_flag(name, True)

    @staticmethod
    def all_combinations() -> Iterator["OptimizationFlags"]:
        for index in range(256):
            yield OptimizationFlags.from_index(index)

    def __str__(self) -> str:
        names = self.enabled()
        return "+".join(names) if names else "none"


# ---------------------------------------------------------------------------
# Flag-mask utilities: combination indices as 8-bit masks.  The search
# strategies (repro.search.strategies) operate on these integers and decode
# to OptimizationFlags only at evaluation time.
# ---------------------------------------------------------------------------


def flip_bit(index: int, bit: int) -> int:
    """Toggle one flag in a combination index."""
    if not 0 <= bit < FLAG_COUNT:
        raise ValueError(f"bit {bit} out of range 0..{FLAG_COUNT - 1}")
    return index ^ (1 << bit)


def neighbor_indices(index: int) -> Tuple[int, ...]:
    """All combination indices at Hamming distance 1 (each flag flipped)."""
    return tuple(index ^ (1 << bit) for bit in range(FLAG_COUNT))


def popcount(index: int) -> int:
    """Number of enabled flags in a combination index."""
    return bin(index & (SPACE_SIZE - 1)).count("1")


def hamming_distance(a: int, b: int) -> int:
    """Number of flags on which two combinations differ."""
    return popcount(a ^ b)


def random_index(rng: random.Random) -> int:
    """A uniformly random combination index."""
    return rng.randrange(SPACE_SIZE)


def uniform_crossover(a: int, b: int, rng: random.Random) -> int:
    """Each flag taken from parent *a* or *b* with equal probability."""
    mask = rng.randrange(SPACE_SIZE)
    return (a & mask) | (b & ~mask & (SPACE_SIZE - 1))


def mutate_index(index: int, rng: random.Random,
                 rate: float = 1.0 / FLAG_COUNT) -> int:
    """Flip each flag independently with probability *rate*."""
    for bit in range(FLAG_COUNT):
        if rng.random() < rate:
            index ^= 1 << bit
    return index


#: The flags LunarGlass enables by default (paper Section VI-B: GVN, integer
#: reassociation, hoisting, unrolling, coalescing and ADCE are the defaults;
#: the unsafe FP passes are the paper's additions and default to off).
DEFAULT_LUNARGLASS = OptimizationFlags(
    adce=True, coalesce=True, gvn=True, reassociate=True, unroll=True, hoist=True,
    fp_reassociate=False, div_to_mul=False,
)
