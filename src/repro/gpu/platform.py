"""Platform bundles: GPU spec + driver JIT + timer noise + draw geometry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.gpu.cost import GPUSpec
from repro.gpu.jit import VendorJIT
from repro.gpu.timing import TimerModel


@dataclass(frozen=True)
class Platform:
    """Everything needed to 'run' a shader on one of the paper's devices."""

    name: str          # "Intel", "AMD", "NVIDIA", "ARM", "Qualcomm"
    device: str        # marketing name, for reports
    spec: GPUSpec
    jit: VendorJIT
    timer: TimerModel
    is_mobile: bool = False

    #: 500x500 clipped quad (paper Section IV-B).
    fragments_per_draw: int = 500 * 500


def all_platforms() -> List[Platform]:
    """The five platforms in the paper's reporting order."""
    from repro.gpu.vendors import AMD, ARM, INTEL, NVIDIA, QUALCOMM

    return [INTEL, AMD, NVIDIA, ARM, QUALCOMM]


def platform_by_name(name: str) -> Platform:
    """The platform named *name*, case-insensitively (KeyError if unknown)."""
    matches: Dict[str, Platform] = {p.name.lower(): p for p in all_platforms()}
    try:
        return matches[name.lower()]
    except KeyError:
        raise KeyError(f"unknown platform {name!r}; "
                       f"expected one of {sorted(matches)}")
