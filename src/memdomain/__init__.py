"""memdomain: dissipative oscillator modes, their lifetimes, and memory domains.

Units: hbar = 1 throughout; the reference frequency of a mode with momentum
k is omega0 = c * k, so with the default c = 1 momenta double as frequencies.
"""

__version__ = "0.1.0"

from .errors import (
    CutoffTooSmall,
    DomainError,
    MemdomainError,
    ModeDead,
    NeverRecordable,
    RealityViolation,
    StepSizeUnderflow,
    UnsupportedBranch,
)

__all__ = [
    "__version__",
    "MemdomainError",
    "DomainError",
    "UnsupportedBranch",
    "RealityViolation",
    "NeverRecordable",
    "ModeDead",
    "StepSizeUnderflow",
    "CutoffTooSmall",
]
