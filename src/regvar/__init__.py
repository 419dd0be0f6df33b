"""Popa group arithmetic, Haar analysis and kernel estimation for regular variation."""

from regvar.popa import (
    INFINITY,
    ZERO,
    DomainError,
    ParameterMismatchError,
    PopaParam,
    PopaPoint,
    circle,
    eta,
    from_multiplicative,
    identity,
    inverse,
    leq,
    norm,
    power,
    to_multiplicative,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "ZERO",
    "DomainError",
    "ParameterMismatchError",
    "PopaParam",
    "PopaPoint",
    "circle",
    "eta",
    "from_multiplicative",
    "identity",
    "inverse",
    "leq",
    "norm",
    "power",
    "to_multiplicative",
]
