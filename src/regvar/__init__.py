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
    "QuadratureResult",
    "QuadratureSpec",
    "QuadratureWarning",
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


def __getattr__(name: str):
    """The quadrature names load ``regvar.quadrature`` on first use, so ``import regvar`` stays light."""
    if name in ("QuadratureResult", "QuadratureSpec", "QuadratureWarning"):
        from regvar import quadrature
        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
