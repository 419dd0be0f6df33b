"""Popa group arithmetic, Haar analysis and kernel estimation for regular variation."""

__version__ = "0.1.0"
