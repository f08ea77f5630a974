"""Local decision hierarchies on graphs.

Certified local verifiers, alternating label games, and the
transforms that move protocols between levels.
"""
from __future__ import annotations

__version__ = "0.2.0"
