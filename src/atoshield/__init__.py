"""Shielded reinforcement-learning control for automatic train operation."""

__version__ = "0.1.0"
