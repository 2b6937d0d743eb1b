"""Closed-loop learner state engine over replayed multi-modal streams."""

__version__ = "0.1.0"
