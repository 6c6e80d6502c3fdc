"""Whole-run benchmark of the simulator; see README.md."""
