"""Tracking benchmark for colony_track; run it with ``python3 trackbench/run.py``."""
