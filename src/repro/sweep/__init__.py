"""The ``repro sweep`` machine-model lab.

Declarative config grids (JSON files or CLI axes) fanned through the
experiment scheduler with resumable progress and scaling-surface
rendering.  See ``docs/sweeping.md``.
"""
