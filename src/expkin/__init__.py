"""Adaptive exponential time integration for zero-D chemical kinetics.

The package exports no names: import from its submodules (`kinetics`,
`phikrylov`, `integrator`, `mechio`, `cli`).
"""
