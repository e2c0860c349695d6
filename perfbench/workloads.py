"""Workload definitions shared by the runner and the input preparation.

Every workload is a closed loop in one process: the next CLI call starts
when the previous one has returned.

- toy3-run: `expkin run` on the shipped toy_ignition.cfg (K = 3). With n = 4
  every Krylov call ends in happy breakdown, so the fixed per-step Python
  cost of the integrator and of phi evaluation dominates.
- toy3-sweep: `expkin sweep` (serial) on the shipped toy_sweep.cfg: a tight
  reference and six tolerance points whose end point lies inside the
  ignition transient. Loose points take large steps (many expm squarings)
  and reject often.
- gen53-ignition: `expkin run` on a generated K = 53, 325-reaction mechanism
  over the onset of thermal runaway in its ignition. One finite-difference
  Jacobian is 2K + 2 = 108 rhs calls, so kinetics dominates every step.

The toy workloads run the shipped fixtures unchanged, so their work does not
depend on the seed. For gen53-ignition the seed draws the rate constants of
one fixed generated network (GEN_NETWORK_SEED): each pre-exponential factor
is scaled by a log-normal factor of spread GEN_RATE_SPREAD. Every seed then
asks for about the same work with different numbers. A new network per seed
took 17 to 25 accepted steps and varied err_scaled 2.5-fold, which would
swamp the benchmark's bounds.
"""
from __future__ import annotations

import pathlib

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = SRC / "expkin" / "fixtures"
WORK = BENCH_DIR / ".work"

TOY_CONFIGS = {
    "toy3-run": ("run", FIXTURES / "toy_ignition.cfg"),
    "toy3-sweep": ("sweep", FIXTURES / "toy_sweep.cfg"),
}
GENERATED = "gen53-ignition"
WORKLOADS = (*TOY_CONFIGS, GENERATED)

# gen53-ignition: mechanism size, cold initial state, and the window of the
# ignition it integrates. The window opens when the temperature has risen by
# GEN_WINDOW_DT[0] and closes when it has risen by GEN_WINDOW_DT[1], on a
# loose trajectory from the cold state. At seed cost (0.6-1 s per accepted
# step, about 23 steps) one call fits the benchmark's run length; the whole
# ignition takes over 80 steps. The first step is GEN_H0_FRACTION of the
# window, so the run does not spend a dozen Jacobians growing h from 1e-10.
GEN_SPECIES = 53
GEN_NETWORK_SEED = 0
GEN_RATE_SPREAD = 0.02
GEN_T0 = 1000.0
GEN_PRESSURE = 101325.0
GEN_WINDOW_DT = (50.0, 150.0)
GEN_ATOL = 1.0e-9
GEN_RTOL = 1.0e-3
GEN_H0_FRACTION = 1.0e-3

# Reference solutions are this much tighter than the workload's tolerances.
REFERENCE_TIGHTENING = 1.0e-3


def input_dir(workload, seed):
    """Cache directory of one workload's generated inputs and reference."""
    return WORK / "inputs" / f"{workload}-{seed}"

