"""Per-call times of expkin's hot kernels, one BLAS thread.

    python3 bench/layers.py [--repeat 15] [--number 0] [--out BENCH_layers.json]

Times `rhs_vector`, `rhs_and_jacobian` and the product that yields every
temperature-dependent term (`kinetics._temperature_terms`) at a toy3 state
and at a state of a generated K = 53 mechanism (`perfbench/mechgen.py`,
network 0, the size of the gen53-ignition workload), `rhs_vector` and
`rhs_and_jacobian` at the same state of K = 250 and K = 500 mechanisms
(network 0), the product at the K = 500 state, `phi_blocks` on the matrix one EPI3V step at the toy3 state
hands it (a balanced ||h J||_1 of 0.025, near the toy3-run median of
0.024, which `phi_blocks` takes at Taylor degree 9) and `expm` on the
(2, 16, 16) stack it builds, at the degree it names (reported as
`degree`), `phi_blocks` on that matrix scaled to ||h J||_1 = 1 (degree 20),
`expm` of a (2, 11, 11) Krylov-Hessenberg stack, the two `kiops_eval` calls of an
attempt at the K = 53 state (phi_1 at T = 3/4 and 1, phi_3 at T = 1),
`Arnoldi.extend(10)` there, the phi_1 call at the same state of a K = 250
mechanism (network 0), one `epi3v_step` attempt (F and J given) at
each of the three states, and the set-up and output of a K = 53 run: `parse_mechanism` of
the network's text, `kinetics._Tables` of the parsed mechanism (the
evaluation arrays its first evaluation builds) and `write_csv` of a
200 x 55 table of floats, the size of the gen53-ignition `solution.csv`,
to a temporary directory. The Krylov kernels take the operator and vector
the integrator hands `kiops_eval`: h J and h F weighted by the error
weights at GEN_ATOL and GEN_RTOL (`integrator._phi_products`). Each kernel
runs `--repeat` batches of `--number` calls (0: as many as fill about
20 ms); the report holds the median,
minimum and maximum per-call time of the batches in microseconds, with the
host, its core count and the numpy and BLAS versions, and goes to stdout
and to `--out`.

The host's speed drifts, so the calibration kernel of `perfbench/gauge.py`
is sampled before a kernel's first batch and after each batch. Each batch's
time is scaled to the gauge's reference speed by the factor
REFERENCE_S / (gauge time) interpolated at the batch's midpoint
(`SpeedGauge.factors_at`). The report gives each batch's time and factor
(`batch_us`, `batch_factor`), the mean gauge time (`gauge_s`), and the
median, minimum and maximum of the scaled times (`us_p50_scaled` and so
on), which compare across runs and hosts.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from expkin import integrator, kinetics, mechio, phikrylov  # noqa: E402
from expkin.kinetics import rhs_and_jacobian, rhs_vector  # noqa: E402

TOY_T = 1500.0
GEN_SPECIES = 53
GEN_LARGE_SPECIES = 250
GEN_LARGEST_SPECIES = 500
GEN_NETWORK_SEED = 0
GEN_T = 1050.0
PRESSURE = 101325.0
TOY_STEP = 1.0e-5       # h of the toy's EPI3V step
GEN_STEP = 1.0e-7       # h of the Krylov calls
# h of the K = 53 and K = 250 EPI3V attempts: their stages stay inside the
# mass-fraction bounds and their error tests pass (scaled errors 0.43 and
# 3e-4) at the gen53-ignition workload's tolerances GEN_ATOL and GEN_RTOL.
GEN_ATTEMPT_STEP = 1.0e-10
GEN_ATOL = 1.0e-9
GEN_RTOL = 1.0e-3
CSV_ROWS = 200          # the gen53-ignition run's output samples


def load_perfbench(name):
    """The module perfbench/<name>.py."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURES = ROOT / "src" / "expkin" / "fixtures"
GAUGE = load_perfbench("gauge")


def toy_state():
    """toy_ignition.cfg's mixture at TOY_T, every species present."""
    mech = mechio.parse_mechanism((FIXTURES / "toy3.mech").read_text())
    Y = np.full(mech.n_species, 0.01)
    Y[mech.species_index("F")] = 0.1
    Y[mech.species_index("B")] = 0.9 - 0.01 * (mech.n_species - 2)
    return mech, np.concatenate(([TOY_T], Y))


def gen_state(n_species=GEN_SPECIES):
    """A generated network's initial mixture at GEN_T with 1% of the mass
    spread evenly over all species, so no column of J is a zero-Y column."""
    mechgen = load_perfbench("mechgen")
    mech = mechgen.generate_mechanism(n_species, GEN_NETWORK_SEED)
    Y = np.full(mech.n_species, 0.01 / mech.n_species)
    for name, frac in mechgen.initial_mass_fractions(mech).items():
        Y[mech.species_index(name)] += 0.99 * frac
    return mech, np.concatenate(([GEN_T], Y))


def per_call_us(fn, repeat, number):
    """(median, min, max) per-call microseconds over `repeat` batches, each
    batch's time and its speed factor, the mean time of the gauge kernel
    sampled before the batches and after each, and the three statistics of
    the batch times at the gauge's reference speed."""
    fn()
    timer = timeit.Timer(fn)
    if number <= 0:
        number, _ = timer.autorange()
        number = max(1, number // 10)
    gauge = GAUGE.SpeedGauge()
    gauge.sample()
    times, midpoints = [], []
    for _ in range(repeat):
        start = time.perf_counter_ns()
        times.append(timer.timeit(number) / number * 1e6)
        midpoints.append((start + time.perf_counter_ns()) // 2)
        gauge.sample()
    factors = gauge.factors_at(midpoints).tolist()
    scaled = [t * f for t, f in zip(times, factors)]
    return {"us_p50": statistics.median(times), "us_min": min(times),
            "us_max": max(times), "calls_per_batch": number,
            "batch_us": times, "batch_factor": factors,
            "gauge_s": statistics.mean(s for _, s in gauge.samples),
            "us_p50_scaled": statistics.median(scaled),
            "us_min_scaled": min(scaled), "us_max_scaled": max(scaled)}


def attempt(mech, y, h, atol, rtol):
    """A call of one EPI3V attempt of step h at state y, as the integrator
    makes it with tolerances atol and rtol; F and J are evaluated here,
    once, outside the call."""
    F, J = rhs_and_jacobian(y, mech, PRESSURE)
    problem = integrator.problem_from_mechanism(mech, PRESSURE)
    weights = atol + rtol * np.abs(y)
    ktol = integrator.krylov_tolerance(rtol)

    def step():
        return integrator.epi3v_step(y, h, F, J, problem, weights,
                                     krylov_tol=ktol)
    return step


def toy_stack(step):
    """(A, stack, degree): the first arguments of `phi_blocks` (the
    balanced h J) and of `expm` (the (2, 16, 16) stack) in the toy's EPI3V
    attempt `step`, and the Taylor degree `phi_blocks` names for the stack,
    so all are what the integrator builds."""
    originals = phikrylov.phi_blocks, phikrylov.expm
    captured = {}

    def capture(fn):
        def first_call_recorded(X, *args, **kwargs):
            captured.setdefault(fn.__name__, (np.array(X), kwargs))
            return fn(X, *args, **kwargs)
        return first_call_recorded
    phikrylov.phi_blocks, phikrylov.expm = map(capture, originals)
    try:
        step()
    finally:
        phikrylov.phi_blocks, phikrylov.expm = originals
    (A, _), (stack, kwargs) = captured["phi_blocks"], captured["expm"]
    return A, stack, kwargs["degree"]


def krylov_operands(mech, y):
    """(A, b): the operator and vector of the phi_1 `kiops_eval` call of an
    attempt of step GEN_STEP at state y with tolerances GEN_ATOL and
    GEN_RTOL, as `integrator._phi_products` weights them."""
    F, J = rhs_and_jacobian(y, mech, PRESSURE)
    weights = GEN_ATOL + GEN_RTOL * np.abs(y)
    real = phikrylov.kiops_eval
    captured = []

    def first_call_recorded(A, b, p, *args, **kwargs):
        captured.append((np.array(A), b.copy()))
        return real(A, b, p, *args, **kwargs)
    phikrylov.kiops_eval = first_call_recorded
    try:
        integrator._phi_products(GEN_STEP * J, GEN_STEP * F, weights,
                                 integrator.krylov_tolerance(GEN_RTOL),
                                 phikrylov.PhiStats())
    finally:
        phikrylov.kiops_eval = real
    return captured[0]


def norm1(X):
    """The largest 1-norm of the matrix X or of the matrices of a stack."""
    return float(np.abs(X).sum(axis=-2).max())


def hessenberg_stack(A, v):
    """The (2, 11, 11) stack a 10-vector Krylov substep exponentiates: the
    Hessenberg matrix with its error-estimate column, at tau 1 and 3/4."""
    proc = phikrylov.Arnoldi(A, v, 10)
    proc.extend(10)
    Hx = np.zeros((11, 11))
    Hx[:10, :10] = proc.H[:10, :10]
    Hx[0, 10] = 1.0
    return np.multiply.outer([1.0, 0.75], Hx)


def blas_info():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def measure(repeat, number, tmpdir):
    toy_mech, y_toy = toy_state()
    gen_mech, y_gen = gen_state()
    gen_text = mechio.serialize_mechanism(gen_mech)
    solution = np.random.default_rng(0).random(
        (CSV_ROWS, gen_mech.n_species + 2)).tolist()
    solution_csv = pathlib.Path(tmpdir) / "solution.csv"
    solution_header = ["t", "T"] + [f"Y_{s.name}" for s in gen_mech.species]
    cfg = mechio.parse_config((FIXTURES / "toy_ignition.cfg").read_text())
    step_toy = attempt(toy_mech, y_toy, TOY_STEP, cfg.atol, cfg.rtol)
    A_toy, stack_toy, degree_toy = toy_stack(step_toy)
    A_toy_norm1 = A_toy / norm1(A_toy)
    A_gen, b_gen = krylov_operands(gen_mech, y_gen)
    large_mech, y_large = gen_state(GEN_LARGE_SPECIES)
    A_large, b_large = krylov_operands(large_mech, y_large)
    largest_mech, y_largest = gen_state(GEN_LARGEST_SPECIES)
    stack_hess = hessenberg_stack(A_gen, b_gen)

    def arnoldi():
        phikrylov.Arnoldi(A_gen, b_gen, 10).extend(10)

    kernels = {
        "rhs_vector@toy3": lambda: rhs_vector(y_toy, toy_mech, PRESSURE),
        "rhs_and_jacobian@toy3": lambda: rhs_and_jacobian(y_toy, toy_mech, PRESSURE),
        "rhs_vector@gen53": lambda: rhs_vector(y_gen, gen_mech, PRESSURE),
        "rhs_and_jacobian@gen53": lambda: rhs_and_jacobian(y_gen, gen_mech, PRESSURE),
        "rhs_vector@gen250": lambda: rhs_vector(y_large, large_mech, PRESSURE),
        "rhs_and_jacobian@gen250": lambda: rhs_and_jacobian(y_large, large_mech,
                                                            PRESSURE),
        "rhs_vector@gen500": lambda: rhs_vector(y_largest, largest_mech,
                                                PRESSURE),
        "rhs_and_jacobian@gen500": lambda: rhs_and_jacobian(
            y_largest, largest_mech, PRESSURE),
        "temperature_terms@toy3": lambda: kinetics._temperature_terms(
            TOY_T, toy_mech.tables),
        "temperature_terms@gen53": lambda: kinetics._temperature_terms(
            GEN_T, gen_mech.tables),
        "temperature_terms@gen500": lambda: kinetics._temperature_terms(
            GEN_T, largest_mech.tables),
        "phi_blocks@toy3": lambda: phikrylov.phi_blocks(A_toy, (0.75, 1.0)),
        "phi_blocks@toy3_norm1": lambda: phikrylov.phi_blocks(A_toy_norm1,
                                                              (0.75, 1.0)),
        "expm@toy3_stack": lambda: phikrylov.expm(stack_toy,
                                                  degree=degree_toy),
        "expm@hessenberg_stack": lambda: phikrylov.expm(stack_hess),
        "kiops_eval@gen53": lambda: phikrylov.kiops_eval(
            A_gen, b_gen, 1, (0.75, 1.0), tol=1e-10),
        "kiops_eval_phi3@gen53": lambda: phikrylov.kiops_eval(
            A_gen, b_gen, 3, (1.0,), tol=1e-10),
        "arnoldi_extend10@gen53": arnoldi,
        "kiops_eval@gen250": lambda: phikrylov.kiops_eval(
            A_large, b_large, 1, (0.75, 1.0), tol=1e-10),
        "epi3v_step@toy3": step_toy,
        "epi3v_step@gen53": attempt(gen_mech, y_gen, GEN_ATTEMPT_STEP, GEN_ATOL,
                                    GEN_RTOL),
        "epi3v_step@gen250": attempt(large_mech, y_large, GEN_ATTEMPT_STEP,
                                     GEN_ATOL, GEN_RTOL),
        "parse_mechanism@gen53": lambda: mechio.parse_mechanism(gen_text),
        "tables@gen53": lambda: kinetics._Tables(gen_mech),
        "write_csv_solution@gen53": lambda: mechio.write_csv(
            solution_csv, solution_header, solution),
    }
    operands = {"phi_blocks@toy3": A_toy, "phi_blocks@toy3_norm1": A_toy_norm1,
                "expm@toy3_stack": stack_toy, "expm@hessenberg_stack": stack_hess}
    results = {}
    for name, fn in kernels.items():
        results[name] = per_call_us(fn, repeat, number)
        if name in operands:
            X = operands[name]
            results[name]["shape"] = list(X.shape)
            results[name]["norm1_max"] = norm1(X)
    results["expm@toy3_stack"]["degree"] = degree_toy
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=15,
                    help="batches per kernel (default 15)")
    ap.add_argument("--number", type=int, default=0,
                    help="calls per batch; 0 sizes batches to about 20 ms")
    ap.add_argument("--out", default=str(ROOT / "BENCH_layers.json"),
                    help="report path (default BENCH_layers.json at the repo root)")
    args = ap.parse_args(argv)
    if args.repeat < 1 or args.number < 0:
        ap.error("--repeat must be >= 1 and --number >= 0")
    started = time.time()
    with tempfile.TemporaryDirectory() as tmpdir:
        kernels = measure(args.repeat, args.number, tmpdir)
    report = {
        "topic": "layers",
        "host": platform.node(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": 1,
        "gauge_reference_s": GAUGE.REFERENCE_S,
        "repeat": args.repeat,
        "started_unix": started,
        "kernels": kernels,
    }
    text = json.dumps(report, indent=2)
    pathlib.Path(args.out).write_text(text + "\n")
    for name, r in kernels.items():
        print(f"{name:28s} {r['us_p50']:10.1f} us "
              f"{r['us_p50_scaled']:10.1f} us scaled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
