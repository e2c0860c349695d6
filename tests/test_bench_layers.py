"""Smoke test of the layer timing tool, bench/layers.py: it runs with tiny
repeat counts and writes a report with every key, the gauge-scaled times
included; the timings themselves are not checked."""
import json
import pathlib
import statistics
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
KERNELS = {
    "rhs_vector@toy3", "rhs_and_jacobian@toy3", "rhs_vector@gen53",
    "rhs_and_jacobian@gen53", "thermo@toy3", "thermo@gen53",
    "phi_blocks@toy3", "phi_blocks@toy3_norm1", "expm@toy3_stack",
    "expm@hessenberg_stack", "kiops_eval@gen53", "kiops_eval_phi3@gen53",
    "arnoldi_extend10@gen53", "kiops_eval@gen250",
    "epi3v_step@toy3", "epi3v_step@gen53", "epi3v_step@gen250",
    "parse_mechanism@gen53", "tables@gen53", "write_csv_solution@gen53",
}


def test_layers_report_keys(tmp_path):
    out = tmp_path / "BENCH_layers.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layers.py"), "--repeat", "2",
         "--number", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(out.read_text())
    assert {"topic", "host", "cpu_count", "numpy", "blas", "blas_threads",
            "gauge_reference_s", "kernels"} <= set(report)
    assert report["topic"] == "layers" and report["blas_threads"] == 1
    assert set(report["kernels"]) == KERNELS
    for name, timing in report["kernels"].items():
        assert {"us_p50", "us_min", "us_max", "calls_per_batch", "batch_us",
                "batch_factor", "gauge_s", "us_p50_scaled", "us_min_scaled",
                "us_max_scaled"} <= set(timing)
        # Each batch's time is scaled by its own factor, and the scaled
        # statistics are those of the scaled batch times.
        times, factors = timing["batch_us"], timing["batch_factor"]
        assert len(times) == len(factors) == 2
        assert all(f > 0 for f in factors)
        scaled = [t * f for t, f in zip(times, factors)]
        for stat, key in ((statistics.median, "us_p50"), (min, "us_min"),
                          (max, "us_max")):
            assert timing[key] == stat(times)
            assert timing[key + "_scaled"] == stat(scaled)
        assert name in done.stdout
    kernels = report["kernels"]
    # phi_blocks at toy3's balanced h J (near the toy3-run median norm) and
    # at that matrix scaled to norm 1; expm takes the stack at the degree
    # phi_blocks names for it.
    assert kernels["phi_blocks@toy3"]["shape"] == [4, 4]
    assert 0.01 < kernels["phi_blocks@toy3"]["norm1_max"] < 0.05
    assert kernels["phi_blocks@toy3_norm1"]["norm1_max"] == pytest.approx(1.0)
    assert kernels["expm@toy3_stack"]["degree"] == 9
    assert kernels["expm@toy3_stack"]["shape"] == [2, 16, 16]
    assert kernels["expm@hessenberg_stack"]["shape"] == [2, 11, 11]
    # The Krylov kernels take the weighted operator, as the integrator does:
    # the Hessenberg stack's 1-norm is about 410 (11,516 unweighted).
    assert kernels["expm@hessenberg_stack"]["norm1_max"] < 1e3
