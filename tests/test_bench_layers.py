"""The per-layer timing script, .github/bench_layers.py, on a tiny
configuration: it writes every layer's figure, and the writer's, with the
machine they were read on and its speed."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LAYERS = {
    "closed_form", "gegenbauer_column", "triple_sum", "ladder", "exp_ladder",
    "unit_rows", "expectation_Jplus", "expectation_Jminus", "expectation_J3",
    "expectation_Xplus", "expectation_Xminus", "expectation_X3",
    "residual_norm_Z1", "eigen_residual", "relative_X", "apply_J3",
    "apply_X3", "apply_Z3", "peak_sum", "band_table_matmul"}


def test_bench_layers_writes_every_layer(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / ".github" / "bench_layers.py"),
         "--out", str(out), "--repeat", "1", "--norms", "0,5",
         "--writer-l", "5"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert set(result) == {"machine", "machine_speed", "repeat", "layers",
                           "writer"}
    assert set(result["machine"]) == {"cpu", "cpus", "system", "python",
                                      "numpy"}
    speed = result["machine_speed"]
    assert set(speed) == {"kernel_before_s", "kernel_after_s",
                          "speed_factor"}
    assert all(0 < v < 100 and math.isfinite(v) for v in speed.values())
    assert result["repeat"] == 1
    assert list(result["layers"]) == ["0.0", "5.0"]
    for norm, layer in result["layers"].items():
        assert layer.pop("j_cut") == 40
        assert layer.pop("amplitudes") == 41**2
        assert set(layer) == {f"{name}_s" for name in LAYERS}, norm
    writer = result["writer"]
    assert writer.pop("pass_floats") > 10_000
    assert writer.pop("chunks_l") == 5.0
    assert writer.pop("chunks_rows") > 0
    assert writer.pop("circle_pass_requests") > 0
    assert set(writer) == {"reprs_s", "repr_s", "chunks_s",
                           "circle_report_s", "json_writer_circle_s",
                           "json_encoder_circle_s", "json_writer_sphere_s",
                           "json_encoder_sphere_s", "circle_pass_s"}
    timings = [*writer.values(), *(v for layer in result["layers"].values()
                                   for v in layer.values())]
    assert all(0 < t < 10 and math.isfinite(t) for t in timings)
