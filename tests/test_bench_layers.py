"""The per-layer timing script, .github/bench_layers.py, on a tiny
configuration: it writes every layer's figure, and the writer's, with the
machine they were read on and its speed, each time also in reference
seconds at its group's own speed factor."""

import json
import math
import subprocess
import sys
from pathlib import Path

from cohstates.sphere import default_j_cut

ROOT = Path(__file__).resolve().parents[1]

LAYERS = {
    "closed_form", "gegenbauer_column", "triple_sum", "ladder", "exp_ladder",
    "unit_rows", "expectation_Jplus", "expectation_Jminus", "expectation_J3",
    "expectation_Xplus", "expectation_Xminus", "expectation_X3",
    "residual_norm_Z1", "eigen_residual", "relative_X", "apply_J3",
    "apply_X3", "apply_Z3", "peak_sum", "band_table_matmul"}
WRITER = {"reprs", "repr", "chunks", "circle_report", "json_writer_circle",
          "json_encoder_circle", "json_writer_sphere", "json_encoder_sphere",
          "circle_pass"}


def times(group: dict, names: set) -> list:
    """The group's times, after checking that each name has its seconds
    and its reference seconds at the group's speed factor, and nothing
    else is left."""
    factor = group.pop("speed_factor")
    assert 0 < factor < 100 and math.isfinite(factor)
    assert set(group) == ({f"{name}_s" for name in names}
                          | {f"{name}_ref_s" for name in names})
    for name in names:
        assert group[f"{name}_ref_s"] == group[f"{name}_s"] * factor
    return list(group.values())


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
    timings = []
    for norm, layer in result["layers"].items():
        cut = default_j_cut(float(norm))
        assert layer.pop("j_cut") == cut
        assert layer.pop("amplitudes") == (cut + 1)**2
        timings += times(layer, LAYERS)
    writer = result["writer"]
    assert writer.pop("pass_floats") > 10_000
    assert writer.pop("chunks_l") == 5.0
    assert writer.pop("chunks_rows") > 0
    assert writer.pop("circle_pass_requests") > 0
    timings += times(writer, WRITER)
    assert all(0 < t < 10 and math.isfinite(t) for t in timings)
