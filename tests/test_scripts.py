import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_survey_benchmark_runs_both_routes(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "survey_benchmark.py"),
         "--n", "1500", "--seeds", "1", "--outdir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for method in ("c2", "c1"):
        assert f"{method}: mean gap over chance" in proc.stdout
        assert (tmp_path / f"seed1_{method}" / "report.json").exists()
