import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_snark_ratios_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "snark_ratios.py"),
         "--sizes", "3", "--repeats", "1"],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    rows = [line for line in out.stdout.splitlines()
            if line.startswith("| J3 ")]
    assert len(rows) == 4, out.stdout
