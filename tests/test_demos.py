import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_single_network_demo_runs(tmp_path):
    # run a copy, so the scene lands in tmp_path; the committed scene is the
    # expected output
    script = tmp_path / "01_single_network.py"
    shutil.copy(ROOT / "demos" / "01_single_network.py", script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "case fired: SingleIntersection" in done.stdout
    assert "mean error over all 100 unknowns: 10.289 m" in done.stdout
    scene = (tmp_path / "demo_scene.svg").read_bytes()
    assert scene == (ROOT / "demos" / "demo_scene.svg").read_bytes()
