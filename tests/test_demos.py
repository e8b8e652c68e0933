import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_demo(name, tmp_path):
    """Run a copy of ``demos/<name>`` in tmp_path against the source tree."""
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_single_network_demo_runs(tmp_path):
    # run a copy, so the scene lands in tmp_path; the committed scene is the
    # expected output
    done = run_demo("01_single_network.py", tmp_path)
    assert done.returncode == 0, done.stderr
    assert "case fired: SingleIntersection" in done.stdout
    assert "mean error over all 100 unknowns: 10.289 m" in done.stdout
    scene = (tmp_path / "demo_scene.svg").read_bytes()
    assert scene == (ROOT / "demos" / "demo_scene.svg").read_bytes()


def test_density_sweep_demo_runs(tmp_path):
    done = run_demo("02_density_sweep.py", tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    header = f"{'density':>8}" + "".join(f"{alg:>16}" for alg in ("RAIL", "MinMax", "RssiDvHop"))
    assert header in lines
    rows = lines[lines.index(header) + 1:][:3]
    assert [row.split()[0] for row in rows] == ["100", "200", "500"]
