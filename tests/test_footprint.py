"""What a run loads: no program path imports ``numpy.ma``.

``numpy.ma`` is about 1.7 MB of resident memory. numpy imports it lazily, the
first time a function such as ``np.unique`` needs it, so a stray call on a
program path would show up only as a larger peak RSS. Runs in a fresh
interpreter, so that no other test's imports count.
"""
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import contextlib, io, sys
from scenesel.cli import main

out = sys.argv[1]
argv = [
    ["--seed", "2", "synth", "--out", f"{out}/pool", "--n-scenes", "80", "--objects", "2,12"],
    ["select", "--pool", f"{out}/pool", "--state", f"{out}/state/state.json",
     "--out", f"{out}/sel", "--init", "--n0", "6"],
    ["select", "--pool", f"{out}/pool", "--state", f"{out}/state/state.json",
     "--out", f"{out}/sel", "--n-r", "4"],
    # a round that drops the values of 20 scenes from a stored file of
    # about 70, enough for numpy's set operations to sort
    ["select", "--pool", f"{out}/pool", "--state", f"{out}/state/state.json",
     "--out", f"{out}/sel", "--n-r", "20"],
    ["--seed", "3", "simulate", "--out", f"{out}/sim", "--n-scenes", "30", "--n0", "6",
     "--strategies", "random,entropy-only,fs-only,uncertainty-only,tscenejal",
     "--n-r", "3", "--rounds", "2"],
]
for args in argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    if code != 0:
        sys.exit(f"{args[:3]} exited {code}")
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_select_and_simulate_do_not_import_numpy_ma(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
