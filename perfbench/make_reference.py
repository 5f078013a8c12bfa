"""Write perfbench/reference.json: the default-seed results the checks compare to.

Run from the repository root after a change that is meant to alter seeded
results:

    python3 perfbench/make_reference.py

Each workload is computed in its own process with the thread settings of
run.py, since the BLAS thread count can change the last digits.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Long-run solid angles: this many samples, on a stream no op uses.
ANGLE_SAMPLES = 400_000
ANGLE_SEED = 1_000_000


def compute(name: str) -> object:
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    from archpursuit import cli
    from archpursuit.geometry import estimate_solid_angles

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        wl = harness.WORKLOADS[name](
            harness.PARAMS["full"][name], harness.DEFAULT_SEED, Path(tmp), None
        )
        wl.prepare()
        if name == "diagnose":
            omega, se = estimate_solid_angles(
                wl.X, range(wl.p["k"]), samples=ANGLE_SAMPLES, seed=ANGLE_SEED
            )
            return {"omega": omega.tolist(), "se": se.tolist()}
        values = []
        for op in range(harness.OP_SEEDS):
            if cli.main(wl.argv(op)) != 0:
                raise SystemExit(f"{name} op {op} failed")
            values.append(wl.result(op)[1])
        return values


def main() -> int:
    if len(sys.argv) == 2:
        print(json.dumps(compute(sys.argv[1])))
        return 0
    sys.path.insert(0, str(HERE))
    from run import THREADS

    ref = {}
    for name in ("sweep-cell", "glasso-noise-cell", "diagnose"):
        trial, blas = THREADS[name]
        env = dict(os.environ, ARCHPURSUIT_THREADS=str(trial), OPENBLAS_NUM_THREADS=str(blas))
        out = subprocess.run(
            [sys.executable, __file__, name], env=env, check=True, capture_output=True, text=True
        )
        ref[name] = json.loads(out.stdout.splitlines()[-1])
    with open(HERE / "reference.json", "w", encoding="ascii") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
