"""The benchmark scripts in scripts/ run to completion on small inputs,
so that they cannot rot."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_benchmark_scripts_run():
    for args in (["bench_cast.py", "--repeat", "1"],
                 ["bench_cloud.py", "--repeat", "1"],
                 ["bench_map.py", "--points", "5000", "--cells", "10000", "--repeat", "1"],
                 ["bench_tick.py", "--repeat", "1"],
                 ["run_ablation.py", "--seeds", "1", "--duration", "2"]):
        proc = subprocess.run([sys.executable, str(SCRIPTS / args[0]), *args[1:]],
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, (args, proc.stderr)
        assert ("depth pixels cast" if args[0] == "run_ablation.py" else "ms") in proc.stdout, args
        if args[0] in ("bench_cloud.py", "bench_map.py"):
            assert "peak RSS" in proc.stdout, args
        if args[0] == "bench_cloud.py":
            assert "CLOUD frame 0:" in proc.stdout and "distinct class rows" in proc.stdout
