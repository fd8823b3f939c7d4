"""Regenerate golden.json, the expected outputs the benchmark checks against.

    python3 perfbench/make_golden.py

Every table is printed by both the Walton and the Kac-Walton backend, and
its SHA-256 is recorded only when the two stdouts are byte-identical. The
oracle sweep's check counts are recorded only when both suites pass, and the
FZ values over the A2 k=3 alcove only when they equal the Walton values.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import job  # noqa: E402
from fusionkit import build_root_system, fusion_coefficient, level_alcove  # noqa: E402


def table_hashes(tmp: Path) -> dict[str, str]:
    env = run.Run("golden", 0, tmp, {}).env
    hashes = {}
    for name, level in sorted(set(run.WALTON_TABLES) | set(run.KACWALTON_TABLES)):
        outputs = []
        for backend in ("walton", "kacwalton"):
            args = ["fusion", name, "--level", str(level), "--backend", backend,
                    "--cache-dir", str(tmp / f"cache-{name}")]
            outputs.append(subprocess.run(
                [sys.executable, "-m", "fusionkit.cli", *args],
                cwd=tmp, env=env, stdout=subprocess.PIPE, check=True,
            ).stdout)
        if outputs[0] != outputs[1]:
            raise SystemExit(f"{name} k={level}: Walton and Kac-Walton stdout differ")
        hashes[f"{name} {level}"] = run.sha256(outputs[0])
    return hashes


def oracle_checks() -> dict:
    report = job.run_oracles(trace=False)
    checks = report["checks"]
    if not all(checks[n]["passed"] for n in ("multiplicity", "three_way")):
        raise SystemExit(f"an oracle suite failed: {checks}")
    rs = build_root_system(job.FZ_TYPE)
    alcove = level_alcove(rs, job.FZ_LEVEL)
    walton = [
        fusion_coefficient(rs, job.FZ_LEVEL, lam, mu, nu)
        for lam, mu, nu in itertools.product(alcove, repeat=3)
    ]
    if hashlib.sha256(json.dumps(walton).encode()).hexdigest() != checks["fz_alcove"]["sha256"]:
        raise SystemExit("FZ values differ from the Walton values")
    return checks


def main() -> int:
    run.SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="golden-", dir=run.SCRATCH))
    try:
        golden = {"tables": table_hashes(tmp), "oracles": oracle_checks()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            run.SCRATCH.rmdir()
        except OSError:
            pass
    path = run.BENCH / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
