"""One benchmark job, run in a fresh child process by run.py.

    python3 perfbench/job.py setup TYPE...
    python3 perfbench/job.py cli REPORT -- FUSIONKIT_ARGS...        (traced CLI run)
    python3 perfbench/job.py queries REPORT QUERIES_JSON [--trace]
    python3 perfbench/job.py oracles REPORT [--trace]

``setup`` imports fusionkit and builds the named root systems. The other
modes write a JSON report to REPORT; with tracing on (always for ``cli``) it
holds the per-layer summary of tracer.py. Untraced CLI jobs do not come here:
run.py starts ``python -m fusionkit.cli`` itself.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

MULTIPLICITY_DIM_CAP = 200
FZ_TYPE, FZ_LEVEL, FZ_CAP = "A2", 3, 2000


def _start_trace(enabled: bool):
    if not enabled:
        return None
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    return tracer


def run_queries(queries_path: str, trace: bool) -> dict:
    import fusionkit

    queries = [
        (name, level, tuple(lam), tuple(mu), tuple(nu))
        for name, level, lam, mu, nu in json.loads(Path(queries_path).read_text(encoding="utf-8"))
    ]
    systems = {name: fusionkit.build_root_system(name) for name, *_ in queries}
    tracer = _start_trace(trace)
    answers, latencies = [], []
    clock = time.perf_counter
    loop_start = clock()
    for i, (name, level, lam, mu, nu) in enumerate(queries):
        if tracer:
            tracer.job_id = i
        t0 = clock()
        answers.append(fusionkit.fusion_coefficient(systems[name], level, lam, mu, nu))
        latencies.append(clock() - t0)
    loop_s = clock() - loop_start
    if tracer:
        tracer.enabled = False
    # the Kac-Walton oracle checks every answer, outside the timed loop
    wrong = [
        list(q) for q, got in zip(queries, answers)
        if fusionkit.kac_walton_coefficient(systems[q[0]], *q[1:]) != got
    ]
    return {"loop_s": loop_s, "latencies": latencies, "wrong": wrong, "tracer": tracer}


def fz_values() -> list[int]:
    from fusionkit import build_root_system, fusion_coefficient_via_fz, level_alcove

    rs = build_root_system(FZ_TYPE)
    alcove = level_alcove(rs, FZ_LEVEL)
    return [
        fusion_coefficient_via_fz(rs, FZ_LEVEL, lam, mu, nu, max_fz_dim=FZ_CAP)
        for lam, mu, nu in itertools.product(alcove, repeat=3)
    ]


def run_oracles(trace: bool) -> dict:
    from fusionkit.verify import verify_multiplicity_oracle, verify_three_way

    tracer = _start_trace(trace)
    calls = (
        ("multiplicity", lambda: verify_multiplicity_oracle(dim_cap=MULTIPLICITY_DIM_CAP)),
        ("three_way", verify_three_way),
        ("fz_alcove", fz_values),
    )
    results = {}
    loop_start = time.perf_counter()
    for i, (name, call) in enumerate(calls):
        if tracer:
            tracer.job_id = i
        results[name] = call()
    loop_s = time.perf_counter() - loop_start
    checks = {
        name: {"passed": results[name].passed, "checks": results[name].checks}
        for name in ("multiplicity", "three_way")
    }
    values = json.dumps(results["fz_alcove"]).encode()
    checks["fz_alcove"] = {"sha256": hashlib.sha256(values).hexdigest()}
    return {"loop_s": loop_s, "checks": checks, "tracer": tracer}


def run_cli(argv: list[str]) -> tuple[int, dict]:
    t0 = time.perf_counter()
    import fusionkit.cli

    import_s = time.perf_counter() - t0
    tracer = _start_trace(True)
    code = fusionkit.cli.main(argv)
    sys.stdout.flush()
    return code, {"import_s": import_s, "tracer": tracer}


def _write(report_path: str, report: dict) -> None:
    tracer = report.pop("tracer")
    if tracer is not None:
        report["trace"] = tracer.summary()
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        from fusionkit import build_root_system

        for name in rest:
            build_root_system(name)
        return 0
    if mode == "cli":
        report_path, sep, *cli_args = rest
        if sep != "--":
            print("cli jobs take REPORT -- FUSIONKIT_ARGS", file=sys.stderr)
            return 2
        code, report = run_cli(cli_args)
        _write(report_path, report)
        return code
    trace = "--trace" in rest
    rest = [a for a in rest if a != "--trace"]
    if mode == "queries":
        report_path, queries_path = rest
        _write(report_path, run_queries(queries_path, trace))
        return 0
    if mode == "oracles":
        (report_path,) = rest
        _write(report_path, run_oracles(trace))
        return 0
    print(f"unknown job mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
