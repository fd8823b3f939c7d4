"""fusionkit benchmark: four workloads, end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it measures the code under ``src/``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric with its
spread and, per pass, two drift diagnostics (``host.ref_s``, ``process.cpu_s``)
that are never used for gating.

A closed loop with one client: one job at a time, at most one child process
alive. A job is one fresh ``python -m fusionkit.cli`` process (table
workloads), one library query (``point_queries``) or one oracle call
(``oracle_sweep``). Every cold CLI job gets a fresh, empty ``--cache-dir``
and a fresh working directory; ``FUSIONKIT_CACHE`` is removed from the child
environment and the checkout's ``src`` leads ``PYTHONPATH``.

With ``--trace 0`` the run repeats passes until ``--seconds`` have elapsed
and reports the gated end-to-end metrics (medians over passes), plus the
workload's ungated figures on their own lines. With ``--trace 1``
it runs pass 0 once untraced and once traced (through job.py and tracer.py)
and reports the per-layer metrics; their counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracer import MAX_COUNTS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
JOB = BENCH / "job.py"
SCRATCH = ROOT / ".perfbench-tmp"

WALTON_TABLES = (("A2", 6), ("G2", 4), ("B2", 4), ("A3", 3), ("D5", 1))
KACWALTON_TABLES = (("B2", 4), ("A3", 3), ("D5", 1))
# (type, level) alcoves the point queries draw lam, mu and nu from, and draws per type
QUERY_ALCOVES = (("A2", 9), ("B2", 5), ("G2", 4), ("C3", 2))
QUERIES_PER_TYPE = 60
# Warm sweeps over the walton_tables list per pass, each reading the disk cache
WARM_REPEATS = 2
# Set-up is sampled this many times before the passes and again after them, so
# one burst of host load cannot move the median.
SETUP_SAMPLES = 4
RUN_DEADLINE_S = 170.0

WORKLOAD_TYPES = {
    "walton_tables": [t for t, _ in WALTON_TABLES],
    "point_queries": [t for t, _ in QUERY_ALCOVES],
    "kacwalton_tables": [t for t, _ in KACWALTON_TABLES],
    "oracle_sweep": ["A1", "A2", "B2", "G2"],
}

# Gated end-to-end metrics, name -> unit. Each workload also prints its own
# figures (warm_s, query_p50_ms, query_p90_ms, fail_frac) on ungated lines:
# on this workload set their run-to-run spread is too wide for any bound.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# span name -> stats reported for it; stats other than calls and self_s come from tracer counts
LAYER_STATS = {
    "multiplicity.weyl_dimension": ("calls", "self_s"),
    "multiplicity.weight_diagram": ("calls", "self_s", "hit_ratio"),
    "multiplicity.freudenthal_diagram": ("calls", "self_s"),
    "rootdata.weyl_elements": ("calls", "self_s", "elements"),
    "rootdata.build_root_system": ("self_s",),
    "repspace.build_module": ("calls", "self_s", "dim_sum", "max_dim", "max_mult"),
    "repspace.build_theta_operators": ("calls", "self_s"),
    "repspace.cached_module": ("calls", "hit_ratio"),
    "repspace.operator_power_block": ("calls", "self_s", "power_sum"),
    "linalg.matmul": ("calls", "self_s", "scalar_mults"),
    "linalg.rank": ("calls", "self_s", "max_rows", "max_cols"),
    "linalg.kernel": ("calls", "self_s"),
    "linalg.inverse": ("calls", "self_s"),
    "tensor.tensor_decompose": ("calls", "self_s"),
    "tensor.tensor_multiplicity": ("calls", "self_s", "weyl_terms"),
    "fusion.fusion_coefficient": ("calls", "self_s", "zero_ratio"),
    "fusion.walton_dimension": ("calls", "self_s"),
    "fusion.kac_walton_coefficient": ("calls", "self_s"),
    "fusion.affine_fold": ("calls", "self_s"),
    "fusion.fz_dimension": ("calls", "self_s"),
    "cache.load_table": ("calls", "self_s", "hit_ratio", "bytes"),
    "cache.store_table": ("calls", "self_s", "bytes"),
    "cli.main": ("self_s",),
}
STAT_UNITS = {"self_s": "s", "hit_ratio": "ratio", "zero_ratio": "ratio", "bytes": "B"}
TRACE_EXTRAS = ("cli.import_s", "trace.overhead_s", "trace.unattributed_s")


def per_layer_units() -> dict[str, str]:
    units = {
        f"{span}.{stat}": STAT_UNITS.get(stat, "count")
        for span, stats in LAYER_STATS.items()
        for stat in stats
    }
    units.update({name: "s" for name in TRACE_EXTRAS})
    return units


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def host_ref_s() -> float:
    """A fixed pure-Python Fraction loop; its time shows host speed drift between passes."""
    t0 = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 20001):
        x = Fraction(i % 97 + 1, 7) * x + Fraction(2, 3)
        x = Fraction(x.numerator % 1009 + 1, x.denominator % 1013 + 1)
    return time.perf_counter() - t0


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class PassResult:
    wall_s: float  # the cold part of the pass
    warm_s: list[float] = field(default_factory=list)  # one per warm sweep (walton_tables)
    latencies_ms: list[float] = field(default_factory=list)  # one per query (point_queries)


@dataclass
class Run:
    """State of one benchmark run: scratch space, child environment, outcome counts."""

    workload: str
    seed: int
    tmp: Path
    golden: dict
    started: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    traced_jobs: list[tuple[float, dict]] = field(default_factory=list)  # (job wall, report)
    _serial: int = 0

    def __post_init__(self):
        env = dict(os.environ)
        env.pop("FUSIONKIT_CACHE", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["PYTHONHASHSEED"] = "0"
        env["TMPDIR"] = str(self.tmp)
        self.env = env

    def fresh(self, kind: str) -> Path:
        self._serial += 1
        return self.tmp / f"{kind}-{self._serial}"

    def fresh_dir(self, kind: str) -> Path:
        path = self.fresh(kind)
        path.mkdir()
        return path

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)

    def spawn(self, argv: list[str], cwd: Path | None = None) -> tuple[int, float, bytes]:
        """Run one child to completion; returns (exit code, wall s, stdout).

        A child still running at the run's deadline is killed (exit code -9).
        """
        out_path, err_path = self.fresh("stdout"), self.fresh("stderr")
        cwd = cwd or self.fresh_dir("cwd")
        timeout = max(1.0, RUN_DEADLINE_S - (time.perf_counter() - self.started))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            # A blocking wait returns as soon as the child exits; Popen.wait(timeout)
            # polls with sleeps of up to 50 ms, which would quantise every job time.
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        if code != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            self.errors.append(f"{' '.join(argv[1:])}: exit {code} {' '.join(tail)}")
        return code, wall, out_path.read_bytes()


def read_report(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


# -- workloads -------------------------------------------------------------------

def table_job(run: Run, name: str, level: int, cache_dir: Path, backend: str, trace: bool) -> float:
    args = ["fusion", name, "--level", str(level), "--cache-dir", str(cache_dir)]
    if backend != "walton":
        args += ["--backend", backend]
    report = run.fresh("report")
    if trace:
        argv = [sys.executable, str(JOB), "cli", str(report), "--", *args]
    else:
        argv = [sys.executable, "-m", "fusionkit.cli", *args]
    code, wall, out = run.spawn(argv)
    run.attempted += 1
    if code != 0:
        run.fail(f"{name} k={level} {backend}: exit {code}")
    elif sha256(out) != run.golden["tables"][f"{name} {level}"]:
        run.fail(f"{name} k={level} {backend}: stdout differs from the golden table")
    if trace:
        got = read_report(report)
        if got is not None:
            run.traced_jobs.append((wall, got))
    return wall


def walton_tables_pass(run: Run, pass_index: int, trace: bool) -> PassResult:
    caches = {name: run.fresh_dir("cache") for name, _ in WALTON_TABLES}
    cold = [table_job(run, n, k, caches[n], "walton", trace) for n, k in WALTON_TABLES]
    warm = [
        sum(table_job(run, n, k, caches[n], "walton", trace) for n, k in WALTON_TABLES)
        for _ in range(WARM_REPEATS)
    ]
    return PassResult(sum(cold), warm)


def kacwalton_tables_pass(run: Run, pass_index: int, trace: bool) -> PassResult:
    cold = [
        table_job(run, n, k, run.fresh_dir("cache"), "kacwalton", trace)
        for n, k in KACWALTON_TABLES
    ]
    return PassResult(sum(cold))


def library_job(run: Run, mode: str, args: list[str], trace: bool) -> dict | None:
    """Run one library process; its report, or None (counted as one failed job) if it failed."""
    report_path = run.fresh("report")
    argv = [sys.executable, str(JOB), mode, str(report_path), *args]
    if trace:
        argv.append("--trace")
    code, wall, _ = run.spawn(argv)
    report = read_report(report_path) if code == 0 else None
    if report is None:
        run.attempted += 1
        run.fail(f"{mode} job failed (exit {code})")
        return None
    if trace:
        run.traced_jobs.append((wall, report))
    return report


def draw_queries(seed: int, pass_index: int) -> list:
    """The pass's (type, level, lam, mu, nu) queries; the same seed and pass give the same list.

    lam cycles through the alcove in a seeded order and mu is uniform. nu is
    uniform, except in each lam's first query, where it is drawn from the nu
    with nu - mu a weight of V^lam: that query passes the zero-cell shortcut
    and builds the module, so every pass builds each module of the four
    alcoves exactly once. With nu always uniform, which modules got built
    changed from seed to seed and moved query_p90_ms by over 20%.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from fusionkit import build_root_system, level_alcove, weight_diagram

    rng = random.Random(f"point_queries:{seed}:{pass_index}")
    queries = []
    for name, level in QUERY_ALCOVES:
        rs = build_root_system(name)
        alcove = level_alcove(rs, level)
        lams: list = []
        while len(lams) < QUERIES_PER_TYPE:
            lams += rng.sample(alcove, len(alcove))
        built = set()
        for lam in lams[:QUERIES_PER_TYPE]:
            mu = rng.choice(alcove)
            nus = alcove
            if lam not in built:
                built.add(lam)
                weights = weight_diagram(rs, lam).table
                nus = [nu for nu in alcove if tuple(a - b for a, b in zip(nu, mu)) in weights]
            queries.append((name, level, lam, mu, rng.choice(nus)))
    return queries


def point_queries_pass(run: Run, pass_index: int, trace: bool) -> PassResult:
    queries = draw_queries(run.seed, pass_index)
    queries_path = run.fresh("queries")
    queries_path.write_text(json.dumps(queries), encoding="utf-8")
    report = library_job(run, "queries", [str(queries_path)], trace)
    if report is None:
        return PassResult(float("nan"))
    run.attempted += len(queries)
    for query in report["wrong"]:
        run.fail(f"point query {query}: Walton answer differs from Kac-Walton")
    return PassResult(report["loop_s"], latencies_ms=[1e3 * s for s in report["latencies"]])


def oracle_sweep_pass(run: Run, pass_index: int, trace: bool) -> PassResult:
    report = library_job(run, "oracles", [], trace)
    if report is None:
        return PassResult(float("nan"))
    run.attempted += len(run.golden["oracles"])
    for name, expected in run.golden["oracles"].items():
        if report["checks"][name] != expected:
            run.fail(f"oracle {name}: got {report['checks'][name]}, expected {expected}")
    return PassResult(report["loop_s"])


PASSES = {
    "walton_tables": walton_tables_pass,
    "point_queries": point_queries_pass,
    "kacwalton_tables": kacwalton_tables_pass,
    "oracle_sweep": oracle_sweep_pass,
}


# -- measurement -----------------------------------------------------------------

def setup_samples(run: Run, warm_up: bool) -> list[float]:
    """Spawn-to-exit times of fresh processes that import fusionkit and build the root systems."""
    argv = [sys.executable, str(JOB), "setup", *WORKLOAD_TYPES[run.workload]]
    if warm_up:
        run.spawn(argv)  # untimed: compiles bytecode and warms the file cache
    walls = []
    for _ in range(SETUP_SAMPLES):
        code, wall, _ = run.spawn(argv)
        run.attempted += 1
        if code != 0:
            run.fail("setup job failed")
        walls.append(wall)
    return walls


def summary_line(name: str, value: float, unit: str, samples: list[float], what: str) -> str:
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = q3 = samples[0]
    return (
        f"{name} {value:.6g} {unit} (over {len(samples)} {what};"
        f" sample quartiles {q1:.6g} .. {q3:.6g})"
    )


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    setup = setup_samples(run, warm_up=True)
    passes: list[PassResult] = []
    lines = []
    window = time.perf_counter()
    while not passes or time.perf_counter() - window < seconds:
        ref = host_ref_s()
        cpu = child_cpu_s()
        result = PASSES[run.workload](run, len(passes), False)
        passes.append(result)
        lines.append(
            f"pass {len(passes)}: wall_s {result.wall_s:.4f}  host.ref_s {ref:.4f}"
            f"  process.cpu_s {child_cpu_s() - cpu:.4f}"
        )
        if run.failed or time.perf_counter() - run.started > RUN_DEADLINE_S:
            break
    setup += setup_samples(run, warm_up=False)
    walls = [p.wall_s for p in passes if p.wall_s == p.wall_s] or [0.0]  # drop failed passes
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    gated = {
        "wall_s": (statistics.median(walls), walls, "passes"),
        "setup_s": (statistics.median(setup), setup, "set-ups"),
        "peak_rss_mb": (peak_mb, [peak_mb], "runs"),
    }
    metrics = {}
    for name, (value, samples, what) in gated.items():
        metrics[name] = {"value": value, "unit": END_TO_END[name]}
        lines.append(summary_line(name, value, END_TO_END[name], samples, what))
    warm = [s for p in passes for s in p.warm_s]
    if warm:
        lines.append(summary_line("warm_s", statistics.median(warm), "s", warm, "warm sweeps") + " ungated")
    latencies = [x for p in passes for x in p.latencies_ms]
    if len(latencies) > 1:
        p50 = statistics.median(latencies)
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        lines.append(summary_line("query_p50_ms", p50, "ms", latencies, "queries") + " ungated")
        lines.append(summary_line("query_p90_ms", p90, "ms", latencies, "queries") + " ungated")
    lines.append(f"fail_frac {run.failed / max(run.attempted, 1):.6g} ratio"
                 f" ({run.failed} of {run.attempted} jobs or queries) ungated")
    return metrics, lines


def layer_metrics(traced_jobs: list[tuple[float, dict]]) -> dict[str, float]:
    """Fold the traced jobs' summaries into the per-layer metrics (all but trace.overhead_s)."""
    layers: dict[str, dict] = {}
    counts: dict[str, float] = {}
    import_s = unattributed_s = 0.0
    for wall, report in traced_jobs:
        summary = report["trace"]
        import_s += report.get("import_s", 0.0)
        unattributed_s += wall - summary["top_s"]
        for span, got in summary["layers"].items():
            acc = layers.setdefault(span, {"calls": 0, "self_s": 0.0})
            acc["calls"] += got["calls"]
            acc["self_s"] += got["self_s"]
        for key, value in summary["counts"].items():
            old = counts.get(key, 0)
            counts[key] = max(old, value) if key in MAX_COUNTS else old + value
    out: dict[str, float] = {}
    for span, stats in LAYER_STATS.items():
        calls = layers.get(span, {}).get("calls", 0)
        for stat in stats:
            if stat in ("calls", "self_s"):
                value = layers.get(span, {}).get(stat, 0)
            elif stat == "hit_ratio":
                value = counts.get(f"{span}.hits", 0) / calls if calls else 0.0
            elif stat == "zero_ratio":
                value = counts.get(f"{span}.zeros", 0) / calls if calls else 0.0
            else:
                value = counts.get(f"{span}.{stat}", 0)
            out[f"{span}.{stat}"] = value
    out["cli.import_s"] = import_s
    out["trace.unattributed_s"] = unattributed_s
    out["linalg.outside_build_root_system"] = counts.get("linalg.outside_build_root_system", 0)
    return out


def measure_per_layer(run: Run) -> tuple[dict, list[str]]:
    untraced = PASSES[run.workload](run, 0, False)
    traced = PASSES[run.workload](run, 0, True)
    values = layer_metrics(run.traced_jobs)
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    units = per_layer_units()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(
        "linalg spans outside rootdata.build_root_system: "
        f"{values['linalg.outside_build_root_system']}"
    )
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fusionkit" / "__init__.py").is_file():
        print(f"error: no fusionkit sources under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        run = Run(args.workload, args.seed, tmp, golden)
        if args.trace:
            metrics, lines = measure_per_layer(run)
        else:
            metrics, lines = measure_end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    for error in run.errors[:20]:
        print(f"error: {error}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
