"""Pipeline benchmark for the monodromy package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload small-n --seed 1 --seconds 35 --trace 0

The benchmark imports the checkout's own ``src/`` (never an installed copy),
generates a seeded corpus with the package's samplers, and drives the
pipeline sample -> phi -> membership -> classify_charts -> reconstruct ->
classify, either as library calls (``small-n``, ``large-n``) or as a chain
of CLI subprocesses (``cli-chain``).  Every point is checked; see
``perfbench/README.md`` for the workloads, the checks and the metric map.

Load model: a closed loop with one caller in one process.  The next point
starts only when the previous one has finished, and CLI subprocesses run
one at a time.

Each run first makes one full pass over its corpus, so ``attempted`` and
``failed`` count the same distinct points on every run with the same seed,
then keeps cycling until ``--seconds`` have passed.  Between points the
benchmark times a fixed reference (``perfbench/reference.py``: in-process
for library points, in a fresh interpreter for CLI points); the end-to-end
times are reported in units of it, which cancels the shared host's
drifting speed.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` records a span around every layer call, writes the spans to
``.perfbench/trace-<workload>-<seed>.jsonl`` and reports per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from reference import reference_loop

# Expected `classify` verdict for each sampler family.
VERDICT = {"su2": "definite", "su11": "indefinite(1,1)", "generic": "not-unitary"}

NARROW = (("su2", 4.0), ("su11", 4.0), ("generic", 4.0))
# Entry bound 16 exposes the known reconstruction-gate failures at n >= 6.
WIDE = NARROW + (("generic", 16.0),)


@dataclass(frozen=True)
class Workload:
    ns: tuple[int, ...]  # tuple sizes in corpus order; consecutive pairs are balanced
    families: tuple[tuple[str, float], ...]  # (sampler kind, entry bound)
    mode: str  # "lib" or "cli"
    rounds: int  # corpus size in rounds; each round holds every (n, family) cell once
    tail_pct: float  # see perfbench/README.md for the choice
    probe_points: int  # corpus prefix the traced run sends through the other mode


WORKLOADS = {
    # Fixed per-call cost and Mat2 arithmetic dominate at n <= 4.  Above p90
    # the ~1 ms points measure host preemption, not the program.
    "small-n": Workload((3, 4), NARROW, "lib", 64, 90.0, 2),
    # The O(n^6) relation set dominates; the wide family fails gates.  One
    # pass (128 points) takes about 16 s, so every run completes it.
    "large-n": Workload((8, 9), WIDE, "lib", 16, 90.0, 2),
    # Process start, import and JSON I/O; relation work is paid three times.
    # Each consecutive pair of sizes joins a small and a large n.  One pass
    # (24 points) takes about 20 s with its reference samples.
    "cli-chain": Workload((4, 9, 5, 8, 6, 7), WIDE, "cli", 1, 75.0, 24),
}

# Points run untimed before the timed loop, one small and one large n.
WARMUP_POINTS = 2

SETUP_REPS = 15
SETUP_BUILDS = 3
CLI_STEPS = ("sample", "coords", "relations", "reconstruct", "classify")

# Share of --seconds each part of a traced run gets.  The main loop alternates
# untraced and traced slices, so host speed drift hits both sides alike.
TRACE_SPLIT = {"main": 0.7, "probe": 0.2, "micro": 0.1}
TRACE_SLICES = 10

# The reference loop is timed whenever this long has passed since its last
# sample; a sample takes about 1.5 ms on the baseline host.
REF_GAP_S = 0.03


@dataclass(frozen=True)
class Point:
    pid: int
    n: int
    kind: str
    entry_bound: float
    seed: int
    rep: object  # monodromy.Representation


@dataclass
class Tally:
    """Outcome of a set of points: timings, failures and per-layer counts."""

    times_ns: list = field(default_factory=list)
    ref_at: list = field(default_factory=list)  # HostSpeed sample before each point
    ns: list = field(default_factory=list)  # tuple size of each point
    wall_s: float = 0.0
    by_n: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)  # (mode, pid) -> failed on any visit
    wrong: int = 0  # the program reported success with a wrong answer
    reasons: dict = field(default_factory=dict)  # counted once per distinct point
    relations: int = 0
    charts_scored: int = 0
    charts_admissible: int = 0
    rebuilds: int = 0
    rebuilds_passed: int = 0
    verdicts: int = 0
    verdicts_matched: int = 0
    commands: int = 0
    commands_ok: int = 0
    coord_bytes: int = 0
    child_rss_kb: int = 0

    def record(self, key: tuple, reasons: list[str]) -> None:
        """Count one visit of a point with the checks it failed (none if it passed).

        Outcomes are kept per distinct point, so `attempted` and `failed` do
        not depend on how many times the timed loop came round to a point.
        """
        if key not in self.outcomes:
            for reason in reasons:
                self.reasons[reason] = self.reasons.get(reason, 0) + 1
        self.outcomes[key] = self.outcomes.get(key, False) or bool(reasons)

    @property
    def failed(self) -> int:
        return sum(self.outcomes.values())


class Tracer:
    """Records (point, span, parent, name, start_ns, end_ns) in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.point = -1
        self.root = -1

    def begin(self, point: int) -> None:
        self.point = point
        self.root = len(self.spans)
        self.spans.append([point, self.root, None, "point", time.perf_counter_ns(), 0])

    def end(self) -> None:
        self.spans[self.root][5] = time.perf_counter_ns()

    def call(self, name: str, fn, *args):
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append(
                [self.point, len(self.spans), self.root, name, start, time.perf_counter_ns()]
            )


class NullTracer:
    def begin(self, point: int) -> None:
        pass

    def end(self) -> None:
        pass

    def call(self, name: str, fn, *args):
        return fn(*args)


# ---------------------------------------------------------------------------
# Host speed: the reference timed between points

class HostSpeed:
    """Samples of the reference's time, taken between points.

    A point's time in reference units ("ref") is its wall time over the
    mean of the samples just before and just after it.  The shared host's
    speed drifts by up to 60% over minutes; the reference drifts with it,
    so the ratio stays put.  For library points the reference is one
    reference loop in-process.  For CLI points it is a fresh interpreter
    running perfbench/reference.py, because process start and import drift
    apart from in-process work.
    """

    def __init__(self, probe: list[str] | None = None, cwd: Path | None = None,
                 env: dict | None = None) -> None:
        self.probe, self.cwd, self.env = probe, cwd, env
        self.samples: list[int] = []
        self.last = 0

    def sample(self) -> None:
        t0 = time.perf_counter_ns()
        if self.probe is None:
            reference_loop()
        else:
            subprocess.run(self.probe, cwd=self.cwd, env=self.env, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.last = time.perf_counter_ns()
        self.samples.append(self.last - t0)

    def before_point(self) -> int:
        """Index of the latest sample, taking a fresh one if it is stale."""
        if not self.samples or time.perf_counter_ns() - self.last >= REF_GAP_S * 1e9:
            self.sample()
        return len(self.samples) - 1

    def in_ref(self, times_ns: list, ref_at: list) -> list[float]:
        """Point times in reference units; needs a sample after the last point."""
        return [t * 2 / (self.samples[k] + self.samples[k + 1])
                for t, k in zip(times_ns, ref_at)]


# ---------------------------------------------------------------------------
# Set-up: the checkout's package and the seeded corpus


def load_package(root: Path):
    src = root / "src"
    if not (src / "monodromy" / "__init__.py").is_file():
        raise SystemExit(f"error: {src}/monodromy not found; run from a source checkout")
    sys.path.insert(0, str(src))
    # Time the package as installed copies run it: from cached bytecode.
    sys.dont_write_bytecode = False
    import monodromy

    if Path(monodromy.__file__).resolve().parent != (src / "monodromy").resolve():
        raise SystemExit(f"error: imported {monodromy.__file__}, not the checkout's src/")
    warnings.simplefilter("ignore", monodromy.OffVarietyWarning)
    return monodromy


def build_corpus(m, name: str, seed: int) -> list[Point]:
    """Rounds of every (n, family) cell, sampler seeds drawn from the workload seed.

    Within a round, pass j gives every n once with the family offset by j,
    so each cell appears once and any prefix mixes n and family evenly.
    """
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    samplers = {"su2": m.sample_su2, "su11": m.sample_su11, "generic": m.sample_generic}
    corpus = []
    for _ in range(wl.rounds):
        for j in range(len(wl.families)):
            for i, n in enumerate(wl.ns):
                kind, bound = wl.families[(i + j) % len(wl.families)]
                s = rng.getrandbits(31)
                rep = samplers[kind](m.SamplerConfig(s, n, None, bound))
                corpus.append(Point(len(corpus), n, kind, bound, s, rep))
    return corpus


def setup_probe(root: Path, name: str, seed: int) -> float:
    """Import, plus the median of SETUP_BUILDS corpus generations, in seconds.

    The import can only be timed once per interpreter; repeating the
    generation takes the host's noise out of the larger part.
    """
    t0 = time.perf_counter()
    m = load_package(root)
    import_s = time.perf_counter() - t0
    builds = []
    for _ in range(SETUP_BUILDS):
        t0 = time.perf_counter()
        build_corpus(m, name, seed)
        builds.append(time.perf_counter() - t0)
    return import_s + statistics.median(builds)


def measure_setup(root: Path, name: str, seed: int, reps: int) -> list[float]:
    """Set-up time from `setup_probe`, each in a fresh interpreter (start excluded)."""
    out = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=root, capture_output=True, text=True, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


# ---------------------------------------------------------------------------
# One point through the library


def lib_point(m, pt: Point, tr, tally: Tally) -> None:
    """One point through the library; any failed check or exception fails the point."""
    reasons: list[str] = []
    try:
        _lib_stages(m, pt, tr, tally, reasons)
    except Exception as exc:  # a failed point is counted, never fatal
        reasons.append(f"raised:{type(exc).__name__}")
    tally.record(("lib", pt.pid), reasons)


def _lib_stages(m, pt: Point, tr, tally: Tally, reasons: list[str]) -> None:
    tol = m.DEFAULT_TOL.abs
    x = tr.call("coords", m.phi, pt.rep)
    res = tr.call("relations", m.membership, x)
    tally.relations += res.count
    if not res.normalized <= tol:
        reasons.append("membership")
    report = tr.call("charts", m.classify_charts, x)
    tally.charts_scored += len(report.entries)
    tally.charts_admissible += sum(e.admissible for e in report.entries)
    if report.best is None:
        reasons.append("no-chart")
    else:
        tally.rebuilds += 1
        try:
            result = tr.call("reconstruct", m.reconstruct, x, report.best)
        except Exception as exc:  # classify still runs on this point
            reasons.append(f"reconstruct-raised:{type(exc).__name__}")
        else:
            if result.diagnostics.worst() <= tol:
                tally.rebuilds_passed += 1
            else:
                reasons.append("reconstruct-gate")
            if not m.coordinate_distance(x, tr.call("coords", m.phi, result.rep)) <= tol:
                reasons.append("round-trip")
    tally.verdicts += 1
    try:
        sig = tr.call("unitary", m.classify, x)
    except Exception as exc:
        reasons.append(f"classify-raised:{type(exc).__name__}")
    else:
        if sig.kind.value == VERDICT[pt.kind]:
            tally.verdicts_matched += 1
        else:
            tally.wrong += 1
            reasons.append("verdict")


# ---------------------------------------------------------------------------
# One point through the CLI


def run_cli(argv: list[str], env: dict, cwd: Path) -> tuple[int, str, int]:
    """Run one CLI command; returns (exit code, stdout, the child's peak RSS in KiB)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "monodromy", *argv],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


class CliChain:
    def __init__(self, root: Path, work: Path) -> None:
        self.cwd = root
        self.env = dict(os.environ)
        self.env.pop("MONODROMY_TOL", None)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
        self.tuple_file = work / "tuple.json"
        self.coord_file = work / "coords.json"
        self.rebuilt_file = work / "rebuilt.json"

    def point(self, pt: Point, tr, tally: Tally) -> None:
        argvs = {
            "sample": ["sample", "--kind", pt.kind, "--n", str(pt.n), "--seed", str(pt.seed),
                       "--entry-bound", repr(pt.entry_bound), "-o", str(self.tuple_file)],
            "coords": ["coords", str(self.tuple_file), "-o", str(self.coord_file)],
            "relations": ["relations", str(self.coord_file)],
            "reconstruct": ["reconstruct", str(self.coord_file), "-o", str(self.rebuilt_file)],
            "classify": ["classify", str(self.coord_file)],
        }
        for path in (self.tuple_file, self.coord_file, self.rebuilt_file):
            path.unlink(missing_ok=True)
        reasons = []
        for step in CLI_STEPS:
            code, out, rss = tr.call(f"cli.{step}", run_cli, argvs[step], self.env, self.cwd)
            tally.commands += 1
            tally.child_rss_kb = max(tally.child_rss_kb, rss)
            if code == 0:
                tally.commands_ok += 1
            else:
                reasons.append(f"{step}-exit-{code}")
                if step in ("sample", "coords"):
                    break  # later steps have no input
            if step == "sample" and code == 0 and not self._same_tuple(pt):
                tally.wrong += 1
                reasons.append("sample-differs")
            elif step == "coords" and code == 0:
                tally.coord_bytes += self.coord_file.stat().st_size
            elif step == "classify" and code == 0:
                tally.verdicts += 1
                verdict = next((ln.split(":", 1)[1].strip() for ln in out.splitlines()
                                if ln.startswith("verdict")), None)
                if verdict == VERDICT[pt.kind]:
                    tally.verdicts_matched += 1
                else:
                    tally.wrong += 1
                    reasons.append("verdict")
        tally.record(("cli", pt.pid), reasons)

    def _same_tuple(self, pt: Point) -> bool:
        """The CLI sampler must write exactly the library sampler's tuple."""
        try:
            grids = json.loads(self.tuple_file.read_text(encoding="utf-8"))["matrices"]
            got = [complex(*e) for grid in grids for row in grid for e in row]
        except (OSError, ValueError, KeyError, TypeError):
            return False
        want = [e for mat in pt.rep.mats for e in (mat.m11, mat.m12, mat.m21, mat.m22)]
        return got == want


# ---------------------------------------------------------------------------
# Measurement loops


def run_loop(points: list[Point], point_fn, tr, host: HostSpeed, seconds: float,
             tally: Tally, start_at: int = 0, min_points: int = 1) -> int:
    """Closed loop over the corpus until `seconds` have passed and at least
    `min_points` points are done; returns the next index."""
    idx = start_at
    begin = time.perf_counter_ns()
    deadline = begin + int(seconds * 1e9)
    done = 0
    while True:
        pt = points[idx % len(points)]
        idx += 1
        tally.ref_at.append(host.before_point())
        t0 = time.perf_counter_ns()
        tr.begin(pt.pid)
        point_fn(pt, tr, tally)
        tr.end()
        t1 = time.perf_counter_ns()
        tally.times_ns.append(t1 - t0)
        tally.ns.append(pt.n)
        tally.by_n[pt.n] = tally.by_n.get(pt.n, 0) + 1
        done += 1
        if t1 >= deadline and done >= min_points:
            tally.wall_s += (t1 - begin) / 1e9
            return idx


def pair_median(times: list) -> float:
    """Median over consecutive pairs of points of the pair's mean time.

    Each pair joins a small and a large tuple size, so the pair means are
    unimodal; the plain median of an even two-size mix falls in the gap
    between the two modes and jumps between them from run to run.
    """
    return statistics.median((a + b) / 2 for a, b in zip(times[0::2], times[1::2]))


def percentile(sorted_values: list, pct: float):
    """Nearest-rank percentile; also returns how many samples lie beyond it."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    rank = int(min(rank, len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def time_matmul(mats: list, seconds: float) -> float:
    """ns per Mat2 @ Mat2 over consecutive pairs of the workload's matrices."""
    pairs = list(zip(mats, mats[1:] + mats[:1]))
    reps = 0
    begin = time.perf_counter_ns()
    deadline = begin + int(seconds * 1e9)
    while True:
        for a, b in pairs:
            a @ b
        reps += len(pairs)
        now = time.perf_counter_ns()
        if now >= deadline:
            return (now - begin) / reps


def time_relation_types(m, points: list[Point], seconds: float) -> dict:
    """ms per point for all type 1, all type 2 and the type 3 relation."""
    totals = {"type1": [0, 0], "type2": [0, 0], "type3": [0, 0]}
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    for pt in points:
        x = m.phi(pt.rep)
        jobs = [("type1", lambda: [m.type1(x, a, b) for a, b in m.type1_pairs(x.n)])]
        if x.n >= 4:
            jobs.append(("type2", lambda: [m.type2(x, i, q) for i, q in m.type2_terms(x.n)]))
            jobs.append(("type3", lambda: m.type3(x)))
        for name, job in jobs:
            t0 = time.perf_counter_ns()
            job()
            totals[name][0] += time.perf_counter_ns() - t0
            totals[name][1] += 1
        if time.perf_counter_ns() >= deadline and all(c for _, c in totals.values()):
            break
    return {k: ns / count / 1e6 for k, (ns, count) in totals.items()}


def time_process(argv: list[str], env: dict, cwd: Path, reps: int = 5) -> float:
    """Median wall ms of a short interpreter run."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, *argv], env=env, cwd=cwd, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        samples.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Reports


def host_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl: Workload, tally: Tally, host: HostSpeed, setup: list[float],
               peak_rss_kb: int) -> dict:
    """Reference-unit metrics for the result line; wall-clock ones are printed."""
    ms = [t / 1e6 for t in tally.times_ns]
    refs = host.in_ref(tally.times_ns, tally.ref_at)
    visits = len(ms)
    tail_ms, beyond = percentile(sorted(ms), wl.tail_pct)
    tail_ref, _ = percentile(sorted(refs), wl.tail_pct)
    attempted = len(tally.outcomes)
    print(f"samples          : {visits} timed points {dict(sorted(tally.by_n.items()))} "
          f"in {tally.wall_s:.2f} s over {attempted} distinct points; "
          f"tail = p{wl.tail_pct:g} with {beyond} samples beyond")
    print(f"failed_frac      : {tally.failed / attempted:.6g} frac "
          f"({tally.failed}/{attempted}; reasons {tally.reasons})")
    ref_ms = sorted(t / 1e6 for t in host.samples)
    print(f"reference        : median {statistics.median(ref_ms):.4g} ms over "
          f"{len(ref_ms)} samples, range {ref_ms[0]:.4g}-{ref_ms[-1]:.4g} ms")
    print(f"wall clock       : points_per_s {visits / (sum(ms) / 1e3):.6g} 1/s, "
          f"point_ms_p50 {pair_median(ms):.6g} ms, point_ms_tail {tail_ms:.6g} ms")
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "points_per_kref": metric(1e3 * visits / sum(refs), "1/kref"),
        "point_ref_p50": metric(pair_median(refs), "ref"),
        "point_ref_tail": metric(tail_ref, "ref"),
        "ok_frac": metric((attempted - tally.failed) / attempted, "frac"),
        "peak_rss_mb": metric(peak_rss_kb / 1024, "MB"),
    }


def layer_metrics(spans: list, lib: Tally, cli: Tally, matmul_ns: float,
                  types_ms: dict, start_ms: float, import_ms: float,
                  overhead: float) -> dict:
    """Per-layer metrics derived from the spans: self time, shares and ratios.

    A span's self time is its duration minus its children's; a layer's
    share is its self time over the summed root (point) spans of its mode.
    """
    child_ns: dict = {}
    mode: dict = {}
    for _, span, parent, name, start, end in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
            mode[parent] = "cli" if name.startswith("cli.") else "lib"
    busy: dict = {}
    calls: dict = {}
    point_ns = {"lib": 0, "cli": 0}
    for _, span, parent, name, start, end in spans:
        busy[name] = busy.get(name, 0) + end - start - child_ns.get(span, 0)
        calls[name] = calls.get(name, 0) + 1
        if parent is None:
            point_ns[mode.get(span, "lib")] += end - start

    def mean_ms(name: str) -> float:
        return busy[name] / calls[name] / 1e6

    def share(name: str) -> float:
        return busy[name] / point_ns["lib"]

    out = {
        "sl2.matmul_ns": metric(matmul_ns, "ns"),
        "coords.phi_ms": metric(mean_ms("coords"), "ms"),
        "coords.share": metric(share("coords"), "frac"),
        "relations.membership_ms": metric(mean_ms("relations"), "ms"),
        "relations.share": metric(share("relations"), "frac"),
        "relations.count": metric(lib.relations / calls["relations"], "count"),
        "relations.per_s": metric(lib.relations / (busy["relations"] / 1e9), "1/s"),
        "relations.type1_ms": metric(types_ms["type1"], "ms"),
        "relations.type2_ms": metric(types_ms["type2"], "ms"),
        "relations.type3_ms": metric(types_ms["type3"], "ms"),
        "charts.classify_charts_ms": metric(mean_ms("charts"), "ms"),
        "charts.share": metric(share("charts"), "frac"),
        "charts.scored": metric(lib.charts_scored / calls["charts"], "count"),
        "charts.admissible_ratio": metric(lib.charts_admissible / lib.charts_scored, "frac"),
        "reconstruct.reconstruct_ms": metric(mean_ms("reconstruct"), "ms"),
        "reconstruct.share": metric(share("reconstruct"), "frac"),
        "reconstruct.pass_ratio": metric(lib.rebuilds_passed / lib.rebuilds, "frac"),
        "unitary.classify_ms": metric(mean_ms("unitary"), "ms"),
        "unitary.share": metric(share("unitary"), "frac"),
        "unitary.verdict_match_ratio": metric(lib.verdicts_matched / lib.verdicts, "frac"),
        "cli.python_start_ms": metric(start_ms, "ms"),
        "cli.import_ms": metric(import_ms, "ms"),
    }
    for step in CLI_STEPS:
        out[f"cli.{step}_ms"] = metric(mean_ms(f"cli.{step}"), "ms")
    cli_points = len(cli.times_ns)
    out["cli.json_bytes"] = metric(cli.coord_bytes / cli_points, "bytes")
    out["cli.exit_ok_ratio"] = metric(cli.commands_ok / cli.commands, "frac")
    out["trace.overhead_frac"] = metric(overhead, "frac")
    return out


def write_spans(root: Path, name: str, seed: int, spans: list) -> Path:
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{name}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('["point", "span", "parent", "name", "start_ns", "end_ns"]\n')
        for row in spans:
            handle.write(json.dumps(row) + "\n")
    return path


# ---------------------------------------------------------------------------
# Entry point


def warm_up(corpus: list[Point], point_fn, tally: Tally) -> None:
    """Untimed first points: lazy set-up inside the package and the OS caches."""
    for pt in corpus[:WARMUP_POINTS]:
        point_fn(pt, NullTracer(), tally)


def host_speed(wl: Workload, chain: CliChain) -> HostSpeed:
    if wl.mode == "lib":
        return HostSpeed()
    probe = [sys.executable, str(Path(__file__).resolve().with_name("reference.py"))]
    return HostSpeed(probe, chain.cwd, chain.env)


def measure_end_to_end(wl: Workload, corpus: list[Point], main_fn, chain: CliChain,
                       seconds: float, setup: list[float]) -> tuple[dict, list[Tally]]:
    tally, host = Tally(), host_speed(wl, chain)
    warm_up(corpus, main_fn, tally)
    run_loop(corpus, main_fn, NullTracer(), host, seconds, tally, start_at=WARMUP_POINTS,
             min_points=len(corpus) - WARMUP_POINTS)
    host.sample()
    if wl.mode == "cli":
        rss = tally.child_rss_kb
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return end_to_end(wl, tally, host, setup, rss), [tally]


def trace_overhead(host: HostSpeed, plain: Tally, traced: Tally) -> float:
    """Traced over untraced mean point time in `ref`, per tuple size, averaged.

    Comparing like sizes keeps the overhead apart from the slices' n mix,
    which differs when a slice holds only a point or two.
    """
    means = []
    for tally in (plain, traced):
        by_n: dict = {}
        for n, t in zip(tally.ns, host.in_ref(tally.times_ns, tally.ref_at)):
            by_n.setdefault(n, []).append(t)
        means.append({n: statistics.fmean(ts) for n, ts in by_n.items()})
    common = means[0].keys() & means[1].keys()
    if not common:  # only with a --seconds far below one pass
        return (statistics.fmean(host.in_ref(traced.times_ns, traced.ref_at))
                / statistics.fmean(host.in_ref(plain.times_ns, plain.ref_at)) - 1)
    return statistics.fmean(means[1][n] / means[0][n] for n in common) - 1


def measure_layers(m, root: Path, name: str, seed: int, corpus: list[Point], main_fn,
                   probe_fn, chain: CliChain, seconds: float) -> tuple[dict, list[Tally]]:
    wl = WORKLOADS[name]
    tracer, host = Tracer(), host_speed(wl, chain)
    plain, traced, probe = Tally(), Tally(), Tally()
    warm_up(corpus, main_fn, plain)
    idx = WARMUP_POINTS
    slices = 2 * TRACE_SLICES
    slice_s = seconds * TRACE_SPLIT["main"] / slices
    begin = time.perf_counter()
    for k in range(slices):
        # Slice ends are fixed from `begin`, so one point's overshoot does not add up.
        remaining = begin + (k + 1) * slice_s - time.perf_counter()
        tally, tr = (traced, tracer) if k % 2 else (plain, NullTracer())
        # The last slice finishes the pass over the corpus if the others did not.
        todo = len(corpus) - idx if k == slices - 1 else 1
        idx = run_loop(corpus, main_fn, tr, host, remaining, tally, start_at=idx,
                       min_points=max(1, todo))
    # The probe's times are not converted, so its reference stays the cheap one.
    probe_points = corpus[:wl.probe_points]
    run_loop(probe_points, probe_fn, tracer, HostSpeed(), seconds * TRACE_SPLIT["probe"],
             probe, min_points=len(probe_points))
    host.sample()
    micro = seconds * TRACE_SPLIT["micro"]
    matmul_ns = time_matmul([mat for pt in corpus for mat in pt.rep.mats], micro / 4)
    types_ms = time_relation_types(m, corpus, micro * 3 / 4)
    start_ms = time_process(["-c", "pass"], chain.env, root)
    import_ms = time_process(["-c", "import monodromy.cli"], chain.env, root) - start_ms
    overhead = trace_overhead(host, plain, traced)
    lib, cli = (probe, traced) if wl.mode == "cli" else (traced, probe)
    metrics = layer_metrics(tracer.spans, lib, cli, matmul_ns, types_ms,
                            start_ms, import_ms, overhead)
    path = write_spans(root, name, seed, tracer.spans)
    print(f"samples          : untraced {len(plain.times_ns)}, traced "
          f"{len(traced.times_ns)}, probe {len(probe.times_ns)} points; "
          f"{len(tracer.spans)} spans in {path.relative_to(root)}")
    return metrics, [plain, traced, probe]


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    m = load_package(root)
    (root / ".perfbench").mkdir(exist_ok=True)
    setup = [] if trace else measure_setup(root, name, seed, SETUP_REPS)
    corpus = build_corpus(m, name, seed)
    info = host_info()
    print(f"perfbench        : workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print(f"host             : python {info['python']}, cpu {info['cpu']!r}, "
          f"nproc {info['nproc']}")

    work = Path(tempfile.mkdtemp(prefix="cli-", dir=root / ".perfbench"))
    try:
        chain = CliChain(root, work)

        def lib_fn(pt, tr, tally):
            lib_point(m, pt, tr, tally)

        main_fn, probe_fn = (chain.point, lib_fn) if wl.mode == "cli" else (lib_fn, chain.point)
        if trace:
            metrics, tallies = measure_layers(m, root, name, seed, corpus, main_fn, probe_fn,
                                              chain, seconds)
        else:
            metrics, tallies = measure_end_to_end(wl, corpus, main_fn, chain, seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, entry in metrics.items():
        print(f"{key:<28s} {entry['value']:.6g} {entry['unit']}")
    # A point checked in several loops of a traced run counts once.
    outcomes: dict = {}
    for t in tallies:
        for key, failed in t.outcomes.items():
            outcomes[key] = outcomes.get(key, False) or failed
    return {
        "correct": all(t.wrong == 0 for t in tallies),
        "attempted": len(outcomes),
        "failed": sum(outcomes.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path.cwd()

    if args.setup_probe:
        print(setup_probe(root, args.workload, args.seed))
        return 0
    if args.workload == "all":
        for name in WORKLOADS:
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], cwd=root, check=True)
        return 0
    result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
