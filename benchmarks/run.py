#!/usr/bin/env python3
"""torspec's benchmark: time whole cases of each workload and check their output.

    python3 benchmarks/run.py --workload modulation --seed 0 --seconds 25 --trace 0
    python3 benchmarks/run.py            # every workload, one process each, in turn

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``, ``--seed``
to 0 and ``--trace`` to 0.  Run from anywhere: it imports torspec from
``src/`` of the checkout it sits in and writes only under ``benchmarks/out/``.

One run is one process and one workload (see ``workloads.py``).  It builds
the inputs from ``--seed``, runs one warm-up case and then whole cases until
``--seconds`` have passed (at least one), calling ``gc.collect()`` between
cases and giving each case a fresh output directory, both outside the timed
interval.  Every case is checked: it fails if it raises, if an experiment
assertion FAILs, if the CLI exits non-zero, or if its digest differs from
the committed reference (default seed) or from the run's first case.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: the
median case time, the set-up time (median over fresh interpreters, one
started before each case) and the peak RSS.  The host's speed drifts by up
to 2x, so times are scaled by a probe of it taken around each set-up and
case (see ``HostSpeed``); the unscaled medians are printed beside them.
``--trace 1`` reports the per-layer metrics instead: the warm-up case runs
under ``layers.WorkCounter`` (counts), then untraced and traced cases
alternate, the traced ones under ``layers.SpanRecorder``.  Self times are
medians over the traced cases; the spans are written to ``benchmarks/out/``
when the run ends.

The last line of standard output is the result as one JSON object; the lines
before it give each metric with its unit, the digests and the environment.
The exit code is 0 when a result was printed, 2 when torspec's sources are
missing.
"""

from __future__ import annotations

import os

# Before numpy is imported: cone_report's polyfit goes through LAPACK.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import mean, median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TAIL_BEYOND = 10
# Nominal time of HostSpeed.probe(); see there.
CALIBRATION_REF_S = 0.02


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment() -> dict:
    import numpy
    import torspec

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "torspec": torspec.__version__,
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
    }


def _setup_seconds(workload: str, seed: int) -> float:
    """Process start until the inputs are built, in a fresh interpreter."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout.split()[-1]) - start


class HostSpeed:
    """Measures how fast the host runs right now, independently of torspec.

    On a shared host the speed of a core drifts by up to 2x over seconds to
    minutes, as other tenants load it.  A probe is the geometric mean of the
    best of two runs of a fixed pure-Python loop (tuple keys, dict updates,
    fsum and sqrt, like torspec's sparse paths) and the best of two runs of
    fixed numpy FFTs (like its dense path); it takes 0.017-0.035 s on a 2-core
    Xeon VM.  Each set-up and case is scaled by the probes taken right before
    and after it, so reported times are seconds on a host whose probe takes
    CALIBRATION_REF_S.  Mixing both kinds of work tracks the drift of every
    workload better than either kind alone.
    """

    def __init__(self):
        import numpy as np

        self._fft = np.fft
        self._signal = np.exp(1j * 1e-3 * np.arange(2**16))

    def _python_loop(self) -> float:
        start = time.perf_counter()
        acc: dict = {}
        for i in range(25_000):
            xi = (i % 97 - 48, i % 89 - 44)
            acc[xi] = acc.get(xi, 0.0) + math.sqrt(math.fsum((float(xi[0]) ** 2, float(xi[1]) ** 2)))
        return time.perf_counter() - start

    def _fft_loop(self) -> float:
        start = time.perf_counter()
        for _ in range(6):
            self._fft.ifftn(self._fft.fftn(self._signal))
        return time.perf_counter() - start

    def probe(self) -> float:
        best_py = min(self._python_loop(), self._python_loop())
        best_fft = min(self._fft_loop(), self._fft_loop())
        return math.sqrt(best_py * best_fft)


def _tail(times: list[float]) -> tuple[float, float, int]:
    """Value and percentile of the highest order statistic with TAIL_BEYOND
    cases above it; with fewer cases, the fastest case (as many beyond as
    the run has)."""
    ordered = sorted(times)
    k = max(0, len(ordered) - 1 - TAIL_BEYOND)
    pct = 100.0 * k / (len(ordered) - 1) if len(ordered) > 1 else 0.0
    return ordered[k], pct, len(ordered) - 1 - k


class Run:
    """One workload in this process: cases, their verdicts and timings."""

    def __init__(self, workload, seed: int, scratch: Path):
        import workloads

        self.wl = workload
        self.scratch = scratch
        self.inputs = workload.build(seed)
        self.reference = workloads.reference_digest(workload, seed)
        self.first_digest: str | None = None
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def case(self, context=contextlib.nullcontext) -> float:
        """Run one checked case inside ``context()``; return its wall time in s."""
        gc.collect()
        outdir = Path(tempfile.mkdtemp(dir=self.scratch))
        self.attempted += 1
        elapsed = 0.0
        try:
            with context():
                start = time.perf_counter()
                try:
                    result = self.wl.run(self.inputs, outdir)
                finally:
                    elapsed = time.perf_counter() - start
            problems = self._check(*self.wl.verify(self.inputs, result))
        except Exception as exc:  # a failed case is counted, not fatal
            problems = [f"raised {exc!r}"]
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += [f"case {self.attempted}: {p}" for p in problems]
        return elapsed

    def _check(self, digest: str, problems: list[str]) -> list[str]:
        self.digests.append(digest)
        if self.first_digest is None:
            self.first_digest = digest
        if self.reference is not None and digest != self.reference:
            problems.append(f"digest {digest} != reference {self.reference}")
        if digest != self.first_digest:
            problems.append(f"digest {digest} != first case's {self.first_digest}")
        return problems


def _end_to_end(run: Run, args) -> tuple[dict, list[str]]:
    run.case()  # warm-up, not timed
    wall: list[float] = []
    wall_setup: list[float] = []
    times: list[float] = []
    setup: list[float] = []
    host = HostSpeed()
    speed = [host.probe()]
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        wall_setup.append(_setup_seconds(args.workload, args.seed))
        speed.append(host.probe())
        wall.append(run.case())
        speed.append(host.probe())
        setup.append(wall_setup[-1] * CALIBRATION_REF_S / mean(speed[-3:-1]))
        times.append(wall[-1] * CALIBRATION_REF_S / mean(speed[-2:]))
    tail, pct, beyond = _tail(times)
    values = {
        "case_s_p50": median(times),
        "setup_s": median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"times are wall seconds scaled to a host-speed probe of {CALIBRATION_REF_S} s;"
        f" the probe took {min(speed):.4f}-{max(speed):.4f} s during this run",
        f"case_s_p50: median of {len(times)} timed cases; unscaled {median(wall)!r} s",
        f"case_s_tail = {tail!r} s: p{pct:.0f} of {len(times)} timed cases, {beyond} beyond it"
        " (printed, not in BENCHMARK.json: below 11 cases it is the fastest case, too noisy to bound)",
        f"setup_s: median of {len(setup)} fresh processes; unscaled {median(wall_setup)!r} s",
        "peak_rss_mib: ru_maxrss of this process",
    ]
    return values, notes


def _per_layer(run: Run, args) -> tuple[dict, list[str]]:
    import layers

    counter = layers.WorkCounter()
    run.case(counter.counting)  # warm-up, counted, not timed
    recorder = layers.SpanRecorder()
    untraced: list[float] = []
    traced: list[float] = []

    def step():
        if len(untraced) <= len(traced):
            untraced.append(run.case())
        else:
            case_id = len(traced)
            traced.append(run.case(lambda: recorder.recording(case_id)))

    # Alternate so that host drift hits both sides alike; end on a traced case.
    start = time.perf_counter()
    while not traced or len(untraced) > len(traced) or time.perf_counter() - start < args.seconds:
        step()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
    recorder.write(spans_path)
    values = layers.layer_metrics(counter.counts, recorder.per_case, untraced, traced)
    notes = [
        f"{len(untraced)} untraced and {len(traced)} traced cases,"
        f" {len(recorder.spans)} spans written to {spans_path.relative_to(ROOT)}",
        "counts come from the counted warm-up case; fft.bytes_computed is"
        " computed (2 x 16 B x points), not measured",
    ]
    return values, notes


def run_one(args) -> int:
    import workloads

    env = _environment()
    spec = _spec()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    scratch = OUT / f"tmp-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workloads.WORKLOADS[args.workload], args.seed, scratch)
        measure = _per_layer if args.trace else _end_to_end
        values, notes = measure(run, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}:"
          f" {run.attempted} cases attempted, {run.failed} failed")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']!r} {entry['unit']}")
    print(f"  fail_frac = {run.failed / run.attempted!r} ratio")
    for note in notes:
        print(f"  ({note})")
    distinct = sorted(set(run.digests))
    print(f"digest {args.workload} seed {args.seed}: {', '.join(distinct) or 'none'}"
          f" (reference: {run.reference or 'none for this seed'})")
    for problem in run.problems:
        print(f"FAILED {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    results = {}
    for name in [w["name"] for w in _spec()["workloads"]]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in _spec()["workloads"]],
                        help="one workload; all of them, one process each, when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "torspec" / "__init__.py").is_file():
        print(f"error: no torspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload is None else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
