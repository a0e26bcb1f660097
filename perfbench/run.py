#!/usr/bin/env python3
"""fsmguard benchmark: one closed-loop caller over seeded, checked workloads.

Run from the repository root:

    python3 perfbench/run.py --workload check_scale --seed 1 --seconds 34 --trace 0

Workloads are ``check_scale``, ``corpus_experiment`` and
``protected_repair`` (see ``workloads.py``).  One caller runs the op list
in whole passes, each op after the previous one returns (ops of a few
milliseconds several times back to back), until the ops have been busy
for ``--seconds`` (at least two passes).  Every output is
checked against its known answer (and, for the default seed, the committed
digests), and every later pass must repeat the first byte for byte.  An op
that raises or answers wrongly is counted as failed; the run goes on.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (fsmguard import,
input generation and one warm-up op, timed in a fresh interpreter several
times over the run, median taken), ``ops_per_s``, ``op_p50_ms`` and
``op_p90_ms`` (over each op's best time across a fixed number of passes
spread over the run) and ``peak_rss_mb``; ``fail_rate`` is printed with
them and carried by ``attempted``/``failed``.  Times are given at a
reference machine speed (see ``REFERENCE_S``), with the raw figures
beside them.  ``--trace 1``
spends half the time untraced and half with span-recording wrappers
installed, requires identical outputs, and prints the per-layer metrics
and the tracing overhead.  Readable lines come first; the last line of
stdout is one JSON object.  A detail file (every sample, per-size rows,
per-layer self times) and, when traced, the spans go to
``perfbench/out/``.

``--record`` rewrites ``perfbench/expected.json`` (the shipped designs'
verdicts and the default seed's digests) from the current code.
"""
from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 9

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402


# The machines this runs on are shared, and interpreter speed swings by a
# factor of up to about 1.75 within seconds as neighbours load the cores
# (CPU time swings with wall-clock time, so it is slower execution, not
# time spent descheduled).  Medians inherit those swings; an op's best time
# over samples spread through the run much less so, because the quiet
# moments come often enough for short ops to be caught in them.  The ops
# are deterministic, so their repeats differ only by that noise: each op is
# summarised by its best time over the sampled passes, and the figures are
# taken over those.  Ops that run for seconds average over fast and slow
# moments and stay the noisiest.
#
# Over minutes the machine also shifts as a whole: for runs on end every
# op, the shortest included, is up to 1.8 times slower even at its best.
# A fixed piece of pure-Python work that does not touch fsmguard is timed
# before every op position of every pass; its best time in a pass, against
# REFERENCE_S (its best on a quiet 2-core machine at the time of writing),
# gives that pass's speed factor.  Each op time is scaled by the factor of
# its pass before the best is taken, and set-up times by the run's median
# factor, so reported times are given at the reference speed; the raw
# figures go beside them.
REFERENCE_S = 0.0004


def reference_work() -> int:
    acc, table = 0, {}
    for i in range(4000):
        table[i % 61] = acc
        acc = (acc + i * i) % 1000003
    return acc


@dataclass
class Phase:
    """One timed phase: per op, its best time over its repeats in each pass
    it ran in, in seconds ([op][sample]), and the totals over every run."""

    times: list[list[float]] = field(default_factory=list)
    at: list[list[int]] = field(default_factory=list)  # the pass of each sample
    caps: list[int] = field(default_factory=list)  # samples each op's best is taken over
    reference: list[list[float]] = field(default_factory=list)  # [pass][op position]
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    busy: float = 0.0

    def sampled(self, i: int) -> list[int]:
        """Indices of ``caps[i]`` of op i's samples spread evenly over the
        phase, or of all of them if it made no more (or has no cap).  A run
        makes as many passes as fit in --seconds; a fixed-size sample keeps
        the estimator the same when a change makes passes faster, so a
        faster commit is not also credited with a lower minimum for having
        more samples."""
        return _spread(list(range(len(self.times[i]))), self.caps[i] if self.caps else 0)

    def factors(self) -> list[float]:
        """Each pass's speed factor: REFERENCE_S over the reference work's
        best time in the pass, below 1 when the machine ran slow."""
        return [REFERENCE_S / min(ts) for ts in self.reference]

    def best(self, scaled: bool = False) -> list[float]:
        """Each op's best time over its sampled samples, each first scaled
        by its pass's speed factor if ``scaled``."""
        factors = self.factors() if scaled else None
        return [min(self.times[i][k] * (factors[self.at[i][k]] if scaled else 1.0)
                    for k in self.sampled(i)) for i in range(len(self.times))]


def _spread(xs: list, k: int) -> list:
    """k items of xs spread evenly over it, or all of xs if k is 0 or xs
    holds no more than k."""
    if not k or len(xs) <= k:
        return xs
    return [xs[int((j + 0.5) * len(xs) / k)] for j in range(k)]


class Runner:
    def __init__(self, ops: list, digests: list | None):
        self.ops = ops
        self.digests = digests
        self.reference: dict[int, tuple[str, str]] = {}
        self.failures: dict[str, str] = {}  # op name -> first reason it failed

    def judge(self, i: int, out) -> str:
        """"" if op i's output is right, else why not.  The first output of
        each op is checked against its known answer; later ones must repeat
        it exactly."""
        op = self.ops[i]
        text = op.canon(out)
        if i in self.reference:
            first, reason = self.reference[i]
            return reason if text == first else "output differs from its first run"
        reason = op.check(out)
        if not reason and self.digests is not None:
            got = op.digests(out)
            want = self.digests[i] if i < len(self.digests) else {}
            bad = sorted(k for k in got if want.get(k) != got[k])
            if bad:
                reason = "differs from the committed digest of " + ", ".join(bad)
        self.reference[i] = (text, reason)
        return reason

    def run_pass(self, ph: Phase, tracer: Tracer | None = None) -> None:
        """Run the ops in order, each its ``reps`` times back to back and
        only in one pass of every ``period``, adding the times and failures
        to ph."""
        if not ph.times:
            ph.times = [[] for _ in self.ops]
            ph.at = [[] for _ in self.ops]
        reference = []
        ph.reference.append(reference)
        for i, op in enumerate(self.ops):
            start = perf_counter()
            reference_work()
            reference.append(perf_counter() - start)
            if ph.passes % op.period:
                continue
            if tracer is not None:
                tracer.op = i
            best = float("inf")
            for _ in range(op.reps):
                out, err = None, ""
                start = perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # a failed op is counted, never fatal
                    err = f"raised {type(exc).__name__}: {exc}"
                    if op.name not in self.failures:
                        traceback.print_exc(file=sys.stderr)
                took = perf_counter() - start
                best = min(best, took)
                ph.busy += took
                ph.attempted += 1
                if not err:
                    err = self.judge(i, out)
                if err:
                    ph.failed += 1
                    self.failures.setdefault(op.name, err)
            ph.times[i].append(best)
            ph.at[i].append(ph.passes)
        ph.passes += 1


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(best_s: list[float], setup_s: float) -> dict[str, tuple[float, str]]:
    """The user-visible metrics over each op's best time: throughput of a
    pass made of those times, and the median and 90th percentile across the
    op mix."""
    best_ms = [t * 1000.0 for t in best_s]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(best_ms) * 1000.0 / sum(best_ms), "1/s"),
        "op_p50_ms": (statistics.median(best_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(best_ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def op_rows(ops: list, ph: Phase) -> list[dict]:
    """Per op: its best ms, and the median and list of its per-pass bests."""
    rows = []
    for i, (op, best) in enumerate(zip(ops, ph.best(scaled=True))):
        samples = [t * 1000.0 for t in ph.times[i]]
        rows.append({"op": op.name, "best_ms": best * 1000.0,
                     "median_ms": statistics.median(samples), "samples_ms": samples})
    return rows


def rung_rows(ops: list, ph: Phase) -> list[dict]:
    """check_scale's ladder: mean best ms and ms/state of each rung's rings."""
    by: dict[int, list[float]] = {}
    for op, best in zip(ops, ph.best(scaled=True)):
        if op.states:
            by.setdefault(op.states, []).append(best * 1000.0)
    return [{"states": n, "rings": len(ms), "ms": statistics.fmean(ms),
             "ms_per_state": statistics.fmean(ms) / n} for n, ms in sorted(by.items())]


def overhead_pct(plain: Phase, traced: Phase) -> float:
    """Traced minus untraced time of a pass, from each op's best time."""
    return 100.0 * (sum(traced.best()) - sum(plain.best())) / sum(plain.best())


def _dump(obj, pad: str = "") -> str:
    """JSON with objects spread over lines and each verdict on one line."""
    inner = pad + " "
    if isinstance(obj, dict) and obj:
        items = [f"{inner}{json.dumps(k)}: {_dump(v, inner)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        return "[\n" + ",\n".join(inner + _dump(v, inner) for v in obj) + "\n" + pad + "]"
    return json.dumps(obj)


def record(fg) -> int:
    """Rewrite expected.json from the current code and the default seed."""
    cfg = fg.RuleConfig(fif=True)
    shipped = {}
    for name in workloads.SHIPPED:
        text = (workloads.DESIGNS / name).read_text(encoding="utf-8")
        src = fg.SourceText(text, origin=f"designs/{name}")
        per = {p: workloads.verdict(fg.run_all_checks(src, frozenset({p}), cfg))
               for p in sorted(workloads.state_codes(text))}
        failed = all(v == "parse_failure" for v in per.values())
        shipped[name] = "parse_failure" if failed else per
    expected = {"default_seed": workloads.DEFAULT_SEED, "shipped_verdicts": shipped,
                "digests": {}}
    for name in ("corpus_experiment", "protected_repair"):
        ops = workloads.build_ops(name, fg, workloads.DEFAULT_SEED, expected, OUT)
        expected["digests"][name] = []
        for op in ops:
            out = op.run()
            reason = op.check(out)
            if reason:
                print(f"warning: {name} {op.name}: {reason}", file=sys.stderr)
            expected["digests"][name].append(op.digests(out))
    workloads.EXPECTED_PATH.write_text(_dump(expected) + "\n", encoding="utf-8")
    print(f"wrote {workloads.EXPECTED_PATH.relative_to(ROOT)}")
    return 0


def import_fsmguard():
    """Import the checkout's fsmguard, or raise ImportError."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import fsmguard
    import fsmguard.llm  # noqa: F401
    if not Path(fsmguard.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"found {fsmguard.__file__}, not the checkout's copy")
    return fsmguard


def set_up(workload: str, seed: int) -> tuple[object, list, float]:
    """Import fsmguard, generate the inputs and run the warm-up op (lazy
    imports, regex caches).  Returns the package, the ops and the time."""
    OUT.mkdir(exist_ok=True)
    start = perf_counter()
    fg = import_fsmguard()
    ops = workloads.build_ops(workload, fg, seed, workloads.load_expected(), OUT)
    ops[0].run()
    return fg, ops, perf_counter() - start


def setup_rep(workload: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter, so every sample starts cold
    the same way and this process's peak RSS stays the workload's own."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up run failed: {done.stderr.strip()[-400:]}")
    return float(done.stdout.split()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it and exit (used for setup_s)")
    args = ap.parse_args(argv)
    if not args.record and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.setup_only:
        print(repr(set_up(args.workload, args.seed)[2]))
        return 0

    try:
        fg = import_fsmguard()
    except ImportError as exc:
        print(f"perfbench: cannot import fsmguard from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not workloads.DESIGNS.is_dir():
        print(f"perfbench: no designs directory at {workloads.DESIGNS}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.record:
        return record(fg)

    expected = workloads.load_expected()
    fg, ops, _ = set_up(args.workload, args.seed)
    digests = None
    if args.seed == expected["default_seed"]:
        digests = expected["digests"].get(args.workload)
    runner = Runner(ops, digests)
    detail: dict = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": workloads.nproc(),
        "commit": git_commit(), "ops_per_pass": len(ops),
    }
    setups: list[float] = []
    sample = workloads.SAMPLED_PASSES[args.workload]
    cycle = max(op.period for op in ops)
    if args.trace:
        # Untraced and traced passes alternate, so both see the same
        # machine and the overhead compares like with like.
        # Whole cycles of the ops' periods, so the per-pass counts repeat
        # exactly for a given seed.
        plain, traced, tracer = Phase(), Phase(), Tracer()
        while plain.passes % cycle or plain.passes < cycle or \
                plain.busy + traced.busy < args.seconds:
            runner.run_pass(plain)
            tracer.install()
            try:
                runner.run_pass(traced, tracer)
            finally:
                tracer.remove()
        phases = (plain, traced)
        selfs = self_times(tracer.spans)
        metrics = layer_metrics(tracer, selfs, traced.passes, traced.busy)
        metrics["trace.overhead_pct"] = (overhead_pct(plain, traced), "%")
        detail["self_s_per_pass"] = {k: v / traced.passes for k, v in sorted(selfs.items())}
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with spans_path.open("w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        detail["spans"] = {"file": str(spans_path.relative_to(ROOT)), "count": len(tracer.spans)}
    else:
        timed = Phase(caps=[math.ceil(sample / op.period) for op in ops])
        while timed.passes < 2 or timed.busy < args.seconds:
            runner.run_pass(timed)
            # Set-ups are spread over the run between passes, so their
            # median sees the same machine as the op times.
            while len(setups) < SETUP_REPS and timed.busy >= len(setups) * args.seconds / SETUP_REPS:
                setups.append(setup_rep(args.workload, args.seed))
        while len(setups) < SETUP_REPS:
            setups.append(setup_rep(args.workload, args.seed))
        phases = (timed,)
        factor = statistics.median(timed.factors())
        metrics = end_to_end(timed.best(scaled=True), statistics.median(setups) * factor)
        raw = end_to_end(timed.best(), statistics.median(setups))
        detail.update(speed_factor=factor, pass_speed_factors=timed.factors(),
                      raw_metrics={k: v for k, (v, _) in raw.items()})
        detail["setup_s_samples"] = setups
        detail["reference_ms"] = [[t * 1000.0 for t in ts] for ts in timed.reference]
        detail["ops"] = op_rows(ops, timed)
        rungs = rung_rows(ops, timed)
        if rungs:
            per_state = {r["states"]: r["ms_per_state"] for r in rungs}
            detail["rungs"] = rungs
            detail["ms_per_state_1024_over_128"] = per_state[1024] / per_state[128]

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    passes = sum(ph.passes for ph in phases)
    detail.update(attempted=attempted, failed=failed, fail_rate=failed / attempted,
                  failures=runner.failures, passes=passes,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    detail_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={detail['python']} nproc={detail['nproc']} commit={detail['commit'][:12]}")
    print(f"  {attempted} ops in {passes} passes of {len(ops)}; "
          f"fail_rate {failed / attempted:.4f} ({failed}/{attempted})")
    for name, reason in runner.failures.items():
        print(f"  FAILED {name}: {reason}")
    if "speed_factor" in detail:
        print(f"  speed factor median {detail['speed_factor']:.4f}, range "
              f"{min(detail['pass_speed_factors']):.4f}-{max(detail['pass_speed_factors']):.4f} "
              f"over passes; times are at reference speed, raw in brackets")
    raw = detail.get("raw_metrics", {})
    for name, (value, unit) in metrics.items():
        if args.trace and value == 0:
            continue
        best_of = f"each op's best of up to {sample} of {passes} passes"
        samples = {"setup_s": f"median of {len(setups)} set-ups",
                   "ops_per_s": best_of,
                   "op_p50_ms": f"over {len(ops)} ops, {best_of}",
                   "op_p90_ms": f"over {len(ops)} ops, {best_of}"}.get(name, "")
        in_raw = f"({raw[name]:.6g}) " if name in raw and unit != "MB" else ""
        print(f"  {name:48s} {value:14.6g} {unit:6s} {in_raw}{samples}")
    for row in detail.get("ops", ()):
        print(f"  op {row['op']:28s} best {row['best_ms']:10.3f} ms  "
              f"median {row['median_ms']:10.3f} ms")
    for row in detail.get("rungs", ()):
        print(f"  rung {row['states']:5d} states x{row['rings']}  {row['ms']:10.3f} ms  "
              f"{row['ms_per_state']:8.4f} ms/state")
    if "ms_per_state_1024_over_128" in detail:
        print(f"  ms/state 1024:128 = {detail['ms_per_state_1024_over_128']:.3f}")
    print(f"  detail: {detail_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
