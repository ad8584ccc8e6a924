#!/usr/bin/env python3
"""residuelab benchmark.

    python3 bench/run.py --workload exact-corpus --seed 2024 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Run from the repository root; the library is imported from `src/`.  Each
workload is a closed loop in one thread: one operation at a time, the next
starting when the last returns.  A run sets up (imports the library and
builds the seeded inputs), then repeats whole passes over the workload's
operations until the next pass would end after `--seconds`; at least one
pass always runs.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one untraced
and one traced pass over the same operations and prints the per-layer
metrics: self time per layer, size counts, and the tracing overhead.  The
last line of standard output is always one JSON object; a run record and
(when traced) the spans go to `.bench_out/`.

`--record` stores the digests of the default seed's exact results in
`bench/digests.json`; later runs compare against them and count a mismatch
as a failed operation.  See bench/README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 2024
WORKLOADS = ("exact-corpus", "proofs", "tube-numerics", "cli-cold")
SETUP_SAMPLES = 7  # the run's own set-up plus six in fresh interpreters
TAIL_BEYOND = 10

# Which layer each workload is expected to spend most of its time in.
PREDICTED = {
    "exact-corpus": ("mellin.", "merovalue."),
    "proofs": None,
    "tube-numerics": ("tubes.", "mellin.quad"),
    "cli-cold": ("cli.import",),
}


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


# One thread: RML_THREADS unset (the quadrature's own pool stays off), and
# numpy's OpenBLAS without its worker thread.  Children inherit this.
THREAD_ENV = {"RML_THREADS": None, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def single_threaded() -> dict:
    """Apply THREAD_ENV before numpy loads; returns the values it replaced."""
    overridden = {}
    for key, value in THREAD_ENV.items():
        old = os.environ.pop(key, None)
        if old is not None and old != value:
            overridden[key] = old
        if value is not None:
            os.environ[key] = value
    return overridden


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} is missing")
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def locate_library() -> None:
    if not (ROOT / "src" / "residuelab" / "__init__.py").is_file():
        die(f"no residuelab sources under {ROOT / 'src'}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def setup(workload: str, seed: int, workdir: Path, tracer):
    """Import the library and build the inputs; returns (workload, children, seconds)."""
    t0 = time.perf_counter()
    import residuelab  # noqa: F401  (timed: the import is part of set-up)
    import workloads

    children = workloads.Children(ROOT)
    wl = workloads.BUILDERS[workload](seed, workdir, tracer, children)
    return wl, children, time.perf_counter() - t0


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    def __init__(self):
        self.latencies = []
        self.kinds = []
        self.failures = []
        self.wall = 0.0  # without probe time


def run_pass(wl, tracer, state, first: bool) -> Pass:
    """One closed-loop pass over every operation, checking each answer."""
    from workloads import CheckFailed

    out = Pass()
    probe_s = 0.0
    t_pass = time.perf_counter()
    for i, op in enumerate(wl.ops):
        if tracer.enabled and wl.probe:
            tracer.op = "probe"
            t0 = time.perf_counter()
            wl.probe(tracer, i)
            probe_s += time.perf_counter() - t0
        tracer.op = "op:" + op.key
        failure = None
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op"):
                obj = op.fn(tracer)
        except CheckFailed as exc:
            failure = f"{op.key}: {exc}"
        except Exception:  # an engine fault is a failed op, not a crashed run
            failure = f"{op.key}: {traceback.format_exc(limit=3).strip()}"
        latency = time.perf_counter() - t0
        if failure is None:
            d = digest(obj)
            if first and wl.observe:
                wl.observe(obj)
            want = state["recorded"].get(op.key)
            if want is not None and want != d:
                failure = f"{op.key}: digest {d[:12]} differs from the recorded {want[:12]}"
            elif state["seen"].setdefault(op.key, d) != d:
                failure = f"{op.key}: digest differs from this run's first result"
        if failure:
            out.failures.append(failure)
        out.latencies.append(latency)
        out.kinds.append(op.kind)
    out.wall = time.perf_counter() - t_pass - probe_s
    tracer.op = None
    return out


def op_profile(passes: list) -> list:
    """Each op's latency averaged over the run's passes, in pass order.

    On a shared VM the CPU speed can flip between modes (about 1.7x apart
    on a 2-vCPU Xeon VM) every few seconds.  A median of raw samples jumps
    between the modes as their mix changes; averaging each op over passes
    first makes the median and the tail move smoothly with the mix.
    """
    return [statistics.fmean(lat) for lat in zip(*(p.latencies for p in passes))]


def tail(profile: list) -> float:
    """Latency with TAIL_BEYOND ops above it (the maximum for short passes)."""
    s = sorted(profile)
    return s[max(len(s) - TAIL_BEYOND - 1, 0)]


def setup_probe(args, children, workdir: Path) -> float:
    """Set-up time measured in a fresh interpreter; not counted in peak memory."""
    peak_kb = children.peak_kb
    code, stdout, stderr = children.run(
        [str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"],
        workdir,
    )
    children.peak_kb = peak_kb
    if code != 0:
        die(f"set-up probe failed: {stderr.decode(errors='replace')[-500:]}")
    return json.loads(stdout.decode().strip().splitlines()[-1])["setup_s"]


def environment(overridden: dict) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "machine": platform.machine(),
        "threads": {k: os.environ.get(k, "unset") for k in THREAD_ENV},
        "overridden": overridden,
    }


def kind_table(passes: list) -> dict:
    by_kind = {}
    for p in passes:
        for kind, lat in zip(p.kinds, p.latencies):
            by_kind.setdefault(kind, []).append(lat)
    return {
        k: {
            "per_pass": len(v) // len(passes),
            "p50_ms": round(statistics.median(v) * 1000, 3),
            "max_ms": round(max(v) * 1000, 3),
        }
        for k, v in by_kind.items()
    }


def end_to_end(args, wl, passes, setup_times, children) -> tuple:
    lat = [x for p in passes for x in p.latencies]
    attempted = len(lat)
    failed = sum(len(p.failures) for p in passes)
    per_pass = len(passes[0].latencies)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "cli-cold":
        rss_kb = max(rss_kb, children.peak_kb)
    profile = op_profile(passes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": (attempted - failed) / sum(lat),
        "op_p50_ms": statistics.median(profile) * 1000,
        "op_tail_ms": tail(profile) * 1000,
        "peak_rss_mb": rss_kb / 1024,
    }
    beyond = min(TAIL_BEYOND, per_pass - 1)
    detail = {
        "passes": len(passes),
        "ops_per_pass": per_pass,
        "pass_wall_s": [round(p.wall, 4) for p in passes],
        "busy_s": round(sum(lat), 4),
        "op_max_ms": round(max(lat) * 1000, 3),
        "tail": {
            "percentile": round(100 * (per_pass - beyond) / per_pass, 2),
            "ops_beyond": beyond,
            "ops_per_pass": per_pass,
            "samples": attempted,
            "rule": "each op's latency averaged over passes; the value with 10 ops above it",
        },
        "setup_samples_s": [round(x, 4) for x in setup_times],
        "error_rate": failed / attempted,
        "by_kind": kind_table(passes),
    }
    return metrics, attempted, failed, detail


def per_layer(args, tracer, wall_untraced, wall_traced) -> tuple:
    from residuelab import expand

    st = tracer.self_times(("op:", "probe"))
    setup_st = tracer.self_times("setup")

    def ms(name, table=st):
        return table.get(name, (0.0, 0))[0] * 1000

    def calls(name, table=st):
        return table.get(name, (0.0, 0))[1]

    def med_ms(name):
        d = tracer.durations(name)
        return statistics.median(d) * 1000 if d else 0.0

    c = tracer.counts
    m = {
        "charts.parse_ms": ms("charts.parse", setup_st),
        "charts.parse_calls": calls("charts.parse", setup_st),
        "leibniz.cert_ms": ms("leibniz.cert"),
        "leibniz.terms": sum(len(expand(ch)) for ch in tracer.charts),
        "leibniz.cert_forms": c["leibniz.cert_forms"],
        "mellin.exact_ms": ms("mellin.exact"),
        "mellin.exact_calls": calls("mellin.exact"),
        "merovalue.reduce_ms": ms("merovalue.reduce"),
        "merovalue.sum_ms": ms("merovalue.sum"),
        "merovalue.residue_ms": ms("merovalue.residue"),
        "merovalue.origin_ms": ms("merovalue.origin"),
        "merovalue.reduced_calls": c["merovalue.reduced_calls"],
        "merovalue.num_terms": c["merovalue.num_terms"],
        "merovalue.den_forms": c["merovalue.den_forms"],
        "merovalue.den_forms_homogeneous": c["merovalue.den_forms_homogeneous"],
        "mellin.quad_ms": ms("mellin.quad"),
        "mellin.quad_calls": calls("mellin.quad"),
        "mellin.quad_err_max": tracer.maxima.get("mellin.quad_err_max", 0.0),
        "tubes.check_ms": ms("tubes.check"),
        "tubes.limit_ms": ms("tubes.limit"),
        "tubes.tube_evals": c["tubes.tube_evals"],
        "extforms.interpolant_ms": ms("extforms.interpolant"),
        "extforms.check_ms": ms("extforms.check"),
        "deduction.deduce_ms": ms("deduction.deduce"),
        "deduction.steps": c["deduction.steps"],
    }
    import workloads

    # cli-cold: bare interpreter, then import-only minus that, then each
    # command minus import-only; all 0 on the other workloads
    python_ms, import_ms = med_ms("cli.python"), med_ms("cli.import")
    m["cli.python_ms"] = python_ms
    m["cli.import_ms"] = import_ms - python_ms
    for cmd in workloads.CLI_COMMANDS:
        d = med_ms(f"cli.cmd.{cmd}")
        m[f"cli.cmd_ms.{cmd}"] = d - import_ms if d else 0.0
    m["bench.self_ms"] = ms("bench.op")
    m["bench.trace_overhead"] = (wall_traced - wall_untraced) * 1000

    # self-time table of the traced pass, and the dominant-layer check
    total = sum(v[0] for v in st.values()) or 1.0
    table = {k: {"self_ms": round(v[0] * 1000, 3), "spans": v[1], "share": round(v[0] / total, 4)} for k, v in st.items()}
    if args.workload == "cli-cold":
        parts = {
            "cli.python_ms": m["cli.python_ms"],
            "cli.import_ms": m["cli.import_ms"],
            "cli.cmd_ms (mean)": statistics.mean(m[f"cli.cmd_ms.{c}"] for c in workloads.CLI_COMMANDS),
        }
    else:
        parts = {k: v[0] * 1000 for k, v in st.items()}
    dominant = max(parts, key=parts.get)
    predicted = PREDICTED[args.workload]
    verdict = {
        "dominant": dominant,
        "dominant_share": round(parts[dominant] / (sum(parts.values()) or 1.0), 4),
        "predicted": list(predicted) if predicted else None,
        "holds": None if predicted is None else dominant.startswith(predicted),
    }
    return m, table, verdict


def record_digests(workload: str, state: dict) -> None:
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    data[workload] = dict(sorted(state["seen"].items()))
    DIGESTS.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run(args, overridden: dict) -> dict:
    import spans

    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    units = declared_units(args.trace)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        tracer.op = "setup"
        wl, children, own_setup = setup(args.workload, args.seed, workdir, tracer)
        tracer.op = None
        if args.setup_probe:
            return {"setup_s": own_setup}
        recorded = {}
        if DIGESTS.exists() and not args.record:
            recorded = json.loads(DIGESTS.read_text()).get(args.workload, {})
        state = {"recorded": recorded, "seen": {}}
        if args.workload == "cli-cold":
            children.run(["-c", "import residuelab.cli"], workdir)  # fill the bytecode cache
        env = environment(overridden)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "inputs": wl.properties, "env": env}

        if args.trace:
            untraced = run_pass(wl, spans.NullTracer(), state, True)
            tracer.counts.clear()
            tracer.maxima.clear()
            tracer.install()
            try:
                traced = run_pass(wl, tracer, state, False)
            finally:
                tracer.uninstall()
            metrics, table, verdict = per_layer(args, tracer, untraced.wall, traced.wall)
            passes = [untraced, traced]
            record.update(layers=table, dominant=verdict, pass_wall_s=[untraced.wall, traced.wall])
            spans_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            spans_file.write_text(json.dumps({**tracer.to_obj(), "layers": table, "dominant": verdict}))
            print(f"== {args.workload} traced (seed {args.seed}): self time per layer, one pass ==")
            for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
                print(f"  {name:24s} {row['self_ms']:12.3f} ms  {100 * row['share']:6.2f} %  spans {row['spans']}")
            print(f"  dominant: {verdict['dominant']} ({100 * verdict['dominant_share']:.1f} %), "
                  f"predicted {verdict['predicted']}, holds: {verdict['holds']}")
        else:
            # set-up probes run between passes, so that they sample the
            # machine's speed over the whole run rather than one moment
            setup_times = [own_setup]
            passes = []
            t0 = time.perf_counter()
            while True:
                passes.append(run_pass(wl, tracer, state, not passes))
                if len(setup_times) < SETUP_SAMPLES:
                    setup_times.append(setup_probe(args, children, workdir))
                elapsed = time.perf_counter() - t0
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
            while len(setup_times) < SETUP_SAMPLES:
                setup_times.append(setup_probe(args, children, workdir))
            metrics, attempted, failed, detail = end_to_end(args, wl, passes, setup_times, children)
            record.update(detail)
            print(f"== {args.workload} (seed {args.seed}): {detail['passes']} pass(es) of {detail['ops_per_pass']} ops ==")
            for k, v in metrics.items():
                print(f"  {k:12s} {fmt(v):>12s} {units.get(k, '?')}")
            t = detail["tail"]
            print(f"  {'error_rate':12s} {fmt(detail['error_rate']):>12s}   ({failed} of {attempted} ops failed)")
            print(f"  p50 and tail are over the {t['ops_per_pass']} ops of a pass, each averaged over "
                  f"{detail['passes']} pass(es); tail is p{t['percentile']} ({t['ops_beyond']} ops beyond it, "
                  f"{t['samples']} samples in all)")
            for kind, row in detail["by_kind"].items():
                print(f"    {kind:16s} x{row['per_pass']:<4d} p50 {row['p50_ms']:10.3f} ms  max {row['max_ms']:10.3f} ms")
        if set(units) != set(metrics):
            die(f"metrics out of step with BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
        if args.record:
            record_digests(args.workload, state)
        failures = [f for p in passes for f in p.failures]
        for f in failures[:5]:
            print(f"FAILED {f}", file=sys.stderr)
        record.update(metrics=metrics, failures=failures[:50])
        print(f"  inputs: {json.dumps(wl.properties, sort_keys=True)[:400]}")
        print(f"  env: {json.dumps(env, sort_keys=True)}")
        (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, sort_keys=True, indent=1, default=str)
        )
        attempted = sum(len(p.latencies) for p in passes)
        return {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> dict:
    """Every workload in its own interpreter, one after another; one table."""
    rows = {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            die(f"{w} exited {proc.returncode}: {proc.stderr[-500:]}")
        rows[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'metric':32s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name, unit in declared_units(args.trace).items():
        print(f"{name + ' [' + unit + ']':32s}" + "".join(f"{fmt(rows[w]['metrics'][name]['value']):>16s}" for w in WORKLOADS))
    print(f"{'error_rate':32s}" + "".join(f"{fmt(rows[w]['failed'] / rows[w]['attempted']):>16s}" for w in WORKLOADS))
    return {
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{w}/{k}": v for w, r in rows.items() for k, v in r["metrics"].items()},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description="residuelab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="store this run's digests (default seed only)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.record and (args.seed != DEFAULT_SEED or args.workload == "all"):
        die(f"--record takes one workload at the default seed {DEFAULT_SEED}")
    locate_library()
    overridden = single_threaded()
    result = run_all(args) if args.workload == "all" else run(args, overridden)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
