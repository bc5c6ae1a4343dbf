"""qnetcap benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

A run first times ``setup_s`` in fresh interpreters, then repeats whole
passes over the workload's units for about S seconds.  Every unit is timed
between two runs of the reference kernel (kernel.py) and reported as a
multiple of it, rescaled to seconds; each metric is a median over passes.
With ``--trace 1`` untraced and traced passes alternate, and the run
prints the per-layer metrics instead of the end-to-end ones.
``--self-check`` runs one short pass of every workload in both modes and
exits non-zero if any check fails other than the known faults.

The last line of standard output is the result; progress goes to stderr.
Metric names and units are read from BENCHMARK.json.
"""

import os

# one BLAS thread here and in every child, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "QNETCAP_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_CHILDREN = 4
IMPORT_PROBES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    if not args.self_check and args.workload is None:
        p.error("--workload is required")
    return args


def load_program():
    init = ROOT / "src" / "qnetcap" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: qnetcap sources not found at {init.parent}")
    sys.path.insert(0, str(ROOT / "src"))


def median(values):
    return statistics.median(values) if values else 0.0


def trimmed_mean(values):
    """Mean of the middle half: the lowest and highest quarter are dropped
    (at least one each from three values on), so a pass hit by a stall
    does not count, but more passes still average more noise away."""
    v = sorted(values)
    k = (len(v) + 2) // 4 if len(v) >= 3 else 0
    return statistics.mean(v[k:len(v) - k])


class Tally:
    """Operations attempted and failed; a failure outside the known faults
    makes the run incorrect."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.unexpected = set()

    def add(self, unit, result):
        if isinstance(result, Exception):
            ok, why = [False] * unit.ops, repr(result)
        else:
            try:
                ok, why = list(unit.check(result)), "output check failed"
            except Exception as exc:  # a malformed output is a failed check
                ok, why = [False] * unit.ops, f"check raised {exc!r}"
            if len(ok) != unit.ops:
                ok = [False] * unit.ops
        bad = ok.count(False)
        self.attempted += unit.ops
        self.failed += bad
        if bad and not unit.known_fault and unit.name not in self.unexpected:
            self.unexpected.add(unit.name)
            print(f"FAILED {unit.name}: {why}", file=sys.stderr)


def attempt(fn):
    try:
        return fn()
    except Exception as exc:  # the program raising counts as failed operations
        return exc


class Clock:
    """Times calls between kernel samples.  Each sample serves as the
    'after' of one call and the 'before' of the next."""

    def __init__(self, parts, spawner):
        import kernel

        self.kernel = kernel
        self.parts = parts
        self.spawner = spawner
        self.scale = kernel.nominal(parts)
        self.last = kernel.sample(parts, spawner)
        self.references = []

    def time(self, fn):
        """Returns (result, wall seconds, reference seconds)."""
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        after = self.kernel.sample(self.parts, self.spawner)
        ref = self.kernel.reference([self.last, after], self.parts)
        self.last = after
        self.references.append(ref)
        return result, dt, ref

    def normalise(self, seconds, ref):
        return seconds / ref * self.scale


@dataclass
class Pass:
    norm: dict  # unit -> kernel-normalised seconds
    raw: dict  # unit -> wall seconds
    child_rss_kb: list
    counts: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)  # kernel-normalised


def run_pass(units, clock, tally, tracer=None):
    from spawner import ChildResult

    p = Pass({}, {}, [])
    counts, self_s = defaultdict(int), defaultdict(float)
    if tracer is not None:
        tracer.spans.clear()
        tracer.install()
    try:
        for u in units:
            if tracer is None:
                call = u.run
            else:
                def call(u=u):
                    with tracer.span("unit:" + u.name):
                        return u.run_traced(tracer) if u.run_traced else u.run()
            result, dt, ref = clock.time(lambda: attempt(call))
            if isinstance(result, ChildResult):
                dt = result.seconds
                p.child_rss_kb.append(result.maxrss_kb)
            p.raw[u.name] = dt
            p.norm[u.name] = clock.normalise(dt, ref)
            if tracer is not None:
                c, s = tracer.take()
                for name, v in c.items():
                    counts[name] += v
                for name, v in s.items():
                    self_s[name] += clock.normalise(v, ref)
            tally.add(u, result)
    finally:
        if tracer is not None:
            tracer.uninstall()
    p.counts, p.self_s = dict(counts), dict(self_s)
    return p


def pass_seconds(passes):
    """Sum over units of the unit's trimmed-mean normalised time."""
    return sum(trimmed_mean([p.norm[u] for p in passes]) for u in passes[0].norm)


def measure_children(clock, argv, n, warm_up=0):
    """Kernel-normalised wall times of n fresh interpreters, after warm_up
    unmeasured ones; returns the times and the children's stdout."""
    times, outputs = [], []
    for i in range(warm_up + n):
        child, _, ref = clock.time(lambda: clock.spawner.run(argv, cwd=ROOT))
        if child.code != 0:
            raise RuntimeError(f"child {argv[1:4]} exited {child.code}: {child.stderr}")
        if i >= warm_up:
            times.append(clock.normalise(child.seconds, ref))
            outputs.append((child.stdout, ref))
    return times, outputs


def measure_setup(workload, seed, children, spawner):
    """Median normalised time from a fresh interpreter to a ready workload,
    against the interpreter start-up part of the kernel."""
    argv = [sys.executable, BENCH_DIR / "run.py", "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    times, _ = measure_children(Clock(("spawn",), spawner), argv, children, warm_up=1)
    return median(times)


def import_probe(spawner):
    """cli.import_s: a fresh interpreter importing what the commands import;
    cli.scipy_import_s: the part of it spent importing scipy.optimize."""
    from workloads import IMPORT_PROBE

    clock = Clock(("spawn",), spawner)
    times, outputs = measure_children(clock, [sys.executable, "-c", IMPORT_PROBE],
                                      IMPORT_PROBES)
    scipy = [clock.normalise(float(out), ref) for out, ref in outputs]
    return {"cli.import_s": median(times), "cli.scipy_import_s": median(scipy)}


def peak_rss_mb(passes):
    """Peak memory of the process running the program: the largest command
    child where the workload runs commands, else this process."""
    children = [kb for p in passes for kb in p.child_rss_kb]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (max(children) if children else own) / 1024.0


def layer_metrics(names, traced, plain, references, extra):
    counts = traced[0].counts
    if any(p.counts != counts for p in traced[1:]):
        print("warning: counters differ between traced passes", file=sys.stderr)
    values = {
        "ref.kernel_s": median(references),
        "raw.pass_s": median([sum(p.raw.values()) for p in plain]),
        "trace.overhead_s": pass_seconds(traced) - pass_seconds(plain),
        **extra,
    }
    out = {}
    for name in names:
        if name in values:
            out[name] = values[name]
        elif name.startswith("cli.") and name.endswith(".s"):
            command = name[len("cli."):-len(".s")]
            out[name] = median([p.norm[command] for p in plain if command in p.norm])
        elif name.endswith(".self_s") or name == "regions.linprog.s":
            span = name.rsplit(".", 1)[0]
            out[name] = median([p.self_s.get(span, 0.0) for p in traced])
        else:
            out[name] = counts.get(name, 0)
    return out


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(OUT_DIR / "tmp")
    return env


def run_workload(workload, seed, seconds, trace, setup_children=SETUP_CHILDREN):
    from spawner import Spawner

    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    with Spawner(OUT_DIR, child_env()) as spawner:
        return measure(workload, seed, seconds, trace, setup_children, spawner)


def measure(workload, seed, seconds, trace, setup_children, spawner):
    import workloads
    from layertrace import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_s = None if trace else measure_setup(workload, seed, setup_children, spawner)
    clock = Clock(workloads.REFERENCE[workload], spawner)
    units = workloads.WORKLOADS[workload](seed, OUT_DIR, spawner)
    tally, tracer = Tally(), Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(units, clock, tally))
        if trace:
            traced.append(run_pass(units, clock, tally, tracer))
        now = time.perf_counter()
        print(f"pass {len(plain)}: {now - t0:.2f} s", file=sys.stderr)
        if now - start + (now - t0) > seconds:
            break
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        extra = import_probe(spawner) if workload == "cli-readme" else {}
        values = layer_metrics(names, traced, plain, clock.references, extra)
        units_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
        write_spans(workload, seed, tracer.spans)
    else:
        values = {
            "setup_s": setup_s,
            "pass_s": pass_seconds(plain),
            "peak_rss_mb": peak_rss_mb(plain),
        }
        units_of = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units_of.items()},
    }
    # per-unit times over passes, for the result file only
    detail = {u: {"s": [p.norm[u] for p in plain], "raw_s": [p.raw[u] for p in plain]}
              for u in plain[0].norm}
    return result, detail


def write_spans(workload, seed, spans):
    """The last traced pass's spans, one JSON object per line."""
    path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for i, (name, t0, t1, parent) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                 "parent": parent}) + "\n")


def self_check():
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result, _ = run_workload(name, 0, 0.0, trace, setup_children=1)
            print(f"{name} trace={trace}: {json.dumps(result)}")
            ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    load_program()
    if args.self_check:
        return self_check()
    if args.setup_only:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, OUT_DIR, None)
        return 0
    result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "units": detail}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
