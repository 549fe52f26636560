"""In-process benchmark of simplexconn, one workload per process.

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs whole rounds of the workload's operations for about S seconds of wall
time. Each operation starts with cold module caches, its time is
normalized for the host's speed (hostspeed.py) and its result is checked
outside the timing. The last line of standard output is
one JSON object: correct, attempted, failed and the metrics, end-to-end ones
with --trace 0 and per-layer ones with --trace 1. The run's details go to
perfbench/out/.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

DEFAULT_SEED = 20260418
HELD_OUT_SEED = 7
SETUP_PROBES = 5

END_TO_END = [("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("exact_arith.pochhammer.calls", "count"),
    ("exact_arith.hyp_terminating.calls", "count"),
    ("exact_arith.hyp_terminating.terms", "count"),
    ("exact_arith.hyp_terminating.self_s", "s"),
    ("exact_arith.hyp_with_prefactor.calls", "count"),
    ("exact_arith.hyp_with_prefactor.terms", "count"),
    ("exact_arith.hyp_with_prefactor.self_s", "s"),
    ("multipoly.SparsePoly.mul.calls", "count"),
    ("multipoly.SparsePoly.mul.term_products", "count"),
    ("multipoly.SparsePoly.mul.self_s", "s"),
    ("multipoly.SparsePoly.subst.self_s", "s"),
    ("multipoly.substitute_homogeneous.self_s", "s"),
    ("simplex.jacobi_simplex_basis.calls", "count"),
    ("simplex.jacobi_simplex_basis.self_s", "s"),
    ("simplex.act_vars.calls", "count"),
    ("simplex.act_vars.self_s", "s"),
    ("simplex.inner_product_simplex.calls", "count"),
    ("simplex.inner_product_simplex.self_s", "s"),
    ("simplex.simplex_moment.calls", "count"),
    ("simplex.norm_A.calls", "count"),
    ("simplex.norm_A.self_s", "s"),
    ("connection.gram_connection.calls", "count"),
    ("connection.gram_connection.cache_hits", "count"),
    ("connection.gram_connection.self_s", "s"),
    ("connection.matmul.calls", "count"),
    ("connection.matmul.self_s", "s"),
    ("connection.entry.calls", "count"),
    ("connection.normalize.self_s", "s"),
    ("connection.verify.self_s", "s"),
    ("closed_forms.connection_matrix.calls", "count"),
    ("closed_forms.connection_matrix.self_s", "s"),
    ("closed_forms.closed_requests", "count"),
    ("closed_forms.gram_fallbacks", "count"),
    ("closed_forms.closed_share", "share"),
    ("closed_forms.cc_2d_entry.calls", "count"),
    ("closed_forms.cc_3d_matrix.calls", "count"),
    ("closed_forms.cc_3d_matrix.self_s", "s"),
    ("closed_forms.cc_cyclic_hat.calls", "count"),
    ("closed_forms.cc_cyclic_hat.self_s", "s"),
    ("racah.racah_multi.calls", "count"),
    ("racah.racah_multi.self_s", "s"),
    ("racah.racah_second.calls", "count"),
    ("racah.racah_second.self_s", "s"),
    ("racah.racah_weight_multi.calls", "count"),
    ("racah.racah_weight_multi.self_s", "s"),
    ("racah.racah_second_norm_sq.calls", "count"),
    ("racah.racah_second_norm_sq.self_s", "s"),
    ("racah.racah_norm_1d.calls", "count"),
    ("racah.racah_norm_1d.self_s", "s"),
    ("discrete.hahn_multi.calls", "count"),
    ("discrete.kraw_multi.calls", "count"),
    ("discrete.hahn_connection.self_s", "s"),
    ("discrete.kraw_connection.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.emit.self_s", "s"),
    ("import.simplexconn_s", "s"),
    ("import.sympy_s", "s"),
    ("import.rss_mb", "MB"),
    ("trace.overhead_ratio", "ratio"),
]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_package():
    """Import simplexconn from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    import simplexconn

    if not Path(simplexconn.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"simplexconn was imported from {simplexconn.__file__}, not {SRC}")
    return peak_rss_mb()


def probe(workload, seed, importtime=False):
    """One set-up in a fresh process: ([import_s, setup_s], its stderr).

    Both times are speed-normalized with the calibration loop runs that
    the probe makes right after the set-up.
    """
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "probe.py"), str(SRC), workload, str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    import_s, setup_s, before, after = json.loads(proc.stdout.splitlines()[-1])
    factor = hostspeed.scale(before, after)
    return [import_s * factor, setup_s * factor], proc.stderr


def cumulative_import_s(importtime_log, module):
    """Cumulative import time of `module` from a -X importtime log; 0 if absent."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


class Session:
    """The rounds of one workload run and what they measured."""

    def __init__(self, ops):
        self.ops = ops
        self.first = None
        self.untraced = []
        self.traced = []
        self.counts = []
        self.self_s = []
        self.failed = 0
        self.failures = []
        self.errors = []
        self.check_s = []

    def round(self, tracer=None):
        """Run every operation once, each bracketed by calibration loop runs.

        The loop run after one operation is the one before the next.
        """
        import workloads

        walls, loops, outs = [], [], []
        for op in self.ops:
            workloads.reset_caches()
            gc.collect()
            loops.append(hostspeed.calibration_s())
            if tracer:
                tracer.begin_op()
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an operation that fails counts as failed
                out = exc
            walls.append(time.perf_counter() - start)
            outs.append(out)
        loops.append(hostspeed.calibration_s())
        times = [(wall, hostspeed.scale(a, b)) for wall, a, b in zip(walls, loops, loops[1:])]
        self.failed += sum(isinstance(o, Exception) for o in outs)
        self.failures += [f"{op.label}: {o!r}" for op, o in zip(self.ops, outs)
                          if isinstance(o, Exception) and self.first is None]
        if self.first is None:
            self.first = outs
        else:
            for op, a, b in zip(self.ops, self.first, outs):
                if not isinstance(b, Exception) and not isinstance(a, Exception) \
                        and workloads.canonical(a) != workloads.canonical(b):
                    self.errors.append(f"{op.label}: result changed between rounds")
        (self.traced if tracer else self.untraced).append(times)

    def check(self):
        results = {op.label: out for op, out in zip(self.ops, self.first)}
        for op, out in zip(self.ops, self.first):
            start = time.perf_counter()
            msg = None if isinstance(out, Exception) else op.check(out, results)
            self.check_s.append(time.perf_counter() - start)
            if msg:
                self.errors.append(f"{op.label}: {msg}")

    @property
    def attempted(self):
        return len(self.ops) * (len(self.untraced) + len(self.traced))


def run_workload(name, seed, seconds, trace, small=False, probes=SETUP_PROBES, import_rss_mb=0.0):
    """Run one workload; returns (result object, details for the output file)."""
    import workloads

    ops = workloads.build(name, seed, small)
    setups = [probe(name, seed)[0] for _ in range(probes)]
    session = Session(ops)
    # Objects alive now are never garbage; freezing them keeps the
    # collection before each operation short.
    gc.collect()
    gc.freeze()
    try:
        measure(session, seconds, trace)
    finally:
        gc.unfreeze()
    session.check()

    if trace:
        metrics = per_layer_metrics(session, setups, name, seed, import_rss_mb)
    else:
        op_medians = [statistics.median(wall * factor for wall, factor in t)
                      for t in zip(*session.untraced)]
        metrics = {
            "setup_s": statistics.median(s[1] for s in setups),
            "solve_s": sum(op_medians),
            "peak_rss_mb": peak_rss_mb(),
        }
    units = dict(PER_LAYER if trace else END_TO_END)
    result = {
        "correct": not session.errors,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": len(session.untraced) + len(session.traced),
        "errors": session.errors,
        "failures": session.failures,
        "setup_probes": setups,
        "ops": [{"label": op.label,
                 "untraced_wall_s_and_factor": [r[i] for r in session.untraced],
                 "traced_wall_s_and_factor": [r[i] for r in session.traced],
                 "check_s": session.check_s[i]}
                for i, op in enumerate(ops)],
    }
    return result, details


def measure(session, seconds, trace):
    """Whole rounds until `seconds` of wall time are spent.

    A round starts only if one more round as long as the last still fits.
    A traced run makes two untraced rounds first, as the base of the
    tracing overhead, and then at least two traced rounds.
    """
    import tracer as tracing

    start = time.perf_counter()

    def fits(round_start):
        now = time.perf_counter()
        return 2 * now - round_start - start <= seconds

    round_start = time.perf_counter()
    session.round()
    while (trace and len(session.untraced) < 2) or (not trace and fits(round_start)):
        round_start = time.perf_counter()
        session.round()
    if not trace:
        return
    tracer = tracing.Tracer()
    tracer.install()
    try:
        while len(session.traced) < 2 or fits(round_start):
            tracer.begin_round()
            round_start = time.perf_counter()
            session.round(tracer)
            session.counts.append({k: v for k, v in tracer.counts.items() if v})
            session.self_s.append(dict(tracer.self_s))
    finally:
        tracer.uninstall()
    if any(c != session.counts[0] for c in session.counts):
        session.errors.append("per-layer counts differ between traced rounds")


def normalized(times):
    """Speed-normalized total of one round's (wall time, factor) pairs."""
    return sum(wall * factor for wall, factor in times)


def per_layer_metrics(session, setups, name, seed, import_rss_mb):
    counts = session.counts[0]
    metrics = {}
    for key, unit in PER_LAYER:
        if unit == "count":
            metrics[key] = counts.get(key, 0)
        elif key.endswith(".self_s"):
            metrics[key] = statistics.median(r.get(key, 0.0) for r in session.self_s)
    requests = counts.get("closed_forms.closed_requests", 0)
    fallbacks = counts.get("closed_forms.gram_fallbacks", 0)
    metrics["closed_forms.closed_share"] = (requests - fallbacks) / requests if requests else 0.0
    _, log = probe(name, seed, importtime=True)
    metrics["import.simplexconn_s"] = statistics.median(s[0] for s in setups)
    metrics["import.sympy_s"] = cumulative_import_s(log, "sympy")
    metrics["import.rss_mb"] = import_rss_mb
    metrics["trace.overhead_ratio"] = (statistics.median(map(normalized, session.traced))
                                       / statistics.median(map(normalized, session.untraced)))
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed; {DEFAULT_SEED} by default, {HELD_OUT_SEED} held out "
                         "for confirming a claimed gain")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_rss_mb = load_package()
    except ImportError as exc:
        print(f"perfbench: cannot import simplexconn from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    result, details = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                   import_rss_mb=import_rss_mb)
    for err in details["errors"]:
        print("perfbench: check failed: " + err, file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"result": result, "details": details}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
