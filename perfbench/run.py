"""tame3's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload {sweep,paths,golden} --seed N \
        --seconds S --trace {0,1}

Run from the root of a tame3 checkout: the package is imported from its
``src/`` directory, never from an installed copy.  One single-threaded
process builds the workload's inputs from the seed (its set-up), then runs
whole rounds of the workload until the next round would end after
``--seconds``; at least one round always runs.  Item times are scaled to
the machine's reference speed (see speed.py).  Every output is checked
(see workloads.py).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
rounds alternate untraced and traced, starting untraced, and the metrics
are the per-layer ones: the set-up's spans plus the mean of one traced
round, and the traced rounds' wall time against the untraced ones'.  All
spans are written to ``perfbench/out/trace-<workload>.json`` and the result
to ``perfbench/out/result-<workload>.json``.
"""

from __future__ import annotations

import time

_T_SCRIPT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import Speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# (name, unit) of every metric the run prints, in the order of BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics: "<layer>.<function>.<what>" or "<layer>.self_s".  A
# function's calls and self_s come from its spans; the rest are counters the
# tracer keeps at the same boundary.
PER_LAYER = (
    ("poly.mul.calls", "count"),
    ("poly.mul.term_pairs", "count"),
    ("poly.mul.self_s", "s"),
    ("poly.substitute.self_s", "s"),
    ("poly.self_s", "s"),
    ("forms.wedge11.calls", "count"),
    ("forms.wedge11.repeats", "count"),
    ("forms.wedge11.self_s", "s"),
    ("forms.independent.calls", "count"),
    ("forms.independent.self_s", "s"),
    ("forms.self_s", "s"),
    ("analysis.two_maxima_check.self_s", "s"),
    ("analysis.parachute_check.self_s", "s"),
    ("analysis.eval_y.self_s", "s"),
    ("analysis.self_s", "s"),
    ("linalg.solve_exact.calls", "count"),
    ("linalg.solve_exact.cells", "count"),
    ("linalg.solve_exact.infeasible", "count"),
    ("linalg.solve_exact.self_s", "s"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.nullspace.self_s", "s"),
    ("linalg.self_s", "s"),
    ("vertices.line_in_vertex.self_s", "s"),
    ("vertices.complete_to_vertex.self_s", "s"),
    ("vertices.line_attributes.self_s", "s"),
    ("vertices.vertex3.calls", "count"),
    ("vertices.vertex3.self_s", "s"),
    ("vertices.eval_word.self_s", "s"),
    ("vertices.self_s", "s"),
    ("reduction.elementary_search.calls", "count"),
    ("reduction.elementary_search.found", "count"),
    ("reduction.elementary_search.self_s", "s"),
    ("reduction.classify_elementary_K.calls", "count"),
    ("reduction.classify_elementary_K.hits", "count"),
    ("reduction.classify_elementary_K.self_s", "s"),
    ("reduction.shared_center.self_s", "s"),
    ("reduction.reduce_once.calls", "count"),
    ("reduction.self_s", "s"),
    ("wordgen.self_s", "s"),
    ("parsing.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
)

# Functions whose calls each per-layer metric is read from, plus the entry
# points of the layers measured only as a whole: every one must be reached
# by at least one workload.
TRACED_FUNCTIONS = sorted(
    {".".join(n.split(".")[:2]) for n, _ in PER_LAYER if n.count(".") == 2}
    | {"wordgen.gen_tame", "parsing.parse_automorphism", "cli.main"}
)


def process_start() -> float:
    """This process's start on the CLOCK_BOOTTIME scale, from /proc."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[19]) / os.sysconf("SC_CLK_TCK")


def since_start(start: float | None) -> float:
    if start is None:  # no /proc: count from the script's first statement
        return time.perf_counter() - _T_SCRIPT
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def import_tame3():
    """Import tame3 from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import tame3
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import tame3 from {src}: {exc}")
    if Path(tame3.__file__).resolve().parent != src / "tame3":
        raise SystemExit(f"perfbench: tame3 was imported from {tame3.__file__}, not {src}")


class Runner:
    """Runs rounds of one workload and keeps the counts and timings.

    With a `speed`, item times are scaled to the probe's reference speed
    once the run ends; without one (traced runs), they are plain
    perf_counter differences.
    """

    def __init__(self, workload, speed=None, tracer=None):
        self.workload = workload
        self.speed = speed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []
        self.item_s: dict[int, list[tuple[float, float]]] = {}
        self.next_item = 0

    def run_round(self, r: int) -> float:
        """Run round r; returns the summed wall time of its items."""
        from workloads import Mismatch

        wall = 0.0
        for pos, item in enumerate(self.workload.round(r)):
            if self.tracer is not None:
                self.tracer.begin_item(self.next_item)
            self.next_item += 1
            self.attempted += 1
            outcome: dict = {}

            def call(run=item.run):
                try:
                    outcome["result"] = run()
                except Exception as exc:  # a raising operation is a failed one
                    outcome["error"] = exc

            if self.speed is not None:
                t0, t1 = self.speed.timed(call)
            else:
                t0 = time.perf_counter()
                call()
                t1 = time.perf_counter()
            self.item_s.setdefault(pos, []).append((t0, t1))
            wall += t1 - t0
            if "error" in outcome:
                exc = outcome["error"]
                problem = f"{item.label} raised {type(exc).__name__}: {exc}"
            else:
                res = outcome["result"]
                try:
                    item.check(res)
                    problem = None
                except Mismatch as exc:
                    problem = f"{item.label}: {exc}"
                except Exception as exc:  # output too malformed to check
                    problem = f"{item.label}: unreadable output ({type(exc).__name__}: {exc})"
            if problem is not None:
                self.failed += 1
                if not item.known_fault:
                    self.correct = False
                if problem not in self.errors:
                    self.errors.append(problem)
        return wall

    def item_medians(self) -> list[float]:
        """Each item's median scaled time over the run's rounds, in round order."""
        return [
            statistics.median(self.speed.scale(t0, t1) for t0, t1 in spans)
            for spans in self.item_s.values()
        ]


def layer_metrics(tracer, stretches):
    """Per-layer values: the set-up's stretch plus the mean traced round.

    A stretch is (first span, end span, counters gained) of one part of the
    run; the first stretch is the set-up's.
    """
    def read(summary, counters, name):
        key, _, what = name.rpartition(".")
        if what in ("calls", "self_s"):
            return summary.get(key, {}).get(what, 0)
        return counters.get(name, 0)

    parts = [(tracer.summary(first, last), counters) for first, last, counters in stretches]
    out = {}
    for name, unit in PER_LAYER:
        if name.startswith("trace."):
            continue
        setup = read(*parts[0], name)
        rounds = statistics.fmean(read(*part, name) for part in parts[1:])
        out[name] = {"value": setup + rounds, "unit": unit}
    return out


def stretch(tracer, begin) -> tuple[int, int, dict]:
    first, before = begin
    last, after = tracer.mark()
    return first, last, {k: v - before.get(k, 0) for k, v in after.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "paths", "golden"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    speed = None if args.trace else Speed()
    if speed is not None:
        speed.start()
    try:
        return measure(args, speed)
    finally:
        if speed is not None:
            speed.stop()


def measure(args, speed) -> int:
    try:
        start = process_start()
    except (OSError, IndexError, ValueError):
        start = None
    import_tame3()
    import workloads
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    tracer = None
    if args.trace:
        tracer = Tracer()
        begin = tracer.mark()
        tracer.install()
    try:
        cls = workloads.WORKLOADS[args.workload]
        wl = cls(args.seed, workdir) if args.workload == "golden" else cls(args.seed)
        setup_s = since_start(start)
        setup_end = time.perf_counter()
        runner = Runner(wl, speed, tracer)
        plain: list[float] = []
        traced_walls: list[float] = []
        stretches: list[tuple[int, int, dict]] = []
        if tracer is not None:
            tracer.uninstall()
            stretches.append(stretch(tracer, begin))
        t_begin = time.perf_counter()
        r = 0
        while True:
            t_round = time.perf_counter()
            if tracer is not None and r % 2 == 1:
                begin = tracer.mark()
                tracer.install()
                traced_walls.append(runner.run_round(r))
                tracer.uninstall()
                stretches.append(stretch(tracer, begin))
            else:
                plain.append(runner.run_round(r))
            last = time.perf_counter() - t_round
            r += 1
            if tracer is not None and not traced_walls:
                continue
            if time.perf_counter() - t_begin + last > args.seconds:
                break

        result = {
            "correct": runner.correct,
            "attempted": runner.attempted,
            "failed": runner.failed,
        }
        if tracer is None:
            medians = runner.item_medians()
            metrics = {
                "setup_s": speed.scale(setup_end - setup_s, setup_end, setup_s),
                "wall_s": sum(medians),
                "item_ms_p50": 1000 * statistics.median(medians),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            result["metrics"] = {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END}
        else:
            metrics = layer_metrics(tracer, stretches)
            t_wall = statistics.median(traced_walls)
            metrics["trace.wall_s"] = {"value": t_wall, "unit": "s"}
            metrics["trace.overhead"] = {
                "value": t_wall / statistics.median(plain), "unit": "ratio",
            }
            result["metrics"] = metrics
            tracer.write(OUT / f"trace-{args.workload}.json")
        for problem in runner.errors:
            print(f"perfbench: {problem}", file=sys.stderr)
        print(f"perfbench: {args.workload} seed {args.seed}: {r} rounds, "
              f"{runner.attempted} operations, {runner.failed} failed", file=sys.stderr)
        (OUT / f"result-{args.workload}.json").write_text(json.dumps(result) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
