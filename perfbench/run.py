"""Benchmark of the loop collapser, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload run_small --seed 1 --seconds 15 --trace 0

One client process drives one workload in a closed loop: the next op
starts when the previous one returns.  The run sets up three times, each
into fresh private caches, and after each set-up executes whole rounds of
the workload's op multiset for a third of ``--seconds`` (and until at
least ``MIN_OPS`` ops ran).  Then it checks every distinct op
configuration once, untimed, against an independent reference.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # every run imports from source the same way
sys.path.insert(0, str(HERE))

from tracing import TraceAccountingError, Tracer, install_layers  # noqa: E402

#: a run keeps going past --seconds until it has this many timed ops, so
#: at least ten samples lie beyond the p90
MIN_OPS = 100
#: set-ups per run, each followed by a slice of the timed phase; setup_s
#: reports their median
SETUP_REPEATS = 3
#: traced runs interleave untraced rounds to state the tracing overhead
TRACE_EVERY = 2


def count_libraries(directory: Path) -> int:
    return sum(1 for _ in directory.glob("*.so")) if directory.is_dir() else 0


def peak_rss_mb() -> float:
    """Peak resident memory (``VmHWM``) of this process plus its live engine workers."""
    import multiprocessing

    def hwm_kb(pid) -> int:
        with open(f"/proc/{pid}/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

    pids = ["self"] + [child.pid for child in multiprocessing.active_children()]
    return sum(hwm_kb(pid) for pid in pids) / 1024.0


class Run:
    """One benchmark run: isolation, set-up, timed phase, checks, report."""

    def __init__(self, workload, scratch: Path, trace: bool):
        self.workload = workload
        self.scratch = scratch
        self.trace = trace
        self.ops = []
        #: untraced op times (in a traced run, those of the untraced rounds)
        self.latencies_ms: List[float] = []
        self.op_configs: List[str] = []
        self.raised: List[bool] = []
        self.tracer = Tracer() if trace else None
        self.cache_dir: Optional[Path] = None
        self.rng = random.Random(workload.seed)
        self.rounds = 0

    # -- isolation + set-up --------------------------------------------- #
    def _isolate(self, index: int) -> None:
        # a private .so cache keeps every set-up cold (cc runs in each), a
        # private profile store keeps adaptive cuts from earlier runs away
        self.cache_dir = self.scratch / f"native-cache-{index}"
        os.environ["REPRO_NATIVE_CACHE"] = str(self.cache_dir)
        os.environ["REPRO_PROFILE_DIR"] = str(self.scratch / f"profile-{index}")

    def setup_once(self, index: int) -> float:
        """One set-up into fresh private caches; returns its seconds."""
        from repro.core import clear_batch_cache, clear_collapse_cache
        from repro.native import clear_module_cache

        if index:
            self.ops = []  # the previous set-up's data must not pile up
            self.workload.teardown()
            clear_collapse_cache()
            clear_batch_cache()
            clear_module_cache()
        self._isolate(index)
        start = time.perf_counter()
        self.ops = self.workload.setup(self.workload.specs())
        return time.perf_counter() - start

    def measure(self, seconds: float, slices: int = SETUP_REPEATS) -> Tuple[float, float, int]:
        """Set up ``slices`` times, each followed by its share of the timed phase.

        Host speed swings on a scale of tens of seconds, so spreading the
        timed ops over the whole run, between the set-ups, samples more of
        it than one block would.  Returns the median set-up seconds, the
        timed wall seconds and the ``.so`` files created while timed.
        """
        setups, wall, cc_calls = [], 0.0, 0
        for index in range(slices):
            setups.append(self.setup_once(index))
            libraries = count_libraries(self.cache_dir)
            last = index == slices - 1
            wall += self.timed(seconds / slices, MIN_OPS if last else 0)
            cc_calls += count_libraries(self.cache_dir) - libraries
        return statistics.median(setups), wall, cc_calls

    # -- timed phase ------------------------------------------------------ #
    def _one(self, op, traced: bool) -> None:
        if op.prepare is not None:
            op.prepare()
        failed = False
        start = time.perf_counter_ns()
        try:
            if traced:
                self.tracer.run_op(op.run)
            else:
                op.run()
        except TraceAccountingError:
            raise  # a broken trace is the benchmark's fault, not a failed op
        except Exception:
            failed = True
            traceback.print_exc(file=sys.stderr)
        elapsed_ms = (time.perf_counter_ns() - start) / 1e6
        if traced and not failed and op.probe is not None:
            self.tracer.probe(lambda: op.probe(self.tracer))
        if not traced:
            self.latencies_ms.append(elapsed_ms)
        self.op_configs.append(op.spec.label)
        self.raised.append(failed)

    def timed(self, seconds: float, min_ops: int = MIN_OPS) -> float:
        """Whole rounds until ``seconds`` passed and the run has ``min_ops`` ops."""
        start = time.perf_counter()
        while True:
            traced = self.trace and self.rounds % TRACE_EVERY == 1
            if traced:
                install_layers(self.tracer, self.workload.kernels())
            try:
                for op in self.workload.order(self.ops, self.rng):
                    self._one(op, traced)
            finally:
                if traced:
                    self.tracer.uninstall()
            self.rounds += 1
            if time.perf_counter() - start >= seconds and len(self.op_configs) >= min_ops:
                return time.perf_counter() - start

    # -- correctness ---------------------------------------------------- #
    def check(self) -> Dict[str, bool]:
        """Each distinct op configuration once, untimed."""
        verdicts = {}
        for op in {op.spec: op for op in self.ops}.values():
            if op.prepare is not None:
                op.prepare()
            try:
                verdicts[op.spec.label] = bool(op.check(op.run()))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                verdicts[op.spec.label] = False
            if not verdicts[op.spec.label]:
                print(f"check failed: {op.spec.label}", file=sys.stderr)
        return verdicts


def failures(configs: List[str], raised: List[bool], verdicts: Dict[str, bool]) -> int:
    """Ops that raised, plus ops of a configuration whose output mismatched."""
    return sum(1 for config, bad in zip(configs, raised) if bad or not verdicts.get(config, False))


def layer_metrics(tracer, untraced_ms: List[float], cc_calls: int) -> Dict[str, float]:
    ops = max(1, tracer.ops)

    def ms(name: str) -> float:
        return tracer.layer_ns.get(name, 0) / ops / 1e6

    def per_op(name: str) -> float:
        return tracer.counts.get(name, 0) / ops

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    execute = ms("runtime.engine.execute")
    engine_substrate = tracer.counts.get("runtime.engine.substrate_ns", 0.0) / ops / 1e6
    run = ms("native.run")
    native_substrate = tracer.counts.get("native.substrate_ns", 0.0) / ops / 1e6
    traced_p50 = statistics.median(ns / 1e6 for ns in tracer.op_ns) if tracer.op_ns else 0.0
    untraced_p50 = statistics.median(untraced_ms) if untraced_ms else 0.0
    values = {
        "ir.parse_ms": ms("ir.parse"),
        "core.ranking_ms": ms("core.ranking"),
        "core.unranking_ms": ms("core.unranking"),
        "core.collapse_ms": ms("core.collapse"),
        "lint.overflow_ms": ms("lint.overflow"),
        "core.codegen_c_ms": ms("core.codegen_c"),
        "core.codegen_c.bytes": per_op("core.codegen_c.bytes"),
        "native.load_ms": ms("native.load"),
        "native.cc_calls": cc_calls,
        "runtime.plan_ms": ms("runtime.plan"),
        "runtime.plan.chunks_ms": ms("runtime.plan.chunks"),
        "kernels.make_data_ms": ms("kernels.make_data"),
        "runtime.shm.fill_ms": ms("runtime.shm.fill"),
        "runtime.shm.create_ms": ms("runtime.shm.create"),
        "runtime.shm.close_ms": ms("runtime.shm.close"),
        "runtime.shm.snapshot_ms": ms("runtime.shm.snapshot"),
        "runtime.shm.bytes_per_op": per_op("runtime.shm.bytes"),
        "runtime.engine.execute_ms": execute,
        "runtime.engine.substrate_ms": engine_substrate,
        "runtime.engine.dispatch_ms": execute - engine_substrate,
        "runtime.engine.chunks_per_op": per_op("runtime.engine.chunks"),
        "core.batch.recover_ms": ms("core.batch.recover"),
        "core.batch.exact_fix_share": ratio(
            tracer.counts.get("core.batch.exact_fixes", 0),
            tracer.counts.get("core.batch.iterations", 0),
        ),
        "native.run_ms": run,
        "native.substrate_ms": native_substrate,
        "native.call_ms": run - native_substrate,
        "native.recover_ms": ms("native.recover"),
        "native.recovery_share": ratio(ms("native.recover"), native_substrate),
        "native.recoveries_per_op": per_op("native.recoveries"),
        "runtime.profile.record_ms": ms("runtime.profile.record"),
        "runtime.profile.writes_per_op": per_op("runtime.profile.writes"),
        "runtime.session.run_ms": ms("runtime.session.run"),
        "runtime.session.unattributed_ms": tracer.unattributed_ns / ops / 1e6,
        "trace.op_ms_p50": traced_p50,
        "trace.overhead_ms": traced_p50 - untraced_p50,
        "trace.ops": tracer.ops,
    }
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = {m["name"]: m["unit"] for m in _declared_metrics(args.trace)}
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=scratch_root))
    # compilers and Python's tempfile write their temporaries here too, so
    # the run reads and writes nothing outside the checkout
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        return _run(args, scratch, units)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()  # only when no other run is using it
        except OSError:
            pass
        _stop_resource_tracker()


def _declared_metrics(trace: int) -> List[dict]:
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    return declared["per_layer" if trace else "end_to_end"]


def _stop_resource_tracker() -> None:
    # multiprocessing starts a shared-memory resource tracker for the
    # engine; stop it and wait for it so the run leaves no process behind
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:
        pass


def _run(args, scratch: Path, units: Dict[str, str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED

    run = Run(WORKLOADS[args.workload](args.seed), scratch, bool(args.trace))
    try:
        setup_s, wall, cc_calls = run.measure(args.seconds)
        setup_s += import_s
        rss = peak_rss_mb()
        verdicts = run.check()
    finally:
        run.workload.teardown()

    attempted = len(run.op_configs)
    failed = failures(run.op_configs, run.raised, verdicts)
    correct = failed == 0 and cc_calls == 0
    if cc_calls:
        print(f"cc ran {cc_calls} time(s) inside the timed phase", file=sys.stderr)
    if args.trace:
        values = layer_metrics(run.tracer, run.latencies_ms, cc_calls)
    else:
        values = {
            "op_ms_p50": statistics.median(run.latencies_ms),
            "op_ms_p90": statistics.quantiles(run.latencies_ms, n=10, method="inclusive")[-1],
            # closed loop, one client: ops per second spent inside ops
            "ops_per_s": 1000.0 * len(run.latencies_ms) / sum(run.latencies_ms),
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        }
    print(
        f"{args.workload}: {len(run.latencies_ms)} timed ops in {wall:.2f} s, "
        f"{len(verdicts)} configurations checked",
        file=sys.stderr,
    )
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


#: the environment every run executes in.  The collapse cost depends on
#: the iteration order of str-keyed sets, so on the hash seed: the same
#: cold plan takes 16 ms in one process and 31 ms in the next.  NumPy
#: asks for transparent huge pages for large arrays, and whether the
#: kernel has them free depends on the host's memory, so the same run's
#: peak RSS moved by tens of MB from one run to the next.
FIXED_ENV = {"PYTHONHASHSEED": "0", "NUMPY_MADVISE_HUGEPAGE": "0"}

if __name__ == "__main__":
    if any(os.environ.get(name) != value for name, value in FIXED_ENV.items()):
        os.environ.update(FIXED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])  # same process, fixed environment
    sys.exit(main())
