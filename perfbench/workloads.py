"""The four workloads: their seeded op multisets, set-up, ops and checks.

A workload is described in two steps.  ``specs(seed)`` is pure: it draws
the round's op multiset — kinds, sources, sizes, backends, schedules and
the random nests — from the seed alone, so a test can compare seeds
without running anything.  ``setup(specs)`` then materialises the ops:
it starts the session, compiles every translation unit into the run's
private cache, generates the caller data and runs each op once, so that
the timed phase finds every cache warm and ``cc`` never runs inside it.

Every op is checked, untimed, against an independent reference: the
kernel's hand-written ``reference_numpy`` for run workloads, the ``ir``
odometer for ``plan_cold``.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import ir, native, runtime
from repro.core import BatchStats, batch_recovery, clear_batch_cache, clear_collapse_cache
from repro.kernels import get_kernel, native_kernels
from repro.openmp.schedule import ScheduleSpec

#: the tolerance ``repro.kernels.verify_kernel`` gates kernels with
ATOL = 1e-9
#: engine workers and native team size: nothing oversubscribes two CPUs
WORKERS = 2
THREADS = 1


@dataclass(frozen=True)
class OpSpec:
    """One op configuration of a round, drawn from the seed."""

    kind: str                  # op kind: the seed never changes the mix of kinds
    source: str                # kernel name, or nest name for parsed nests
    parameters: Tuple[Tuple[str, int], ...]
    backend: str
    schedule: str
    text: Optional[str] = None  # nest source text (plan_cold parsed nests)

    @property
    def values(self) -> Dict[str, int]:
        return dict(self.parameters)

    @property
    def label(self) -> str:
        sizes = ",".join(f"{k}={v}" for k, v in self.parameters)
        return f"{self.kind}:{self.source}[{sizes}]:{self.backend}:{self.schedule}"


@dataclass
class Op:
    """A materialised op: ``run`` is timed, the rest is not."""

    spec: OpSpec
    run: Callable[[], object]
    check: Callable[[object], bool]
    prepare: Optional[Callable[[], None]] = None
    #: traced runs only: layer calls made after the op, outside its time
    probe: Optional[Callable[[object], None]] = None


def _params(values: Mapping[str, int]) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted((name, int(value)) for name, value in values.items()))


def _close(result: Mapping[str, np.ndarray], expected: Mapping[str, np.ndarray]) -> bool:
    return all(
        np.allclose(result[name], value, atol=ATOL) for name, value in expected.items()
    )


def seeded_data(kernel, values: Mapping[str, int], rng: np.random.Generator):
    """Caller data: the kernel's own generator output, each array scaled by a seeded factor.

    A scalar factor keeps every structural precondition of the kernel's
    data — zero patterns, symmetry, diagonal dominance — so each reference
    stays well defined while the values change with the seed.
    """
    return {
        name: np.ascontiguousarray(array * rng.uniform(0.5, 1.5))
        for name, array in kernel.make_data(values).items()
    }


# ---------------------------------------------------------------------- #
# random nests (plan_cold)
# ---------------------------------------------------------------------- #
#: the nests of the plan_cold pool: (family, a, extra) loop offsets.  The
#: offsets are fixed because the collapse cost follows them (a cubic nest
#: takes 50-100 ms depending on its offsets); the seed draws each nest's
#: body and size instead, which leave the cost alone
NESTS = (
    ("tri2", 1, 1), ("low2", 1, 1), ("tri2", 2, 1), ("low2", 2, 2), ("tri2", 1, 2),
    ("low2", 3, 1), ("tet3", 1, 1), ("pyr3", 0, 1), ("tet3", 2, 1), ("pyr3", 0, 2),
)


def _shift(name: str, offset: int) -> str:
    if offset == 0:
        return name
    return f"{name} {'+' if offset > 0 else '-'} {abs(offset)}"


def nest_text(family: str, a: int, extra: int, rng: random.Random) -> str:
    """One parsed nest with an array-assignment body; every range is non-empty."""
    b = a + extra  # b >= a keeps the innermost range non-empty at every size
    c1, c2 = rng.choice((0.5, 1.5, 2.0, 3.0)), rng.choice((0.25, 0.75, 1.25))
    if family == "tri2":
        loops = [
            "for (i = 0; i < N; i++)",
            f"  for (j = {_shift('i', a)}; j < {_shift('N', b)}; j++)",
        ]
        body = f"    c(i, j) = {c1} * a(i, j) + {c2} * b(j, i);"
    elif family == "low2":
        loops = [
            f"for (i = {a}; i < N; i++)",
            f"  for (j = 0; j <= {_shift('i', extra - a)}; j++)",
        ]
        body = f"    c(i, j) = {c1} * a(i, j) - {c2} * b(i, j);"
    elif family == "tet3":
        loops = [
            "for (i = 0; i < N; i++)",
            "  for (j = i; j < N; j++)",
            f"    for (k = {_shift('j', a)}; k < {_shift('N', b)}; k++)",
        ]
        body = f"      c(i, j, k) = {c1} * a(i, j) * b(j, k) + {c2};"
    elif family == "pyr3":
        loops = [
            "for (i = 0; i < N; i++)",
            "  for (j = 0; j <= i; j++)",
            f"    for (k = 0; k <= {_shift('j', extra)}; k++)",
        ]
        body = f"      c(i, j, k) = {c1} * a(i, k) + {c2} * b(j, k);"
    else:  # pragma: no cover - the nest table is fixed above
        raise ValueError(family)
    depth = len(loops)
    return "\n".join([f"#pragma omp parallel for collapse({depth}) schedule(static)", *loops, body])


# ---------------------------------------------------------------------- #
# the workloads
# ---------------------------------------------------------------------- #
class Workload:
    """Base: a seeded op multiset, its set-up, and the per-round order.

    ``specs()`` may list a configuration more than once; the round then
    runs it that many times.  Each distinct configuration is materialised
    and warmed once.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def specs(self) -> List[OpSpec]:
        raise NotImplementedError

    def start(self) -> None:
        """Per-set-up state (a session), before any op is made."""

    def make_op(self, index: int, spec: OpSpec) -> Op:
        raise NotImplementedError

    def setup(self, specs: List[OpSpec]) -> List[Op]:
        self.start()
        made: Dict[OpSpec, Op] = {}
        for spec in specs:
            if spec not in made:
                made[spec] = op = self.make_op(len(made), spec)
                if op.prepare is not None:
                    op.prepare()
                op.run()  # warm: compiles, registers and loads before timing
        return [made[spec] for spec in specs]

    def teardown(self) -> None:
        pass

    def order(self, ops: List[Op], rng: random.Random) -> List[Op]:
        """One round: every op of the multiset once, in a seeded order."""
        ops = list(ops)
        rng.shuffle(ops)
        return ops

    def kernels(self):
        """Kernels whose ``make_data`` the traced run wraps."""
        return []


class PlanCold(Workload):
    """Cold ``build_plan(native=True)``: the compile path, runtime idle."""

    name = "plan_cold"

    def specs(self) -> List[OpSpec]:
        rng = random.Random(self.seed)
        specs = [
            OpSpec("plan/kernel", k.name, _params(k.bench_parameters), "native", "static")
            for k in native_kernels()
        ]
        for index, (family, a, extra) in enumerate(NESTS):
            text = nest_text(family, a, extra, rng)
            specs.append(
                OpSpec(
                    f"plan/nest{family[-1]}", f"nest{index}_{family}",
                    (("N", rng.randint(24, 40)),), "native", "static", text,
                )
            )
        return specs

    def make_op(self, index: int, spec: OpSpec) -> Op:
        # set-up's warm run compiles the unit into the private .so cache;
        # every timed op then starts from cleared memos and hits that cache
        return Op(spec, run=self._runner(spec), check=self._checker(spec),
                  prepare=self._clear_memos)

    @staticmethod
    def _clear_memos() -> None:
        clear_collapse_cache()
        clear_batch_cache()
        native.clear_module_cache()
        # collect the dropped plans now, untimed: every op then starts from
        # the same collector state instead of paying for its predecessors
        gc.collect()

    @staticmethod
    def _runner(spec: OpSpec) -> Callable[[], object]:
        values = spec.values
        if spec.text is None:
            kernel = get_kernel(spec.source)
            return lambda: runtime.build_plan(kernel, values, schedule="static", native=True)

        def parse_and_plan():
            nest, pragma = ir.parse_loop_nest(spec.text, ("N",), spec.source)
            return runtime.build_plan(
                nest, values, schedule="static", depth=pragma.collapse, native=True
            )

        return parse_and_plan

    @staticmethod
    def _checker(spec: OpSpec) -> Callable[[object], bool]:
        def check(plan) -> bool:
            collapsed = plan.collapsed
            values = spec.values
            expected = list(ir.enumerate_iterations(collapsed.nest, values, collapsed.depth))
            total = len(expected)
            if plan.total_iterations != total or total == 0:
                return False
            rng = random.Random(spec.label)
            pcs = sorted({1, total, *(rng.randint(1, total) for _ in range(62))})
            want = np.array([expected[pc - 1] for pc in pcs], dtype=np.int64)
            batch = batch_recovery(collapsed).recover_pcs(np.array(pcs), values)
            lib = plan.native_spec
            module = native.NativeModule(
                collapsed, source="", library_path=lib.library_path, arrays=lib.arrays,
                schedule=ScheduleSpec.parse("static"), array_ndims=lib.array_ndims,
            )
            compiled = np.concatenate([module.recover_range(pc, pc, values) for pc in pcs])
            return (
                module.total(values) == total
                and np.array_equal(batch, want)
                and np.array_equal(compiled, want)
            )

        return check


class _SessionWorkload(Workload):
    """Workloads running through one ``RuntimeSession`` with 2 workers."""

    #: configurations listed twice per round: the slowest cost class then
    #: holds ~18% of the ops, so the p90 falls inside it rather than on
    #: the edge between two classes, where it would jump between them
    DOUBLED: Tuple[str, ...] = ()

    def __init__(self, seed: int):
        super().__init__(seed)
        self.session: Optional[runtime.RuntimeSession] = None

    def start(self) -> None:
        self.session = runtime.RuntimeSession(workers=WORKERS)
        self.session.engine.start()

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def _weighted(self, specs: List[OpSpec]) -> List[OpSpec]:
        return [
            repeat for spec in specs
            for repeat in [spec] * (2 if spec.source in self.DOUBLED else 1)
        ]

    def _run_op(self, spec: OpSpec, data=None, probe=None) -> Op:
        kernel = get_kernel(spec.source)
        values = spec.values
        threads = THREADS if spec.backend == "native" else None
        session = self.session

        def run():
            return session.run(
                kernel, values, data=data, schedule=spec.schedule, backend=spec.backend,
                threads=threads,
            )

        def check(result):
            initial = kernel.make_data(values) if data is None else data
            return _close(result, kernel.reference_numpy(initial, values))

        return Op(spec, run=run, check=check, probe=probe)


class RunSmall(_SessionWorkload):
    """Steady-state hot path: session-owned buffers, hybrid and native."""

    name = "run_small"
    DOUBLED = ("cholesky_update",)

    def specs(self) -> List[OpSpec]:
        return self._weighted([
            OpSpec(f"run/{backend}", k.name, _params(k.bench_parameters), backend, "static")
            for k in native_kernels()
            for backend in ("hybrid", "native")
        ])

    def order(self, ops: List[Op], rng: random.Random) -> List[Op]:
        # strict hybrid/native alternation, each over a seeded kernel order
        by_backend = {b: [op for op in ops if op.spec.backend == b] for b in ("hybrid", "native")}
        for group in by_backend.values():
            rng.shuffle(group)
        return [op for pair in zip(by_backend["hybrid"], by_backend["native"]) for op in pair]

    def kernels(self):
        return native_kernels()

    def make_op(self, index: int, spec: OpSpec) -> Op:
        # data=None: the session re-fills its own buffers from make_data
        return self._run_op(spec)


class EngineRecover(_SessionWorkload):
    """NumPy batch recovery: engine runs of utma on fresh caller data."""

    name = "engine_recover"
    #: plain ``static`` hands each worker one 250k-iteration chunk whose
    #: temporaries page-fault afresh every op (1.6x op-to-op spread); a
    #: chunk size keeps the same static assignment steady
    SCHEDULES = ("static,65536", "dynamic,32768", "guided")
    #: each schedule runs at N = 1000 + d and 1000 - d, so the seed moves
    #: the sizes but hardly the work of a round
    SPREAD = 16

    def specs(self) -> List[OpSpec]:
        rng = random.Random(self.seed)
        specs = []
        for schedule in self.SCHEDULES:
            offset = rng.randint(0, self.SPREAD)
            for size in (1000 + offset, 1000 - offset):
                specs.append(OpSpec("recover/engine", "utma", (("N", size),), "engine", schedule))
        return specs

    def make_op(self, index: int, spec: OpSpec) -> Op:
        rng = np.random.default_rng([self.seed, index])
        data = seeded_data(get_kernel("utma"), spec.values, rng)
        return self._run_op(spec, data=data, probe=_batch_probe)


def _batch_probe(tracer) -> None:
    """Re-run the op's chunks through ``BatchRecovery`` in this process.

    The engine recovers inside its workers, which the tracer cannot see;
    recovering the same chunks here times the same NumPy layer and counts
    its exact-fix share.
    """
    plan, result = tracer.last_execute
    recovery = batch_recovery(plan.collapsed)
    stats = BatchStats()
    for chunk in result.chunks:
        recovery.recover_range(chunk.first, chunk.last, plan.parameter_values, stats)
    tracer.counts["core.batch.iterations"] += stats.iterations
    tracer.counts["core.batch.exact_fixes"] += stats.exact_fixes


class NativeRecover(_SessionWorkload):
    """Generated-C recovery: per-iteration recovery under dynamic,1 and guided."""

    name = "native_recover"
    KERNELS = ("covariance", "symm", "cholesky_update", "lu_update", "utma")
    SCHEDULES = ("dynamic,1", "guided")
    DOUBLED = ("utma",)

    def specs(self) -> List[OpSpec]:
        return self._weighted([
            OpSpec(
                "recover/native", name, _params(get_kernel(name).default_parameters),
                "native", schedule,
            )
            for name in self.KERNELS
            for schedule in self.SCHEDULES
        ])

    def make_op(self, index: int, spec: OpSpec) -> Op:
        kernel = get_kernel(spec.source)
        values = spec.values
        data = seeded_data(kernel, values, np.random.default_rng([self.seed, index]))
        module = native.compile_native_kernel(kernel, schedule=spec.schedule)

        def probe(tracer):
            module.recover_range(1, module.total(values), values)

        return self._run_op(spec, data=data, probe=probe)


WORKLOADS = {w.name: w for w in (PlanCold, RunSmall, EngineRecover, NativeRecover)}
