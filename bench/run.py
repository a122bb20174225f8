#!/usr/bin/env python3
"""Benchmark of knotbench, run from the root of a source checkout.

    python3 bench/run.py --workload signatures --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

A run repeats whole rounds of the workload's operations until --seconds
have passed, checks every result against bench/oracles.py, and prints as
its last line one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones (calls and self time per round), measured in a separate
run with the wrappers of bench/tracer.py installed.  All work happens in
this one process, apart from set-up samples and, on the cli workload,
one knotbench process per request, started one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("signatures", "torus", "grope_calculus", "cli")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
# Reported times are scaled to a reference speed of the machine: a
# shared virtual CPU runs the same code 20 % slower or faster for spells of
# about ten seconds, which spreads raw wall times of whole runs by an
# interquartile range of 12 % and more.  Each timed interval is multiplied
# by REFERENCE_LOOP_S / (mean time of speed_loop() sampled at its ends and,
# every SPEED_TICK_S, inside it).  REFERENCE_LOOP_S is about the loop's
# time on the 2.1 GHz machine the reference figures in README.md come from.
SPEED_LOOP_N = 20000
REFERENCE_LOOP_S = 0.0015
SPEED_TICK_S = 0.25


def speed_loop() -> float:
    """Seconds a fixed pure-Python loop takes at the current CPU speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(SPEED_LOOP_N):
        acc += i * i % 7
    return perf_counter() - t0


# The cli workload's requests mostly start an interpreter and import
# sympy, work that the machine's slow spells stretch unlike the loop
# above; its requests are scaled by the time of start_probe() instead.
REFERENCE_START_S = 0.3


def start_probe() -> float:
    """Seconds to start an interpreter that imports sympy."""
    t0 = perf_counter()
    # no timeout: with one, the wait for the exit polls in 50 ms steps
    subprocess.run([sys.executable, "-c", "import sympy"], check=True,
                   cwd=ROOT, env=_child_env())
    return perf_counter() - t0


def at_reference_speed(seconds: float, loop_before: float,
                       loop_after: float) -> float:
    return seconds * REFERENCE_LOOP_S * 2 / (loop_before + loop_after)


def _die(msg: str) -> None:
    sys.stderr.write(f"error: {msg}\n")
    sys.exit(2)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _import_program() -> None:
    """Import knotbench from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "knotbench", "__init__.py")):
        _die(f"no knotbench sources under {SRC}")
    sys.path.insert(0, SRC)
    import knotbench
    if os.path.dirname(os.path.abspath(knotbench.__file__)) != \
            os.path.join(SRC, "knotbench"):
        _die(f"knotbench imported from {knotbench.__file__}, not {SRC}")


def setup(workload: str, seed: int, spawn):
    """Imports, one warm-up factor_integer_poly call, and the inputs.

    Returns (workload, seconds at reference speed); the benchmark's own
    imports (numpy for the oracles) are not timed."""
    loop_before = speed_loop()
    t0 = perf_counter()
    import knotbench.cli  # noqa: F401  (the whole program, as users load it)
    import knotbench.diagrams  # noqa: F401
    import knotbench.gropes  # noqa: F401
    import knotbench.polynomials as polynomials
    import knotbench.rho  # noqa: F401
    polynomials.factor_integer_poly((1, -1, 1))
    t1 = perf_counter()
    import workloads
    t2 = perf_counter()
    wl = workloads.build(workload, random.Random(seed), spawn)
    seconds = (t1 - t0) + (perf_counter() - t2)
    return wl, at_reference_speed(seconds, loop_before, speed_loop())


def run_child(cmd: list):
    """Run cmd to its end; returns (exit code, stdout, stderr)."""
    with subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    return proc.returncode, out, err


def setup_probe(workload: str, seed: int) -> float:
    """One set-up sample in a fresh interpreter."""
    code, out, err = run_child([sys.executable, os.path.abspath(__file__),
                                "--workload", workload, "--seed", str(seed),
                                "--setup-probe"])
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()}")
    return float(out.split()[-1])


class Spawner:
    """Runs CLI requests through bench/launcher.py, one at a time.  While
    ``tracer`` is active, requests go through bench/cli_traced.py, whose
    aggregates are merged into it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.startup_s = []   # wall time minus time in cli.main, per request
        self.maxrss_kib = 0
        self._n = 0
        self._launcher = None

    def __call__(self, argv):
        if self._launcher is None:
            self._launcher = subprocess.Popen(
                [sys.executable, os.path.join(BENCH_DIR, "launcher.py")],
                cwd=ROOT, env=_child_env(), text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        traced = self.tracer is not None and self.tracer.active
        if not traced:
            cmd = [sys.executable, "-m", "knotbench.cli"] + argv
        else:
            self._n += 1
            trace = os.path.join(OUT_DIR, f"cli-{os.getpid()}-{self._n}.json")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_traced.py"),
                   trace] + argv
        t0 = perf_counter()
        self._launcher.stdin.write(json.dumps(cmd) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        wall = perf_counter() - t0
        self.maxrss_kib = reply["maxrss_kib"]
        if traced:
            with open(trace, encoding="utf-8") as fh:
                data = json.load(fh)
            os.remove(trace)
            self.tracer.merge(data)
            self.startup_s.append(wall - data["total_s"]["cli.main"])
        return reply["code"], reply["stdout"], reply["stderr"]

    def close(self) -> None:
        if self._launcher is not None:
            self._launcher.stdin.close()
            self._launcher.wait(timeout=CHILD_TIMEOUT_S)
            self._launcher.stdout.close()


def _checked(check, result) -> list:
    """[] when the check passes, else one line that starts "check failed"."""
    from oracles import CheckFailed

    try:
        check(result)
    except CheckFailed as e:
        return [f"check failed: {e}"]
    except Exception:  # a fault in the check itself also fails the run
        return [f"check failed: {traceback.format_exc()}"]
    return []


class SpeedClock:
    """Times operations at reference speed.

    ``probe()`` times a fixed piece of work that takes ``reference``
    seconds at the reference speed.  While entered with a ``tick``,
    SIGALRM runs the probe every ``tick`` seconds, so long operations are
    scaled by the speed sampled across them, not only at their ends; the
    time spent sampling is taken out of the operation.  Without one, only
    the ends are sampled: an operation that runs in a child process on
    the same CPU would slow the samples taken during it."""

    def __init__(self, tick=None, probe=speed_loop,
                 reference=REFERENCE_LOOP_S):
        self._tick_s = tick
        self._probe = probe
        self._reference = reference
        self._loops = []
        self._pause = 0.0
        self._last = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self._loops.append(self._probe())
        self._pause += perf_counter() - t0

    def __enter__(self):
        if self._tick_s:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self._tick_s, self._tick_s)
        return self

    def __exit__(self, *exc):
        if self._tick_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, run):
        """(run(), its duration in seconds at reference speed).  The loop
        timed after one operation serves as the one before the next."""
        if self._last is None:
            self._last = self._probe()
        self._loops = [self._last]
        self._pause = 0.0
        t0 = perf_counter()
        try:
            res = run()
        finally:
            dt = perf_counter() - t0 - self._pause
            self._last = self._probe()
        loops = self._loops + [self._last]
        return res, dt * self._reference / statistics.mean(loops)


def measure(wl, seconds: float, clock, tracer=None) -> dict:
    """Whole rounds until ``seconds`` have passed; only the operations
    themselves are timed (by ``clock``) and traced, never their checks."""
    times = []
    attempted = failed = rounds = 0
    problems = []
    wl.warmup()
    start = perf_counter()
    with clock:
        while rounds == 0 or perf_counter() - start < seconds:
            results = []
            for run, check in wl.ops:
                attempted += 1
                if tracer is not None:
                    tracer.active = True
                try:
                    res, dt = clock.time(run)
                except Exception:  # a failed operation; the round goes on
                    failed += 1
                    problems.append(traceback.format_exc())
                    results.append(None)
                    continue
                finally:
                    if tracer is not None:
                        tracer.active = False
                times.append(dt)
                results.append(res)
                problems += _checked(check, res)
            if None not in results:
                problems += _checked(wl.check_round, results)
            rounds += 1
    return {"times": times, "attempted": attempted, "failed": failed,
            "rounds": rounds, "problems": problems}


def layer_metrics(tracer, rounds: int, spawner) -> dict:
    from tracer import NAMES

    def per_round(x):
        exact = isinstance(x, int) and x % rounds == 0
        return x // rounds if exact else x / rounds

    out = {}
    for name in NAMES:
        out[f"{name}.calls"] = (per_round(tracer.calls[name]), "count")
        out[f"{name}.self_s"] = (tracer.self_s[name] / rounds, "s")
    calls = tracer.calls
    out["hermitian.refine_rounds"] = (per_round(
        calls["intervals.cos_2pi"]
        - calls["hermitian.interval_symmetric_signature"]), "count")
    canon = calls["diagrams.canonical_form"]
    out["diagrams.generators_per_canonical_call"] = (
        tracer.generators / canon if canon else 0.0, "ratio")
    out["cli.startup_s"] = (statistics.mean(spawner.startup_s)
                            if spawner.startup_s else 0.0, "s")
    return out


def run_workload(args) -> dict:
    _import_program()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload == "cli":
        # requests run one at a time on the CPU whose speed is sampled
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spawner = Spawner(tracer)
    wl, first_setup = setup(args.workload, args.seed, spawner)
    if tracer is not None:
        tracer.install()
        # per-layer times stay unscaled
        clock = SpeedClock(probe=lambda: 1.0, reference=1.0)
    elif args.workload == "cli":
        clock = SpeedClock(probe=start_probe, reference=REFERENCE_START_S)
    else:
        clock = SpeedClock(SPEED_TICK_S)
    try:
        m = measure(wl, args.seconds, clock, tracer)
    finally:
        spawner.close()
    for p in m["problems"][:5]:
        sys.stderr.write(p.rstrip() + "\n")

    if tracer is not None:
        metrics = layer_metrics(tracer, m["rounds"], spawner)
        path = os.path.join(OUT_DIR,
                            f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": m["rounds"], **tracer.dump()}, fh, indent=1)
    else:
        rss_kib = (spawner.maxrss_kib if args.workload == "cli" else
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        setups = [first_setup] + [setup_probe(args.workload, args.seed)
                                  for _ in range(SETUP_SAMPLES - 1)]
        times = m["times"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (rss_kib / 1024, "MiB"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "op_p50_ms": (statistics.median(times) * 1000, "ms"),
        }
    return {
        "correct": not any(p.startswith("check failed")
                           for p in m["problems"]),
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "rounds": m["rounds"],
    }


def print_result(workload: str, res: dict) -> None:
    print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {res['correct']}")
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        code, out, err = run_child(
            [sys.executable, os.path.abspath(__file__), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        sys.stderr.write(err)
        if code != 0:
            _die(f"workload {w} exited with {code}")
        res = json.loads(out.strip().splitlines()[-1])
        print_result(w, res)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] and not combined["failed"] else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        _import_program()
        print(setup(args.workload, args.seed, None)[1])
        return 0
    res = run_workload(args)
    rounds = res.pop("rounds")
    print_result(args.workload, res)
    print(f"  rounds {rounds}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
