"""Benchmark of the thetaforge command line, run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 50 --trace 0

Each command runs in a fresh interpreter, one after another: a closed loop
with one client.  A pass runs the workload's commands once; passes repeat
while another one fits in --seconds (at least one runs).  Every child gets a
wall-clock timeout and an address-space limit of its own, so a runaway
enumeration counts as a failed command.

--trace 0 reports the end-to-end metrics, medians over passes:
  wall_s       summed wall time of the pass's commands, spawn to exit
  setup_s      median over SETUP_STARTS bare `import thetaforge.cli` starts
  peak_rss_mb  largest max RSS of any command in the pass
--trace 1 alternates an untraced and a traced pass (perfbench/traced.py) and
reports the per-layer metrics of layers.py from the traced ones, plus
trace.overhead_ratio, traced over untraced pass wall time.

The last line of stdout is one JSON object; the lines before it repeat the
metrics by name with their units, with fail_ratio (failed over attempted).
"""

import argparse
import collections
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_STARTS = 11
COMMAND_TIMEOUT_S = 120      # per child, wall clock
RUN_DEADLINE_S = 170         # no child runs past this, from the run's start
ADDRESS_SPACE_BYTES = 2 << 30


def child_env():
    """The caller's environment without THETA_FORGE_* settings, and with
    bytecode caches on, as for any installed user."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("THETA_FORGE_")
           and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


Outcome = collections.namedtuple("Outcome",
                                 "returncode wall_s rss_mb timed_out")


def run_child(argv, stdout, timeout_s, address_space=ADDRESS_SPACE_BYTES):
    """Run argv to completion; kill it after timeout_s of wall time.

    The limits are set in the child only, between fork and exec.  The
    alarm interrupts os.wait4, whose retry then reaps the killed child.
    """
    cpu_s = int(timeout_s) + 5

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s))

    timed_out = []
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=subprocess.DEVNULL,
                            stdin=subprocess.DEVNULL, cwd=ROOT,
                            env=child_env(), preexec_fn=limit)

    def on_alarm(signum, frame):
        timed_out.append(True)
        os.kill(proc.pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                   bool(timed_out))


class Bench:
    def __init__(self, commands, workdir, deadline):
        self.commands = commands
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def _timeout(self):
        return min(COMMAND_TIMEOUT_S, self.deadline - time.perf_counter())

    def _command(self, index, command, traced):
        """Run one command; return (outcome, trace or None)."""
        self.attempted += 1
        out_path = os.path.join(self.workdir, "stdout%d" % index)
        trace_path = os.path.join(self.workdir, "trace%d.json" % index)
        argv = [sys.executable]
        argv += ([os.path.join(HERE, "traced.py"), trace_path] if traced
                 else ["-m", "thetaforge.cli"])
        argv += command.args
        timeout = self._timeout()
        if timeout <= 0:
            self.failed += 1
            print("run deadline reached before %s" % command.args,
                  file=sys.stderr)
            return None, None
        with open(out_path, "wb") as fh:
            outcome = run_child(argv, fh, timeout)
        problems = []
        if outcome.timed_out:
            problems.append("killed after %.0f s" % timeout)
        elif outcome.returncode != 0:
            problems.append("exit code %d" % outcome.returncode)
        else:
            try:
                with open(out_path, encoding="utf-8") as fh:
                    problems = command.check(json.loads(fh.read()))
            except (ValueError, KeyError, TypeError, IndexError,
                    AttributeError) as exc:
                problems = ["unreadable output: %r" % (exc,)]
        trace = None
        if traced and not problems:
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
        if problems:
            self.failed += 1
            print("FAILED %s: %s" % (" ".join(command.args),
                                     "; ".join(problems)), file=sys.stderr)
        return outcome, trace

    def run_pass(self, traced=False):
        """(summed wall, peak RSS, per-layer totals or None)."""
        wall, rss, totals = 0.0, 0.0, []
        for i, command in enumerate(self.commands):
            outcome, trace = self._command(i, command, traced)
            if outcome is not None:
                wall += outcome.wall_s
                rss = max(rss, outcome.rss_mb)
            if trace is not None:
                totals.append(layers.command_totals(trace))
        return wall, rss, layers.merge(totals) if traced else None

    def setup_starts(self):
        """Bare-import start times; one untimed start first, so that
        bytecode caches are written as they are for any installed user."""
        argv = [sys.executable, "-c", "import thetaforge.cli"]
        times = []
        for i in range(SETUP_STARTS + 1):
            self.attempted += 1
            outcome = run_child(argv, subprocess.DEVNULL, self._timeout())
            if outcome.returncode != 0:
                self.failed += 1
                print("FAILED import thetaforge.cli: exit code %d"
                      % outcome.returncode, file=sys.stderr)
            elif i:
                times.append(outcome.wall_s)
        return times


def measure(bench, seconds, traced):
    """Run passes until another would overrun `seconds`; with traced, each
    pass is an untraced and a traced pass of the commands."""
    start = time.perf_counter()
    plain, with_trace = [], []
    while True:
        plain.append(bench.run_pass())
        if traced:
            with_trace.append(bench.run_pass(traced=True))
        per_pass = (time.perf_counter() - start) / len(plain)
        if time.perf_counter() - start + per_pass > seconds:
            return plain, with_trace


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through run_child, which kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "thetaforge", "cli.py")):
        print("error: no thetaforge sources under %s" % ROOT, file=sys.stderr)
        return 2
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                               dir=work_root)
    try:
        commands = WORKLOADS[args.workload](args.seed, workdir)
        bench = Bench(commands, workdir,
                      time.perf_counter() + RUN_DEADLINE_S)
        metrics = {}
        if args.trace:
            plain, traced = measure(bench, args.seconds, traced=True)
            per_pass = [layers.layer_metrics(t) for _, _, t in traced]
            for name, _, _ in layers.PER_LAYER[:-1]:
                metrics[name] = _median([m[name] for m in per_pass])
            metrics["trace.overhead_ratio"] = (
                _median([w for w, _, _ in traced])
                / _median([w for w, _, _ in plain]))
            passes = len(traced)
        else:
            setup = bench.setup_starts()
            plain, _ = measure(bench, args.seconds, traced=False)
            metrics["wall_s"] = _median([w for w, _, _ in plain])
            metrics["setup_s"] = _median(setup)
            metrics["peak_rss_mb"] = _median([r for _, r, _ in plain])
            passes = len(plain)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("workload %s, seed %d, %d pass(es) of %d command(s)"
          % (args.workload, args.seed, passes, len(commands)))
    for name, value in metrics.items():
        print("%-40s %.6g %s" % (name, value, layers.UNITS[name]))
    print("%-40s %.6g ratio (%d of %d failed)"
          % ("fail_ratio", bench.failed / bench.attempted, bench.failed,
             bench.attempted))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": layers.UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
