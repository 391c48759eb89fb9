#!/usr/bin/env python3
"""throughputlab benchmark driver.

Builds tputlab and the traced-run program (perfbench/trace) from the
checkout in the current directory, then runs one workload:

  campaign  tputlab report -stream -scale medium -tests 120000
            -corpus-out corpus.col -corpus-format columnar
  reload    tputlab report -corpus corpus.col, over the corpus set-up
            persisted with the campaign flags
  paper     tputlab run all -scale default

Every tputlab invocation runs alone, with -parallel 2 -genworkers 2. The
driver times it (net of host CPU steal), reads its CPU time and max RSS
from the child's rusage, and checks its stdout bytes. With --trace 1 it instead runs the
in-process mirror of the workload (perfbench/trace) and reports
per-layer self times and counts.

  python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it is the full record: environment, the
exact tputlab argument lists, every sample and any problem found.
--out FILE also appends that record to FILE, for compare.py.

Build output, the Go caches and scratch files go to .bench_build/ in the
checkout. See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("campaign", "reload", "paper")
WORKERS = ["-parallel", "2", "-genworkers", "2"]
CORPUS = "corpus.col"
TRACE_CORPUS = "trace.col"  # the traced campaign's corpus, compared with the CLI's

# Per profile, the (-scale, -tests) of the campaign corpus and the
# -scale of the paper sweep. "smoke" is the smallest scale, for
# selftest.py and for the warm-up invocations of the full profile.
PROFILES = {
    "full": {"campaign": ("medium", 120000), "paper": "default"},
    "smoke": {"campaign": ("small", 0), "paper": "small"},
}
SETUP_REPS = 3  # set-up repetitions behind setup_s
MIN_REPS = 3  # fewest measured invocations in a --trace 0 run
DEADLINE_S = 170  # the run gives up (without a result) after this long
ATTRIBUTION_SHARE = 0.05  # layer self times must cover all but this much of traced.wall_s


class Failure(Exception):
    """The run cannot produce a result."""


def campaign_args(profile, seed):
    scale, tests = PROFILES[profile]["campaign"]
    args = ["report", "-stream", "-scale", scale]
    if tests:
        args += ["-tests", str(tests)]
    return args + ["-corpus-out", CORPUS, "-corpus-format", "columnar", "-seed", str(seed)] + WORKERS


def reload_args():
    return ["report", "-corpus", CORPUS] + WORKERS


def paper_args(profile, seed):
    return ["run", "all", "-scale", PROFILES[profile]["paper"], "-seed", str(seed)] + WORKERS


def trace_args(workload, profile, seed):
    scale, tests = PROFILES[profile]["campaign"]
    if workload == "paper":
        scale, tests = PROFILES[profile]["paper"], 0
    return ["-workload", workload, "-scale", scale, "-tests", str(tests),
            "-seed", str(seed), "-corpus", TRACE_CORPUS if workload == "campaign" else CORPUS]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# The stratified experiment orders its groups and links by test count
# alone, over Go map iteration, so rows with equal counts print in either
# order from one invocation to the next. Its section is compared as a
# sorted list of lines; every other byte is compared as printed.
UNORDERED_SECTIONS = (b"stratified",)
SECTION = re.compile(rb"(?m)^(=== (\S+) .*\n)")


def stdout_sha256(stdout):
    """sha256 of stdout with each unordered section's lines sorted."""
    parts = SECTION.split(stdout)  # [preamble, header, name, body, header, name, body, ...]
    out = [parts[0]]
    for i in range(1, len(parts), 3):
        header, name, body = parts[i:i + 3]
        if name in UNORDERED_SECTIONS:
            body = b"".join(sorted(body.splitlines(keepends=True)))
        out += [header, body]
    return sha256(b"".join(out))


def host_steal_s():
    """CPU time the hypervisor gave to other guests while this machine's
    CPUs had work, summed over CPUs: the steal column of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def go_env(root):
    """Environment for go builds and children: every cache and temporary
    file stays under .bench_build in the checkout."""
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        # The go command keeps its telemetry counters under the user
        # config directory.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    return env


def build(root, env):
    bindir = os.path.join(root, ".bench_build", "bin")
    os.makedirs(bindir, exist_ok=True)
    tputlab = os.path.join(bindir, "tputlab")
    tracer = os.path.join(bindir, "perfbench-trace")
    for cmd, cwd in ((["go", "build", "-o", tputlab, "./cmd/tputlab"], root),
                     (["go", "build", "-o", tracer, "."], os.path.join(root, "perfbench", "trace"))):
        p = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if p.returncode != 0:
            raise Failure(f"{' '.join(cmd)} failed:\n{p.stdout.decode(errors='replace')}")
    return tputlab, tracer


def source_sha256(root):
    """Digest of the program's sources, which identifies the code in a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    files = [os.path.join(root, "go.mod")]
    for top in ("cmd", "internal"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(".go")]
    for path in files:
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return p.stdout.decode().strip() or None


class Invocation:
    def __init__(self, rc, wall, steal, cpu, rss_mb, stdout, stderr):
        self.rc, self.cpu, self.rss_mb = rc, cpu, rss_mb
        self.raw_wall, self.steal = wall, steal
        # On a virtual machine the hypervisor can stop a CPU while the
        # program has work for it; that time is the host's, not the
        # program's. wall is net of it, spread over the CPUs.
        self.wall = wall - steal / os.cpu_count()
        self.stdout, self.stderr = stdout, stderr
        self.sha = stdout_sha256(stdout)


class Runner:
    """Runs children one at a time and keeps the run's failure ledger."""

    def __init__(self, env, workdir, deadline):
        self.env, self.workdir, self.deadline = env, workdir, deadline
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def problem(self, msg):
        self.problems.append(msg)

    def spawn(self, argv):
        """Runs argv in the work directory, killing it at the deadline."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Failure("run deadline passed")
        out_path = os.path.join(self.workdir, "child.stdout")
        err_path = os.path.join(self.workdir, "child.stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            steal = host_steal_s()
            start = time.perf_counter()
            p = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(remaining, p.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
                p.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            steal = host_steal_s() - steal
        if time.monotonic() >= self.deadline:
            raise Failure(f"{argv[0]} killed at the run deadline")
        with open(out_path, "rb") as f:
            stdout = f.read()
        with open(err_path, "rb") as f:
            stderr = f.read()
        return Invocation(p.returncode, wall, steal, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, stdout, stderr)

    def invoke(self, argv, label, want_sha=None):
        """One counted invocation: it fails if it exits non-zero or, when
        want_sha is given, if its stdout hashes differently."""
        self.attempted += 1
        inv = self.spawn(argv)
        if inv.rc != 0:
            self.failed += 1
            tail = inv.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            self.problem(f"{label}: exit {inv.rc}: {tail[0]}")
        elif want_sha is not None and inv.sha != want_sha:
            self.failed += 1
            self.problem(f"{label}: stdout sha256 {inv.sha} != {want_sha}")
        return inv


def tests_from(inv, pattern):
    m = re.search(pattern, inv.stderr.decode(errors="replace"))
    return int(m.group(1)) if m else None


CAMPAIGN_TESTS = r"corpus: wrote \S+ \(\d+ chunks, (\d+) tests"
PAPER_TESTS = r"corpus: (\d+) tests"


class Workload:
    """One run of one workload: set-up, then the measured invocations
    (--trace 0) or the traced runs (--trace 1)."""

    def __init__(self, args, runner, tputlab, tracer, pins):
        self.args, self.r = args, runner
        self.tputlab, self.tracer = tputlab, tracer
        self.name, self.seed, self.profile = args.workload, args.seed, args.profile
        self.argv = {}
        self.samples = {}
        self.pins = pins

    def pin(self, profile, workload):
        """The pinned stdout sha256 for this seed, or None."""
        if self.seed != self.pins["seed"]:
            return None
        workload = "campaign" if workload == "reload" else workload
        return self.pins["stdout_sha256"][profile][workload]

    def invocations(self, args, label, want_sha, min_reps, seconds=0.0, after=None):
        """Invokes tputlab until min_reps invocations and seconds of their
        wall time have passed, calling after() following each. Every
        stdout must hash to want_sha or, without one, match the first."""
        invs, spent = [], 0.0
        while len(invs) < min_reps or spent < seconds:
            want = want_sha or (invs[0].sha if invs and invs[0].rc == 0 else None)
            inv = self.r.invoke([self.tputlab] + args, f"{label} #{len(invs) + 1}", want)
            invs.append(inv)
            spent += inv.raw_wall
            if after:
                after()
        return invs

    def corpus_sha(self, name):
        with open(os.path.join(self.r.workdir, name), "rb") as f:
            return sha256(f.read())

    # --- set-up ---------------------------------------------------------

    def setup(self, reps):
        """Set-up before measuring. reload persists its corpus with the
        campaign flags; campaign and paper warm up with their own command
        at the smallest scale. Returns the set-up invocations."""
        if self.name == "reload":
            args = campaign_args(self.profile, self.seed)
            self.argv["setup"] = args
            corpora = set()
            invs = self.invocations(args, "setup campaign", self.pin(self.profile, "campaign"), reps,
                                    after=lambda: corpora.add(self.corpus_sha(CORPUS)))
            if len(corpora) > 1:
                self.r.problem("setup: campaigns with one seed persisted different corpora")
            return invs
        args = (campaign_args if self.name == "campaign" else paper_args)("smoke", self.seed)
        self.argv["setup"] = args
        return self.invocations(args, "warm-up", self.pin("smoke", self.name), reps)

    # --- --trace 0 --------------------------------------------------------

    def run_measured(self):
        setup = self.setup(SETUP_REPS)
        if self.name == "campaign":
            args = campaign_args(self.profile, self.seed)
            invs = self.invocations(args, "campaign", self.pin(self.profile, "campaign"), MIN_REPS, self.args.seconds)
            tests = [tests_from(i, CAMPAIGN_TESTS) for i in invs]
            # The read side must reproduce the report from what was written.
            self.r.invoke([self.tputlab] + reload_args(), "reload check", invs[0].sha)
        elif self.name == "reload":
            args = reload_args()
            invs = self.invocations(args, "reload", self.pin(self.profile, "campaign") or setup[0].sha,
                                    MIN_REPS, self.args.seconds)
            tests = [tests_from(setup[0], CAMPAIGN_TESTS)] * len(invs)
        else:
            args = paper_args(self.profile, self.seed)
            invs = self.invocations(args, "paper", self.pin(self.profile, "paper"), MIN_REPS, self.args.seconds)
            tests = [tests_from(i, PAPER_TESTS) for i in invs]
        self.argv["measured"] = args
        if any(t is None for t in tests):
            raise Failure("could not read the corpus test count from tputlab's stderr")
        self.samples = {
            "setup_s": [i.wall for i in setup],
            "wall_s": [i.wall for i in invs],
            "raw_wall_s": [i.raw_wall for i in invs],
            "steal_s": [i.steal for i in invs],
            "cpu_s": [i.cpu for i in invs],
            "peak_rss_mb": [i.rss_mb for i in invs],
            "tests_per_s": [t / i.wall for t, i in zip(tests, invs)],
        }
        return {name: statistics.median(self.samples[name])
                for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "tests_per_s")}

    # --- --trace 1 --------------------------------------------------------

    def run_traced(self):
        """Runs the CLI once for reference bytes, then the in-process
        mirror until --seconds have passed; metrics are per-layer medians."""
        if self.name == "reload":
            self.setup(1)
            args = reload_args()
        elif self.name == "campaign":
            args = campaign_args(self.profile, self.seed)
        else:
            args = paper_args(self.profile, self.seed)
        self.argv["measured"] = args
        ref = self.r.invoke([self.tputlab] + args, f"{self.name} reference", self.pin(self.profile, self.name))
        ref_corpus = self.corpus_sha(CORPUS) if self.name == "campaign" else None
        targs = trace_args(self.name, self.profile, self.seed)
        self.argv["traced"] = targs
        reps, tries, spent = [], 0, 0.0
        while tries == 0 or spent < self.args.seconds:
            tries += 1
            label = f"traced {self.name} #{tries}"
            self.r.attempted += 1
            inv = self.r.spawn([self.tracer] + targs)
            spent += inv.raw_wall
            try:
                res = json.loads(inv.stdout)
            except ValueError:
                res = None
            if inv.rc != 0 or res is None:
                self.r.failed += 1
                self.r.problem(f"{label}: exit {inv.rc}: {inv.stderr.decode(errors='replace').strip()}")
                continue
            ok = True
            sha = stdout_sha256(res["stdout"].encode())
            if sha != ref.sha:
                ok = False
                self.r.problem(f"{label}: stdout sha256 {sha} != CLI {ref.sha}")
            if self.name == "campaign" and self.corpus_sha(TRACE_CORPUS) != ref_corpus:
                ok = False
                self.r.problem(f"{label}: corpus sha256 differs from the CLI's")
            m = res["metrics"]
            if abs(m["unattributed_s"]) > ATTRIBUTION_SHARE * m["traced.wall_s"]:
                ok = False
                self.r.problem(f"{label}: unattributed {m['unattributed_s']:.3f}s of {m['traced.wall_s']:.3f}s")
            if not ok:
                self.r.failed += 1
            reps.append(m)
        if not reps:
            raise Failure("no traced run succeeded")
        self.samples = {name: [m[name] for m in reps] for name in reps[0]}
        return {name: statistics.median(v) for name, v in self.samples.items()}


def environment(root, env, tracer):
    p = subprocess.run([tracer, "-env"], env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
    rt = json.loads(p.stdout)
    return {
        "gomaxprocs": rt["gomaxprocs"],
        "nproc": len(os.sched_getaffinity(0)),
        "go_version": rt["go_version"],
        "commit": git_commit(root),
        "source_sha256": source_sha256(root),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1, help="workload seed, passed to tputlab -seed")
    ap.add_argument("--seconds", type=float, default=20, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics from the CLI; 1: per-layer metrics from the traced run")
    ap.add_argument("--profile", choices=sorted(PROFILES), default="full",
                    help="smoke runs every workload at the smallest scale (selftest.py)")
    ap.add_argument("--out", help="also append the full record to this JSON-lines file")
    return ap.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed
    # and reaped before the driver exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "go.mod")) and os.path.isdir(os.path.join(root, "cmd", "tputlab"))):
        print("run.py: run from the root of a throughputlab checkout (no go.mod or cmd/tputlab here)", file=sys.stderr)
        return 2
    with open(os.path.join(BENCH_DIR, "pins.json")) as f:
        pins = json.load(f)
    env = go_env(root)
    try:
        tputlab, tracer = build(root, env)
        workdir = os.path.join(root, ".bench_build", "work", f"{args.workload}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            runner = Runner(env, workdir, time.monotonic() + DEADLINE_S)
            w = Workload(args, runner, tputlab, tracer, pins)
            metrics = w.run_traced() if args.trace else w.run_measured()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "profile": args.profile, "seconds": args.seconds,
            "env": environment(root, env, tracer),
            "tputlab_args": w.argv,
            "samples": w.samples,
            "problems": runner.problems,
        }
    except Failure as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    units = metric_units()
    result = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": units.get(name, "")} for name, v in sorted(metrics.items())},
    }
    record.update(result)
    for p in runner.problems:
        print(f"run.py: {p}", file=sys.stderr)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def metric_units():
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
