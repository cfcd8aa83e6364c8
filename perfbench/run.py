#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload long-vgmap --seed 1 \
        --seconds 20 --trace 0

The first run builds the `pgb` CLI and the `perfbench` phase runner
from source into .bench_build/ (or $CARGO_TARGET_DIR). Inputs are
generated from --seed under .bench_work/ and removed afterwards. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json at --trace 0, and every
per-layer metric at --trace 1. The line before it is the machine and
build fingerprint; a copy of both goes to .bench_results/. A run whose
outputs fail the checks prints "correct": false and exits with 1.

    python3 perfbench/run.py --smoke-all

runs every workload at the smoke scale, untraced and traced, and exits
non-zero when any of them fails (the benchmark's own test).

    python3 perfbench/run.py --compare A.json B.json

prints each metric of record B against record A, and refuses (exit 3)
when their machine fingerprints or run settings differ.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

PHASE_TIMEOUT_S = 170
DAEMON_READY_TIMEOUT_S = 30
KIND = {
    "long-vgmap": "map",
    "short-giraffe": "map",
    "build-pggb": "build",
}
# Workloads whose traced run also serves their artifact with `pgb serve`
# as the serving run starts it: vg map profile, mapBatch width 2,
# default batching (256 reads / 2000 us).
SERVED = ("short-giraffe",)
SERVE_PROFILE = "vgmap"
SERVE_THREADS = 2
# Fingerprint fields that must match for two results to compare.
MACHINE_KEYS = ("cpu", "avx2", "avx512bw", "simd_level", "nproc",
                "threads", "build_type")


class BenchError(Exception):
    """A failure that ends the run without a result."""


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def load_thread_count():
    return max(1, min(os.cpu_count() or 1, 4))


def build(root, build_dir):
    """Configure once, then build the two binaries (a no-op when fresh)."""
    for needed in ("src/CMakeLists.txt", "tools/pgb.cpp",
                   "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            raise BenchError(f"{needed} is missing: run from the root "
                             "of a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", os.path.join(root, "perfbench"),
                   "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        run_logged(command)
    run_logged(["cmake", "--build", build_dir, "--target", "perfbench",
                "pgb", "-j", str(load_thread_count())])


def run_logged(command):
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise BenchError(f"{' '.join(command)} failed "
                         f"({result.returncode})")


def phase(binary, work, name, args, env):
    """Run one perfbench phase; return its JSON report."""
    result = subprocess.run([binary, name] + args, cwd=work, env=env,
                            stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, timeout=PHASE_TIMEOUT_S)
    if result.returncode != 0:
        raise BenchError(f"phase {name} failed ({result.returncode})")
    lines = result.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"phase {name} printed no report")
    return json.loads(lines[-1])


class Daemon:
    """`pgb serve` on a socket in the work directory."""

    def __init__(self, pgb, work, env):
        self.log_path = os.path.join(work, "serve.log")
        self.socket = "serve.sock"
        started = time.monotonic()
        with open(self.log_path, "w") as err:
            self.process = subprocess.Popen(
                [pgb, "serve", "--index", "graph.pgbi", "--socket",
                 self.socket, "--profile", SERVE_PROFILE, "--threads",
                 str(SERVE_THREADS)],
                cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=err)
        while True:
            with open(self.log_path) as err:
                if "serve: ready on" in err.read():
                    break
            if self.process.poll() is not None:
                raise BenchError("pgb serve exited before it was ready")
            if time.monotonic() - started > DAEMON_READY_TIMEOUT_S:
                self.stop()
                raise BenchError("pgb serve did not become ready")
            time.sleep(0.002)
        self.ready_s = time.monotonic() - started

    def stop(self):
        """SIGTERM, wait, and return the daemon's peak RSS in MiB."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            _, status, usage = os.wait4(self.process.pid, 0)
            self.process.returncode = os.waitstatus_to_exitcode(status)
        except ChildProcessError:
            return 0.0
        return usage.ru_maxrss / 1024.0


def run_serve(binary, pgb, work, args, env):
    """Start the daemon a few times (its ready time), load the last."""
    ready = []
    daemon = None
    try:
        for _ in range(3):
            if daemon:
                daemon.stop()
            daemon = Daemon(pgb, work, env)
            ready.append(daemon.ready_s)
        report = phase(binary, work, "loadgen",
                       args + ["--socket", daemon.socket], env)
    finally:
        peak = daemon.stop() if daemon else 0.0
    if daemon.process.returncode != 0:
        raise BenchError(f"pgb serve exited with "
                         f"{daemon.process.returncode}")
    report["serve.peak_rss_mb"] = peak
    report["serve.ready_s"] = statistics.median(ready)
    return report


def wait_for(process, what):
    """Reap @process within the phase timeout; return its rusage."""
    deadline = time.monotonic() + PHASE_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            process.returncode = os.waitstatus_to_exitcode(status)
            break
        if time.monotonic() > deadline:
            process.kill()
            os.wait4(process.pid, 0)
            raise BenchError(f"{what} timed out")
        time.sleep(0.01)
    if process.returncode != 0:
        raise BenchError(f"{what} failed ({process.returncode})")
    return usage


def build_peak_rss(pgb, work, env, threads):
    """`pgb build` once per chromosome, as PGGB is run, each in its own
    process; the median of their peak RSS in MiB."""
    peaks = []
    for name in sorted(os.listdir(work)):
        if not (name.startswith("chr") and name.endswith(".fa")):
            continue
        command = [pgb, "build", name, name[:-3] + ".gfa", "pggb",
                   "--threads", str(threads)]
        process = subprocess.Popen(command, cwd=work, env=env,
                                   stdout=subprocess.DEVNULL,
                                   stderr=sys.stderr)
        usage = wait_for(process, " ".join(command[1:3]))
        peaks.append(usage.ru_maxrss / 1024.0)
    if not peaks:
        raise BenchError("prepare wrote no assemblies")
    return statistics.median(peaks)


def source_digest(root):
    digest = hashlib.sha1()
    for top in ("src", "tools", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:12]


def git_revision(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none", False
    try:
        rev = subprocess.run(["git", "-C", root, "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", root, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True,
                               check=True).stdout.strip() != ""
        return rev, dirty
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False


def fingerprint(root, binary, build_dir, threads):
    """Machine and build identity; results compare only when
    `comparable` matches."""
    cpu, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and cpu == "unknown":
                    cpu = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    simd = subprocess.run([binary, "simd"], capture_output=True,
                          text=True).stdout.strip() or "unknown"
    build_type = "unknown"
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    rev, dirty = git_revision(root)
    machine = {
        "cpu": cpu,
        "avx2": "avx2" in flags,
        "avx512bw": "avx512bw" in flags,
        "simd_level": simd,
        "nproc": os.cpu_count(),
        "threads": threads,
        "build_type": build_type,
    }
    comparable = hashlib.sha1(
        json.dumps(machine, sort_keys=True).encode()).hexdigest()[:12]
    return dict(machine, git_rev=rev, git_dirty=dirty,
                source_digest=source_digest(root), comparable=comparable)


def run_workload(root, binary, pgb, args):
    """All phases of one run; returns the merged phase report.

    A traced run reports `trace.overhead_frac`: its wall time over the
    wall time of the same run without the per-layer calls and the
    serving run, which is what the untraced run does, minus 1."""
    threads = load_thread_count()
    env = dict(os.environ, PGB_THREADS=str(threads))
    base = os.path.join(root, ".bench_work")
    work = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]
    if args.smoke:
        common.append("--smoke")
    timed = common + ["--trace", "1" if args.trace else "0"]
    started = time.monotonic()
    try:
        prep = phase(binary, work, "prepare", common, env)
        report = phase(binary, work, KIND[args.workload], timed, env)
        if KIND[args.workload] == "build":
            report["peak_rss_mb"] = build_peak_rss(pgb, work, env, threads)
        extra_s = report.pop("trace.layers_s", 0.0)
        if args.trace and args.workload in SERVED:
            serve_started = time.monotonic()
            served = run_serve(binary, pgb, work, common, env)
            extra_s += time.monotonic() - serve_started
            for key in ("attempted", "failed"):
                report[key] += served.pop(key)
            ok = served.pop("outputs_ok") == 1 and report["outputs_ok"] == 1
            report["outputs_ok"] = 1 if ok else 0
            for key, value in served.items():
                report.setdefault(key, value)
        for key, value in prep.items():
            report.setdefault(key, value)
        if args.trace:
            untraced_s = time.monotonic() - started - extra_s
            report["trace.overhead_frac"] = extra_s / untraced_s
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass


def result_line(report, spec, trace):
    """The contract's result object for one run."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in report and not trace:
            raise BenchError(f"no value for end-to-end metric {name}")
        # A layer that does not run on this workload reports 0.
        metrics[name] = {"value": float(report.get(name, 0.0)),
                         "unit": metric["unit"]}
    return {
        "correct": report.get("outputs_ok") == 1,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


def run_one(root, binary, pgb, build_dir, spec, args):
    threads = load_thread_count()
    report = run_workload(root, binary, pgb, args)
    result = result_line(report, spec, args.trace)
    stamp = fingerprint(root, binary, build_dir, threads)
    record_dir = os.path.join(root, ".bench_results")
    os.makedirs(record_dir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": int(args.trace),
              "smoke": args.smoke, "fingerprint": stamp,
              "report": report, "result": result}
    name = (f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
            f"{'-smoke' if args.smoke else ''}.json")
    with open(os.path.join(record_dir, name), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return stamp, result


def compare(paths):
    """Print each metric of record B against record A, or refuse when
    the two were not measured the same way on the same machine."""
    records = []
    for path in paths:
        with open(path) as handle:
            records.append(json.load(handle))
    a, b = records
    differ = [key for key in MACHINE_KEYS
              if a["fingerprint"].get(key) != b["fingerprint"].get(key)]
    differ += [key for key in ("workload", "seconds", "trace", "smoke")
               if a.get(key) != b.get(key)]
    if differ:
        print("not comparable: the records differ in " + ", ".join(differ))
        return 3
    for name, metric in a["result"]["metrics"].items():
        before = metric["value"]
        after = b["result"]["metrics"].get(name, {}).get("value")
        if after is None:
            print(f"{name:32s} {before:14.6g} {'-':>14}")
            continue
        change = f"{(after - before) / before:+.1%}" if before else ""
        print(f"{name:32s} {before:14.6g} {after:14.6g} {change}")
    return 0


def smoke_all(root, binary, pgb, build_dir, spec, args):
    failures = 0
    for workload in KIND:
        for trace in (False, True):
            one = argparse.Namespace(workload=workload, seed=1,
                                     seconds=1.0, trace=trace, smoke=True)
            started = time.monotonic()
            try:
                _, result = run_one(root, binary, pgb, build_dir, spec, one)
                ok = result["correct"] and result["failed"] == 0
            except BenchError as error:
                log(error)
                ok = False
            failures += 0 if ok else 1
            log(f"smoke {workload} trace={int(trace)}: "
                f"{'ok' if ok else 'FAILED'} "
                f"({time.monotonic() - started:.1f} s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(KIND))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs that run in about a second")
    parser.add_argument("--smoke-all", action="store_true",
                        help="every workload at smoke scale, both modes")
    parser.add_argument("--build-dir",
                        default=os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two .bench_results records")
    args = parser.parse_args()
    if args.compare:
        return compare(args.compare)
    if not args.smoke_all and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        build_dir = os.path.join(root, args.build_dir)
        build(root, build_dir)
        binary = os.path.join(build_dir, "perfbench")
        pgb = os.path.join(build_dir, "pgb")
        if args.smoke_all:
            return smoke_all(root, binary, pgb, build_dir, spec, args)
        stamp, result = run_one(root, binary, pgb, build_dir, spec, args)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log(error)
        return 2
    print(json.dumps({"fingerprint": stamp}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
