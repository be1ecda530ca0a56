#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sb7-read-8t --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The program is built with dune into $CARGO_TARGET_DIR (default
.bench_build) inside the repository. Temporary files of the compiler and
of the program, and anything dune would keep per user, go there too, so
nothing outside the repository is written. The last line of standard
output is the result object; see README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["sb7-read-8t", "sb7-rw-256c", "service-zipf-8t"]
SOURCES = ["dune-project", "lib", os.path.join("perfbench", "dune")]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_root():
    """Absolute path of the build directory, inside the repository."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_group(cmd, timeout, env):
    """Run cmd in its own process group; kill the whole group on timeout.

    Every path out of here leaves no process of the group behind.
    """
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        errors="replace",
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        fail("%s timed out after %d s" % (cmd[0], timeout))
    except BaseException:
        kill_group(proc)
        raise
    return proc.returncode, out, err


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def private_env():
    """The environment for dune and the program.

    Compilers, the linker and dune write temporary files to TMPDIR, and
    dune reads and may write per-user state under the XDG directories.
    All of them point into the build directory, so a run needs no
    writable /tmp or home directory.
    """
    root = build_root()
    env = dict(os.environ)
    for var, sub in [("TMPDIR", "tmp"), ("XDG_CACHE_HOME", "xdg-cache"),
                     ("XDG_CONFIG_HOME", "xdg-config"),
                     ("XDG_DATA_HOME", "xdg-data"),
                     ("XDG_STATE_HOME", "xdg-state")]:
        path = os.path.join(root, sub)
        os.makedirs(path, mode=0o700, exist_ok=True)
        env[var] = path
    env["TMP"] = env["TEMP"] = env["TMPDIR"]
    return env


def build(target):
    missing = [s for s in SOURCES if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        fail("source tree incomplete, missing: " + ", ".join(missing), 2)
    if shutil.which("dune") is None:
        fail("dune not found on PATH", 2)
    build_dir = os.path.join(build_root(), "dune")
    os.makedirs(build_dir, exist_ok=True)
    env = private_env()
    env["DUNE_CACHE"] = "disabled"
    # One build at a time per build directory: dune refuses to start while
    # another dune holds the directory's lock.
    with open(os.path.join(build_root(), "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        code, out, err = run_group(
            ["dune", "build", "--root", ".", "--build-dir", build_dir,
             "--profile", "release", "./perfbench/" + target],
            BUILD_TIMEOUT_S,
            env,
        )
    if code != 0:
        sys.stderr.write(out + err)
        fail("build failed (dune exited %d)" % code)
    return os.path.join(build_dir, "default", "perfbench", target)


def run_env():
    env = private_env()
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    # The GC event ring lives in the build directory and is removed when the
    # process exits.  A traced pass writes about 40k words to it, and the
    # ring is drained at the end of the pass: 2^18 words leave six times
    # that.  Lost events are counted and reported.
    env["OCAML_RUNTIME_EVENTS_DIR"] = build_root()
    env["OCAMLRUNPARAM"] = "e=18"
    return env


def check_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(r, dict)
        and set(r) == {"correct", "attempted", "failed", "metrics"}
        and isinstance(r["attempted"], int)
        and r["attempted"] >= 1
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()

    if a.self_test:
        exe = build("selftest.exe")
        code, out, err = run_group(
            [exe, os.path.join(ROOT, "BENCHMARK.json")], 600, run_env())
        sys.stdout.write(out)
        sys.stderr.write(err)
        sys.exit(code)

    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        fail("need --workload, --seed, --seconds and --trace", 2)
    if a.seed < 0 or a.seconds <= 0:
        fail("need --seed >= 0 and --seconds > 0", 2)

    exe = build("main.exe")
    traces = os.path.join(build_root(), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [
        exe,
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
    ]
    if a.trace == 1:
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (a.workload, a.seed))]
    code, out, err = run_group(cmd, RUN_TIMEOUT_S, run_env())
    sys.stderr.write(err)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines or not check_result(lines[-1]):
        # The report goes to standard error, so that no result line is
        # printed and the cause shows in the error output.
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        how = ("killed by signal %d" % -code) if code < 0 else ("exited %d" % code)
        fail("main.exe %s without a valid result line" % how)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
