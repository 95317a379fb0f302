#!/usr/bin/env python3
"""Pelican benchmark: builds the stack from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds
pelican_perfbench (Release) under .bench_build/; later runs only check that
the build is current. The benchmark binary runs in its own process group
under a wall-clock watchdog: on expiry the group (the binary and its
pelican_engined processes) is killed and the run is reported as failed with
the counts it had reached. Engines are also started with a parent-death
signal, so killing the binary or this script never leaves one behind.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are BENCHMARK.json's end_to_end set,
measured with instrumentation off; with --trace 1 they are its per_layer
set, from a run with router instrumentation on and benchmark trace ids on
every request (spans go to .bench_out/). perfbench/workloads.json records
why each workload exists, which layers it stresses and bypasses, and which
per-layer metrics it cannot measure (reported as 0). A traced run may add a
second workload ("traced_run_adds"): fleet_uniform's adds privacy_audit,
which BENCHMARK.json does not list, so that the attack, model and audit-side
nn layers are measured in every traced run of the benchmark.

Exit code: 0 when every correctness check passed, 1 when a check failed or
the watchdog fired, 2 when the benchmark could not be built or run.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "pelican_perfbench"
WORK_ROOT = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_out"
# The binary (both binaries of a run, when its traced run adds a second
# workload) must finish well inside the 180 s a run may take.
WATCHDOG_S = 150.0
RESULT_PREFIX = "PERFBENCH_RESULT "


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no Pelican source tree at {ROOT}; cannot build the benchmark")
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j4",
                  "--target", "pelican_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return BINARY.is_file()


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def kill_group(pgid):
    """SIGKILLs the whole group and waits until no member is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def read_progress(path):
    try:
        attempted, failed = path.read_text(encoding="utf-8").split()
        return int(attempted), int(failed)
    except (OSError, ValueError):
        return 0, 0


def execute(args, watchdog_s=WATCHDOG_S, on_start=None):
    """Runs the binary for one workload.

    Returns (exit code, parsed result or None, watchdog fired, progress,
    human-readable lines). Those lines are also forwarded to stdout.
    """
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work)]
    if args.trace:
        command += ["--spans-out", str(
            SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    if args.small:
        command.append("--small")
    if args.perturb:
        command += ["--perturb", args.perturb]

    result_line = []
    text = []

    def forward(stream):
        for line in stream:
            if line.startswith(RESULT_PREFIX):
                result_line.append(line[len(RESULT_PREFIX):])
            else:
                text.append(line)
                sys.stdout.write(line)
        sys.stdout.flush()

    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    pgid = process.pid

    def terminate(signum, _frame):
        kill_group(pgid)
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(128 + signum)

    previous = {sig: signal.signal(sig, terminate)
                for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)}
    reader = threading.Thread(target=forward, args=(process.stdout,))
    reader.start()
    if on_start is not None:
        on_start(process)
    fired = False
    try:
        code = process.wait(timeout=watchdog_s)
    except subprocess.TimeoutExpired:
        fired = True
        log(f"watchdog: {args.workload} exceeded {watchdog_s:.0f} s; killing "
            "the run and its engines")
        kill_group(pgid)
        code = process.wait()
    progress = read_progress(work / "progress")
    # Anything left in the group (an engine whose parent died) goes too.
    kill_group(pgid)
    reader.join()
    for sig, handler in previous.items():
        signal.signal(sig, handler)
    shutil.rmtree(work, ignore_errors=True)
    result = None
    if result_line:
        try:
            result = json.loads(result_line[-1])
        except json.JSONDecodeError:
            result = None
    return code, result, fired, progress, text


def measure(args, workloads):
    """Runs one workload, and for a traced run also the workload that its
    entry in workloads.json names under "traced_run_adds", whose per-layer
    metrics it then reports too. Returns what execute() returns; a merged
    result passes only if both runs passed."""
    start = time.monotonic()
    code, result, fired, progress, text = execute(args)
    adds = workloads["workloads"][args.workload].get("traced_run_adds")
    if not args.trace or adds is None or fired or result is None:
        return code, result, fired, progress, text
    extra = argparse.Namespace(**{**vars(args), "workload": adds["workload"],
                                  "seconds": adds["seconds"]})
    budget = max(5.0, WATCHDOG_S - (time.monotonic() - start))
    code2, result2, fired2, progress2, text2 = execute(extra, watchdog_s=budget)
    progress = (progress[0] + progress2[0], progress[1] + progress2[1])
    if fired2 or result2 is None:
        return code2 if code2 else 2, None, fired2, progress, text + text2
    merged = {"correct": bool(result["correct"] and result2["correct"]),
              "attempted": int(result["attempted"]) + int(result2["attempted"]),
              "failed": int(result["failed"]) + int(result2["failed"]),
              "metrics": {**result2["metrics"], **result["metrics"]}}
    return max(code, code2), merged, False, progress, text + text2


def select_metrics(result, workload, trace, spec, workloads):
    """The declared metric set for this mode, with declared units.

    Returns (metrics, problems)."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    not_measured = set(workloads["workloads"][workload]["not_measured"])
    measured = result.get("metrics", {})
    selected = {}
    problems = []
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                problems.append(f"{name}: unit {measured[name]['unit']} "
                                f"!= declared {unit}")
            selected[name] = {"value": measured[name]["value"], "unit": unit}
        elif trace and name in not_measured:
            selected[name] = {"value": 0, "unit": unit}
        else:
            problems.append(f"{name}: not measured")
    return selected, problems


def run_once(args):
    """One benchmark run: prints the result line, returns the exit code."""
    spec = load_json(ROOT / "BENCHMARK.json")
    workloads = load_json(HERE / "workloads.json")
    if args.workload not in workloads["workloads"]:
        log(f"unknown workload {args.workload}")
        return 2
    code, result, fired, (attempted, failed), _ = measure(args, workloads)
    if fired:
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 1
    if result is None or code not in (0, 1):
        log(f"benchmark binary exited with code {code} and no result")
        return 2
    metrics, problems = select_metrics(result, args.workload, args.trace,
                                       spec, workloads)
    for problem in problems:
        log("metric check failed: " + problem)
    correct = bool(result["correct"]) and code == 0 and not problems
    print(json.dumps({"correct": correct,
                      "attempted": max(int(result["attempted"]), 1),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def pids_with(work_marker, flag):
    """Pids of live processes whose command line holds `work_marker` and
    `flag` (engines: --listen; benchmark binaries: --work-dir)."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:
            continue
        if work_marker.encode() in cmdline and flag.encode() in cmdline:
            pids.append(int(entry.name))
    return pids


def selftest():
    """Small-size checks of the benchmark itself. Exit code 0 = all pass."""
    spec = load_json(ROOT / "BENCHMARK.json")
    workloads = load_json(HERE / "workloads.json")
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    def small(workload, trace=0, perturb="", seed=1, seconds=3):
        return argparse.Namespace(workload=workload, seed=seed,
                                  seconds=seconds, trace=trace, small=True,
                                  perturb=perturb)

    def fingerprint(text):
        return [line for line in text if "stream fingerprint" in line]

    def leakage(result):
        return {name: value for name, value in result["metrics"].items()
                if name.startswith("attack.leak_top3.")}

    # 1. Every workload emits every declared metric, with its unit, in both
    #    modes, and passes its checks. The seed fixes the request stream:
    #    the same seed repeats it, another seed changes it, and the metric
    #    set stays the same.
    for workload in workloads["workloads"]:
        for trace in (0, 1):
            code, result, _, _, text = measure(small(workload, trace),
                                               workloads)
            check(code == 0 and result is not None and result["correct"],
                  f"{workload} trace={trace}: runs and passes its checks")
            if result is not None:
                _, problems = select_metrics(result, workload, trace, spec,
                                             workloads)
                check(not problems, f"{workload} trace={trace}: every "
                      f"declared metric with its unit {problems or ''}")
            if trace == 0:
                first, first_text = result, text
        _, again, _, _, again_text = execute(small(workload))
        _, other, _, _, other_text = execute(small(workload, seed=2))
        check(bool(fingerprint(first_text)) and
              fingerprint(first_text) == fingerprint(again_text) and
              fingerprint(first_text) != fingerprint(other_text),
              f"{workload}: seed 1 repeats its request stream, seed 2 "
              "draws another")
        check(None not in (first, other) and
              set(first["metrics"]) == set(other["metrics"]),
              f"{workload}: seed 2 reports the same metric set")
        if workload == "privacy_audit":
            check(None not in (first, again) and leakage(first) and
                  leakage(first) == leakage(again),
                  f"{workload}: two runs of seed 1 leak the same top-3 "
                  f"shares {leakage(first) if first else ''}")

    # 2. A perturbed reference, or a perturbed leakage in later time-based
    #    passes, fails the matching check.
    for workload, trace, perturb in (("fleet_uniform", 0, "flip_id"),
                                     ("fleet_hot_publish", 0, "stale_version"),
                                     ("privacy_audit", 0, "serial_score"),
                                     ("privacy_audit", 0, "leak"),
                                     ("fleet_uniform", 1, "serial_score")):
        code, result, _, _, _ = measure(small(workload, trace, perturb),
                                        workloads)
        check(code == 1 and result is not None and not result["correct"],
              f"{workload} trace={trace} with perturbed reference "
              f"({perturb}) fails")

    # 3. The watchdog kills an overlong run and its engines.
    args = small("fleet_uniform", seconds=30)
    marker = str(WORK_ROOT / f"fleet_uniform-1-{os.getpid()}")
    _, _, fired, progress, _ = execute(args, watchdog_s=4.0)
    check(fired and not pids_with(marker, "--listen"),
          f"watchdog fired, partial counts {progress}, no engine left")

    # 4. SIGKILL of the benchmark binary: its engines die with it (parent-
    #    death signal), before this script reaps the process group.
    before, left = [], []

    def kill_binary_later(process):
        def act():
            time.sleep(3.0)
            before.extend(pids_with(marker, "--listen"))
            os.kill(process.pid, signal.SIGKILL)
            time.sleep(1.0)
            left.extend(pids_with(marker, "--listen"))
        threading.Thread(target=act, daemon=True).start()

    code, _, _, _, _ = execute(args, on_start=kill_binary_later)
    time.sleep(1.5)
    check(code != 0 and len(before) == 2 and not left,
          f"SIGKILL of the benchmark binary takes its {len(before)} engines "
          f"with it {left or ''}")

    # 5. SIGKILL of this script: the binary and its engines die with it.
    runner = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         "fleet_uniform", "--seed", "7", "--seconds", "30", "--small"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    marker7 = str(WORK_ROOT / f"fleet_uniform-7-{runner.pid}")
    time.sleep(4.0)
    engines = pids_with(marker7, "--listen")
    runner.kill()
    runner.wait()
    time.sleep(1.5)
    check(len(engines) == 2 and not pids_with(marker7, "--listen") and
          not pids_with(marker7, "--work-dir"),
          f"SIGKILL of run.py takes the benchmark binary and its "
          f"{len(engines)} engines with it")
    shutil.rmtree(marker7, ignore_errors=True)

    print(f"selftest: {len(failures)} failure(s)")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the benchmark itself at a small size")
    parser.add_argument("--small", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--perturb", default="", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not build():
        return 2
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
