#!/usr/bin/env python3
"""Cold-cache figure-regeneration benchmark (see README.md).

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --check-guard

Run from the repository root (the script finds the root from its own
location). The first run builds the simulator, the six figure
harnesses and e2e_probe from source into .e2ebench/build.

--trace 0 times the workload's unmodified bench/fig* harnesses as child
processes, each pass from an empty private run cache, and prints the
end-to-end metrics. --trace 1 makes the same passes, then a traced
in-process replay (e2e_probe trace) and prints the per-layer metrics.
The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Any failed correctness
check makes "correct" false and the exit code 1.

--check-guard runs fig30_spec_ooo twice on one run cache and exits 0
only if the cold-cache guard rejects the second, pre-filled pass.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".e2ebench")
BUILD = os.path.join(WORK, "build")

# Overall deadline for one run after the build, below the 180 s limit.
RUN_DEADLINE_S = 160.0
SETUP_REPEATS = 31

# Each workload: its harnesses with the [runner] split each must show
# from an empty cache (points, simulated, cached), the DESC_SIM_SCALE
# its harnesses run at, and instructions every point must retire
# (per-thread budget after scaling, times hardware threads).
WORKLOADS = {
    "fig16_schemes": {
        "harnesses": [("fig16_scheme_energy", 128, 128, 0)],
        "scale": 0.5,
        "insts_per_point": int(40_000 * 0.5) * 32,
    },
    "fig28_ecc": {
        "harnesses": [("fig28_ecc_time", 64, 64, 0)],
        "scale": 0.375,
        "insts_per_point": int(40_000 * 0.375) * 32,
    },
    "design_sweeps": {
        "harnesses": [("fig15_segment_sweep", 168, 168, 0),
                      ("fig22_design_scatter", 296, 280, 16),
                      ("fig27_cache_size", 136, 120, 16)],
        "scale": 1.0,
        "insts_per_point": 15_000 * 32,
    },
    "fig30_ooo": {
        "harnesses": [("fig30_spec_ooo", 16, 16, 0)],
        "scale": 1.0,
        "insts_per_point": 160_000,
    },
}

RUNNER_RE = re.compile(
    r"^\[runner\] (\d+) points: (\d+) simulated, (\d+) cached", re.M)


class BenchError(Exception):
    """A check failed; the run is reported incorrect."""


def log(msg):
    print(msg, flush=True)


def die(msg, code=2):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(jobs):
    """Configure (once) and build the benchmark's targets."""
    os.makedirs(WORK, exist_ok=True)
    log_path = os.path.join(WORK, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(jobs)])
    with open(log_path, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=out,
                                    timeout=840).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                die(f"build step {cmd[:2]} failed: {e}", 1)
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                die(f"build failed (see {log_path}):\n{tail}", 1)


def clean_env(extra):
    """The parent environment minus every inherited DESC_* knob."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DESC_")}
    env.update(extra)
    return env


def run_child(cmd, env, cwd, stdout_path, stderr_path, timeout):
    """Run one child; returns (exit code, wall seconds, max RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out,
                                stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def read(path):
    with open(path, "rb") as f:
        return f.read()


def harness_pass(spec, jobs, pass_dir, deadline, cache_dir=None):
    """One cold-cache pass over the workload's harnesses.

    Returns a dict of the pass's measurements, with the points that
    retired the wrong instruction count in "bad_points"; raises
    BenchError on any other failed check. All harnesses share one
    fresh, private run cache.
    """
    os.makedirs(pass_dir)
    cache_dir = cache_dir or os.path.join(pass_dir, "cache")
    manifest = os.path.join(pass_dir, "manifest.jsonl")
    env = clean_env({
        "DESC_SIM_CACHE_DIR": cache_dir,
        "DESC_SIM_JOBS": str(jobs),
        "DESC_RUN_MANIFEST": manifest,
        "DESC_SIM_SCALE": repr(spec["scale"]),
    })

    result = {"harness_wall": {}, "stdout": [], "rss_mb": 0.0,
              "split": [0, 0, 0]}
    start = time.perf_counter()
    for name, points, *_ in spec["harnesses"]:
        out = os.path.join(pass_dir, name + ".out")
        err = os.path.join(pass_dir, name + ".err")
        rc, wall, rss = run_child(
            [os.path.join(BUILD, name)], env, pass_dir, out, err,
            deadline - time.perf_counter())
        result["harness_wall"][name] = wall
        result["rss_mb"] = max(result["rss_mb"], rss)
        stderr = read(err).decode(errors="replace")
        if rc != 0:
            raise BenchError(f"{name} exited with status {rc}: "
                             f"{stderr[-500:]}")
        found = RUNNER_RE.findall(stderr)
        if not found:
            raise BenchError(f"{name} printed no [runner] summary")
        got = tuple(int(x) for x in found[-1])
        if got[0] != points:
            raise BenchError(f"{name}: {got[0]} points, "
                             f"expected {points}")
        for i in range(3):
            result["split"][i] += got[i]
        result["stdout"].append((name, read(out)))
    result["wall"] = time.perf_counter() - start

    # The cold-cache guard: the workload's simulated/cached split,
    # summed over its harnesses, must be exactly the empty-cache one.
    want = [sum(h[i] for h in spec["harnesses"]) for i in (1, 2, 3)]
    if result["split"] != want:
        raise BenchError(
            f"cold-cache guard: [runner] split {result['split'][1]} "
            f"simulated / {result['split'][2]} cached, expected "
            f"{want[1]} / {want[2]} (stale or shared run cache?)")

    lines = [json.loads(l) for l in read(manifest).decode().splitlines()
             if l.strip()]
    if len(lines) != want[0]:
        raise BenchError(f"manifest has {len(lines)} lines, expected "
                         f"{want[0]}")
    # A point that retired the wrong instruction count fails alone;
    # the pass still times the harnesses.
    result["bad_points"] = [
        l for l in lines if l["instructions"] != spec["insts_per_point"]]
    result["manifest"] = lines

    digest = hashlib.sha256("".join(sorted(
        "{config_hash} {cycles} {instructions} {l2_uj} {cpu_uj}\n"
        .format(**l) for l in lines if not l["cached"])).encode())
    for name, text in result["stdout"]:
        digest.update(name.encode() + b"\n" + text)
    result["digest"] = digest.hexdigest()[:16]
    return result


def first_float(pattern, text):
    m = re.search(pattern, text, re.M)
    if not m:
        raise BenchError(f"headline not found: {pattern}")
    return float(m.group(1))


def table_row(label, text):
    m = re.search(rf"^{re.escape(label)}\s+(.*)$", text, re.M)
    if not m:
        raise BenchError(f"table row {label!r} not found")
    return [float(x) for x in m.group(1).split()]


def accuracy(stdout):
    """(what, simulated, paper) for each headline the workload prints."""
    text = {name: out.decode() for name, out in stdout}
    rows = []
    if "fig16_scheme_energy" in text:
        rows.append(("fig16 ZS-DESC L2 energy reduction (x)", first_float(
            r"zero-skipped DESC reduction:\s+([\d.]+)x",
            text["fig16_scheme_energy"]), 1.81))
    if "fig28_ecc_time" in text:
        rows.append(("fig28 128-64 DESC exec time vs 64-64 binary",
                     table_row("Geomean", text["fig28_ecc_time"])[2],
                     1.01))
    if "fig30_spec_ooo" in text:
        rows.append(("fig30 OoO ZS-DESC exec time geomean",
                     table_row("Geomean", text["fig30_spec_ooo"])[0],
                     1.06))
    if "fig27_cache_size" in text:
        t = text["fig27_cache_size"]
        rows.append(("fig27 ZS-DESC reduction at 512KB (x)",
                     table_row("512KB", t)[2], 1.87))
        rows.append(("fig27 ZS-DESC reduction at 64MB (x)",
                     table_row("64MB", t)[2], 1.75))
    return rows


def probe(args, scale, timeout):
    env = clean_env({"DESC_SIM_SCALE": repr(scale),
                     "DESC_SIM_CACHE": "0"})
    return subprocess.run([os.path.join(BUILD, "e2e_probe")] + args,
                          env=env, cwd=WORK, capture_output=True,
                          text=True, timeout=max(timeout, 1.0))


def measure_setup(workload, scale, deadline):
    """Median wall time of fresh processes that run the workload's
    first point at the minimum budget (build + warm-up + drain)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        p = probe(["setup", workload], scale,
                  deadline - time.perf_counter())
        times.append(time.perf_counter() - start)
        if p.returncode != 0:
            raise BenchError(f"e2e_probe setup failed: {p.stderr}")
    return statistics.median(times)


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return 0.0, max(values)
    pct = int(100.0 * (1.0 - 10.0 / n))
    vals = sorted(values)
    return float(pct), vals[min(n - 1, int(n * pct / 100.0))]


def provenance(jobs, scale, seed):
    commit = "none"
    try:
        p = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        out = p.stdout.split()
        # Only a repository rooted here, not one the checkout sits in.
        if p.returncode == 0 and len(out) == 2 and \
                os.path.samefile(out[0], ROOT):
            commit = out[1][:12]
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    for top in ("src", "bench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(files):
                path = os.path.join(dirpath, f)
                src.update(os.path.relpath(path, ROOT).encode())
                src.update(read(path))
    compiler = "unknown"
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$",
                      read(cache).decode(), re.M)
        if m:
            try:
                p = subprocess.run([m.group(1), "--version"],
                                   capture_output=True, text=True,
                                   timeout=10)
                compiler = p.stdout.splitlines()[0].strip()
            except (OSError, subprocess.TimeoutExpired, IndexError):
                compiler = m.group(1)
    return (f"commit={commit} source_sha256={src.hexdigest()[:16]} "
            f"build=Release compiler=\"{compiler}\" nproc={nproc()} "
            f"jobs={jobs} scale={scale} seed={seed}")


def run_passes(spec, jobs, seconds, run_dir, deadline):
    """Cold-cache passes until another would overrun --seconds.

    Returns the passes made and the error that stopped them, if any.
    """
    passes = []
    start = time.perf_counter()
    while True:
        pass_dir = os.path.join(run_dir, f"pass{len(passes)}")
        try:
            passes.append(harness_pass(spec, jobs, pass_dir, deadline))
        except (BenchError, OSError, ValueError, KeyError) as e:
            return passes, str(e)
        finally:
            shutil.rmtree(os.path.join(pass_dir, "cache"),
                          ignore_errors=True)
        now, last = time.perf_counter(), passes[-1]["wall"]
        if now - start + last > seconds or now + 2 * last > deadline:
            return passes, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-guard", action="store_true")
    args = ap.parse_args()
    if not args.check_guard and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not (os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.exists(os.path.join(ROOT, "bench",
                                            "benchutil.hh"))):
        die(f"no simulator sources (src/, bench/) under {ROOT}")
    if shutil.which("cmake") is None:
        die("cmake not found", 1)

    jobs = min(4, nproc())
    build(jobs)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    run_dir = os.path.join(WORK, "runs", str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        if args.check_guard:
            return check_guard(jobs, run_dir, deadline)
        return bench(args, jobs, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def check_guard(jobs, run_dir, deadline):
    spec = WORKLOADS["fig30_ooo"]
    shared = os.path.join(run_dir, "shared-cache")
    harness_pass(spec, jobs, os.path.join(run_dir, "cold"), deadline,
                 shared)
    try:
        harness_pass(spec, jobs, os.path.join(run_dir, "warm"), deadline,
                     shared)
    except BenchError as e:
        log(f"guard tripped as expected: {e}")
        return 0
    log("guard did NOT trip on a pre-filled run cache")
    return 1


def bench(args, jobs, run_dir, deadline):
    spec = WORKLOADS[args.workload]
    scale = spec["scale"]
    errors = []  # run-level failures: every point of the run counts

    # The probe's view of the workload must be what the harnesses run.
    p = probe(["hashes", args.workload], scale, 30)
    if p.returncode != 0:
        errors.append(f"e2e_probe hashes failed: {p.stderr}")
    probe_hashes = sorted(p.stdout.split())

    passes, failure = run_passes(spec, jobs, args.seconds, run_dir,
                                 deadline)
    if failure:
        errors.append(failure)
    points = sum(h[1] for h in spec["harnesses"])
    bad = [l for r in passes for l in r["bad_points"]]
    point_errors = [
        f"{len(bad)} point(s) retired other than "
        f"{spec['insts_per_point']} instructions, e.g. {bad[0]}"] if bad else []
    digests = sorted({r["digest"] for r in passes})
    if len(digests) > 1:
        errors.append(f"result_digest differs between passes: {digests}")
    for r in passes:
        got = sorted(l["config_hash"] for l in r["manifest"])
        if got != probe_hashes:
            errors.append("harness config hashes differ from e2e_probe's")
            break

    log(f"# workload {args.workload}: {len(passes)} cold-cache pass(es)"
        f" of {', '.join(h[0] for h in spec['harnesses'])}")
    log(f"# provenance: {provenance(jobs, scale, args.seed)}")
    log("# harness seeds are fixed by the figure definitions; --seed "
        "drives only the traced replay")
    for name, *_ in spec["harnesses"]:
        walls = [r["harness_wall"][name] for r in passes]
        if walls:
            log(f"# harness {name}: median wall {statistics.median(walls):.3f}"
                f" s over {len(walls)} pass(es)")
    if passes:
        log(f"# result_digest: {digests[0] if len(digests) == 1 else digests}")
        log(f"# runner split per pass: {passes[0]['split'][1]} simulated / "
            f"{passes[0]['split'][2]} cached of {passes[0]['split'][0]}")
        try:
            for what, sim, paper in accuracy(passes[0]["stdout"]):
                log(f"# accuracy (not gated, scale {scale}): {what}: "
                    f"{sim:.3f} vs paper {paper:.2f} "
                    f"({100.0 * (sim - paper) / paper:+.1f}%)")
        except BenchError as e:
            errors.append(str(e))

    metrics = {}
    if passes and not errors:
        worst = max(len(r["bad_points"]) for r in passes)
        try:
            if args.trace == 0:
                metrics = end_to_end(passes, points - worst,
                                     args.workload, scale, deadline)
            else:
                metrics = per_layer(passes, args, jobs, scale, run_dir,
                                    deadline, errors)
        except (BenchError, OSError, ValueError,
                subprocess.TimeoutExpired) as e:
            errors.append(f"measurement failed: {e}")

    attempted = points * (len(passes) + (failure is not None))
    failed = attempted if errors else len(bad)
    for e in errors + point_errors:
        print(f"e2ebench: FAILED: {e}", file=sys.stderr, flush=True)
    for name, m in metrics.items():
        log(f"# {name} = {m['value']:.6g} {m['unit']}")
    correct = not (errors or point_errors)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def metric(value, unit):
    return {"value": value, "unit": unit}


def simulated_instructions(r):
    return sum(l["instructions"] for l in r["manifest"] if not l["cached"])


def end_to_end(passes, points, workload, scale, deadline):
    walls = [r["wall"] for r in passes]
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "sim_minst_per_s": metric(statistics.median(
            simulated_instructions(r) / r["wall"] / 1e6 for r in passes),
            "Minst/s"),
        "setup_s": metric(measure_setup(workload, scale, deadline), "s"),
        "peak_rss_mb": metric(statistics.median(
            r["rss_mb"] for r in passes), "MB"),
        "points_passed": metric(points, "count"),
    }


def per_layer(passes, args, jobs, scale, run_dir, deadline, errors):
    out = {}
    spans = os.path.join(WORK, "spans",
                         f"{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    try:
        p = probe(["trace", args.workload, str(args.seed), spans,
                   os.path.join(run_dir, "trace-cache")], scale,
                  deadline - time.perf_counter())
    except subprocess.TimeoutExpired:
        errors.append("traced replay timed out")
        return {}
    if p.returncode != 0:
        errors.append(f"traced replay failed: {p.stderr[-500:]}")
        return {}
    for name, (value, unit) in json.loads(p.stdout).items():
        out[name] = metric(value, unit)

    # sim runner (from the untraced passes' manifests).
    r0 = passes[0]
    n, simulated, cached = r0["split"]
    sim_walls = [l["wall_seconds"] for r in passes for l in r["manifest"]
                 if not l["cached"]]
    pct, tail = tail_percentile(sim_walls)
    out["sim.points"] = metric(n, "count")
    out["sim.simulated"] = metric(simulated, "count")
    out["sim.cached"] = metric(cached, "count")
    out["sim.cache_hit_ratio"] = metric(cached / n, "ratio")
    out["sim.point_p50_s"] = metric(statistics.median(sim_walls), "s")
    out["sim.point_tail_s"] = metric(tail, "s")
    out["sim.point_tail_pct"] = metric(pct, "percentile")
    out["sim.point_samples"] = metric(len(sim_walls), "count")
    out["sim.worker_busy_frac"] = metric(statistics.median(
        sum(l["wall_seconds"] for l in r["manifest"]) / (jobs * r["wall"])
        for r in passes), "ratio")

    log(f"# spans written to {os.path.relpath(spans, ROOT)}")
    return out


if __name__ == "__main__":
    sys.exit(main())
