#!/usr/bin/env python3
"""The repository benchmark: four workloads, measured end to end with
tracing off, or per layer from a traced in-process replay.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 6 --trace 0

Run from the root of a mineq checkout.  It builds the CLI and the
benchmark's own program (perfbench/pb.exe) from source with dune, runs
the workload, checks every output, and prints one JSON object as the
last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Each run does a fixed amount of work, --seconds times a per-workload
rate fixed below, so counts and memory compare across commits.  See
perfbench/README.md for what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("serve-hot", "serve-cold", "census-pipid", "route-churn")

# Units of work per --seconds: requests, requests, specs, ops per trial.
# Sized so a run's timed phase takes about --seconds on a 2-core host;
# a CLI workload's work is split over its CLI_REPEATS identical runs.
RATE = {"serve-hot": 30000, "serve-cold": 800, "census-pipid": 1800, "route-churn": 175000}

SERVE_BOOTS = 10  # daemon boots per run, each serving a tenth of the requests
CLI_BOOTS = 25  # zero-work CLI runs per run for setup_s
CLI_REPEATS = 5  # identical runs of a CLI workload per measured run
CHURN_TRIALS = 4  # route-churn's --trials, as in inputs.ml

END_TO_END = {
    "setup_s": "s",
    "qps": "1/s",
    "p50_us": "us",
    "p99_us": "us",
    "specs_per_s": "1/s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "proto.decode_us": "us",
    "memo.probe_us": "us",
    "server.overhead_us": "us",
    "proto.encode_us": "us",
    "proto.resp_bytes": "bytes",
    "service.resolve_us": "us",
    "equivalence.characterization_us": "us",
    "equivalence.independence_us": "us",
    "lint_us": "us",
    "certify.blocking_us": "us",
    "fingerprint_us": "us",
    "memo.hit_rate.equiv": "ratio",
    "memo.hit_rate.lint": "ratio",
    "memo.hit_rate.blocking": "ratio",
    "memo.dup_computes": "count",
    "server.batch_mean": "count",
    "server.shed": "count",
    "server.deadline_expired": "count",
    "server.errors": "count",
    "stream_census.generate_us": "us",
    "iso_min_us": "us",
    "iso_min.calls": "count",
    "iso_min.confirmed_frac": "ratio",
    "iso_min.share": "ratio",
    "stream_census.merge_share": "ratio",
    "stream_census.classes": "count",
    "stream_census.buckets": "count",
    "stream_census.collisions": "count",
    "rearrange.connect_us": "us",
    "rearrange.connect_p99_us": "us",
    "rearrange.disconnect_us": "us",
    "rearrange.moved_per_connect": "count",
    "rearrange.rearranged_frac": "ratio",
    "pool.busy_frac": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "error_rate": "ratio",
}

# Each workload has one throughput of its own; the result format needs
# every end-to-end name on every workload, so the other two names
# repeat it (see README.md, "One throughput per workload").
THROUGHPUT = {
    "serve-hot": "qps",
    "serve-cold": "qps",
    "census-pipid": "specs_per_s",
    "route-churn": "ops_per_s",
}

CLI = "_build/default/bin/mineq_cli.exe"
PB = "_build/default/perfbench/pb.exe"
OUT = "perfbench/_out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s of its build
deadline = None


class Failed(Exception):
    """The run cannot produce a result."""


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def remaining():
    left = deadline - time.monotonic()
    if left <= 0:
        raise Failed("out of time")
    return left


def run_group(argv, stdout=subprocess.DEVNULL):
    """Run argv in its own process group; whatever it leaves behind
    (a daemon pb failed to stop) is killed and waited for."""
    proc = subprocess.Popen(argv, stdout=stdout, stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=remaining())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise Failed("%s timed out" % argv[1])
    finally:
        reap_group(proc.pid)
    if proc.returncode != 0:
        raise Failed("%s exited %d: %s" % (" ".join(argv[:2]), proc.returncode, err.decode()[-2000:]))


def reap_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(2000):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.005)
    raise Failed("processes of group %d did not end" % pgid)


def build():
    for path in ("dune-project", "bin/mineq_cli.ml", "lib/serve/server.ml", "perfbench/dune"):
        if not os.path.exists(path):
            die("run from the root of a mineq checkout (missing %s)" % path)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/mineq_cli.exe", "./perfbench/pb.exe"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=900,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode()[-4000:])
        die("build failed")


def read_json(path):
    with open(path) as f:
        return json.load(f)


def pb(command, **kv):
    argv = [PB, command]
    for k, v in kv.items():
        argv += ["--" + k, str(v)]
    return argv


def run_cli(argv, stdout_path):
    """Wall time, exit code and peak RSS (MB) of one CLI run."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([CLI] + argv, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    remaining()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def cli_argv(workload, seed, size, jobs):
    out = subprocess.run(
        pb("argv", workload=workload, seed=seed, size=size, jobs=jobs),
        stdout=subprocess.PIPE,
        check=True,
    )
    return out.stdout.decode().split()


def zero_work_argv(workload, jobs):
    if workload == "census-pipid":
        return ["census", "--stream", "--generator", "pipid", "-n", "7", "--specs", "0", "--jobs", str(jobs)]
    return ["route", "benes", "-n", "10", "--churn", "1:1", "--trials", "1", "--jobs", str(jobs)]


def check_cli_text(workload, text, size):
    """Checks on the CLI's own summary, beyond equality with the replay."""
    lines = text.splitlines()
    problems = []
    if workload == "census-pipid":
        head = lines[0].split() if lines else []
        members = sum(int(l.split()[2]) for l in lines if l.startswith("  class "))
        if head[:2] != ["streamed", str(size)] or members != size:
            problems.append("census members do not add up to the spec count")
    else:
        counts = [l.split() for l in lines if l.startswith("connects ")]
        ops = counts and int(counts[0][1]) + int(counts[0][3])
        if ops != size * CHURN_TRIALS:
            problems.append("connects + disconnects != ops x trials")
        if "end-of-trial consistency failures: 0" not in lines:
            problems.append("consistency failures reported")
    return problems


def cli_workload(workload, seed, seconds, trace, jobs, tag):
    size = RATE[workload] * seconds // CLI_REPEATS
    argv = cli_argv(workload, seed, size, jobs)
    metrics, notes = {}, []
    failed = 0
    repeats = 1 if trace else CLI_REPEATS
    walls, rss = [], []
    texts = []
    for k in range(repeats):
        path = "%s/%s-cli%d.txt" % (OUT, tag, k)
        wall, code, peak = run_cli(argv, path)
        walls.append(wall)
        rss.append(peak)
        with open(path) as f:
            texts.append(f.read())
        if code != 0:
            notes.append("the CLI exited %d" % code)
    replay_out = "%s/%s-replay.json" % (OUT, tag)
    replay_text = "%s/%s-replay.txt" % (OUT, tag)
    kv = dict(workload=workload, seed=seed, size=size, jobs=jobs, trace=int(trace), out=replay_out, text=replay_text)
    if trace:
        kv["spans"] = "%s/%s-spans.json" % (OUT, tag)
    run_group(pb("replay", **kv))
    replay = read_json(replay_out)
    with open(replay_text) as f:
        expected = f.read()
    for k, text in enumerate(texts):
        problems = check_cli_text(workload, text, size)
        if text != expected:
            problems.append("CLI summary differs from the replay's")
        if problems:
            failed += 1
            notes += ["run %d: %s" % (k, p) for p in problems]
    notes += replay["notes"]
    values = replay["values"]
    if trace:
        metrics.update(values)
        metrics["error_rate"] = failed / repeats
    else:
        boots = []
        for _ in range(CLI_BOOTS):
            wall, code, _ = run_cli(zero_work_argv(workload, jobs), "%s/%s-boot.txt" % (OUT, tag))
            if code != 0:
                raise Failed("the zero-work CLI run exited %d" % code)
            boots.append(wall)
        units = size if workload == "census-pipid" else size * CHURN_TRIALS
        metrics.update(values)
        metrics.update(
            setup_s=statistics.median(boots),
            peak_rss_mb=max(rss),
        )
        metrics[THROUGHPUT[workload]] = units / statistics.median(walls)
        metrics["cli_walls_s"] = walls
    return {"attempted": repeats, "failed": failed, "metrics": metrics, "notes": notes, "size": size}


def serve_workload(workload, seed, seconds, trace, connections, tag):
    size = RATE[workload] * seconds
    out = "%s/%s-serve.json" % (OUT, tag)
    kv = dict(
        workload=workload,
        seed=seed,
        size=size,
        conns=connections,
        boots=SERVE_BOOTS,
        cli=CLI,
        socket="%s/%d.sock" % (OUT, os.getpid()),
        trace=int(trace),
        out=out,
    )
    if trace:
        kv["spans"] = "%s/%s-spans.json" % (OUT, tag)
    run_group(pb("serve", **kv))
    r = read_json(out)
    metrics = dict(r["values"])
    return {"attempted": r["attempted"], "failed": r["failed"], "metrics": metrics, "notes": r["notes"], "size": size}


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("_"))
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".py")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return out.stdout.decode().strip() or None
    except OSError:
        return None


def ocaml_version():
    try:
        out = subprocess.run(["ocamlfind", "ocamlopt", "-version"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return out.stdout.decode().strip() or None
    except OSError:
        return None


def cpu_times():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")
    build()
    global deadline
    deadline = time.monotonic() + RUN_LIMIT_S
    cpu0 = cpu_times()
    os.makedirs(OUT, exist_ok=True)
    nproc = os.cpu_count() or 1
    tag = "%s-t%d" % (args.workload, args.trace)
    serve = args.workload.startswith("serve-")
    jobs = 1 if serve else nproc
    connections = nproc if serve else 0
    try:
        if serve:
            r = serve_workload(args.workload, args.seed, args.seconds, args.trace, connections, tag)
        else:
            r = cli_workload(args.workload, args.seed, args.seconds, args.trace, jobs, tag)
    except Failed as e:
        print("perfbench: " + str(e), file=sys.stderr)
        sys.exit(1)
    if not args.trace:
        own = r["metrics"].get(THROUGHPUT[args.workload])
        for name in set(THROUGHPUT.values()):
            r["metrics"][name] = own
    cpu1 = cpu_times()
    # The share of CPU time the hypervisor gave to other guests while
    # this run measured: the host's noise, recorded next to the figures.
    steal = (cpu1[0] - cpu0[0]) / max(1, cpu1[1] - cpu0[1]) if cpu0 and cpu1 else None
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [m for m in wanted if not isinstance(r["metrics"].get(m), (int, float))]
    notes = r["notes"] + ["metric %s was not measured" % m for m in missing]
    coverage_ok = (not args.trace) or r["metrics"].get("trace.coverage", 0) >= 0.9
    correct = r["failed"] == 0 and not notes and coverage_ok
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work_units": r["size"],
        "nproc": nproc,
        "ocaml": ocaml_version(),
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "jobs": jobs,
        "connections": connections,
        "host_steal_frac": steal,
        "extra": {k: v for k, v in r["metrics"].items() if k not in wanted},
        "notes": notes,
    }
    result = {
        "correct": correct,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {m: {"value": r["metrics"][m], "unit": u} for m, u in wanted.items() if m not in missing},
    }
    with open("%s/%s-s%d-t%d-result.json" % (OUT, args.workload, args.seed, args.trace), "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
