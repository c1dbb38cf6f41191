#!/usr/bin/env python3
"""Benchmark of the simulator's user-facing binaries; see README.md.

    python3 perfbench/run.py --workload cli_trace_resnet50 --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout. The first run builds
scalesim_cli, scalesim_serve and the benchmark's probe into .bench_build.
Progress goes to stderr; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-module ones.
--record rewrites reference.json from the current build instead.
"""

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
TRACES = os.path.join(WORK, "traces")
REFERENCE = os.path.join(HERE, "reference.json")
CLI = os.path.join(BUILD, "examples", "scalesim_cli")
SERVE = os.path.join(BUILD, "examples", "scalesim_serve")
PROBE = os.path.join(BUILD, "perfbench_probe")
CHILD_TIMEOUT_S = 150.0
SETUP_SAMPLES = 15

CLI_CFG = os.path.join(ROOT, "configs", "scale_example.cfg")
MC_CFG = os.path.join(HERE, "mc_8x8_ws.cfg")
MC_GRID = "4x4"

# serve_dse_mix design space. The points whose cold request took over
# ~450 ms when the benchmark was written (mostly OS at 16x16 and 32x32)
# are left out, so that no single workload makes up the p90 tail.
SERVE_WORKLOADS = ["alexnet", "resnet18", "resnet50", "vit_small",
                   "vit_base", "mobilenet"]
SERVE_ARRAYS = [16, 32, 64, 128]
SERVE_DATAFLOWS = ["os", "ws", "is"]
SERVE_SLOW = {("alexnet", 16, "os"), ("alexnet", 16, "ws"),
              ("alexnet", 32, "os"), ("alexnet", 32, "ws"),
              ("alexnet", 64, "os")} | {
    (w, 16, "os") for w in SERVE_WORKLOADS} | {
    (w, 16, "ws") for w in ("resnet18", "resnet50")} | {
    (w, 32, "os") for w in ("resnet50", "vit_base")}
SWEEP_ARRAYS = [64, 128]
SWEEP_DATAFLOW_PAIRS = [["os", "ws"], ["ws", "is"], ["os", "is"]]
SWEEP_JOBS = 4
REPEAT_SHARE = 0.25

# Table V of the paper: vit_base on WS arrays with
# table5_latency_energy_edp's config, as an overlay on the serve base.
TABLE5_ARRAYS = [32, 64, 128]
PAPER_VIT_LATENCY_X = 6.53
PAPER_VIT_ENERGY_X = 2.86

WORKLOADS = {
    "cli_trace_resnet50": "full-feature trace run (demand pass, layout "
                          "and energy sinks, DRAM) through scalesim_cli",
    "serve_dse_mix": "closed-loop DSE request mix through scalesim_serve:"
                     " analytical mode, DRAM, result cache, ThreadPool",
    "mc_resnet50_4x4": "multi-core run (arbiter, shared L2, stepped "
                       "scratchpads) through scalesim_cli --multicore",
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "systolic.demand_s": "s", "systolic.fold_replay_ratio": "ratio",
    "systolic.addrs_generated": "count", "layout.sink_s": "s",
    "layout.cycles": "count", "energy.sink_s": "s",
    "energy.model_s": "s", "systolic.scratchpad_s": "s",
    "systolic.folds": "count", "dram.timing_s": "s",
    "dram.requests": "count", "dram.ns_per_request": "ns",
    "dram.row_hit_ratio": "ratio", "systolic.memory_s": "s",
    "serve.request_s": "s",
    "serve.cache_hit_ratio": "ratio", "serve.repeat_share": "ratio",
    "serve.hit_ms": "ms", "serve.miss_ms": "ms",
    "core.sweep_point_s": "s", "core.sweep_parallel_eff": "ratio",
    "multicore.init_s": "s", "multicore.run_layer_s": "s",
    "multicore.arb_grants": "count", "multicore.arb_conflicts": "count",
    "multicore.l2_hit_ratio": "ratio", "multicore.ns_per_grant": "ns",
    "core.init_s": "s", "core.run_layer_s": "s",
    "core.unattributed_s": "s", "core.report_io_s": "s",
    "sparse.resolve_s": "s", "common.config_s": "s",
    "common.topology_s": "s", "core.profile_gap_s": "s",
    "serve.cli_cycle_delta": "cycles", "trace.wall_s": "s",
    "trace.overhead_s": "s", "layout_overhead_x": "x",
    "energy_overhead_x": "x", "req_p50_ms": "ms", "req_p90_ms": "ms",
    "points_per_s": "1/s", "vit_latency_ratio_err_pct": "%",
    "vit_energy_ratio_err_pct": "%", "fail_rate": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Ledger:
    """Operations attempted and failed; a failure names its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAIL: {what}")
        return ok


# ----------------------------------------------------------------------
# Build and child processes

def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources next to perfbench/")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", ROOT, "-B", BUILD,
             f"-DCMAKE_PROJECT_scalesim3_INCLUDE={HERE}/probe.cmake"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "scalesim_cli", "scalesim_serve_bin",
         "perfbench_probe"], check=True, stdout=sys.stderr)


class Child:
    """A finished child process: exit code, output, wall time, peak RSS."""

    def __init__(self, cmd, workdir):
        out_path = os.path.join(workdir, "child.out")
        with open(out_path, "w+") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out,
                                    stderr=subprocess.DEVNULL)
            status, usage = wait(proc, t0 + CHILD_TIMEOUT_S)
            self.wall_s = time.perf_counter() - t0
            out.seek(0)
            self.stdout = out.read()
        self.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0


def wait(proc, deadline):
    """Reap `proc` with its own rusage; kill it past `deadline`."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return status, usage
        if time.perf_counter() > deadline:
            proc.kill()
        time.sleep(0.001)


def probe(args, workdir):
    child = Child([PROBE] + args, workdir)
    if child.returncode != 0:
        raise RuntimeError(f"probe {args[0]} exited {child.returncode}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def field(text, label):
    """The number after `label` on its line of CLI output."""
    match = re.search(r"^" + re.escape(label) + r"\s+(\S+)", text, re.M)
    return float(match.group(1)) if match else None


def cli_outputs(text):
    return {"totalCycles": field(text, "total cycles:"),
            "computeCycles": field(text, "compute cycles:"),
            "stallCycles": field(text, "stall cycles:"),
            "dramReadWords": field(text, "mem.dramReadWords"),
            "dramWriteWords": field(text, "mem.dramWriteWords"),
            "energy_mJ": field(text, "energy (mJ):")}


def mc_outputs(text):
    return {"makespan": field(text, "total makespan:"),
            "dramReadWords": field(text, "dram read words:"),
            "dramWriteWords": field(text, "dram write words:"),
            "arbConflicts": field(text, "arb conflicts:")}


def median(values):
    return statistics.median(values)


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# CLI workloads

def cli_command(workload, workdir, audit=False):
    if workload == "cli_trace_resnet50":
        cmd = [CLI, "-c", CLI_CFG, "-w", "resnet50", "-o",
               os.path.join(workdir, "out")]
    else:
        cmd = [CLI, "-c", MC_CFG, "-w", "resnet50", "--multicore", MC_GRID]
    return cmd + (["--audit"] if audit else [])


def cli_setup_s(workload, workdir):
    """Median of fresh-process set-ups, each timed once, cold."""
    args = ["setup", CLI_CFG, "resnet50"]
    if workload == "mc_resnet50_4x4":
        args = ["setup", MC_CFG, "resnet50", MC_GRID]
    return median([probe(args, workdir)["setup_s"]
                   for _ in range(SETUP_SAMPLES)])


def run_cli(workload, seconds, ledger, reference, workdir):
    outputs = cli_outputs if workload == "cli_trace_resnet50" \
        else mc_outputs
    expect = reference[workload]

    audit = Child(cli_command(workload, workdir, audit=True), workdir)
    clean = audit.returncode == 0
    if workload == "mc_resnet50_4x4":
        clean = clean and re.search(r"audit checks:\s+\d+, 0 violation",
                                    audit.stdout) is not None
    ledger.check(clean, f"{workload}: --audit run")
    ledger.check(outputs(audit.stdout) == expect,
                 f"{workload}: --audit run outputs differ from reference")

    walls, rss, gaps = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        child = Child(cli_command(workload, workdir), workdir)
        got = outputs(child.stdout)
        ok = ledger.check(child.returncode == 0,
                          f"{workload}: exit {child.returncode}")
        ok = ledger.check(got == expect,
                          f"{workload}: outputs {got} != {expect}") and ok
        walls.append(child.wall_s)
        rss.append(child.rss_mb)
        simulated = field(child.stdout, "sim.overhead.totalSeconds")
        if simulated is not None:
            gaps.append(child.wall_s - simulated)
    log(f"{workload}: {len(walls)} iterations, wall "
        + " ".join(f"{w:.3f}" for w in walls))
    return {"wall_s": median(walls), "peak_rss_mb": median(rss),
            "profile_gap_s": median(gaps) if gaps else 0.0}


# ----------------------------------------------------------------------
# serve_dse_mix

def serve_base_config(workdir):
    """scale_example.cfg in analytical mode (DRAM stays on)."""
    with open(CLI_CFG) as f:
        text = f.read()
    text, count = re.subn(r"(?m)^mode\s*=.*$", "mode = analytical", text)
    if count != 1:
        raise RuntimeError("scale_example.cfg has no single 'mode' line")
    path = os.path.join(workdir, "serve_base.cfg")
    with open(path, "w") as f:
        f.write(text)
    return path


def run_request(workload, array, dataflow):
    return {"type": "run", "workload": workload,
            "config": {"architecture": {"ArrayHeight": array,
                                        "ArrayWidth": array,
                                        "Dataflow": dataflow}}}


def table5_request(array):
    # table5_latency_energy_edp's SimConfig, spelled against the base.
    return {"type": "run", "workload": "vit_base",
            "config": {"general": {"mode": "analytical"},
                       "architecture": {"ArrayHeight": array,
                                        "ArrayWidth": array,
                                        "Dataflow": "ws",
                                        "Bandwidth": 100,
                                        "IfmapSramSzkB": 6144,
                                        "FilterSramSzkB": 6144,
                                        "OfmapSramSzkB": 2048},
                       "sparsity": {"SparsitySupport": "false"},
                       "memory": {"DramModel": "false", "Channels": 1},
                       "layout": {"LayoutModel": "false"}}}


def sweep_request(workload, dataflows):
    return {"type": "sweep", "workload": workload, "arrays": SWEEP_ARRAYS,
            "dataflows": dataflows, "jobs": SWEEP_JOBS}


def cold_requests():
    runs = [run_request(w, a, d) for w in SERVE_WORKLOADS
            for a in SERVE_ARRAYS for d in SERVE_DATAFLOWS
            if (w, a, d) not in SERVE_SLOW]
    sweeps = [sweep_request(w, pair) for w in SERVE_WORKLOADS
              for pair in SWEEP_DATAFLOW_PAIRS]
    return runs + sweeps + [table5_request(a) for a in TABLE5_ARRAYS]


def request_stream(seed):
    """Every cold request once, in seeded order, plus seeded repeats of
    earlier requests making up REPEAT_SHARE of the stream."""
    rng = random.Random(seed)
    stream = [json.dumps(r, sort_keys=True) for r in cold_requests()]
    rng.shuffle(stream)
    repeats = round(len(stream) * REPEAT_SHARE / (1 - REPEAT_SHARE))
    for _ in range(repeats):
        at = rng.randrange(1, len(stream) + 1)
        stream.insert(at, stream[rng.randrange(at)])
    return stream


def reference_key(req):
    cfg = req["config"]
    arch = cfg["architecture"]
    if "Bandwidth" in arch:
        return f"table5/{req['workload']}/{arch['ArrayHeight']}"
    return f"run/{req['workload']}/{arch['ArrayHeight']}/{arch['Dataflow']}"


def sweep_point_key(workload, point):
    return (f"sweep/{workload}/{point['array']}/{point['dataflow']}/"
            f"{point['sramKb']}")


def run_fields(result):
    totals = result["totals"]
    return {"totalCycles": totals["totalCycles"],
            "computeCycles": totals["computeCycles"],
            "stallCycles": totals["stallCycles"],
            "dramReadWords": totals["dramReadWords"],
            "dramWriteWords": totals["dramWriteWords"],
            "energy_mJ": result["energy"]["total_mJ"],
            "onChip_mJ": result["energy"]["onChip_mJ"]}


def response_values(req, result):
    """Reference entries a response carries, by reference key."""
    if req["type"] == "run":
        return {reference_key(req): run_fields(result)}
    return {sweep_point_key(req["workload"], p):
            {"cycles": p["cycles"], "energy_mJ": p["energy_mJ"]}
            for p in result["points"]}


class Server:
    """One scalesim_serve process driven as a closed loop."""

    def __init__(self, base_cfg):
        t0 = time.perf_counter()
        self.start = t0
        self.proc = subprocess.Popen([SERVE, "-c", base_cfg],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        self.ask('{"type":"ping"}')
        self.setup_s = time.perf_counter() - t0

    def ask(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("scalesim_serve closed its output")
        return reply.rstrip("\n")

    def close(self):
        self.ask('{"type":"shutdown"}')
        self.proc.stdin.close()
        status, usage = wait(self.proc,
                             time.perf_counter() + CHILD_TIMEOUT_S)
        self.proc.stdout.close()
        return (os.waitstatus_to_exitcode(status),
                time.perf_counter() - self.start,
                usage.ru_maxrss / 1024.0)


def serve_iteration(stream, base_cfg, ledger, reference):
    """One fresh server answering the whole stream; per-request rows."""
    server = Server(base_cfg)
    first = {}
    rows = []
    hits_before = misses_before = 0
    for line in stream:
        t0 = time.perf_counter()
        reply = server.ask(line)
        latency = time.perf_counter() - t0
        stats = json.loads(server.ask('{"type":"stats"}'))["result"]
        hits = stats["cache"]["hits"] - hits_before
        misses = stats["cache"]["misses"] - misses_before
        hits_before += hits
        misses_before += misses
        req = json.loads(line)
        resp = json.loads(reply)
        ok = ledger.check(resp.get("ok") is True,
                          f"serve: {line} -> {reply[:200]}")
        if ok:
            got = response_values(req, resp["result"])
            want = {k: reference.get(k) for k in got}
            ledger.check(got == want, f"serve: {line}: {got} != {want}")
        if line in first:
            ledger.check(first[line] == reply,
                         f"serve: warm reply differs for {line}")
        repeat = line in first
        first.setdefault(line, reply)
        rows.append({"line": line, "req": req, "resp": resp,
                     "latency_s": latency, "hits": hits, "misses": misses,
                     "repeat": repeat})
    code, wall, rss = server.close()
    ledger.check(code == 0, f"serve: exit {code}")
    return rows, wall, rss, server.setup_s


def serve_points(req):
    if req["type"] == "run":
        return 1
    return len(req["arrays"]) * len(req["dataflows"])


def run_serve(seed, seconds, ledger, reference, workdir):
    base_cfg = serve_base_config(workdir)
    stream = request_stream(seed)
    setups = []
    for _ in range(SETUP_SAMPLES):
        server = Server(base_cfg)
        setups.append(server.setup_s)
        server.close()
    walls, rss, latencies, points, iterations = [], [], [], 0, []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        rows, wall, peak, setup = serve_iteration(stream, base_cfg, ledger,
                                                  reference)
        setups.append(setup)
        walls.append(wall)
        rss.append(peak)
        latencies += [r["latency_s"] for r in rows]
        points += sum(serve_points(r["req"]) for r in rows)
        iterations.append(rows)
    log(f"serve_dse_mix: {len(stream)} requests x {len(walls)} "
        "iterations, wall " + " ".join(f"{w:.3f}" for w in walls))
    return {"wall_s": median(walls), "setup_s": median(setups),
            "peak_rss_mb": median(rss),
            "req_p50_ms": 1e3 * quantile(latencies, 0.5),
            "req_p90_ms": 1e3 * quantile(latencies, 0.9),
            "points_per_s": points / sum(walls),
            "rows": iterations[0], "stream": stream, "base_cfg": base_cfg}


def vit_errors(rows):
    """|ours / paper - 1| in % for Table V's ViT-base ratios."""
    cells = {}
    for r in rows:
        if r["req"]["type"] == "run" and \
                reference_key(r["req"]).startswith("table5/"):
            result = r["resp"]["result"]
            array = r["req"]["config"]["architecture"]["ArrayHeight"]
            instances = sum(l["repetitions"] for l in result["layers"])
            cells[array] = (result["totals"]["totalCycles"] / instances,
                            result["energy"]["onChip_mJ"])
    latency_x = cells[32][0] / cells[128][0]
    energy_x = cells[128][1] / cells[32][1]
    return (100 * abs(latency_x / PAPER_VIT_LATENCY_X - 1),
            100 * abs(energy_x / PAPER_VIT_ENERGY_X - 1))


# ----------------------------------------------------------------------
# Traced runs (--trace 1)

def module_metrics(traced, wall_s):
    """Per-module self times from a probe trace; unknown spans count as
    unattributed."""
    metrics = {name: 0.0 for name in PER_LAYER}
    unattributed = traced["unattributed_s"]
    for span, seconds in traced["self_s"].items():
        name = span + "_s"
        if name in metrics and PER_LAYER[name] == "s":
            metrics[name] += seconds
        else:
            log(f"trace: span {span} has no metric; counted unattributed")
            unattributed += seconds
    metrics["core.unattributed_s"] = unattributed
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - wall_s
    return metrics


def ratio(num, den):
    return num / den if den else 0.0


def counter_metrics(metrics, counts):
    metrics["systolic.fold_replay_ratio"] = ratio(counts["folds_replayed"],
                                                  counts["folds_total"])
    metrics["systolic.addrs_generated"] = counts["addrs_generated"]
    metrics["layout.cycles"] = counts["layout_cycles"]
    metrics["systolic.folds"] = counts["spad_folds"]
    metrics["dram.requests"] = counts["dram_requests"]
    metrics["dram.ns_per_request"] = 1e9 * ratio(metrics["dram.timing_s"],
                                                 counts["dram_requests"])
    metrics["dram.row_hit_ratio"] = ratio(counts["dram_row_hits"],
                                          counts["dram_row_accesses"])


def trace_cli(timed, ledger, reference, workdir):
    out = os.path.join(workdir, "trace_out")
    os.makedirs(out, exist_ok=True)
    traced = probe(["trace", CLI_CFG, "resnet50", out,
                    os.path.join(TRACES, "cli_trace_resnet50.json")], workdir)
    expect = reference["cli_trace_resnet50"]
    ledger.check(traced["reference_mismatches"] == 0,
                 "trace: component calls differ from the Simulator")
    ledger.check(traced["totalCycles"] == expect["totalCycles"],
                 "trace: totalCycles differs from reference")
    metrics = module_metrics(traced, timed["wall_s"])
    counter_metrics(metrics, traced["counts"])
    overhead = probe(["overhead", CLI_CFG, "resnet50"], workdir)
    metrics["layout_overhead_x"] = overhead["layout_overhead_x"]
    metrics["energy_overhead_x"] = overhead["energy_overhead_x"]
    metrics["core.profile_gap_s"] = timed["profile_gap_s"]
    return metrics


def trace_mc(timed, ledger, reference, workdir):
    traced = probe(["trace-mc", MC_CFG, "resnet50", MC_GRID,
                    os.path.join(TRACES, "mc_resnet50_4x4.json")], workdir)
    ledger.check(traced["makespan"]
                 == reference["mc_resnet50_4x4"]["makespan"],
                 "trace-mc: makespan differs from reference")
    metrics = module_metrics(traced, timed["wall_s"])
    counts = traced["counts"]
    metrics["multicore.arb_grants"] = counts["arb_grants"]
    metrics["multicore.arb_conflicts"] = counts["arb_conflicts"]
    metrics["multicore.l2_hit_ratio"] = ratio(counts["l2_hits"],
                                              counts["l2_lookups"])
    metrics["multicore.ns_per_grant"] = 1e9 * ratio(
        metrics["multicore.run_layer_s"], counts["arb_grants"])
    metrics["systolic.folds"] = counts["spad_folds"]
    metrics["core.profile_gap_s"] = timed["profile_gap_s"]
    return metrics


def trace_serve(timed, ledger, workdir):
    rows = timed["rows"]
    requests = os.path.join(workdir, "requests.ndjson")
    with open(requests, "w") as f:
        f.write("\n".join(timed["stream"]) + "\n")
    traced = probe(["trace-serve", timed["base_cfg"], requests,
                    os.path.join(TRACES, "serve_dse_mix.json")], workdir)
    metrics = module_metrics(traced, timed["wall_s"])
    counter_metrics(metrics, traced["counts"])

    # The in-process replay must give the server's answers.
    serial_s = sweep_wall_s = 0.0
    for answer in traced["requests"]:
        row = rows[answer["index"]]
        result = row["resp"]["result"]
        if answer["type"] == "run":
            same = (answer["totalCycles"] == result["totals"]["totalCycles"]
                    and answer["dramReadWords"]
                    == result["totals"]["dramReadWords"]
                    and abs(answer["energy_mJ"]
                            - result["energy"]["total_mJ"])
                    <= 1e-9 * result["energy"]["total_mJ"])
        else:
            same = [p["cycles"] for p in answer["points"]] == \
                [p["cycles"] for p in result["points"]]
            if row["misses"]:
                serial_s += answer["serial_s"]
                sweep_wall_s += row["latency_s"]
        ledger.check(same, f"trace-serve: request {answer['index']} "
                           "differs from the server's answer")

    lookups = sum(r["hits"] + r["misses"] for r in rows)
    metrics["serve.cache_hit_ratio"] = ratio(
        sum(r["hits"] for r in rows), lookups)
    metrics["serve.repeat_share"] = ratio(
        sum(r["repeat"] for r in rows), len(rows))
    hit_ms = [1e3 * r["latency_s"] for r in rows if not r["misses"]]
    miss_ms = [1e3 * r["latency_s"] for r in rows if r["misses"]]
    metrics["serve.hit_ms"] = median(hit_ms) if hit_ms else 0.0
    metrics["serve.miss_ms"] = median(miss_ms) if miss_ms else 0.0
    metrics["core.sweep_parallel_eff"] = ratio(serial_s,
                                               SWEEP_JOBS * sweep_wall_s)
    for key in ("req_p50_ms", "req_p90_ms", "points_per_s"):
        metrics[key] = timed[key]
    latency_err, energy_err = vit_errors(rows)
    metrics["vit_latency_ratio_err_pct"] = latency_err
    metrics["vit_energy_ratio_err_pct"] = energy_err

    # Same request through both front ends: resnet18 on the base config.
    same_point = json.dumps(run_request("resnet18", 32, "ws"),
                            sort_keys=True)
    served = next(r for r in rows if r["line"] == same_point)
    cli = Child([CLI, "-c", timed["base_cfg"], "-w", "resnet18", "-o",
                 os.path.join(workdir, "out")], workdir)
    ledger.check(cli.returncode == 0, "serve: CLI twin run failed")
    metrics["serve.cli_cycle_delta"] = \
        cli_outputs(cli.stdout)["totalCycles"] \
        - served["resp"]["result"]["totals"]["totalCycles"]
    return metrics


# ----------------------------------------------------------------------
# Reference recording (run once on the commit that defines the numbers)

def record(workdir):
    reference = {}
    for workload in ("cli_trace_resnet50", "mc_resnet50_4x4"):
        child = Child(cli_command(workload, workdir), workdir)
        parse = cli_outputs if workload == "cli_trace_resnet50" \
            else mc_outputs
        reference[workload] = parse(child.stdout)
    server = Server(serve_base_config(workdir))
    for req in cold_requests():
        resp = json.loads(server.ask(json.dumps(req, sort_keys=True)))
        if resp.get("ok") is not True:
            raise RuntimeError(f"reference request failed: {req}")
        reference.update(response_values(req, resp["result"]))
    server.close()
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {len(reference)} reference entries to {REFERENCE}")


# ----------------------------------------------------------------------

def measure(workload, seed, seconds, trace, reference, workdir):
    """One workload: its ledger and the metrics of the selected kind."""
    ledger = Ledger()
    if workload == "serve_dse_mix":
        timed = run_serve(seed, seconds, ledger, reference, workdir)
    else:
        setup_s = cli_setup_s(workload, workdir)
        timed = run_cli(workload, seconds, ledger, reference, workdir)
        timed["setup_s"] = setup_s
    if not trace:
        return ledger, timed, END_TO_END
    if workload == "cli_trace_resnet50":
        values = trace_cli(timed, ledger, reference, workdir)
    elif workload == "mc_resnet50_4x4":
        values = trace_mc(timed, ledger, reference, workdir)
    else:
        values = trace_serve(timed, ledger, workdir)
    values["fail_rate"] = ratio(ledger.failed, ledger.attempted)
    return ledger, values, PER_LAYER


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not args.record and not args.workload:
        parser.error("--workload is required")

    build()
    os.makedirs(TRACES, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        if args.record:
            record(workdir)
            return
        with open(REFERENCE) as f:
            reference = json.load(f)
        workloads = sorted(WORKLOADS) if args.workload == "all" \
            else [args.workload]
        attempted = failed = 0
        metrics = {}
        for workload in workloads:
            ledger, values, units = measure(workload, args.seed,
                                            args.seconds, args.trace,
                                            reference, workdir)
            log(f"{workload}:")
            for name, unit in units.items():
                log(f"  {name:32s} {values.get(name, 0.0):>16.6g} {unit}")
            log(f"  {'fail_rate':32s} "
                f"{ratio(ledger.failed, ledger.attempted):>16.6g} ratio "
                f"({ledger.failed}/{ledger.attempted})")
            attempted += ledger.attempted
            failed += ledger.failed
            prefix = f"{workload}/" if len(workloads) > 1 else ""
            metrics.update({prefix + name: {"value": values.get(name, 0.0),
                                            "unit": unit}
                            for name, unit in units.items()})
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
