#!/usr/bin/env python3
"""Durable-path benchmark for the MemoryDB reproduction.

Runs one workload against real processes: three memorydb-txlogd (fsync on
every append), a gate-attached memorydb-server and memorydb-snapshotd,
loaded by one durbench-client process (4 connections, 4 threads). Run it
from the root of a checkout:

    python3 durbench/run.py --workload write_heavy|read_mostly \
        --seed N --seconds S --trace 0|1

It builds the daemons and the client from source into $CARGO_TARGET_DIR
(default .bench_build), checks every reply, and prints as its last line
one JSON object: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (an untraced pass, then a traced pass whose daemon
spans are merged, plus in-process timings of each layer's public calls).

Steadiness: the log and snapshot directories live on a tmpfs mounted in a
private mount namespace under .bench_run (a plain directory there when the
namespace cannot be made), the server runs with --trace-sample-rate 0 in
measured passes, all server-side processes share one CPU (which rotates,
see Layout) and the client gets the others, the store is prefilled and
warmed up before timing, and each window has a fixed write budget so
recovery always replays the same tail.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
RUN_ROOT = os.path.join(ROOT, ".bench_run")

# Window budgets per second of --seconds, sized so a window lasts about
# --seconds on a quiet 4-vCPU host. Fixed per workload (not measured per
# run) so every run, and every commit, does the same work and replays the
# same tail. Traced runs measure two windows of half this budget.
WRITE_HEAVY_BATCHES_PER_S = 200  # per connection, 16 commands each
READ_MOSTLY_SETS_PER_S = 2000    # the lone writer's SET budget
WARMUP_MS = 1000
SETUPS = 3    # setup_s is the median of this many full set-ups
RESTORES = 5  # recovery_s is the median of this many restores
ROTATE_S = 1.0  # period of Layout's CPU rotation

TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------- storage


def private_tmpfs(path):
    """Mounts a tmpfs at `path`, visible only to this process tree.

    The mount lives in a private mount namespace, so it disappears with the
    benchmark even if the benchmark is killed. Returns False (and leaves
    `path` a plain directory) where namespaces are not permitted.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    clone_newns, ms_rec, ms_private = 0x00020000, 0x4000, 0x40000
    if libc.unshare(clone_newns) != 0:
        return False
    if libc.mount(b"none", b"/", None, ms_rec | ms_private, None) != 0:
        return False
    return libc.mount(b"tmpfs", path.encode(), b"tmpfs", 0,
                      b"size=3g,mode=0700") == 0


def unmount(path):
    libc = ctypes.CDLL(None, use_errno=True)
    libc.umount2(path.encode(), 2)  # MNT_DETACH


# ---------------------------------------------------------------- processes


def stray_processes():
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/comm") as f:
                comm = f.read().strip()
        except OSError:
            continue
        if comm.startswith("memorydb-") or comm.startswith("durbench-"):
            found.append(f"{comm}[{pid}]")
    return found


def free_ports(n):
    socks, ports = [], []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


def pin(pid, cpus):
    """Sets the affinity of every thread of `pid`."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return
    for tid in tids:
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:
            pass  # the thread exited meanwhile


class Layout:
    """CPU placement. The server and the three txlogd share one CPU, so
    each durable write's chain of wakeups stays on it; the client and
    snapshotd get the other (up to three) CPUs.

    Every ROTATE_S the shared CPU moves to the next CPU and every thread of
    every live child is re-pinned. On a shared 4-vCPU KVM guest, a
    cache-heavy loop's speed on one vCPU steps between states up to 2x
    apart that last seconds to minutes, largely independently of the other
    vCPUs. Pinned to one vCPU, a window inherits whichever state that vCPU
    is in; rotating makes it sample all of them, which narrowed the
    run-to-run spread of the latencies and of recovery_s.
    """

    def __init__(self, allowed):
        self.allowed = sorted(allowed)[:4]
        self._step = 0
        self._tracked = []  # (Popen, role) of live children
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._rotate, daemon=True)
        self._thread.start()

    def cpus(self, role):
        """CPUs of `role` ("server" or "client") at the current step."""
        shared = self.allowed[self._step % len(self.allowed)]
        if role == "server":
            return {shared}
        return set(self.allowed) - {shared} or {shared}

    def spawn(self, role, **popen_args):
        """Popen on `role`'s CPUs. The child inherits the calling thread's
        affinity, which is set just for the fork (no preexec_fn: this
        process has the rotation thread)."""
        with self._lock:
            own = os.sched_getaffinity(0)
            os.sched_setaffinity(0, self.cpus(role))
            try:
                p = subprocess.Popen(**popen_args)
            finally:
                os.sched_setaffinity(0, own)
            self._tracked.append((p, role))
        return p

    def untrack(self, p):
        """Stops re-pinning `p`; called before `p` is stopped and reaped."""
        with self._lock:
            self._tracked = [(q, r) for q, r in self._tracked if q is not p]

    def _rotate(self):
        while not self._stop.wait(ROTATE_S):
            with self._lock:
                self._step += 1
                for p, role in self._tracked:
                    if p.returncode is None:  # not yet reaped
                        pin(p.pid, self.cpus(role))

    def close(self):
        self._stop.set()
        self._thread.join()

    def describe(self):
        return (f"memorydb-server and 3 memorydb-txlogd share one CPU, the "
                f"client and memorydb-snapshotd get the others; the shared "
                f"CPU rotates over {self.allowed} every {ROTATE_S} s")


class Procs:
    """Every child this run starts; stop_all kills and reaps them all."""

    def __init__(self, run_dir, layout):
        self.run_dir = run_dir
        self.layout = layout
        self.children = []

    def spawn(self, name, args, role, piped=False):
        """Starts `args` on `role`'s CPUs; output goes to <name>.log, or
        stdin/stdout become text pipes when `piped`."""
        with open(os.path.join(self.run_dir, name + ".log"), "wb") as out:
            p = self.layout.spawn(
                role, args=args,
                stdin=subprocess.PIPE if piped else subprocess.DEVNULL,
                stdout=subprocess.PIPE if piped else out,
                stderr=out if piped else subprocess.STDOUT, text=piped)
        self.children.append(p)
        return p

    def wait(self, p, timeout):
        try:
            return p.wait(timeout)
        finally:
            self.stop(p)

    def stop(self, p, timeout=15.0):
        self.layout.untrack(p)
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
            try:
                p.wait(timeout)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        if p in self.children:
            self.children.remove(p)
        return p.returncode

    def stop_all(self):
        for p in list(reversed(self.children)):
            self.layout.untrack(p)
            if p.poll() is None:
                p.kill()
            p.wait()
        self.children.clear()


def cpu_ticks(pids):
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime + stime
    return total


def cpu_stat(cpus):
    """(steal, total) ticks of `cpus` from /proc/stat."""
    steal = total = 0
    with open("/proc/stat") as f:
        for line in f:
            fields = line.split()
            if fields[0][3:].isdigit() and int(fields[0][3:]) in cpus:
                ticks = [int(x) for x in fields[1:]]
                steal += ticks[7]
                total += sum(ticks[:8])
    return steal, total


def vm_hwm_kb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError("no VmHWM for memorydb-server")


# ---------------------------------------------------------------- build


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "durbench-build.log"), "wb") as out:
        for args in (["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"],
                     ["cmake", "--build", BUILD, "-j", "4"]):
            if subprocess.call(args, stdout=out, stderr=subprocess.STDOUT):
                raise BenchError(
                    f"build failed: {' '.join(args)} (see {out.name})")


BINARY_DIRS = {"memorydb-server": "memdb/net", "memorydb-txlogd": "memdb/txlog",
               "memorydb-snapshotd": "memdb/replication",
               "durbench-client": "."}


def binary(name):
    return os.path.join(BUILD, BINARY_DIRS[name], name)


# ---------------------------------------------------------------- cluster


class ClientProc:
    """durbench-client driven over stdin/stdout, one JSON line per command."""

    def __init__(self, procs, args):
        self.p = procs.spawn("client", args, "client", piped=True)

    def cmd(self, line):
        self.p.stdin.write(line + "\n")
        self.p.stdin.flush()
        reply = self.p.stdout.readline()
        if not reply:
            raise BenchError(f"client exited during '{line}'")
        out = json.loads(reply)
        if out.get("error"):
            raise BenchError(f"client '{line}': {out['error']}")
        return out


class Cluster:
    """Three txlogd, one durable primary, and the client, for one set-up."""

    def __init__(self, args, layout, base_dir, traced):
        self.args = args
        self.layout = layout
        self.dir = base_dir
        self.traced = traced
        os.makedirs(self.dir)
        self.procs = Procs(self.dir, layout)
        ports = free_ports(4)
        self.log_ports, self.port = ports[:3], ports[3]
        self.endpoints = ",".join(f"127.0.0.1:{p}" for p in self.log_ports)
        self.store = os.path.join(self.dir, "store")
        self.txlogd = []
        self.server = None
        self.client = None
        self.offbox_s = None
        self.phases = None
        self.keys = 0

    def trace_file(self, name):
        return os.path.join(self.dir, name + ".jsonl")

    def start_server(self):
        cmd = [binary("memorydb-server"), "--port", str(self.port),
               "--txlog-endpoints", self.endpoints]
        if self.traced:
            cmd += ["--trace-sample-rate", "1",
                    "--trace-file", self.trace_file("server")]
        else:
            cmd += ["--trace-sample-rate", "0"]
        self.server = self.procs.spawn("server", cmd, "server")

    def setup(self):
        """Launch -> leader -> prefill -> snapshot -> warm-up; returns s."""
        t0 = time.monotonic()
        for i in range(3):
            cmd = [binary("memorydb-txlogd"), "--node-id", str(i + 1),
                   "--peers", self.endpoints,
                   "--data-dir", os.path.join(self.dir, f"log{i + 1}")]
            if self.traced:
                cmd += ["--trace-file", self.trace_file(f"txlogd-{i + 1}")]
            self.txlogd.append(
                self.procs.spawn(f"txlogd-{i + 1}", cmd, "server"))
        self.start_server()
        self.client = ClientProc(self.procs, [
            binary("durbench-client"), "--workload", self.args.workload,
            "--seed", str(self.args.seed), "--port", str(self.port),
            "--txlog", self.endpoints, "--store-dir", self.store])
        if not self.client.cmd("ready 20000")["ok"]:
            raise BenchError("the log group never elected a leader")
        t_ready = time.monotonic()
        prefill = self.client.cmd("prefill")
        if prefill["failed"]:
            raise BenchError(f"prefill failed: {prefill}")
        self.keys = prefill["keys"]
        t_snap = time.monotonic()
        snap = self.procs.spawn("snapshotd", [
            binary("memorydb-snapshotd"), "--txlog", self.endpoints,
            "--store-dir", self.store, "--once", "--no-trim"],
            "client")  # off-box: not on the server's CPU
        if self.procs.wait(snap, timeout=120) != 0:
            raise BenchError("snapshotd cycle failed")
        self.offbox_s = time.monotonic() - t_snap
        warm = self.client.cmd(f"warmup {WARMUP_MS}")
        if warm["failed"] or warm["mismatched"]:
            raise BenchError(f"warm-up failed: {warm}")
        self.phases = (t_ready - t0, t_snap - t_ready, self.offbox_s)
        return time.monotonic() - t0

    def server_side_pids(self):
        return [self.server.pid] + [p.pid for p in self.txlogd]

    def log_bytes(self):
        return os.path.getsize(os.path.join(self.dir, "log1", "log"))

    def window(self, units):
        cpu0, log0 = cpu_ticks(self.server_side_pids()), self.log_bytes()
        stat0 = cpu_stat(self.layout.allowed)
        w = self.client.cmd(f"window {units}")
        w["cpu_s"] = (cpu_ticks(self.server_side_pids()) - cpu0) * TICK_S
        stat1 = cpu_stat(self.layout.allowed)
        # Time the hypervisor ran other guests on our CPUs: the host's
        # noise floor, printed so a slow run can be read.
        w["steal"] = (stat1[0] - stat0[0]) / max(1, stat1[1] - stat0[1])
        w["log_bytes"] = self.log_bytes() - log0
        w["hwm_kb"] = vm_hwm_kb(self.server.pid)
        return w

    def recover(self, restores):
        """Stops the primary, then `restores` times restores a fresh node
        from snapshot + log tail and times it until it serves the window's
        last acknowledged SET. Returns every restore's time and the summed
        read-back checks of every restored node."""
        self.procs.stop(self.server)
        times, verify = [], {}
        for _ in range(restores):
            port = free_ports(1)[0]
            t0 = time.monotonic()
            restored = self.procs.spawn("restored", [
                binary("memorydb-server"), "--port", str(port), "--restore",
                "--store-dir", self.store, "--replica-of-log", self.endpoints,
                "--trace-sample-rate", "0"], "server")
            if not self.client.cmd(f"await {port} 60000")["ok"]:
                raise BenchError("restored node never served the last ack")
            times.append(time.monotonic() - t0)
            for k, v in self.client.cmd(f"verify {port}").items():
                verify[k] = verify.get(k, 0) + v
            self.procs.stop(restored)
        return times, verify

    def teardown(self):
        if self.client is not None and self.client.p.poll() is None:
            self.client.p.stdin.close()
        self.procs.stop_all()
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------- runs


def window_units(args):
    per_s = WRITE_HEAVY_BATCHES_PER_S if args.workload == "write_heavy" \
        else READ_MOSTLY_SETS_PER_S
    return per_s * args.seconds // (2 if args.trace else 1)


def measured_pass(args, layout, base, traced, setups, restores):
    """Sets up `setups` times (keeping the last cluster), then runs the
    window, verifies the primary and times `restores` recoveries."""
    times = []
    for i in range(setups):
        cluster = Cluster(args, layout, f"{base}-{i}", traced)
        try:
            times.append(cluster.setup())
        except BaseException:
            cluster.teardown()
            raise
        if i + 1 < setups:
            cluster.teardown()
    try:
        scrape0 = cluster.client.cmd("scrape") if traced else None
        w = cluster.window(window_units(args))
        scrape1 = cluster.client.cmd("scrape") if traced else None
        verify = cluster.client.cmd(f"verify {cluster.port}")
        recovery_all, verify_restored = cluster.recover(restores)
    except BaseException:
        cluster.teardown()
        raise
    return {"setup_s": statistics.median(times), "setup_all": times,
            "window": w, "verify": verify, "verify_restored": verify_restored,
            "recovery_s": statistics.median(recovery_all),
            "recovery_all": recovery_all, "scrape0": scrape0,
            "scrape1": scrape1, "cluster": cluster}


def series_sum(scrape, prefix):
    return sum(v for k, v in scrape.items()
               if k == prefix or k.startswith(prefix + "{"))


def ops_rate(w):
    """Median over the window's full timeline bins of completed ops/s: a
    burst of interference on a shared host moves a few bins, not the
    median."""
    full = w["timeline"][:-1]
    if len(full) < 3:
        return w["completed"] / w["seconds"]
    return statistics.median(full) / w["bin_s"]


def end_to_end(r):
    w = r["window"]
    ops = w["completed"]
    return {
        "setup_s": (r["setup_s"], "s"),
        "ops_s": (ops_rate(w), "1/s"),
        "get_p50_us": (w["get_p50_us"], "us"),
        "set_p50_us": (w["set_p50_us"], "us"),
        "cpu_us_per_op": (w["cpu_s"] * 1e6 / ops, "us"),
        "server_peak_rss_mb": (w["hwm_kb"] / 1024.0, "MB"),
        "log_bytes_per_user_byte": (w["log_bytes"] / w["user_bytes"], "B/B"),
        "recovery_s": (r["recovery_s"], "s"),
    }


def per_layer(args, untraced, traced, layers, spans):
    for key in ("net.loop_self_us_p50", "net.gate.queue_wait_us_p50",
                "rpc.rtt_us_p50", "txlog.persist_self_us_p50",
                "txlog.quorum_wait_us_p50"):
        if key not in spans:
            raise BenchError(f"traced run recorded no spans for {key}")
    errors = {k: v for k, v in layers.items() if k.endswith("_error")}
    if errors:
        raise BenchError(f"layer probe failed: {errors}")
    w = traced["window"]
    sets, gets, ops = w["sets"], w["gets"], w["completed"]
    s0, s1 = traced["scrape0"], traced["scrape1"]

    def delta(side, name, i=None):
        a = s0[side] if i is None else s0[side][i]
        b = s1[side] if i is None else s1[side][i]
        return series_sum(b, name) - series_sum(a, name)

    append_rpcs = [delta("txlogd", 'rpc_requests_total{method="raft.AppendEntries"}', i)
                   for i in range(3)]
    leader = append_rpcs.index(max(append_rpcs))
    untraced_ops, traced_ops = ops_rate(untraced["window"]), ops_rate(w)
    out = {
        "resp.decode_ns_per_cmd": (layers["resp.decode_ns_per_cmd"], "ns"),
        "resp.encode_ns_per_reply": (layers["resp.encode_ns_per_reply"], "ns"),
        "net.cmds_per_batch_p50": (
            s1["server"]['net_batch_commands{quantile="0.5"}'], "count"),
        "net.bytes_out_per_op": (delta("server", "net_output_bytes_total") / ops, "B"),
        "net.reads_parked_ratio": (
            (delta("server", "txlog_blocked_replies_total") - sets) / gets, "ratio"),
        "net.loop_self_us_p50": (spans["net.loop_self_us_p50"], "us"),
        "net.gate.appends_per_set": (
            delta("server", "txlog_gate_appends_total") / sets, "count"),
        "net.gate.queue_wait_us_p50": (spans["net.gate.queue_wait_us_p50"], "us"),
        "rpc.requests_per_set": (delta("server", "rpc_requests_total") / sets, "count"),
        "rpc.rtt_us_p50": (spans["rpc.rtt_us_p50"], "us"),
        "txlog.append_us_p50": (layers["txlog.append_us_p50"], "us"),
        "txlog.fsyncs_per_set": (
            sum(delta("txlogd", "txlog_fsyncs_total", i) for i in range(3)) / sets,
            "count"),
        "txlog.entries_per_replication_rpc": (
            delta("txlogd", "raft_entries_replicated_total", leader)
            / max(1.0, append_rpcs[leader]), "count"),
        "txlog.persist_self_us_p50": (spans["txlog.persist_self_us_p50"], "us"),
        "txlog.quorum_wait_us_p50": (spans["txlog.quorum_wait_us_p50"], "us"),
        "engine.get_ns": (layers["engine.get_ns"], "ns"),
        "engine.set_ns": (layers["engine.set_ns"], "ns"),
        "engine.bytes_per_key": (
            s1["server"]["used_memory_bytes"] / traced["cluster"].keys, "B"),
        "replication.replay_entries_per_s": (
            layers["replication.replay_entries_per_s"], "1/s"),
        "replication.apply_ns_per_entry": (
            layers["replication.apply_ns_per_entry"], "ns"),
        "replication.snapshot_load_s": (layers["replication.snapshot_load_s"], "s"),
        "replication.offbox_cycle_s": (traced["cluster"].offbox_s, "s"),
        "storage.snapshot_get_ms": (layers["storage.snapshot_get_ms"], "ms"),
        "storage.snapshot_bytes_per_key": (
            layers["storage.snapshot_bytes_per_key"], "B"),
        "trace.overhead_pct": (100.0 * (untraced_ops - traced_ops) / untraced_ops, "%"),
        "trace.stage_sum_over_set_p50": (
            spans["stage_p50_sum_us"] / w["set_p50_us"], "ratio"),
        "client.get_p99_us": (untraced["window"]["get_p99_us"], "us"),
        "client.set_p99_us": (untraced["window"]["set_p99_us"], "us"),
    }
    return out


def tally(results):
    """attempted / failed / correct over every measured pass."""
    attempted = failed = 0
    correct = True
    for r in results:
        w = r["window"]
        attempted += w["attempted"]
        failed += w["failed"] + w["mismatched"]
        for v in (r["verify"], r["verify_restored"]):
            attempted += v["checked"] + v["failed"]
            failed += v["failed"] + v["lost"] + v["mismatched"]
            correct &= v["lost"] == 0 and v["mismatched"] == 0 and v["failed"] == 0
        correct &= w["mismatched"] == 0 and w["failed"] == 0
    return attempted, failed, correct


def describe(args, layout, storage, r):
    w = r["window"]
    shape = {
        "write_heavy": "100000 keys (GET and SET uniform), 4 connections x "
                       "pipeline 16 (8 SET + 8 GET)",
        "read_mostly": "50000 reader keys (Zipf 0.99), 3 reader connections x "
                       "pipeline 32 GET + 1 writer connection x 1 SET on "
                       "20000 disjoint keys",
    }[args.workload]
    log(f"durbench {args.workload}: seed={args.seed} {shape}; values 100 B; "
        f"window budget {window_units(args)} "
        f"{'batches/connection' if args.workload == 'write_heavy' else 'SETs'}")
    log(f"  cpu layout: {layout.describe()}")
    log(f"  flush policy: txlogd fsync per append on {storage}; "
        f"snapshotd --no-trim")
    log(f"  setup_s per set-up: {', '.join(f'{t:.3f}' for t in r['setup_all'])}"
        " (last: leader %.3f s, prefill %.3f s, snapshot %.3f s)"
        % r["cluster"].phases)
    log(f"  recovery_s per restore: "
        f"{', '.join(f'{t:.3f}' for t in r['recovery_all'])}")
    log(f"  window: {w['seconds']:.3f} s, {w['completed']} ops "
        f"({w['sets']} SET, {w['gets']} GET), {w['failed']} failed, "
        f"{w['mismatched']} mismatched")
    log(f"  ops per {w['bin_s']} s: {w['timeline']}")
    log(f"  steal on our CPUs during the window: {100 * w['steal']:.1f}%")
    log(f"  client.get_p99_us={w.get('get_p99_us', 0):.1f} "
        f"(n={w['get_samples']}) client.set_p99_us="
        f"{w.get('set_p99_us', 0):.1f} (n={w['set_samples']})")
    for name in ("verify", "verify_restored"):
        v = r[name]
        log(f"  {name}: checked={v['checked']} lost={v['lost']} "
            f"mismatched={v['mismatched']} failed={v['failed']}")


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no MemoryDB sources under {ROOT}/src")
    strays = stray_processes()
    if strays:
        raise BenchError("stray processes running: " + ", ".join(strays))
    build()
    signal.alarm(170)  # every run ends, cleaned up, within 180 s
    os.makedirs(RUN_ROOT, exist_ok=True)
    mnt = os.path.join(RUN_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(mnt)
    mounted = private_tmpfs(mnt)
    storage = f"tmpfs at {os.path.relpath(mnt, ROOT)}" if mounted else \
        f"the checkout's filesystem at {os.path.relpath(mnt, ROOT)} " \
        f"(tmpfs unavailable)"
    base = os.path.join(mnt, "c")
    clusters = []
    layout = Layout(os.sched_getaffinity(0))
    try:
        if not args.trace:
            r = measured_pass(args, layout, base, False, SETUPS, RESTORES)
            clusters.append(r["cluster"])
            describe(args, layout, storage, r)
            metrics = end_to_end(r)
            results = [r]
        else:
            u = measured_pass(args, layout, base + "u", False, 1, 1)
            clusters.append(u["cluster"])
            u["cluster"].teardown()
            t = measured_pass(args, layout, base + "t", True, 1, 1)
            clusters.append(t["cluster"])
            describe(args, layout, storage, t)
            layers = t["cluster"].client.cmd("layers")
            for p in list(t["cluster"].txlogd):
                t["cluster"].procs.stop(p)
            spans = t["cluster"].client.cmd("spans " + " ".join(
                t["cluster"].trace_file(n) for n in
                ("server", "txlogd-1", "txlogd-2", "txlogd-3")))
            log(f"  spans: {spans['spans']} spans, {spans['traces']} traces, "
                f"{spans['complete_chains']} complete chains")
            metrics = per_layer(args, u, t, layers, spans)
            results = [u, t]
        attempted, failed, correct = tally(results)
    finally:
        for c in clusters:
            c.teardown()
        layout.close()
        if mounted:
            unmount(mnt)
        shutil.rmtree(mnt, ignore_errors=True)
        if not os.listdir(RUN_ROOT):
            os.rmdir(RUN_ROOT)
    for name, (value, unit) in metrics.items():
        log(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["write_heavy", "read_mostly"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    def on_signal(signum, frame):
        # Raise once; cleanup runs under the finally blocks undisturbed.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        raise BenchError(f"stopped by signal {signum}")

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGALRM, on_signal)
    signal.alarm(880)  # a first run builds; run() re-arms after the build
    try:
        run(args)
    except BenchError as e:
        print(f"durbench: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
