"""Campaign benchmark: blocks/s, memory and WFH detection quality.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign-serial --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn and prints one table.
``--trace 0`` measures the end-to-end metrics.  First the oracle (the
workload computed by direct, serial layer calls) runs in a fresh process.
Then timed runs follow, each in its own fresh process, until
``--seconds`` is used up (at least three).  Each timed run's per-block
results must equal the oracle's.  Every metric is the median over the
timed runs.  ``--trace 1`` makes one traced run instead and reports the
per-layer metrics.  The last line of standard output is the JSON result;
the lines before it say what ran.  ``perfbench/README.md`` defines
every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_RUNS = 3
#: a run gives up (exit 1, no result) this long after it started, so a
#: stuck child cannot hang it
DEADLINE_S = 170.0
RSS_INTERVAL_S = 0.01
_PAGE = os.sysconf("SC_PAGE_SIZE")
STARTED = time.monotonic()

#: workloads and metrics, with their units, as the benchmark declares them
SPEC = ROOT / "BENCHMARK.json"


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, crashed oracle)."""


# ---------------------------------------------------------------------------
# memory of a process tree, sampled from outside
# ---------------------------------------------------------------------------
def _parents(min_pid: int) -> dict[int, int]:
    """pid -> parent pid of the processes in /proc numbered ``min_pid`` or up.

    A process's descendants were started after it, so they carry higher
    pids unless the pid counter wrapped meanwhile; skipping the older
    processes makes a sample cost about 0.1 ms instead of 1 ms.
    """
    out: dict[int, int] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit() or int(entry.name) < min_pid:
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after its ')'
        out[int(entry.name)] = int(stat[stat.rindex(b")") + 2 :].split()[1])
    return out


def tree_rss_bytes(root: int) -> int:
    """Summed resident set of ``root`` and its descendants (statm, as
    ``repro.obs.resources.rss_bytes`` reads it for one process)."""
    children: dict[int, list[int]] = {}
    for pid, ppid in _parents(root).items():
        children.setdefault(ppid, []).append(pid)
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                total += int(fh.read().split()[1]) * _PAGE
        except (OSError, IndexError, ValueError):
            continue  # exited between the scan and the read
    return total


class RssSampler(threading.Thread):
    """High-water of a process tree's summed RSS until :meth:`stop`."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.peak = 0
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.is_set():
            self.peak = max(self.peak, tree_rss_bytes(self.pid))
            self._halt.wait(RSS_INTERVAL_S)

    def stop(self) -> int:
        self._halt.set()
        self.join()
        return self.peak


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------
def child_env(workdir: Path) -> dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` knob, plus ``src``
    on the path and spill files kept inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_SPILL_DIR"] = str(workdir / "spill")
    env["REPRO_PAYLOAD_ACCOUNTING"] = "0"
    return env


def start_child(
    mode: str, args: argparse.Namespace, workdir: Path, tag: str, template: Path
) -> tuple[subprocess.Popen[bytes], Path]:
    out = workdir / f"{tag}.json"
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--world-seed", str(args.world_seed),
        "--out", str(out),
        "--workdir", str(workdir),
        "--template", str(template),
        "--spans", str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(workdir), stdout=subprocess.PIPE)
    return proc, out


def _time_left() -> float:
    return max(STARTED + DEADLINE_S - time.monotonic(), 0.0)


def finish_child(proc: subprocess.Popen[bytes], out: Path, what: str) -> dict[str, Any]:
    try:
        proc.communicate(timeout=_time_left())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}")
    return json.loads(out.read_text())


def run_child(
    mode: str, args: argparse.Namespace, workdir: Path, template: Path
) -> dict[str, Any]:
    proc, out = start_child(mode, args, workdir, mode, template)
    return finish_child(proc, out, mode)


def oracle_dir(args: argparse.Namespace) -> Path:
    """Where this checkout keeps the workload's oracle results.

    Per-block results do not depend on dispatch order, so one oracle
    serves every ``--seed``.  The key covers the program and benchmark
    sources, so an edit to either computes a fresh oracle.
    """
    h = hashlib.sha256(f"{args.workload} {args.world_seed}".encode())
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return OUT / f"oracle-{h.hexdigest()[:16]}"


def load_oracle(args: argparse.Namespace, workdir: Path) -> tuple[dict[str, Any], Path]:
    """The oracle's results and the resumed workloads' cache template,
    computed by the first run in this checkout and kept for the rest."""
    final = oracle_dir(args)
    if not (final / "oracle.json").is_file():
        building = workdir / "oracle"
        building.mkdir()
        result = run_child("oracle", args, workdir, building / "template")
        (building / "oracle.json").write_text(json.dumps(result))
        shutil.rmtree(final, ignore_errors=True)
        building.rename(final)
    return json.loads((final / "oracle.json").read_text()), final / "template"


def timed_run(
    args: argparse.Namespace, workdir: Path, template: Path, i: int
) -> dict[str, Any]:
    """One timed run in a fresh process, its tree's RSS sampled meanwhile."""
    t_start = time.monotonic()
    proc, out = start_child("timed", args, workdir, f"timed-{i}", template)
    sampler = RssSampler(proc.pid)
    sampler.start()
    try:
        assert proc.stdout is not None
        # "timed" (or end of file, if the child died) ends the timed region
        if select.select([proc.stdout], [], [], _time_left())[0]:
            proc.stdout.readline()
    finally:
        peak = sampler.stop()
    result = finish_child(proc, out, f"timed run {i}")
    result["setup_s"] = result["t_dispatch"] - t_start
    # Sampling can miss a spike shorter than its interval, so the child's
    # own high-water mark (exact, and per run: the process is fresh) is
    # a floor; the tree's summed peak is never below either.
    result["peak_rss_bytes"] = max(peak, result["own_peak_rss_bytes"])
    return result


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------
def declared(section: str) -> dict[str, str]:
    """name -> unit of a ``BENCHMARK.json`` metric section."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[section]}


def _result(
    correct: bool, attempted: int, failed: int, values: dict[str, float], section: str
) -> dict[str, Any]:
    """The run's result line; its metrics must be exactly the declared ones."""
    units = declared(section)
    if set(values) != set(units):
        raise BenchError(f"measured {sorted(values)}, {SPEC.name} declares {sorted(units)}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def _fmt_funnel(funnel: dict[str, int]) -> str:
    """Table 2's funnel as routed / responsive / diurnal / wide / CS."""
    keys = ("routed", "responsive", "diurnal", "wide_swing", "change_sensitive")
    return " / ".join(f"{k} {funnel[k]}" for k in keys)


def end_to_end(args: argparse.Namespace, workdir: Path) -> dict[str, Any]:
    oracle, template = load_oracle(args, workdir)
    print(f"oracle funnel: {_fmt_funnel(oracle['funnel'])}")
    runs: list[dict[str, Any]] = []
    attempted = failed = 0
    started = time.monotonic()
    while len(runs) < MIN_RUNS or (
        time.monotonic() - started + statistics.mean(r["run_s"] for r in runs) <= args.seconds
    ):
        t0 = time.monotonic()
        try:
            run = timed_run(args, workdir, template, len(runs))
        except BenchError as exc:
            print(f"timed run {len(runs)} failed: {exc}")
            run = {"error": str(exc), "n_blocks": 0}
        run["run_s"] = time.monotonic() - t0
        runs.append(run)
        n_blocks = len(oracle["digests"])
        attempted += n_blocks
        if "error" in run:
            failed += n_blocks
            continue
        bad = compare_digests(oracle["digests"], run["digests"])
        bad += int(run["aggregate"] != oracle["aggregate"])
        failed += bad
        print(
            f"run {len(runs) - 1}: setup {run['setup_s']:.3f} s, "
            f"{run['n_blocks'] / run['wall_s']:.2f} blocks/s, "
            f"peak rss {run['peak_rss_bytes'] / 2**20:.1f} MiB, "
            f"{bad} blocks differ from the oracle"
        )
    good = [r for r in runs if "error" not in r]
    if not good:
        raise BenchError("every timed run failed")
    score = good[0]["score"]
    print(f"timed funnel: {_fmt_funnel(good[0]['funnel'])}")
    print(
        f"wfh: {score['true_pos']}/{score['relevant']} WFH blocks detected, "
        f"{score['false_pos']} false positives"
    )

    def median(key: Any) -> float:
        return statistics.median(key(r) for r in good)

    values = {
        "blocks_per_s": median(lambda r: r["n_blocks"] / r["wall_s"]),
        "setup_s": median(lambda r: r["setup_s"]),
        "peak_rss_mib": median(lambda r: r["peak_rss_bytes"] / 2**20),
        "cpu_s_per_block": median(
            lambda r: (r["cpu_self_s"] + r["cpu_children_s"]) / r["n_blocks"]
        ),
        "wfh_recall": median(lambda r: r["score"]["recall"]),
        "wfh_precision": median(lambda r: r["score"]["precision"]),
        "wfh_onset_err_days": median(lambda r: r["score"]["onset_err_days"]),
        "ok_frac": 1.0 - failed / attempted,
    }
    return _result(failed == 0, attempted, failed, values, "end_to_end")


def compare_digests(expected: dict[str, str], got: dict[str, str]) -> int:
    """Blocks whose result differs from, or is missing against, ``expected``."""
    failed = sum(1 for cidr, digest in expected.items() if got.get(cidr) != digest)
    return failed + sum(1 for cidr in got if cidr not in expected)


def per_layer(args: argparse.Namespace, workdir: Path) -> dict[str, Any]:
    result = run_child("trace", args, workdir, workdir / "template")
    print(f"funnel: {_fmt_funnel(result['funnel'])}")
    print(
        "layer shares of traced wall: "
        + ", ".join(f"{k} {v:.1%}" for k, v in result["layer_shares"].items())
    )
    return _result(
        result["failed"] == 0, result["compared"], result["failed"], result["metrics"], "per_layer"
    )


def every_workload(args: argparse.Namespace, workloads: list[str]) -> dict[str, Any]:
    """Run each workload in its own ``run.py`` process and tabulate them.

    Metric names in the combined result are ``<workload>/<metric>``.
    """
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in workloads:
        cmd = [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--world-seed", str(args.world_seed),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise BenchError(f"{workload} exited with {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
            rows.append((workload, name, metric["value"], metric["unit"]))
    width = max(len(name) for _, name, _, _ in rows)
    for workload, name, value, unit in rows:
        print(f"{workload:18s} {name:{width}s} {value:14.6g} {unit}")
    return combined


def one_workload(args: argparse.Namespace) -> dict[str, Any]:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        return (per_layer if args.trace else end_to_end)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True, help="dispatch-order seed")
    parser.add_argument("--seconds", type=float, required=True, help="timed-run budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--world-seed", type=int, default=11)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        result = (
            every_workload(args, workloads) if args.workload == "all" else one_workload(args)
        )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
