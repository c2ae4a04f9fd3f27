"""Repository benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload ref_train --seed 1 --seconds 10 --trace 0

Run from the repository root. Each run starts a fresh child process
(``pipeline.py``) that generates the workload's inputs from the seed and
times ``relformer train``/``eval``/``infer`` through ``relformer.cli.main``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` a second child repeats one iteration with the span tracer
installed, its outputs must be byte-identical to the untraced child's, and
the last line carries the per-layer metrics. The line before it is a record
of the inputs, environment, output digests and checks; the same record is
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170.0

END_TO_END = (
    ("train_videos_per_s", "video-steps/s"),
    ("eval_videos_per_s", "videos/s"),
    ("infer_videos_per_s", "videos/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def _layer_unit(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    if name.endswith(".frames"):
        return "frames"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("hit_ratio") or ".share." in name:
        return "ratio"
    return "count"


PER_LAYER = tuple((name, _layer_unit(name)) for name in tracer.layer_metric_names())


def run_child(workload: str, seed: int, seconds: float, work: str, traced: bool,
              toy: bool, deadline: float, spans: str | None = None) -> dict | None:
    """Run pipeline.py in a fresh process; its result dict, or None if it failed."""
    result = os.path.join(work, "traced.json" if traced else "untraced.json")
    cmd = [sys.executable, os.path.join(HERE, "pipeline.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--work", os.path.join(work, "traced" if traced else "untraced"),
           "--result", result]
    if traced:
        cmd.append("--traced")
    if spans:
        cmd += ["--spans", spans]
    if toy:
        cmd.append("--toy")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("RELFORMER_THREADS", None)
    log = result + ".log"
    try:
        with open(log, "w", encoding="utf-8") as log_f:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log_f,
                                  stderr=subprocess.STDOUT,
                                  timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} child timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.isfile(result):
        with open(log, encoding="utf-8") as f:
            sys.stderr.write(f.read()[-4000:])
        return None
    with open(result, encoding="utf-8") as f:
        return json.load(f)


def _iteration_wall(it: dict) -> float:
    return sum(it["setup_s"]) + it["train_s"] + sum(it["eval_s"]) + sum(it["infer_s"])


def throughputs(res: dict, clock: str) -> dict:
    """Total work over total time across the run, in ``clock`` seconds
    (``"cpu"`` or ``"wall"``)."""
    suffix = "_cpu_s" if clock == "cpu" else "_s"
    its = res["iterations"]
    eval_videos = res["test_videos"] * sum(len(it["eval_s"]) for it in its)
    return {"train_videos_per_s": (sum(it["video_steps"] for it in its)
                                   / sum(it["train" + suffix] for it in its)),
            "eval_videos_per_s": eval_videos / sum(sum(it["eval" + suffix]) for it in its),
            "infer_videos_per_s": eval_videos / sum(sum(it["infer" + suffix]) for it in its)}


def end_to_end(res: dict) -> dict:
    """Times are the child's CPU seconds, not wall seconds. The program runs on
    one thread (BLAS pinned, eval at --threads 1), so on an idle machine the
    two agree; on a shared host wall time also counts the spells in which the
    host ran other tenants, which swings a run by 10-20%. Throughputs are total
    work over total time across the run; set-up time is the median of its
    repeats."""
    values = {
        **throughputs(res, "cpu"),
        "setup_s": statistics.median(s for it in res["iterations"] for s in it["setup_cpu_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(traced: dict, overhead_s: float) -> tuple[dict, tuple[str, bool]]:
    """(per-layer metrics, the workload's dominant-layer claim and whether it
    holds) from the traced child's totals."""
    totals = {(cmd, name): (own, calls) for cmd, name, own, calls in traced["layers"]}
    counts = {(cmd, name): value for cmd, name, value in traced["counts"]}
    values: dict[str, float] = {}
    for command, layers in tracer.LAYERS_BY_COMMAND.items():
        for layer in layers:
            own, calls = totals.get((command, layer), (0.0, 0))
            values[f"{command}.{layer}.ms"] = own * 1000.0
            values[f"{command}.{layer}.calls"] = calls
        values[f"{command}.unwrapped.ms"] = totals.get((command, "cli.main"), (0.0, 0))[0] * 1000.0
    for command, counter in tracer.COUNTERS:
        values[f"{command}.{counter}"] = counts.get((command, counter), 0)
    match_calls = counts.get(("eval", "metrics.match_relation.calls"), 0)
    values["eval.metrics.match_relation.hit_ratio"] = (
        counts.get(("eval", "metrics.match_relation.hits"), 0) / match_calls
        if match_calls else 0.0)

    def command_ms(command):
        return sum(own for (cmd, _), (own, _) in totals.items() if cmd == command) * 1000.0

    hot = sum(values[f"train.{layer}.ms"] for layer in
              ("model.build_value_matrix", "autodiff.backward", "nn.Adam.step"))
    values["train.share.value_backward_adam"] = hot / command_ms("train")
    metrics_ms = sum(values[f"eval.metrics.{f}.ms"]
                     for f in ("reldet_scores", "reltag_scores", "tracklet_map"))
    values["eval.share.metrics"] = metrics_ms / command_ms("eval")
    forward = {layer: sum(values[f"{cmd}.{layer}.ms"] for cmd in ("train", "eval", "infer"))
               for layer in tracer.FORWARD}
    values["forward.share.init_tracklet_feature"] = (
        forward["features.init_tracklet_feature"] / sum(forward.values()))
    values["trace.overhead.ms"] = overhead_s * 1000.0
    claims = {
        "ref_train": ("value matrix + backward + Adam > 1/2 of train self time",
                      values["train.share.value_backward_adam"] > 0.5),
        "dense_eval": ("metrics >= 1/4 of eval self time", values["eval.share.metrics"] >= 0.25),
        "long_tracks": ("init_tracklet_feature is the largest forward layer",
                        max(forward, key=forward.get) == "features.init_tracklet_feature"),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    return metrics, claims[traced["workload"]]


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False,
        out_dir: str | None = None) -> tuple[dict, dict]:
    """(final result line, record) for one benchmark run."""
    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = out_dir or os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-toy' if toy else ''}"
    work = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        plain = run_child(workload, seed, seconds, work, False, toy, deadline)
        traced = None
        if plain is not None and trace:
            traced = run_child(workload, seed, seconds, work, True, toy, deadline,
                               spans=os.path.join(out_dir, f"{tag}.spans.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record: dict = {"workload": workload, "seed": seed, "trace": int(trace), "toy": toy}
    children = [c for c in (plain, traced) if c is not None]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    errors = [e for c in children for e in c["errors"]]
    if plain is None or (trace and traced is None):
        errors.append("a benchmark child exited without a result")
        failed += 1
    if plain is not None:
        first = plain["iterations"][0] if plain["iterations"] else {}
        record.update(
            inputs=plain["inputs"], environment=plain["environment"],
            iterations=len(plain["iterations"]),
            digests=first.get("digests"), reldet_map=first.get("reldet_map"),
            last_loss=first.get("last_loss"),
            predictions_per_eval_video=first.get("predictions_per_video"),
            iteration_walls_s=[_iteration_wall(it) for it in plain["iterations"]])
    metrics: dict = {}
    if plain is not None and plain["iterations"]:
        metrics = end_to_end(plain)
        record.update(wall_videos_per_s=throughputs(plain, "wall"),
                      setup_wall_s=statistics.median(
                          s for it in plain["iterations"] for s in it["setup_s"]))
    if traced is not None and traced["iterations"] and plain["iterations"]:
        traced_it = traced["iterations"][0]
        if traced_it["digests"] != plain["iterations"][0]["digests"]:
            errors.append("traced outputs differ from untraced outputs")
            failed += 1
        overhead = _iteration_wall(traced_it) - statistics.median(
            _iteration_wall(it) for it in plain["iterations"])
        metrics, (claim, holds) = per_layer(traced, overhead)
        record.update(tracing_overhead_s=overhead, dominant_layer={claim: holds},
                      traced_wall_s=_iteration_wall(traced_it))
    elif trace:
        metrics = {}
    record["errors"] = errors
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    final = {"correct": failed == 0 and bool(metrics), "attempted": max(attempted, 1),
             "failed": failed, "metrics": metrics}
    return final, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="relformer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "relformer", "cli.py")):
        print(f"perfbench: no relformer sources under {ROOT}/src", file=sys.stderr)
        return 2
    final, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(final))
    return 0 if final["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
