"""One benchmark run of one workload, in a fresh process.

Generates the workload's train and held-out sets from the seed (untimed).
Then it repeats one iteration of the user pipeline while another iteration
fits in ``--seconds``, and always at least once: ``train --epochs 0``
several times (set-up), ``train`` once, then ``eval`` and ``infer`` several
times, each through ``relformer.cli.main`` in this process. It writes a JSON
result with the wall and process CPU time of every command, digests of every
output, the failure counts, and an input and environment record. With ``--traced`` it
installs the span tracer first and runs one iteration.

Usage (from the repository root; ``perfbench/run.py`` is the entry point):
    python3 perfbench/pipeline.py --workload dense_eval --seed 1 --seconds 10 \
        --work .bench_work/x --result .bench_work/x/result.json [--traced] [--toy]
"""

import os

# BLAS threads are fixed before numpy loads; eval and infer run at --threads 1.
BLAS_THREADS = "1"
EVAL_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from workloads import WORKLOADS  # noqa: E402


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _sha256_dir(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0" + _sha256_file(os.path.join(path, name)).encode())
    return h.hexdigest()


def _shape(workload, toy: bool) -> tuple[dict, int, int]:
    """(config JSON payload, train videos, test videos)."""
    model = dict(workload.model)
    train_videos, test_videos = workload.train_videos, workload.test_videos
    if toy:
        model.update(workload.toy["model"])
        train_videos = workload.toy["train_videos"]
        test_videos = workload.toy["test_videos"]
    synth = dict(workload.synth)
    if "d_a" in model:
        synth["d_a"] = model["d_a"]
    config = {"model": model, "train": dict(workload.train), "synth": synth,
              "eval": {}, "seed": 0}
    return config, train_videos, test_videos


def generate(workload, seed: int, work: str, toy: bool) -> tuple[str, str, str]:
    """Write the train set, the held-out set and the config; return their paths."""
    from relformer.dataset_io import save_dataset
    from relformer.synth import SynthConfig, synth_generate

    config, train_videos, test_videos = _shape(workload, toy)
    paths = []
    # Any integer seed maps to a non-negative generator seed.
    train_seed = 2 * seed if workload.train_seed is None else workload.train_seed
    for name, videos, data_seed in (("train_data", train_videos, train_seed % 2**64),
                                    ("test_data", test_videos, (2 * seed + 1) % 2**64)):
        cfg = SynthConfig(**{**config["synth"], "videos": videos})
        samples, vocab = synth_generate(cfg, data_seed)
        path = os.path.join(work, name)
        save_dataset(path, samples, vocab, force=True)
        paths.append(path)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(config, f, sort_keys=True)
    return paths[0], paths[1], config_path


def describe_inputs(train_dir: str, test_dir: str) -> dict:
    from relformer.dataset_io import load_dataset

    out = {}
    for name, path in (("train", train_dir), ("test", test_dir)):
        samples, _ = load_dataset(path)
        n = len(samples)
        out[name] = {
            "videos": n,
            "mean_tracklets": sum(len(s.tracklets) for s in samples) / n,
            "mean_track_frames": sum(t.length for s in samples for t in s.tracklets) / n,
            "mean_gt_relations": sum(len(s.gt_relations) for s in samples) / n,
        }
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads(),
            "nproc": os.cpu_count(), "eval_threads": EVAL_THREADS}


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or the pinned env value."""
    import ctypes
    import glob

    import numpy as np
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib_path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"env:{BLAS_THREADS}"


def _cpu_seconds() -> float:
    """CPU seconds of this process, all its threads, and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Runner:
    """Runs CLI commands in-process, timing each and counting failures."""

    def __init__(self, recorder=None):
        from relformer.cli import main
        self.main = main
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def command(self, label: str, argv: list[str]) -> tuple[float, float] | None:
        """(wall seconds, CPU seconds) of ``main(argv)``; None (and one failure)
        on nonzero exit."""
        self.attempted += 1
        rec = self.recorder
        sink = io.StringIO()
        if rec is not None:
            rec.command = label
            root = rec.open("cli.main")
        t0, c0 = time.perf_counter(), _cpu_seconds()
        try:
            with redirect_stdout(sink):
                code = self.main(argv)
        except Exception:  # a crash is one failed command, not a lost run
            code = "an exception:\n" + traceback.format_exc(limit=-3)
        finally:
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - c0
            if rec is not None:
                rec.close(root)
        if code != 0:
            self.fail(f"{label}: exited with {code}")
            return None
        return wall, cpu

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        self.errors.append(message)


def check_loss_trace(runner: Runner, path: str, expected_steps: int,
                     videos: int, batch: int) -> tuple[int, float]:
    """Counts each train video-step as one operation; returns (video-steps, last loss)."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    steps_per_epoch = -(-videos // batch)
    video_steps, last = 0, float("nan")
    for i, row in enumerate(rows):
        in_epoch = i % steps_per_epoch
        size = min(batch, videos - in_epoch * batch)
        runner.attempted += size
        video_steps += size
        last = float(row[2])
        if not math.isfinite(last):
            runner.fail(f"loss_trace row {i}: non-finite loss {row[2]}", size)
    if len(rows) != expected_steps:
        runner.fail(f"loss_trace: {len(rows)} steps, expected {expected_steps}")
    return video_steps, last


def check_report(runner: Runner, report_path: str, infer_dir: str,
                 test_videos: int) -> tuple[dict, int]:
    """Counts each eval and infer video as one operation; returns the report
    and the number of predictions infer wrote."""
    with open(report_path, encoding="utf-8") as f:
        report = json.load(f)
    rates = {k: v for k, v in report.items() if k != "per_video"}
    bad = [k for k, v in rates.items() if not 0.0 <= v <= 1.0]
    if bad:
        runner.fail(f"report rates outside [0, 1]: {bad}")
    runner.attempted += 2 * test_videos
    names = sorted(os.listdir(infer_dir))
    predictions = 0
    if len(names) != test_videos:
        runner.fail(f"infer wrote {len(names)} files for {test_videos} videos")
    for name in names:
        vid = name[len("predictions_"):-len(".json")]
        with open(os.path.join(infer_dir, name), encoding="utf-8") as f:
            relations = json.load(f)["relations"]
        predictions += len(relations)
        entry = report["per_video"].get(vid, {})
        per_video_bad = [k for k, v in entry.items()
                         if k not in ("gt_relations", "predictions") and not 0.0 <= v <= 1.0]
        if per_video_bad or entry.get("predictions", len(relations)) != len(relations):
            runner.fail(f"video {vid}: report disagrees with infer or has bad rates")
    return report, predictions


def run_iteration(runner: Runner, workload, train_dir: str, test_dir: str,
                  config: str, work: str, train_videos: int, test_videos: int,
                  index: int) -> dict | None:
    out = os.path.join(work, f"iter{index}")
    setup_out = os.path.join(out, "setup")
    train_out = os.path.join(out, "train")
    report = os.path.join(out, "report.json")
    infer_dir = os.path.join(out, "infer")
    base = ["--config", config, "--quiet"]
    it = {"setup_s": [], "setup_cpu_s": []}
    setup_digests = set()
    for _ in range(workload.setup_reps):
        times = runner.command("setup", ["train", "--data", train_dir, "--out", setup_out,
                                         "--epochs", "0"] + base)
        if times is None:
            return None
        it["setup_s"].append(times[0])
        it["setup_cpu_s"].append(times[1])
        setup_digests.add(_sha256_file(os.path.join(setup_out, "model.ckpt")))
    if len(setup_digests) != 1:
        runner.fail("setup checkpoints differ between repeats")

    times = runner.command("train", ["train", "--data", train_dir, "--out", train_out] + base)
    if times is None:
        return None
    it["train_s"], it["train_cpu_s"] = times
    ckpt = os.path.join(train_out, "model.ckpt")
    trace = os.path.join(train_out, "loss_trace.csv")
    epochs = workload.train["epochs"]
    batch = workload.train["batch_size"]
    it["video_steps"], it["last_loss"] = check_loss_trace(
        runner, trace, epochs * -(-train_videos // batch), train_videos, batch)

    eval_argv = ["--data", test_dir, "--ckpt", ckpt, "--config", config,
                 "--threads", str(EVAL_THREADS)]
    for key in ("eval_s", "eval_cpu_s", "infer_s", "infer_cpu_s"):
        it[key] = []
    outputs = set()
    for _ in range(workload.eval_reps):
        eval_times = runner.command("eval", ["eval", "--out", report] + eval_argv)
        infer_times = runner.command("infer", ["infer", "--out", infer_dir] + eval_argv)
        if eval_times is None or infer_times is None:
            return None
        for command, (wall, cpu) in (("eval", eval_times), ("infer", infer_times)):
            it[f"{command}_s"].append(wall)
            it[f"{command}_cpu_s"].append(cpu)
        doc, predictions = check_report(runner, report, infer_dir, test_videos)
        outputs.add((_sha256_file(report), _sha256_dir(infer_dir)))
    if len(outputs) != 1:
        runner.fail("eval or infer outputs differ between repeats")
    it["reldet_map"] = doc["reldet_map"]
    it["predictions_per_video"] = predictions / test_videos
    report_digest, infer_digest = outputs.pop()
    it["digests"] = {"setup_ckpt": setup_digests.pop(), "model_ckpt": _sha256_file(ckpt),
                     "loss_trace": _sha256_file(trace), "report": report_digest,
                     "infer": infer_digest}
    return it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True, help="working directory for this run")
    parser.add_argument("--result", required=True, help="result JSON path")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", help="write the traced run's spans here (JSONL)")
    parser.add_argument("--toy", action="store_true", help="self-test shape")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    os.makedirs(args.work, exist_ok=True)
    import relformer.cli  # noqa: F401  (imports every module before the tracer patches)
    train_dir, test_dir, config = generate(workload, args.seed, args.work, args.toy)
    _, train_videos, test_videos = _shape(workload, args.toy)
    inputs = describe_inputs(train_dir, test_dir)

    recorder = None
    if args.traced:
        import tracer
        recorder = tracer.Recorder()
        tracer.install(recorder)
    runner = Runner(recorder)

    iterations = []
    start = time.perf_counter()
    while True:
        index = len(iterations)
        it = run_iteration(runner, workload, train_dir, test_dir, config, args.work,
                           train_videos, test_videos, index)
        if it is None:
            break
        if iterations and it["digests"] != iterations[0]["digests"]:
            runner.fail(f"iteration {index}: outputs differ from iteration 0")
        iterations.append(it)
        shutil.rmtree(os.path.join(args.work, f"iter{index}"), ignore_errors=True)
        elapsed = time.perf_counter() - start
        if args.traced or elapsed * (len(iterations) + 1) / len(iterations) > args.seconds:
            break  # the next iteration would end past --seconds

    result = {
        "workload": workload.name, "seed": args.seed, "traced": args.traced,
        "toy": args.toy, "iterations": iterations,
        "attempted": runner.attempted, "failed": runner.failed, "errors": runner.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inputs": inputs,
        "environment": environment(),
        "train_videos": train_videos, "test_videos": test_videos,
    }
    if recorder is not None:
        result["layers"] = [[cmd, name, own, calls]
                            for (cmd, name), (own, calls) in recorder.layer_totals().items()]
        result["counts"] = [[cmd, name, value]
                            for (cmd, name), value in recorder.counts.items()]
        if args.spans:
            recorder.write_spans(args.spans)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
