"""rftag benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {train,tag,score} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, never from an installed copy.  With ``--trace 0`` the
end-to-end metrics are measured; with ``--trace 1`` the package's public
functions are wrapped (see ``tracer.py``) and the per-layer metrics are
reported instead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it, each
starting with ``#``, repeat the machine, the settings and every metric for
people.  ``--tiny`` shrinks every input for the self-test.

Scratch files go to ``.rftag_bench/`` in the checkout and are removed at
exit, except the span dump of a traced run (``.rftag_bench/traces/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUPS = 5            # set-up repeats; setup_s is their median
WARMUP_S = 2.0        # busy BLAS time before set-up and the timed region
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> unit; throughput is per workload: training samples/s on train,
# seconds of audio per second (the real-time factor) on tag, tracks/s on score.
END_TO_END = {
    "throughput": "items/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
}
THROUGHPUT_UNIT = {"train": "samples/s", "tag": "audio-s/s", "score": "tracks/s"}


def per_layer_units() -> dict:
    from tracer import STAGES

    units = {
        "autodiff.conv2d.fwd_s": "s", "autodiff.conv2d.bwd_s": "s",
        "autodiff.conv2d.calls": "count",
    }
    for stage in STAGES:
        units[f"autodiff.conv2d.{stage}.fwd_s"] = "s"
        units[f"autodiff.conv2d.{stage}.bwd_s"] = "s"
    units.update({
        "autodiff.conv2d.gflop": "gflop", "autodiff.conv2d.col_mb": "MB",
        "autodiff.batchnorm2d.fwd_s": "s", "autodiff.batchnorm2d.bwd_s": "s",
        "autodiff.pool2d.fwd_s": "s", "autodiff.pool2d.bwd_s": "s",
        "autodiff.elementwise.fwd_s": "s", "autodiff.elementwise.bwd_s": "s",
        "autodiff.other.fwd_s": "s", "autodiff.other.bwd_s": "s",
        "autodiff.backward_s": "s", "autodiff.backward.self_s": "s",
        "autodiff.adam_step_s": "s", "autodiff.tape.records": "count",
        "autodiff.tapes_alive_max": "count", "autodiff.self_s": "s",
        "models.forward.train_s": "s", "models.forward.eval_s": "s",
        "models.fa_channel.fwd_s": "s", "models.fa_channel.bwd_s": "s",
        "models.shake_combine_s": "s", "models.build_model_s": "s",
        "models.load_model_s": "s", "models.save_checkpoint_s": "s", "models.self_s": "s",
        "dsp.load_wav_s": "s", "dsp.logmel_s": "s", "dsp.audio_s": "s", "dsp.self_s": "s",
        "inference.predict_scores_s": "s", "inference.windows": "count",
        "inference.window_overlap": "ratio", "inference.self_s": "s",
        "evaluation.load_predictions_s": "s", "evaluation.ensemble_average_s": "s",
        "evaluation.macro_pr_auc_s": "s", "evaluation.tune_thresholds_s": "s",
        "evaluation.tune_thresholds.candidates": "count",
        "evaluation.apply_thresholds_s": "s", "evaluation.save_predictions_s": "s",
        "evaluation.snapshot_ensemble_s": "s", "evaluation.self_s": "s",
        "training.train_s": "s", "training.refresh_bn_statistics_s": "s",
        "training.mixup_batch_s": "s", "training.swa_update_s": "s",
        "training.normalization_stats_s": "s", "training.steps": "count",
        "training.self_s": "s",
        "bench.self_s": "s", "trace.wall_s": "s", "trace.spans": "count",
        "trace.overhead_s": "s", "trace.overhead_frac": "frac",
    })
    return units


def limit_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def blas_info() -> dict:
    """BLAS library name and the thread count it actually runs with."""
    import ctypes
    import glob

    import numpy as np

    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": f"{config.get('name')} {config.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}
    libs_dir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs_dir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                return info
    return info


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(nproc: int, seed: int) -> dict:
    import numpy as np

    info = {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "seed": seed, "commit": git_commit()}
    info.update(blas_info())
    return info


def warm_blas(seconds: float) -> None:
    """Start the BLAS thread pool, then keep it busy for ``seconds``.

    The first seconds of compute in a fresh process run measurably slower
    on small virtual machines, so set-up and the timed region start after
    a spin.
    """
    import numpy as np

    a = np.ones((256, 256), dtype=np.float32)
    end = time.perf_counter() + seconds
    while True:
        a @ a
        if time.perf_counter() >= end:
            return


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run operations until the next one would end past ``seconds``.

    At least one operation runs; a workload that is not repeatable runs
    exactly one.  Checks run outside the timed region and, in a traced run,
    with the tracer removed.
    """
    rates, walls = [], []
    attempted = failed = 0
    while True:
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run()
            else:
                result = tracer.span(("bench.op_s",), workload.run, (), {})
        except Exception:
            traceback.print_exc()
            result = None
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        walls.append(wall)
        rates.append(workload.units / wall)
        attempted += workload.attempts
        if result is None:
            failed += workload.attempts
        else:
            try:
                failed += workload.check(result)
            except Exception:
                traceback.print_exc()
                failed += workload.attempts
        if not workload.repeatable or sum(walls) + statistics.median(walls) > seconds:
            break
    return {"rates": rates, "walls": walls, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "tag", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/rftag/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not an rftag checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2

    nproc = limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import rftag
    if Path(rftag.__file__).resolve().parent != ROOT / "src" / "rftag":
        print(f"error: imported rftag from {rftag.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import workloads
    import tracer as tracing

    sizes = workloads.TINY if args.tiny else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes)
    scratch = ROOT / ".rftag_bench"
    work_dir = scratch / f"{args.workload}-{os.getpid()}"
    try:
        warm_blas(WARMUP_S)
        setup_times = []
        for _ in range(SETUPS):
            shutil.rmtree(work_dir, ignore_errors=True)
            work_dir.mkdir(parents=True)
            t0 = time.perf_counter()
            workload.setup(work_dir)
            setup_times.append(time.perf_counter() - t0)

        if args.trace:
            tracer = tracing.Tracer()
            for model in workload.built_models():
                tracer.register_model(model)
            run = measure(workload, args.seconds, tracer)
            values = tracer.metrics(tracing.calibrate(), len(run["walls"]))
            units = per_layer_units()
            metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                       for name, unit in units.items()}
            trace_dir = scratch / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(
                {"spans": tracer.span_records(), "metrics": values}))
        else:
            run = measure(workload, args.seconds)
            values = {
                "throughput": statistics.median(run["rates"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": statistics.median(setup_times),
                "ok_frac": (run["attempted"] - run["failed"]) / run["attempted"],
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"# machine {json.dumps(machine(nproc, args.seed))}")
    print(f"# workload {args.workload}: {len(run['walls'])} operation(s), "
          f"wall {sum(run['walls']):.3f} s, setups {[round(t, 4) for t in setup_times]}, "
          f"failed {run['failed']}/{run['attempted']}")
    for name, m in metrics.items():
        unit = THROUGHPUT_UNIT[args.workload] if name == "throughput" else m["unit"]
        print(f"# {name} = {m['value']:.6g} {unit}")
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
