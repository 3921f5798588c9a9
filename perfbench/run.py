"""End-to-end benchmark of ethsentinel.

    python3 perfbench/run.py --workload batch-dense --seed 0 --seconds 15 --trace 0

Runs one workload (batch-dense, stream-dense or batch-sparse; see
workloads.py) from the root of a source checkout, checks its outputs and
prints a stamped record line, then as the last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` repeats the operations
under the span tracer and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
WORKLOADS = ("batch-dense", "stream-dense", "batch-sparse")
SETUP_REPEATS = 7
# one BLAS thread unless the caller says otherwise: the benchmark is a
# single-threaded closed loop, and a shared pool adds run-to-run noise
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile_tail(samples: list[float]) -> tuple[str, float]:
    """The highest percentile (99, or a multiple of 5 from 95 down to 50)
    with at least ten samples beyond it; the maximum when none has."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99, *range(95, 45, -5)):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", ordered[min(n - 1, int(round(p / 100 * (n - 1))))]
    return "max", ordered[-1]


def measure_setup(config_text: str | None) -> list[float]:
    """Wall time of a fresh interpreter that imports the package and
    loads the workload's engine config, SETUP_REPEATS times."""
    load = (
        f"parse_config_text({config_text!r})" if config_text is not None else "EngineConfig()"
    )
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "from ethsentinel import cli, ensemble, evaluate, ingest, synth; "
        "from ethsentinel.config import EngineConfig, parse_config_text; "
        f"{load}"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def blas_threads():
    """The thread count of the OpenBLAS that numpy wheels bundle; None
    for any other BLAS."""
    import numpy

    for path in sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ethsentinel").glob("*.py*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    result = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return result.stdout.strip() or None


def stamp(seed: int) -> dict:
    import numpy
    from ethsentinel import _hot

    return {
        "hot_compiled": bool(_hot.COMPILED),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def outputs_changed(workload: str, digests: dict):
    """True/False against the digests this benchmark recorded for the
    same inputs; None when it recorded none for them."""
    golden_path = Path(__file__).resolve().parent / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8")).get(workload, {})
    known = [name for name in digests if name in golden]
    if not known:
        return None
    return any(golden[name] != digests[name] for name in known)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ethsentinel" / "__init__.py").is_file():
        print(f"error: no ethsentinel sources under {SRC}", file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads as wl

    workdir = WORKDIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    dense = args.workload != "batch-sparse"
    setup = [] if args.trace else measure_setup(wl.HARNESS_CONFIG_TEXT if dense else None)

    if args.workload == "stream-dense":
        out = wl.run_stream(workdir, args.seed, tracer)
    else:
        out = wl.run_batch(args.workload, workdir, args.seed, args.seconds, tracer)

    precision = out.tp / (out.tp + out.fp) if out.tp + out.fp else 1.0
    recall = out.tp / (out.tp + out.fn) if out.tp + out.fn else 1.0
    if dense and recall < wl.DETECTION_FLOOR:
        out.fail(f"recall {recall:.3f}: detection has broken")
    if not out.latencies:
        out.fail("no operation completed")
        out.latencies.append(0.0)
    # the result reports the fastest op; the mean, median and tail go to
    # the record. On a shared host, neighbours slow whole stretches of a
    # run by up to ~1.8x, so per-op times are bimodal and the share of
    # slowed ops changes from run to run: the median jumps between the
    # modes and the mean follows the share, while the fastest op stays
    # with the undisturbed mode
    tail_name, tail = percentile_tail(out.latencies)
    p50 = statistics.median(out.latencies)
    cells_per_s = sum(out.grid_cells) / out.measured_s if out.measured_s else 0.0
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "stamp": stamp(args.seed),
        "samples": len(out.latencies),
        "tail_percentile": tail_name,
        "digests": out.digests,
        "outputs_changed": outputs_changed(args.workload, out.digests),
        "problems": out.problems,
        "error_rate": out.failed / max(out.attempted, 1),
    }
    if args.workload == "stream-dense":
        record.update(
            advance_min_ms=min(out.latencies) * 1e3,
            advance_mean_ms=statistics.fmean(out.latencies) * 1e3,
            advance_p50_ms=p50 * 1e3,
            **{f"advance_{tail_name}_ms": tail * 1e3},
            retrain_tick_s=out.slowest,
            stream_cells_per_s=cells_per_s,
            setup_fit_s=out.setup_s,
        )
    else:
        record.update(batch_s=p50, batch_min_s=min(out.latencies), batch_max_s=out.slowest)
    if dense:
        record.update(
            alarm_precision=precision,
            alarm_recall=recall,
            precision_floor_met=precision >= wl.PRECISION_FLOOR,
            recall_floor_met=recall >= wl.RECALL_FLOOR,
            events={"tp": out.tp, "fp": out.fp, "fn": out.fn},
        )
    else:
        record.update(clean_alarm_cells=out.alarm_cells, grid_cells=out.grid_cells)

    if tracer is not None:
        tracer.write(workdir / "spans.jsonl")
        units = dict(tracing.per_layer_names())
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in tracer.metrics(out.traced_s, out.measured_s).items()
        }
    else:
        values = {
            "setup_s": (statistics.median(setup) + out.setup_s, "s"),
            "latency_min_ms": (min(out.latencies) * 1e3, "ms"),
            "cells_per_s": (cells_per_s, "cells/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "alarm_cells": (statistics.mean(out.alarm_cells or [0]), "count"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        record["setup_import_s"] = setup
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": not out.problems and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
