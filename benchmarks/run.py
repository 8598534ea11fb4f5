#!/usr/bin/env python3
"""scenewise benchmark: one workload per run, end to end or traced.

    python3 benchmarks/run.py --workload gru_attn_train --seed 1 --seconds 20 --trace 0

Inputs come from ``generate_synthetic_corpus`` with the given seed.  The
run repeats whole passes (ingest, model construction and every phase of
the workload) until ``--seconds`` have passed, and always completes at
least one pass and five set-ups.  With ``--trace 0`` it reports the
end-to-end metrics as medians over passes; with ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics read
from the first traced pass.  Every metric is printed with its unit, and
the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A result record with
the environment goes to ``.bench_results/``; scratch inputs live under
``.bench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread: with the default two, the GRU's matmuls spread onto the
# second vCPU and its contention no longer tracks the speed probe's.  Set
# before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
MIN_SETUPS = 5


def import_library():
    """Import scenewise from this checkout's source tree, never elsewhere."""
    package = SRC / "scenewise"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no scenewise sources at {package}")
    sys.path.insert(0, str(SRC))
    import scenewise
    if Path(scenewise.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported scenewise from {scenewise.__file__}")


def blas_record() -> dict:
    """BLAS library and the thread count it reports."""
    import numpy as np
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    maps = Path("/proc/self/maps")
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line and line.split()[-1].startswith("/")}) \
        if maps.exists() else []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": f"{info.get('name', 'unknown')} {info.get('version', '')}".strip(),
            "blas_threads": threads, "blas_threading": "pinned to 1"}


def environment(seed: int, spec_hash: str) -> dict:
    import numpy as np
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            **blas_record(), "machine": platform.machine(), "seed": seed,
            "spec_hash": spec_hash}


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, inputs, work, seconds: float, workloads) -> dict:
    """Untraced passes until the deadline, plus extra set-ups up to MIN_SETUPS.

    A pass that fails ends the run; it still counts in the operations.
    """
    deadline = perf_counter() + seconds
    passes, broken = [], []
    while not passes or perf_counter() < deadline:
        p = workloads.Pass()
        try:
            workloads.run_pass(workload, inputs, work, p)
        except workloads.PassFailed:
            broken.append(p)
            break
        passes.append(p)
    extra = []
    while passes and not broken and len(passes) + len(extra) < MIN_SETUPS:
        p = workloads.Pass()
        try:
            p.phase("setup", inputs.n_scripts,
                    lambda: workloads.setup(workload, inputs))
        except workloads.PassFailed:
            broken.append(p)
            break
        extra.append(p)
    return {"passes": passes, "broken": broken, "extra": extra}


def end_to_end(workload, passes, extra, scaled: bool = True) -> dict:
    infer = "infer" if workload.kind == "tags" else "trajectories"
    return {
        "setup_s": (median([(p.scaled if scaled else p.seconds)["setup"]
                            for p in passes + extra]), "s"),
        "wall_s": (median([p.wall(scaled) for p in passes]), "s"),
        "train_scripts_per_s": (median([p.rate("train", scaled) for p in passes]),
                                "scripts/s"),
        "infer_scripts_per_s": (median([p.rate(infer, scaled) for p in passes]),
                                "scripts/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def extra_figures(workload, run, attempted, failed) -> dict:
    """Printed beside the JSON metrics: the error rate, the quality guard,
    the descriptor workload's rates under their own names, and the
    unscaled times."""
    passes = run["passes"]
    out = {"error_rate": (failed / attempted, "ratio")}
    if workload.kind == "tags":
        out["val_ap"] = (passes[-1].quality["val_ap"], "AP")
    if "extra" not in run:  # traced runs time nothing end to end
        return out
    if workload.kind != "tags":
        out["descriptor_scripts_per_s"] = (
            median([p.rate("train") for p in passes]), "scripts/s")
        out["trajectory_scripts_per_s"] = (
            median([p.rate("trajectories") for p in passes]), "scripts/s")
    raw = end_to_end(workload, passes, run["extra"], scaled=False)
    out.update({f"unscaled.{k}": v for k, v in raw.items() if k != "peak_rss_mb"})
    return out


def per_layer(tracer, traced, overhead: float, pinned: int) -> dict:
    """Per-layer metrics from the first traced pass; ``overhead`` is the
    median scaled traced pass over the median scaled untraced pass."""
    from spans import percentile
    layers = tracer.layers()
    counts, samples = tracer.counts, tracer.samples

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def busy(name):
        return layers.get(name, {}).get("busy_s", 0.0)

    def own(name):
        return layers.get(name, {}).get("self_s", 0.0)

    nodes = samples.get("autodiff.tape_nodes", [])
    clips = calls("autodiff.clip")
    cls_steps = samples.get("classifier.train.step_ms", [])
    library_self = sum(v["self_s"] for k, v in layers.items()
                       if not k.startswith(("trace.", "bench.")))
    return {
        "parser.scripts": (calls("parser.parse_script"), "count"),
        "parser.lines": (counts["parser.lines"], "count"),
        "parser.busy_s": (busy("parser.parse_script"), "s"),
        "corpus.ingest_self_s": (own("corpus.ingest"), "s"),
        "corpus.embeddings_load_s": (busy("corpus.embeddings_load"), "s"),
        "corpus.tokenize_calls": (calls("corpus.tokenize"), "count"),
        "corpus.tokenize_busy_s": (busy("corpus.tokenize"), "s"),
        "corpus.token_rows_calls": (calls("corpus.token_rows"), "count"),
        "corpus.token_rows_busy_s": (busy("corpus.token_rows"), "s"),
        "encoders.statement_calls": (calls("encoders.statement"), "count"),
        "encoders.statement_self_s": (own("encoders.statement"), "s"),
        "encoders.scene_calls": (calls("encoders.scene"), "count"),
        "encoders.scene_self_s": (own("encoders.scene"), "s"),
        "encoders.script_calls": (calls("encoders.script"), "count"),
        "encoders.script_self_s": (own("encoders.script"), "s"),
        "autodiff.tape_nodes_per_step_p50": (percentile(nodes, 50), "nodes"),
        "autodiff.tape_nodes_per_step_max": (max(nodes, default=0), "nodes"),
        "autodiff.pinned_script_nodes": (pinned, "nodes"),
        "autodiff.backward_calls": (calls("autodiff.backward"), "count"),
        "autodiff.backward_busy_s": (busy("autodiff.backward"), "s"),
        "autodiff.clip_busy_s": (busy("autodiff.clip"), "s"),
        "autodiff.clipped_ratio": (counts["autodiff.clipped"] / clips
                                   if clips else 0.0, "ratio"),
        "autodiff.adam_busy_s": (busy("autodiff.adam"), "s"),
        "classifier.steps": (len(cls_steps), "count"),
        "classifier.step_ms_p50": (percentile(cls_steps, 50), "ms"),
        "classifier.step_ms_p90": (percentile(cls_steps, 90), "ms"),
        "classifier.loss_busy_s": (busy("classifier.loss"), "s"),
        "classifier.validation_busy_s": (busy("classifier.validation"), "s"),
        "classifier.predict_busy_s": (busy("classifier.predict"), "s"),
        "classifier.val_ap": (traced.quality.get("val_ap", 0.0), "AP"),
        "descriptors.pretrain_s": (busy("descriptors.pretrain"), "s"),
        "descriptors.steps": (len(samples.get("descriptors.train.step_ms", [])),
                              "count"),
        "descriptors.train_self_s": (own("descriptors.train"), "s"),
        "descriptors.hinge_busy_s": (busy("descriptors.hinge"), "s"),
        "descriptors.bag_encode_calls": (calls("descriptors.bag_encode"), "count"),
        "descriptors.bag_encode_busy_s": (busy("descriptors.bag_encode"), "s"),
        "descriptors.report_s": (busy("descriptors.report"), "s"),
        "descriptors.weights_busy_s": (busy("descriptors.weights"), "s"),
        "trajectories.build_busy_s": (busy("trajectories.build"), "s"),
        "trajectories.export_busy_s": (busy("trajectories.export"), "s"),
        "trajectories.bytes_out": (counts["trajectories.bytes_out"], "bytes"),
        "evaluation.micro_f1_busy_s": (busy("evaluation.micro_f1"), "s"),
        "evaluation.similarity_f1_busy_s": (busy("evaluation.similarity_f1"), "s"),
        "checkpoint.save_s": (busy("checkpoint.save"), "s"),
        "checkpoint.load_s": (busy("checkpoint.load"), "s"),
        "checkpoint.bytes": (counts["checkpoint.bytes"], "bytes"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.coverage_ratio": (library_self / traced.wall(scaled=False), "ratio"),
    }


def trace(workload, inputs, work, seconds: float, workloads, out_stem: str) -> dict:
    """Alternate untraced and traced passes until the deadline; per-layer
    metrics come from the first traced pass."""
    from spans import Tracer
    deadline = perf_counter() + seconds
    passes, broken, walls, first = [], [], {False: [], True: []}, None
    while first is None or perf_counter() < deadline:
        tracer = Tracer(f"{workload.name}:{inputs.spec_hash[:12]}")
        for traced in (False, True):
            p = workloads.Pass(tracer=tracer if traced else None)
            if traced:
                tracer.install(workloads.LIBRARY)
            try:
                state = workloads.run_pass(workload, inputs, work, p)
            except workloads.PassFailed:
                broken.append(p)
                break
            finally:
                tracer.restore()
            passes.append(p)
            walls[traced].append(p.wall())
        if broken:
            break
        if first is None:
            pinned = 0
            if inputs.pinned is not None:
                pinned = workloads.pinned_tape_nodes(inputs, state["model"],
                                                     state["taxonomy"])
            first = (tracer, p, pinned)
            tracer.write(RESULTS / f"{out_stem}.spans.csv.gz")
    if first is None:
        return {"passes": [], "broken": passes + broken}
    tracer, p, pinned = first
    return {"passes": passes, "broken": broken, "tracer": tracer,
            "metrics": per_layer(tracer, p, median(walls[True]) / median(walls[False]),
                                 pinned)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{stem}-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.generate(
            workload, args.seed, work,
            pinned=bool(args.trace) and workload.kind == "tags")
        if args.trace:
            run = trace(workload, inputs, work, args.seconds, workloads, stem)
        else:
            run = measure(workload, inputs, work, args.seconds, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    passes = run["passes"]
    if not passes:
        print(f"benchmark: no pass completed: {run['broken'][-1].problems}",
              file=sys.stderr)
        return 1
    metrics = run["metrics"] if args.trace else \
        end_to_end(workload, passes, run["extra"])
    everything = passes + run.get("extra", []) + run["broken"]
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    extra = extra_figures(workload, run, attempted, failed)
    env = environment(args.seed, inputs.spec_hash)

    print(f"workload {workload.name}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"passes {len(passes)}, operations attempted {attempted}, "
          f"failed {failed}")
    for p in everything:
        for problem in p.problems:
            print(f"FAILED {problem}")
    if args.trace and inputs.pinned is not None:
        print(f"pinned 6-scene, 30-statement script: "
              f"{metrics['autodiff.pinned_script_nodes'][0]} tape nodes "
              f"(ROADMAP, GRU+Attn: {workloads.ROADMAP_PINNED_NODES})")
    if args.trace and run["tracer"].absent:
        print("absent (reported as 0): " + ", ".join(run["tracer"].absent))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:40s} {value:14.6g} {unit}")

    record = {"workload": workload.name, "trace": args.trace,
              "environment": env, "attempted": attempted, "failed": failed,
              "problems": [q for p in everything for q in p.problems],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in {**metrics, **extra}.items()},
              "passes": [{"seconds": p.seconds, "scaled": p.scaled,
                          "ops": p.ops, "quality": p.quality} for p in passes]}
    if args.trace:
        record["absent"] = run["tracer"].absent
        record["layers"] = run["tracer"].layers()
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
