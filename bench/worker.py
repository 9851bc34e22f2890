"""One workload in one fresh process; started by ``run.py``.

Prints one JSON object as its last line of standard output. The clock
for ``setup_s`` starts before ``aet2d``, numpy and scipy are imported.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# A run never keeps more repetitions than this, which bounds the spans
# held in memory when a repetition is very short.
MAX_REPS = 100


def machine_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    import aet2d

    src = os.path.realpath(args.src)
    if not os.path.realpath(aet2d.__file__).startswith(src + os.sep):
        sys.exit(f"aet2d imported from {aet2d.__file__}, not from {src}")

    from spans import COMPUTED_METRICS, Tracer, layer_metrics, self_time_by_layer
    from workloads import FULL_SIZES, TOY_SIZES, WORKLOADS

    sizes = TOY_SIZES if args.toy else FULL_SIZES
    workdir = os.path.join(args.out_dir, f"work_{args.workload}_{os.getpid()}")
    tracer = Tracer(args.workload) if args.trace else None
    if tracer:
        tracer.install()
    workload = WORKLOADS[args.workload](sizes, args.seed, workdir)
    workload.setup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    # A traced run makes at least two repetitions, so that its exact
    # counts are compared between two of them; with long repetitions it
    # lasts longer than --seconds.
    min_reps = 2 if args.trace else 1
    walls, done_reps = [], []
    attempted = failed = 0
    correct = True
    first_outputs = None
    problems, op_lines, rel_errors = [], [], []
    start = time.perf_counter()
    while len(walls) < MAX_REPS:
        rep = len(walls)
        if tracer:
            tracer.phase, tracer.rep = "timed", rep
        t = time.perf_counter()
        try:
            result = workload.run(rep)
        except Exception:
            walls.append(time.perf_counter() - t)
            problems.append(f"repetition {rep} raised:\n{traceback.format_exc()}")
            attempted, failed, correct = attempted + 1, failed + 1, False
            break
        walls.append(time.perf_counter() - t)
        done_reps.append(rep)

        outputs = [op.output for op in result.ops]
        first_outputs = first_outputs if first_outputs is not None else outputs
        if not result.joint_ok:
            problems.append(f"repetition {rep} joint check failed: {result.joint_detail}")
        if rep == 0:
            op_lines = [f"{'ok  ' if op.ok else 'FAIL'} {op.label}: {op.detail}" for op in result.ops]
            if result.joint_detail:
                op_lines.append(f"{'ok  ' if result.joint_ok else 'FAIL'} joint: {result.joint_detail}")
        for i, op in enumerate(result.ops):
            same = i < len(first_outputs) and op.output == first_outputs[i]
            if op.error or not same:
                correct = False
                problems.append(f"repetition {rep} {op.label}: "
                                f"{'wrong output' if op.error else 'output differs from repetition 0'}")
            attempted += 1
            failed += not (op.ok and same and not op.error and result.joint_ok)
        if len(outputs) != len(first_outputs):
            correct = False
            problems.append(f"repetition {rep} has {len(outputs)} operations, not {len(first_outputs)}")
        rel_errors.append(result.rel_error)

        elapsed = time.perf_counter() - start
        if len(walls) >= min_reps and elapsed + statistics.mean(walls) > args.seconds:
            break

    shutil.rmtree(workdir, ignore_errors=True)
    out = {
        "setup_s": setup_s,
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rel_error": statistics.median(rel_errors) if rel_errors else float("nan"),
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "ops": op_lines,
        "problems": problems,
        "sizes": sizes,
        "machine": machine_info(),
    }
    if tracer:
        tracer.uninstall()
        if done_reps:
            metrics, mismatches, absent = layer_metrics(tracer, done_reps)
            timed = [s for s in tracer.spans if s[6] == "timed" and s[7] == done_reps[0]]
            out.update(
                layer=metrics, absent=absent, computed=COMPUTED_METRICS,
                self_time=self_time_by_layer(timed),
            )
            if mismatches:
                out["correct"] = False
                problems.append(f"counts differ between repetitions: {mismatches}")
        spans_path = os.path.join(args.out_dir, f"spans_{args.workload}_seed{args.seed}.jsonl")
        tracer.write(spans_path)
        out["spans_path"] = spans_path
    print(json.dumps(out))


if __name__ == "__main__":
    main()
