"""One benchmark process: set up a workload, optionally run one pass, report JSON.

Run by run.py, one fresh process per set-up or pass, so every pass pays
the imports and cold caches a command-line user pays:

    python3 perfbench/worker.py --root . --workload oracle_scale --seed 1 --mode pass [--trace]

Set-up is measured from the first lines of this file to the end of input
generation: importing monogamy, numpy and scipy, then building the
workload's inputs. Set-up and pass are each reported in reference seconds
(refclock.py), from a probe started before the imports, and in wall
seconds. The last line of stdout is one JSON object.
"""

import time

_START = time.perf_counter()

import refclock  # noqa: E402

_PROBE = refclock.Probe().start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401

    import monogamy
    from monogamy import checks, cli  # noqa: F401  (the whole package is part of set-up)

    if not os.path.abspath(monogamy.__file__).startswith(src + os.sep):
        print(f"error: monogamy imported from {monogamy.__file__}, not {src}", file=sys.stderr)
        return 2

    import spans
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    setup_wall_s = time.perf_counter() - _START
    out = {
        "setup_s": _PROBE.lap()["ref_s"],
        "setup_wall_s": setup_wall_s,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.mode == "pass":
        clock = time.perf_counter
        tracer = spans.install(spans.Tracer(clock), monogamy) if args.trace else None
        out.update(workloads.run_pass(args.workload, inputs, clock))
        lap = _PROBE.lap()
        out["run_wall_s"], out["run_s"] = out["run_s"], lap["ref_s"]
        if tracer is not None:
            layers = spans.layer_metrics(tracer)
            layers["trace.unattributed_s"] = (out["run_wall_s"] - tracer.attributed_s(), "s")
            if out["err_over_tol"] is None:
                out["err_over_tol"] = workloads.oracle_err_over_tol(tracer.oracle_values)
            out["layers"] = layers
            out["missing_spans"] = tracer.missing
    _PROBE.stop()
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
