"""permpoly benchmark: seeded query workloads with exact verification.

Run from the repository root:

    python3 perfbench/run.py --workload edges --seed 1 --seconds 10 --trace 0

Workloads (closed loop, one client issuing library queries back to back
in one process; see corpus.py for the inputs):

  edges        is_face on vertex pairs (the LP face layer, small subsets)
  census       is_face on subgroup vertex sets plus face dimension, and
               lattice/membership queries on fresh polytopes
  equivalence  stable equivalence of two coset-sum representations by
               the kernel and the character route, with polytope dims
  search       automorphisms, subgroups of an order, and effective
               equivalence searches that run long or end in None

Every measured run is its own fresh child process (worker.py), one at a
time.  A run issues a fixed number of queries for its seed: the fixed
part and RATE[workload] * --seconds seeded ones, sized so that the
baseline takes about --seconds of query time at reference speed.  With
--trace 0 the last output line reports the end-to-end
metrics: verified queries per second of timed query time, per-query
latency percentiles, set-up time (the median over several fresh
processes of importing permpoly and building the corpus groups), the
share of queries that verified, and the run's peak resident memory.
With --trace 1 the same seeded query list runs twice, untraced and then
traced (tracer.py), and the last line reports per-layer metrics.

Times are reported at a reference machine speed.  Shared machines drift
in speed by up to 2x within seconds, which no run length averages away,
so worker.py times a fixed calibration kernel between queries, outside
the timed region, and every time is divided by the kernel's speed
measured next to it (speed 1: the kernel takes CALIBRATION_REFERENCE_S).
The line before the result also gives the raw query rate and the mean
speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from corpus import Inputs

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("edges", "census", "equivalence", "search")

# fresh processes timed for set-up, besides the measured run itself
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

# Seeded queries per second of --seconds: about the baseline's query
# rate at reference speed.  Every commit is timed on the same seeded list
# of len(fixed) + RATE * seconds queries, so a faster commit finishes
# sooner rather than running other queries.  A traced run takes half as
# many, so that its untraced and traced passes fit the run together.
RATE = {"edges": 57, "census": 115, "equivalence": 17, "search": 260}

LAYERS = ("groups", "reps", "linalg", "intlinalg", "lp", "polytopes",
          "characters")


def child(request):
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"),
               PYTHONHASHSEED="0")
    # set-up times the import from cached bytecode, as a user's session
    # sees it: the first child writes the cache under src/, the others
    # read it, whatever the environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(request)],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("worker failed:\n" + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        with open(".git/packed-refs") as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def query_count(workload, seed, seconds):
    return len(Inputs(workload, seed).fixed) + int(RATE[workload] * seconds)


def end_to_end(workload, seed, seconds):
    base = {"workload": workload, "seed": seed, "trace": False}
    samples = []
    for _ in range(SETUP_SAMPLES):
        setup = child(dict(base, mode="setup", count=None))
        samples.append(setup["setup_s"] / setup["speed"])
    run = child(dict(base, mode="run",
                     count=query_count(workload, seed, seconds)))
    samples.append(run["setup_s"] / run["speed"][0])
    lat = [t / s for t, s in zip(run["latencies"], run["speed"])]
    metrics = {
        "queries_per_s": metric(len(lat) / sum(lat), "1/s"),
        "query_p50_ms": metric(statistics.median(lat) * 1000, "ms"),
        "query_p90_ms": metric(statistics.quantiles(lat, n=10)[8] * 1000, "ms"),
        "setup_s": metric(statistics.median(samples), "s"),
        "verified_ratio": metric((run["attempted"] - run["failed"])
                                 / run["attempted"], "ratio"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
    }
    notes = {"samples": len(lat), "beyond_p90": sum(
                 1 for x in lat if x * 1000 > metrics["query_p90_ms"]["value"]),
             "failed_ratio": run["failed"] / run["attempted"],
             "mean_speed": statistics.fmean(run["speed"]),
             "raw_queries_per_s": len(lat) / sum(run["latencies"]),
             "check_s": run["check_s"]}
    return run, metrics, notes


def per_layer(workload, seed, seconds):
    count = query_count(workload, seed, seconds / 2)
    base = {"workload": workload, "seed": seed, "mode": "run", "count": count}
    plain = child(dict(base, trace=False))
    run = child(dict(base, trace=True))
    trace = run["trace"]
    self_s, calls, counters = trace["self_s"], trace["calls"], trace["counters"]

    speed = statistics.fmean(run["speed"])

    def ms(key):
        return self_s.get(key, 0.0) * 1000 / speed

    def n(key):
        return calls.get(key, 0)

    def wall_s(r):
        return sum(t / s for t, s in zip([r["setup_s"]] + r["latencies"],
                                         r["speed"][:1] + r["speed"]))

    wall, plain_wall = wall_s(run), wall_s(plain)
    face_calls = sum(n("polytopes.is_face" + s) for s in ("", ".pair", ".subset"))
    effective_calls = n("reps.effectively_equivalent")
    m = {}
    for key in ("lp.strict_separation_lp", "lp.maximize", "linalg.rref",
                "linalg.kernel_sparse", "reps.PermRep", "reps.affine_kernel",
                "characters.character_table.cyclic_chain",
                "characters.character_table.class_matrix",
                "groups.subgroups_of_order", "groups.generate"):
        m[key + ".ms"] = metric(ms(key), "ms")
        m[key + ".calls"] = metric(n(key), "count")
    for key in ("polytopes.is_face.pair", "polytopes.is_face.subset",
                "polytopes.build_polytope", "polytopes.lattice_structure",
                "polytopes.point_membership", "intlinalg.hermite_form",
                "intlinalg.saturation", "intlinalg.smith_divisors",
                "intlinalg.solve_in_lattice", "intlinalg.determinant",
                "linalg.rank", "reps.difference_space",
                "reps.stably_equivalent_by_kernel", "characters.constituents",
                "characters.real_irreducibles",
                "characters.stably_equivalent_by_characters",
                "groups.isomorphisms_iter", "groups.automorphisms",
                "reps.effectively_equivalent", "reps.compose_with_map",
                "groups.coset_action"):
        m[key + ".ms"] = metric(ms(key), "ms")
    m["polytopes.is_face.calls"] = metric(face_calls, "count")
    m["polytopes.is_face.lp_calls_per_test"] = metric(
        counters.get("polytopes.is_face.lp_calls", 0) / max(face_calls, 1), "ratio")
    m["polytopes.is_face.face_ratio"] = metric(
        counters.get("polytopes.is_face.faces", 0) / max(face_calls, 1), "ratio")
    m["groups.isomorphisms_iter.yielded"] = metric(
        counters.get("groups.isomorphisms_iter.yielded", 0), "count")
    m["groups.subgroups_of_order.found"] = metric(
        counters.get("groups.subgroups_of_order.found", 0), "count")
    m["reps.effectively_equivalent.calls"] = metric(effective_calls, "count")
    m["reps.effectively_equivalent.isomorphisms_tried"] = metric(
        counters.get("reps.effectively_equivalent.isomorphisms_tried", 0), "count")
    m["reps.effectively_equivalent.witness_ratio"] = metric(
        counters.get("reps.effectively_equivalent.witnesses", 0)
        / max(effective_calls, 1), "ratio")
    for layer in LAYERS:
        m[layer + ".errors"] = metric(counters.get(layer + ".errors", 0), "count")
        share = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        m[layer + ".share_pct"] = metric(100 * share / speed / wall, "%")
    m["trace.wall_ms"] = metric(wall * 1000, "ms")
    m["trace.overhead_ms"] = metric((wall - plain_wall) * 1000, "ms")
    m["trace.unattributed_ms"] = metric(
        (wall - sum(self_s.values()) / speed) * 1000, "ms")
    notes = {"queries": count, "untraced_wall_ms": plain_wall * 1000}
    if plain["failed"] or plain["problems"]:
        run["failed"] += plain["failed"]
        run["problems"] += plain["problems"]
    return run, m, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "permpoly", "__init__.py")):
        print("run.py: no permpoly sources under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    try:
        measure = per_layer if args.trace else end_to_end
        run, metrics, notes = measure(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    for problem in run["problems"]:
        print("problem: " + problem, file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)), **notes}))
    for name, m in metrics.items():
        print("%-52s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": run["failed"] == 0 and not run["problems"],
                      "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
