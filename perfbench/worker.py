"""One run of a benchmark workload, in a fresh interpreter.

run.py starts this file as a child process with one JSON argument:

    {"workload": ..., "seed": ..., "mode": "setup" | "run",
     "count": int or null, "trace": bool}

and reads one JSON object from the last line of its output.  "setup"
only imports permpoly and builds the corpus groups.  "run" then issues
the first "count" queries of the seeded list back to back.  Each query
is timed alone; its answer is checked afterwards, outside the timed
region and with tracing paused.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction

import corpus
import verify

# The machines this runs on are shared, and their speed drifts by up to
# 2x over seconds.  A fixed pure-Python kernel with the library's kind of
# work (exact Fraction elimination, tuple hashing) is timed between
# queries; the speed it shows near a query is reported with it, and
# run.py divides times by it.  CALIBRATION_REFERENCE_S is the kernel's
# time at speed 1.
CALIBRATION_REFERENCE_S = 0.003
CALIBRATION_EVERY_S = 0.025
CALIBRATION_SETUP = 5
# calibrations averaged for one query: this many on each side of it
CALIBRATION_WINDOW = 2

# sampled maps per automorphism query: the count and distinctness cover
# the whole list, the homomorphism check covers an even spread of it
AUTOMORPHISM_SAMPLE = 64


def calibration_kernel():
    """Seconds taken by a fixed exact-arithmetic job that does not touch
    permpoly: Gauss-Jordan elimination over Fractions on a fixed 9 x 12
    matrix, then hashing 300 tuples."""
    start = time.perf_counter()
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(12)]
         for i in range(9)]
    r = 0
    for c in range(12):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    {tuple((i * j + k) % 13 for j in range(12)) for i in range(60) for k in range(5)}
    return time.perf_counter() - start


def local_speed(calibrations, n):
    """For each of n queries, the mean calibration time of the
    CALIBRATION_WINDOW calibrations on either side of it, relative to
    CALIBRATION_REFERENCE_S (2.0 means the machine ran at half speed)."""
    positions = [pos for pos, _ in calibrations]
    speeds = []
    k = 0
    for i in range(n):
        while k < len(positions) and positions[k] <= i:
            k += 1
        near = calibrations[max(0, k - CALIBRATION_WINDOW):k + CALIBRATION_WINDOW]
        speeds.append(statistics.fmean(s for _, s in near) / CALIBRATION_REFERENCE_S)
    return speeds


class Session:
    """One user's session: the corpus groups, and the polytopes and
    representations kept across queries the way a REPL user keeps them
    in variables."""

    def __init__(self, lib, groups):
        self.lib = lib
        self.groups = groups
        self.polytopes = {}
        self.reps = {}
        self.character_indexes = {}
        self.checked_constituents = {}
        self.isomorphisms = {}

    # checking caches: checks repeat for equal inputs, queries never read these

    def constituents(self, spec, rep, table):
        key = json.dumps(spec, sort_keys=True)
        if key not in self.checked_constituents:
            self.checked_constituents[key] = self.lib.constituents(rep, table).nontrivial
        return self.checked_constituents[key]

    def character_index(self, group):
        index = self.character_indexes.get(group.label)
        if index is None:
            index = verify.CharacterIndex(self.lib.character_table(group))
            self.character_indexes[group.label] = index
        return index

    def rep(self, spec):
        lib = self.lib
        group = self.groups[spec["group"]]
        if spec["kind"] == "natural":
            return lib.PermRep.natural(group)
        if spec["kind"] == "images":
            return lib.PermRep.from_generator_images(
                group, [lib.parse_cycles(s, spec["degree"])
                        for s in spec["images"]])
        actions = [group.coset_action(self.subgroup(group, gens))
                   for gens in spec["subgroups"]]
        return lib.PermRep.from_coset_actions(group, actions)

    def kept_rep(self, spec):
        """A representation built on first use and kept for the session."""
        key = json.dumps(spec, sort_keys=True)
        if key not in self.reps:
            self.reps[key] = self.rep(spec)
        return self.reps[key]

    def subgroup(self, group, gens):
        return group.subgroup([group.element_index(
            self.lib.parse_cycles(s, group.degree)) for s in gens])

    def polytope(self, name, spec):
        poly = self.polytopes.get(name)
        if poly is None:
            poly = self.polytopes[name] = self.lib.build_polytope(self.rep(spec))
        return poly

    # -- queries: prepare (untimed), run (timed), check (untimed) --------

    def prepare(self, q):
        if q["kind"] == "subgroup":
            group = self.groups[q["group"]]
            return self.subgroup(group, q["subgroup"]).elements
        return None

    def run(self, q, prep):
        lib = self.lib
        kind = q["kind"]
        if kind == "pair":
            poly = self.polytope(q["poly"], q["rep"])
            return poly, lib.is_face(poly, q["labels"])
        if kind == "subgroup":
            poly = self.polytope(q["poly"], q["rep"])
            result = lib.is_face(poly, prep)
            dim = None
            if result.is_face:
                base = poly.coords[prep[0]]
                rows = [[a - b for a, b in zip(poly.coords[h], base)]
                        for h in prep[1:]]
                dim = lib.linalg.rank(rows) if rows else 0
            return poly, result, dim
        if kind == "lattice":
            poly = lib.build_polytope(self.rep(q["rep"]))
            data = lib.lattice_structure(poly)
            n2 = poly.degree * poly.degree
            point = [Fraction(0)] * n2
            for g, c in q["point"]:
                c = Fraction(c)
                for k, x in enumerate(poly.vertices[g]):
                    if x:
                        point[k] += c * x
            return poly, data, lib.point_membership(poly, point)
        if kind == "stable":
            group = self.groups[q["group"]]
            rep_a, rep_b = self.rep(q["A"]), self.rep(q["B"])
            table = lib.character_table(group)
            answer = {
                "kernel": lib.stably_equivalent_by_kernel(rep_a, rep_b),
                "characters": lib.stably_equivalent_by_characters(
                    rep_a, rep_b, table),
                "dims": [lib.build_polytope(rep_a, table).dim,
                         lib.build_polytope(rep_b, table).dim],
            }
            answer["kernel_dims"] = [lib.affine_kernel(rep_a).dim,
                                     lib.affine_kernel(rep_b).dim]
            return answer
        if kind == "automorphisms":
            return lib.automorphisms(self.groups[q["group"]])
        if kind == "subgroups":
            return self.groups[q["group"]].subgroups_of_order(q["order"])
        if kind == "effective":
            rep_a, rep_b = self.kept_rep(q["A"]), self.kept_rep(q["B"])
            return rep_a, rep_b, lib.effectively_equivalent(rep_a, rep_b)
        raise ValueError("unknown query kind %r" % kind)

    def check(self, q, prep, answer):
        """Problems with an answer, and the value its pin aggregates."""
        kind = q["kind"]
        if kind == "pair":
            poly, result = answer
            return verify.check_pair(poly.rep, q["labels"], result), result.is_face
        if kind == "subgroup":
            poly, result, dim = answer
            return verify.check_subgroup(poly.rep, prep, result, dim), dim
        if kind == "lattice":
            return self._check_lattice(q, *answer), None
        if kind == "stable":
            answer["expect"] = q.get("expect", {})
            return verify.check_stable(answer, self.groups[q["group"]].order), None
        if kind == "automorphisms":
            return self._check_automorphisms(q, answer), None
        if kind == "subgroups":
            return self._check_subgroups(q, answer), None
        return self._check_effective(q, *answer), None

    def _check_lattice(self, q, poly, data, membership):
        problems = []
        expect = q["expect"]
        if list(membership.as_tuple()) != expect["membership"]:
            problems.append("membership %s, expected %s"
                            % (membership.as_tuple(), expect["membership"]))
        if data.index < 1:
            problems.append("lattice index %s" % data.index)
        # for a simplex the normalized volume is the index of the vertex
        # lattice in its saturation
        if poly.vertex_count == poly.dim + 1 and data.normalized_volume != data.index:
            problems.append("simplex volume %s differs from index %s"
                            % (data.normalized_volume, data.index))
        if "index" in expect and data.index != expect["index"]:
            problems.append("index %s, pinned %s" % (data.index, expect["index"]))
        if "volume" in expect and data.euclidean_volume != Fraction(expect["volume"]):
            problems.append("volume %s, pinned %s"
                            % (data.euclidean_volume, expect["volume"]))
        return problems

    def _check_automorphisms(self, q, maps):
        group = self.groups[q["group"]]
        want = corpus.AUTOMORPHISM_COUNTS[q["group"]]
        if len(maps) != want:
            return ["%d automorphisms, pinned %d" % (len(maps), want)]
        if len({phi.images for phi in maps}) != want:
            return ["automorphisms repeat"]
        step = max(1, want // AUTOMORPHISM_SAMPLE)
        for phi in maps[::step]:
            if not verify.is_isomorphism(group, group, phi.images):
                return ["a returned map is not an automorphism"]
        return []

    def _check_subgroups(self, q, subs):
        group = self.groups[q["group"]]
        want = corpus.SUBGROUP_COUNTS[(q["group"], q["order"])]
        if len(subs) != want:
            return ["%d subgroups, pinned %d" % (len(subs), want)]
        if len({s.elements for s in subs}) != want:
            return ["subgroups repeat"]
        table = group.table
        for s in subs:
            members = set(s.elements)
            if len(members) != q["order"] or 0 not in members or any(
                    table[a][b] not in members for a in members for b in members):
                return ["a returned set is not a subgroup of order %d" % q["order"]]
        return []

    def _check_effective(self, q, rep_a, rep_b, phi):
        lib = self.lib
        expect = q.get("expect")
        if expect == "witness" and phi is None:
            return ["no witness, but one exists by construction"]
        if expect == "none" and phi is not None:
            return ["witness found, pinned none"]
        kernel_a, kernel_b = lib.affine_kernel(rep_a), lib.affine_kernel(rep_b)
        if phi is None and kernel_a.dim != kernel_b.dim:
            return []
        index_a = self.character_index(rep_a.group)
        index_b = self.character_index(rep_b.group)
        cons_a = self.constituents(q["A"], rep_a, index_a.table)
        cons_b = self.constituents(q["B"], rep_b, index_b.table)
        if phi is not None:
            return verify.check_witness(rep_a, rep_b, kernel_a, kernel_b,
                                        phi.images, cons_a, cons_b,
                                        index_a, index_b)
        key = (rep_a.group.label, rep_b.group.label)
        if key not in self.isomorphisms:
            self.isomorphisms[key] = lib.isomorphisms(rep_a.group, rep_b.group)
        return verify.check_no_witness(self.isomorphisms[key], cons_a, cons_b,
                                       index_a, index_b)


def check_pins(values):
    problems = []
    for key, got in values.items():
        want = corpus.PINS[key]
        if isinstance(want, int):
            got = sum(bool(v) for v in got)
        else:
            got = sorted(v for v in got if v is not None)
        if got != want:
            problems.append("%s is %s, pinned %s" % (key, got, want))
    return problems


def build_groups(lib, inputs):
    return {name: lib.FiniteGroup.from_cycle_strings(gens, degree, label=name)
            for name, (gens, degree) in inputs.groups.items()}


def run_queries(session, inputs, count, tracer):
    """Issue the first count queries back to back, checking each answer
    after its timer stops.  Between queries, outside the timed region,
    the calibration kernel runs each time another CALIBRATION_EVERY_S of
    query time has passed; calibrations records (queries done so far,
    kernel seconds)."""
    out = {"latencies": [], "failed": 0, "problems": [], "check_s": 0.0,
           "calibrations": []}
    next_calibration = 0.0
    pins = {}
    timed = 0.0
    for i, q in enumerate(inputs.queries(count)):
        prep = session.prepare(q)
        if timed >= next_calibration:
            out["calibrations"].append((i, calibration_kernel()))
            next_calibration = timed + CALIBRATION_EVERY_S
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            answer = session.run(q, prep)
            error = None
        except Exception as exc:  # a failed query is a result, not a crash
            answer, error = None, "%s: %s" % (type(exc).__name__, exc)
        latency = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        timed += latency
        out["latencies"].append(latency)
        if error is None:
            t1 = time.perf_counter()
            try:
                found, value = session.check(q, prep, answer)
            except Exception as exc:  # an answer the checks cannot read
                found, value = ["check raised %s: %s" % (type(exc).__name__, exc)], None
            out["check_s"] += time.perf_counter() - t1
            if "pin" in q:
                pins.setdefault(q["pin"], []).append(value)
        else:
            found = [error]
        if found:
            out["failed"] += 1
            out["problems"].append("query %d (%s): %s" % (i, q["kind"], found[0]))
    out["calibrations"].append((count, calibration_kernel()))
    pin_problems = check_pins(pins)
    out["failed"] += len(pin_problems)
    out["problems"] += pin_problems
    return out


def main():
    args = json.loads(sys.argv[1])
    inputs = corpus.Inputs(args["workload"], args["seed"])
    tracer = None

    start = time.perf_counter()
    lib = importlib.import_module("permpoly")
    if args["trace"]:
        import tracer as tracing
        tracer = tracing.install()
        tracer.active = True
    groups = build_groups(lib, inputs)
    setup_s = time.perf_counter() - start
    if tracer:
        tracer.active = False
    result = {"setup_s": setup_s}
    problems = ["group %s has order %d, pinned %d"
                % (name, g.order, corpus.ORDERS[name.split("~")[0]])
                for name, g in groups.items()
                if g.order != corpus.ORDERS[name.split("~")[0]]]

    if args["mode"] == "setup":
        samples = [calibration_kernel() for _ in range(CALIBRATION_SETUP)]
        result["speed"] = statistics.fmean(samples) / CALIBRATION_REFERENCE_S
    if args["mode"] == "run":
        out = run_queries(Session(lib, groups), inputs, args["count"], tracer)
        problems += out["problems"]
        result.update({
            "latencies": out["latencies"],
            "speed": local_speed(out["calibrations"], len(out["latencies"])),
            "check_s": out["check_s"],
            "attempted": len(out["latencies"]),
            "failed": out["failed"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        if tracer:
            result["trace"] = {"self_s": dict(tracer.self_s),
                               "calls": dict(tracer.calls),
                               "counters": dict(tracer.counters)}
    result["problems"] = problems[:20]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
