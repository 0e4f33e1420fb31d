"""The benchmark's own tests: its verifier must reject wrong answers, its
inputs must follow the seed, and traced counters must repeat.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

import corpus
import run
import verify
from permpoly import (FaceResult, FiniteGroup, PermRep, automorphisms,
                      build_polytope, character_table, constituents,
                      effectively_equivalent, is_face)
from permpoly.reps import affine_kernel

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def group(name):
    gens, degree = corpus.GROUPS[name]
    return FiniteGroup.from_cycle_strings(gens, degree, label=name)


def coset_rep(spec):
    g = group(spec["group"])
    from permpoly import parse_cycles
    actions = [g.coset_action(g.subgroup([g.element_index(parse_cycles(s, g.degree))
                                          for s in gens]))
               for gens in spec["subgroups"]]
    return PermRep.from_coset_actions(g, actions)


@pytest.fixture(scope="module")
def s4_poly():
    return build_polytope(PermRep.natural(group("s4")))


def pair_results(poly):
    faces, non_faces = [], []
    for h in range(1, poly.vertex_count):
        res = is_face(poly, (0, h))
        (faces if res.is_face else non_faces).append(((0, h), res))
    return faces, non_faces


def test_true_answers_verify(s4_poly):
    faces, non_faces = pair_results(s4_poly)
    assert faces and non_faces
    for labels, res in faces + non_faces:
        assert verify.check_pair(s4_poly.rep, labels, res) == []
    sub = sorted(s4_poly.group.point_stabilizer(4).elements)
    res = is_face(s4_poly, sub)
    dim = verify.face_dim(s4_poly.vertices, sub) if res.is_face else None
    assert verify.check_subgroup(s4_poly.rep, sub, res, dim) == []


def test_flipped_face_verdict_is_flagged(s4_poly):
    faces, non_faces = pair_results(s4_poly)
    (face_labels, face), (non_labels, non_face) = faces[0], non_faces[0]
    # a non-face claimed as a face, with a real functional of another face
    flipped = FaceResult(True, functional=face.functional)
    assert verify.check_pair(s4_poly.rep, non_labels, flipped)
    # a face claimed as a non-face, with a real combination of another pair
    flipped = FaceResult(False, counterexample=non_face.counterexample)
    assert verify.check_pair(s4_poly.rep, face_labels, flipped)
    assert verify.check_pair(s4_poly.rep, face_labels, FaceResult(False))


def test_perturbed_functional_is_flagged(s4_poly):
    faces, _ = pair_results(s4_poly)
    labels, res = faces[0]
    a, beta = res.functional
    assert verify.face_certificate(s4_poly.vertices, labels,
                                   FaceResult(True, functional=(a, beta + 1))) != []
    k = next(i for i, x in enumerate(a) if x)
    bent = a[:k] + (a[k] * 2,) + a[k + 1:]
    assert verify.face_certificate(s4_poly.vertices, labels,
                                   FaceResult(True, functional=(bent, beta))) != []


def test_functional_of_the_wrong_length_is_flagged(s4_poly):
    faces, _ = pair_results(s4_poly)
    labels, res = faces[0]
    a, beta = res.functional
    # a truncated functional could otherwise pass on a prefix of each vertex
    for short in (a[:-1], a[:len(a) // 2]):
        assert verify.face_certificate(
            s4_poly.vertices, labels, FaceResult(True, functional=(short, beta)))


def test_counterexample_with_a_missing_vertex_is_flagged(s4_poly):
    _, non_faces = pair_results(s4_poly)
    labels, res = non_faces[0]
    (g, w), *rest = res.counterexample
    for bad in (s4_poly.vertex_count, -1):
        wrong = FaceResult(False, counterexample=[(bad, w)] + rest)
        assert verify.check_pair(s4_poly.rep, labels, wrong)


def test_wrong_face_dimension_is_flagged(s4_poly):
    sub = sorted(s4_poly.group.point_stabilizer(4).elements)
    res = is_face(s4_poly, sub)
    assert res.is_face
    dim = verify.face_dim(s4_poly.vertices, sub)
    assert verify.check_subgroup(s4_poly.rep, sub, res, dim + 1)


def test_oracle_agrees_with_lp_on_small_groups():
    for name in ("klein", "klein-regular", "d6", "q8"):
        poly = build_polytope(PermRep.natural(group(name)))
        for h in range(1, poly.vertex_count):
            assert verify.pair_is_edge(poly.rep, (0, h)) == is_face(poly, (0, h)).is_face


@pytest.fixture(scope="module")
def main1():
    rep = coset_rep(corpus.MAIN1)
    table = character_table(rep.group)
    return rep, table, verify.CharacterIndex(table)


def test_wrong_effective_witness_is_flagged(main1):
    rep, table, index = main1
    kernel = affine_kernel(rep)
    cons = constituents(rep, table).nontrivial
    phi = effectively_equivalent(rep, rep)
    assert verify.check_witness(rep, rep, kernel, kernel, phi.images, cons,
                                cons, index, index) == []
    wrong = next(psi for psi in automorphisms(rep.group)
                 if not verify.annihilates(rep, kernel.sparse_int, psi.images))
    problems = verify.check_witness(rep, rep, kernel, kernel, wrong.images,
                                    cons, cons, index, index)
    assert "witness fails the kernel route" in problems
    assert "witness fails the character route" in problems
    not_a_map = (0,) * rep.group.order
    assert verify.check_witness(rep, rep, kernel, kernel, not_a_map, cons,
                                cons, index, index) == ["witness is not an isomorphism"]


def test_none_with_a_witness_is_flagged(main1):
    rep, table, index = main1
    cons = constituents(rep, table).nontrivial
    assert verify.check_no_witness(automorphisms(rep.group), cons, cons,
                                   index, index)


def test_disagreeing_stable_equivalence_is_flagged():
    good = {"kernel": False, "characters": False, "kernel_dims": [33, 33],
            "dims": [14, 14]}
    assert verify.check_stable(good, 48) == []
    assert verify.check_stable(dict(good, characters=True), 48)
    assert verify.check_stable(dict(good, kernel_dims=[33, 34]), 48)
    assert verify.check_stable(dict(good, expect={"stable": True}), 48)


def test_integer_rank():
    assert verify.integer_rank([[1, 2], [2, 4]]) == 1
    assert verify.integer_rank([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == 3
    assert verify.integer_rank([]) == 0


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_inputs_follow_the_seed(workload):
    n = len(corpus.Inputs(workload, 7).fixed) + 40
    first = corpus.Inputs(workload, 7).queries(n)
    assert first == corpus.Inputs(workload, 7).queries(n)
    assert first != corpus.Inputs(workload, 8).queries(n)


def worker(request):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
                          json.dumps(request)], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_traced_counters_repeat():
    request = {"workload": "census", "seed": 3, "mode": "run",
               "count": 30, "trace": True}
    first, second = worker(request), worker(request)
    assert first["failed"] == 0 and first["problems"] == []
    assert first["trace"]["calls"] == second["trace"]["calls"]
    assert first["trace"]["counters"] == second["trace"]["counters"]
    assert first["trace"]["calls"]["lp.strict_separation_lp"] > 0


def test_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "edges", "--seed", "1", "--seconds", "1"]) == 2
