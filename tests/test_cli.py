import hashlib
import importlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from permpoly import cli

KLEIN = {"label": "klein", "degree": 4, "generators": ["(1 2)", "(3 4)"]}
KLEIN_REGULAR = {"degree": 4, "generators": ["(1 2)(3 4)", "(1 3)(2 4)"]}
Z4 = {"degree": 4, "generators": ["(1 2 3 4)"]}
Z4_DEG6 = {"degree": 6, "generators": ["(1 2 3 4)(5 6)"]}
Z4_SQUARE = {"degree": 4, "generators": ["(1 3 2 4)"]}
S3 = {"degree": 3, "generators": ["(1 2)", "(1 2 3)"]}
A5 = {"label": "a5", "degree": 5, "generators": ["(1 2 3 4 5)", "(3 4 5)"]}
A6 = {"label": "a6", "degree": 6, "generators": ["(1 2 3 4 5)", "(4 5 6)"]}
Q8 = {"label": "q8", "degree": 8,
      "generators": ["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"]}
D6 = {"label": "d6", "degree": 6, "generators": ["(1 2 3 4 5 6)", "(2 6)(3 5)"]}
G48 = {"label": "g48", "degree": 11,
       "generators": ["(1 2)", "(3 4)", "(5 6 7 8)", "(9 10 11)"]}
S3_Z11 = {"degree": 14, "generators": ["(1 2)", "(1 2 3)",
                                       "(4 5 6 7 8 9 10 11 12 13 14)"]}


def spec_file(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def pair_file(tmp_path, name, first, second):
    return spec_file(tmp_path, name, {"first": first, "second": second})


def test_dim_output(tmp_path, capsys):
    assert cli.main(["dim", spec_file(tmp_path, "g.json", KLEIN)]) == 0
    out = capsys.readouterr().out
    assert out == ("label: klein\n"
                   "order: 4\n"
                   "degree: 4\n"
                   "vertices: 4\n"
                   "dim: 2\n"
                   "shape: product(1, 1)\n")


def test_stable_identified_pair(tmp_path, capsys):
    pair = pair_file(tmp_path, "p.json", Z4, Z4_DEG6)
    assert cli.main(["stable", pair]) == 0
    out = capsys.readouterr().out
    assert "identify: (1 2 3 4) -> (1 2 3 4)(5 6)" in out
    assert "stable_by_kernel: true" in out
    assert "stable_by_characters: true" in out
    assert "routes_agree: true" in out


def test_stable_needs_an_identification(tmp_path, capsys):
    pair = pair_file(tmp_path, "p.json", KLEIN, Z4)
    assert cli.main(["stable", pair]) == 2
    assert "error:" in capsys.readouterr().err


def test_effective_negative(tmp_path, capsys):
    pair = pair_file(tmp_path, "p.json", KLEIN, KLEIN_REGULAR)
    assert cli.main(["effective", pair]) == 0
    out = capsys.readouterr().out
    assert "effectively_equivalent: false" in out
    assert "witness" not in out


def test_effective_positive(tmp_path, capsys):
    pair = pair_file(tmp_path, "p.json", Z4, Z4_SQUARE)
    assert cli.main(["effective", pair]) == 0
    out = capsys.readouterr().out
    assert "effectively_equivalent: true" in out
    assert "witness: (1 2 3 4) -> " in out


def test_chartable_s3(tmp_path, capsys):
    assert cli.main(["chartable", spec_file(tmp_path, "g.json", S3)]) == 0
    out = capsys.readouterr().out
    assert "classes: 3\n" in out
    assert "conductor: 6\n" in out
    assert "route: class-matrix\n" in out
    assert "class sizes: 1 3 2\n" in out
    assert "class reps: id (1 2) (1 2 3)\n" in out
    assert "chi_0 (degree 1): 1 | 1 | 1\n" in out
    assert "chi_1 (degree 1): 1 | -1 | 1\n" in out
    assert "chi_2 (degree 2): 2 | 0 | -1\n" in out


def test_chartable_over_the_class_cap(tmp_path, capsys):
    # 33 classes: the class-matrix route refuses with exit 2, no traceback
    assert cli.main(["chartable", spec_file(tmp_path, "g.json", S3_Z11)]) == 2
    captured = capsys.readouterr()
    assert "capped at 30 classes; group has 33" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_faces_square(tmp_path, capsys):
    assert cli.main(
        ["faces", "--order", "2", spec_file(tmp_path, "g.json", KLEIN)]) == 0
    out = capsys.readouterr().out
    assert "subgroups: 3\n" in out
    assert "faces: 2\n" in out
    assert out.count("face of dim 1") == 2
    assert out.count("not a face") == 1
    assert "<(1 2)(3 4)>: not a face" in out


def test_faces_rejects_bad_order(tmp_path, capsys):
    path = spec_file(tmp_path, "g.json", KLEIN)
    for order in ("5", "0", "-2"):
        assert cli.main(["faces", "--order", order, path]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err + captured.out


def test_lattice_square(tmp_path, capsys):
    assert cli.main(["lattice", spec_file(tmp_path, "g.json", KLEIN)]) == 0
    out = capsys.readouterr().out
    assert "lattice index: 1\n" in out
    assert "normalized volume: not a simplex\n" in out


def test_lattice_simplex(tmp_path, capsys):
    assert cli.main(["lattice", spec_file(tmp_path, "g.json", Z4)]) == 0
    out = capsys.readouterr().out
    assert "normalized volume: " in out
    assert "euclidean volume: " in out


# sha256 of the full `ppt lattice` text per spec; the text holds no
# timings.  Re-pin after a deliberate change from the printed output.
LATTICE_TEXT_PINS = {
    "klein": (KLEIN,
              "383b45fbd8dc39ea46836b1b5a284d7b494e145698cd387582f06fca470ef43b"),
    "klein6": ({"label": "klein6", "degree": 6,
                "generators": ["(1 2)(3 4)", "(1 2)(5 6)"]},
               "893285788a13e8ac0f578201a8fdce02088a10aec9ad28231d797b06d39d3a17"),
    "z4": ({"label": "z4", "degree": 4, "generators": ["(1 2 3 4)"]},
           "b3e30b1d2cf770f39741c2b79765dfee790d58ed7565ebefe514be32da17bb07"),
    "a4": ({"label": "a4", "degree": 4, "generators": ["(1 2 3)", "(2 3 4)"]},
           "d18f5314952ddf090545bdccad9e8a38760915bcec601863b45e328e0015e129"),
    "d6": ({"label": "d6", "degree": 6,
            "generators": ["(1 2 3 4 5 6)", "(2 6)(3 5)"]},
           "feb2f5e80a241ffb878a6014dd6b340e7248a3b6f63644dd264d0fcf9a4dcaf0"),
    "q8": ({"label": "q8", "degree": 8,
            "generators": ["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"]},
           "ecff0c3edc72681fe92f89cdd62a841c9c095083fbcfaa2849fc88f473670fdd"),
}


def test_lattice_text_is_pinned(tmp_path, capsys):
    moved = []
    for name, (spec, pin) in LATTICE_TEXT_PINS.items():
        assert cli.main(["lattice", spec_file(tmp_path, name + ".json", spec)]) == 0
        out = capsys.readouterr().out
        if hashlib.sha256(out.encode()).hexdigest() != pin:
            moved.append(name)
    assert not moved, "lattice text changed for: %s" % ", ".join(moved)


# sha256 of the full text of the other spec commands, as for
# LATTICE_TEXT_PINS: name -> (arguments before the file, spec or pair
# document, pin).  Each text prints cycle strings or group data.
SUBCOMMAND_TEXT_PINS = {
    "dim-klein": (["dim"], KLEIN,
                  "7fd9ce19e9cb3edf34440f137aa6bf22b8f3fdb830b5fa946a0fd69687a7d66b"),
    "dim-klein-regular": (["dim"], KLEIN_REGULAR,
                          "b63489b9b9d481fd945506d8383a0333fb276f332e976fd0c7efda3f54be82a0"),
    "dim-z4-deg6": (["dim"], Z4_DEG6,
                    "8464d9c6dabed6da3a1b6a175a8d31a02e38403dfb651a211f67c87461ea6083"),
    "dim-s3": (["dim"], S3,
               "b134b42508ea72cf45eaad2f18294bc3507427e710b3e4a543b231abf9989f5b"),
    "stable-z4": (["stable"], {"first": Z4, "second": Z4_DEG6},
                  "d7cefac078fd354900a669ca6673191b347f4d294df16f55e155c7ceca4d09c1"),
    "stable-klein": (["stable"], {"first": KLEIN, "second": KLEIN_REGULAR},
                     "8dc5d72ada1224340a8ef01fae97fabe529407f137973699abd5555cb0975c9d"),
    "effective-klein": (["effective"], {"first": KLEIN, "second": KLEIN_REGULAR},
                        "6a2a970414df3898cbfdb3696983775e06e9370f47ff70506175dcadaccd662d"),
    "effective-z4": (["effective"], {"first": Z4, "second": Z4_SQUARE},
                     "54c4892da35becb14a7ca6f76f0e8ec170a9ad3188f3776f07e75a451dfeb1de"),
    "chartable-s3": (["chartable"], S3,
                     "4738267b197e9b6ebd63457bdb059467cc80fcd2e07ca0602a83fa64941f716e"),
    "chartable-klein": (["chartable"], KLEIN,
                        "3d6aef412590bec13fb403d52c9c9559b483335c8b82441cbe651246adca1ddf"),
    "chartable-z4-deg6": (["chartable"], Z4_DEG6,
                          "88b12ac5fc4b7dfee4e08d90f98823bfbba5216b774683c18f6bef4049356810"),
    "chartable-a5": (["chartable"], A5,
                     "442e9984f6af7541aa28ff03da163e13ec5bc79324a7984e9dd6a32eb231af92"),
    "chartable-a6": (["chartable"], A6,
                     "d1c1261209fc4377eb33b66c08d7df95c6cb4d83be67901df4e5651c4fa0161f"),
    "chartable-q8": (["chartable"], Q8,
                     "31cd00f58af878e5c45eb6caddbfa5fea010220bdd00808266783807384430dc"),
    "chartable-d6": (["chartable"], D6,
                     "ce178b1891203ccb85d3c82e90c8dd515592d8723129ce360674b189bed34e1b"),
    "chartable-g48": (["chartable"], G48,
                      "e21d7bb17ec4f2a93378bfa4bb38f9c9e4b6eb3506ca5dbe3061374261cf1fc6"),
    "faces-klein": (["faces", "--order", "2"], KLEIN,
                    "e4ceea7a158abc5c3e421aeda2128f5b537a30343abd203bbc81f6b7c841083e"),
    "faces-s3": (["faces", "--order", "2"], S3,
                 "32f4049aae73447ddec9d934ea8b77f19cbe7b4de624384b879a5b2f90b0f8a6"),
}


def test_subcommand_text_is_pinned(tmp_path, capsys):
    moved = []
    for name, (argv, doc, pin) in SUBCOMMAND_TEXT_PINS.items():
        assert cli.main(argv + [spec_file(tmp_path, name + ".json", doc)]) == 0
        out = capsys.readouterr().out
        if hashlib.sha256(out.encode()).hexdigest() != pin:
            moved.append(name)
    assert not moved, "text changed for: %s" % ", ".join(moved)


def test_reproduce_unknown_id(capsys):
    assert cli.main(["reproduce", "no-such-scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_reproduce_klein_volume(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    assert cli.main(["reproduce", "klein-volume", "--json",
                     str(out_json)]) == 0
    first = capsys.readouterr().out
    assert first.startswith("scenario: klein-volume\n")
    assert "result: PASS (9/9 checks)" in first
    assert "[PASS] volume-degree6: expected \"1/3\"" in first

    raw = out_json.read_text(encoding="utf-8")
    payload = json.loads(raw)
    from permpoly.report import canonical_json
    assert canonical_json(payload) == raw
    assert payload["scenario"] == "klein-volume"
    assert payload["pass"] is True
    assert len(payload["checks"]) == 9
    for check in payload["checks"]:
        assert set(check) == {"name", "expected", "computed", "pass"}
        assert check["pass"] is True
    assert isinstance(payload["elapsed_ms"], int)
    assert payload["elapsed_ms"] >= 0

    # stdout is timing-free: a second run is byte-identical
    assert cli.main(["reproduce", "klein-volume", "--json",
                     str(out_json)]) == 0
    assert capsys.readouterr().out == first
    payload2 = json.loads(out_json.read_text(encoding="utf-8"))
    payload.pop("elapsed_ms")
    payload2.pop("elapsed_ms")
    assert payload == payload2


def test_reproduce_unwritable_json_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "report.json"
    assert cli.main(["reproduce", "klein-volume", "--json",
                     str(target)]) == 2
    out, err = capsys.readouterr()
    assert "cannot write" in err
    assert "internal error" not in err
    # the path is opened before the scenario runs
    assert out == ""


def test_bad_spec_files(tmp_path, capsys):
    cases = [
        {"degree": 0, "generators": []},
        {"degree": True, "generators": []},
        {"degree": 4, "generators": "(1 2)"},
        {"degree": 4, "generators": ["(1 5)"]},
        {"degree": 4, "generators": ["(1 2)"], "extra": 1},
        {"degree": 4, "generators": ["(1 2)"], "label": 7},
        ["not", "an", "object"],
        # only ASCII digits are points: a superscript two is no integer,
        # and a fullwidth one must not be read as 1
        {"degree": 4, "generators": ["(1 \u00b2)"]},
        {"degree": 4, "generators": ["(\uff11 2)"]},
        # out of range without converting 5,000 digits
        {"degree": 4, "generators": ["(1 " + "9" * 5000 + ")"]},
    ]
    for i, doc in enumerate(cases):
        path = spec_file(tmp_path, "bad%d.json" % i, doc)
        assert cli.main(["dim", path]) == 2, doc
        assert "error:" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert cli.main(["dim", str(broken)]) == 2
    # a repeated key is ambiguous, not "the last one wins"
    duplicate = tmp_path / "duplicate.json"
    duplicate.write_text('{"degree": 4, "generators": ["(1 2)"], '
                         '"label": "x", "degree": 5}', encoding="utf-8")
    assert cli.main(["dim", str(duplicate)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "duplicate key 'degree'" in err
    duplicate.write_text('{"first": {"degree": 4, "generators": ["(1 2)"], '
                         '"generators": ["(3 4)"]}, "second": %s}'
                         % json.dumps(KLEIN), encoding="utf-8")
    assert cli.main(["stable", str(duplicate)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "duplicate key 'generators'" in err
    assert cli.main(["dim", str(tmp_path / "missing.json")]) == 2
    assert cli.main(
        ["stable", spec_file(tmp_path, "pair.json", {"first": KLEIN})]) == 2
    capsys.readouterr()


def test_oversize_degree_is_capped_before_allocation(tmp_path, capsys,
                                                    monkeypatch):
    import permpoly.groups

    def no_parsing(text, degree):
        raise AssertionError("parsed a degree-%d permutation" % degree)

    # parsing is where a degree-n spec first allocates n entries, so the
    # cap must be decided before it
    monkeypatch.setattr(permpoly.groups, "parse_cycles", no_parsing)
    for degree in (20000, 10 ** 9):
        spec = spec_file(tmp_path, "big.json",
                         {"degree": degree, "generators": ["(1 2)"]})
        assert cli.main(["dim", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cap" in err
        assert "Traceback" not in err and "internal error" not in err


def test_vertex_storage_is_capped(tmp_path, capsys):
    # degree 3000 passes the per-vertex bound, but two vertices of
    # 3000^2 entries do not
    spec = spec_file(tmp_path, "wide.json",
                     {"degree": 3000, "generators": ["(1 2)"]})
    assert cli.main(["dim", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cap" in err


def test_cap_resolution(tmp_path, capsys, monkeypatch):
    spec = spec_file(tmp_path, "g.json", KLEIN)
    monkeypatch.setenv("PPT_CAP", "2")
    assert cli.main(["dim", spec]) == 2  # order 4 exceeds the env cap
    assert cli.main(["dim", "--cap", "1000", spec]) == 0  # flag wins
    monkeypatch.setenv("PPT_CAP", "notanint")
    assert cli.main(["dim", spec]) == 2
    monkeypatch.delenv("PPT_CAP")
    assert cli.main(["dim", "--cap", "0", spec]) == 2
    assert cli.main(["dim", spec]) == 0
    capsys.readouterr()


# characters parse_cycles rejects everywhere in a cycle string (never
# "i" or "d", which could start "id"); some are digits outside ASCII
FOREIGN = "x-+.,;/[]{}\u00b2\uff11\u0663\u00bd\u00e9\u2070"


def bad_cycle_string(rng, degree):
    """A cycle string parse_cycles must reject: a valid product of cycles
    on points 1..degree with one defect put in."""
    points = [str(p) for p in rng.sample(range(1, degree + 1), degree)]
    cycles = []
    while len(points) >= 2:
        k = rng.randint(2, len(points))
        cycles.append(points[:k])
        points = points[k:]
    kind = rng.randrange(7)
    if kind == 0:  # a point out of range, possibly thousands of digits
        i = rng.randrange(len(cycles))
        j = rng.randrange(len(cycles[i]))
        cycles[i][j] = rng.choice(
            ["0", "00", str(degree + rng.randint(1, 50)),
             "0" * rng.randint(1, 9) + str(degree + 1),
             "9" * rng.randint(5, 6000)])
    elif kind == 1:  # a point repeated as a one-cycle
        cycles.append([rng.choice(cycles[0])])
    text = "".join("(" + " ".join(c) + ")" for c in cycles)
    if kind == 2:  # a foreign character anywhere
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(FOREIGN) + text[i:]
    elif kind in (3, 4):  # one parenthesis dropped
        ch = "()"[kind - 3]
        i = rng.choice([k for k, c in enumerate(text) if c == ch])
        text = text[:i] + text[i + 1:]
    elif kind == 5:  # an empty cycle next to a nonempty one
        i = rng.choice([k for k, c in enumerate(text) if c == "("])
        text = text[:i] + "()" + text[i:]
    elif kind == 6:  # nothing but whitespace
        text = rng.choice(["", " ", "\t", "  \n "])
    return text


def bad_spec(rng):
    """A group spec document _group_from_spec must reject."""
    degree = rng.randint(2, 8)
    good = ["(1 2)"]
    kind = rng.randrange(5)
    if kind == 0:
        gens = good + [bad_cycle_string(rng, degree)]
        rng.shuffle(gens)
        return {"degree": degree, "generators": gens}
    if kind == 1:
        return {"degree": rng.choice(
                    ["4", 4.0, 4.5, None, [4], {"n": 4}, True, False, 0,
                     -rng.randint(1, 10)]),
                "generators": good}
    if kind == 2:
        return {"degree": degree, "generators": rng.choice(
            ["(1 2)", None, 7, {"a": "(1 2)"}, [1, 2], good + [None],
             [good], [True]])}
    if kind == 3:
        doc = {"degree": degree, "generators": good}
        doc[rng.choice(["label", "extra", "Degree", "generator"])] = \
            rng.choice([7, ["x"], {"x": 1}, True])
        if "label" in doc and rng.random() < 0.5:
            del doc["degree"]  # a required field missing
        return doc
    return rng.choice([["not", "an", "object"], "(1 2)", 4, None, {}])


def test_cli_fuzz_rejects_bad_input(tmp_path, capsys, monkeypatch):
    """Seeded malformed specs, pair files and caps: each exits 2 with an
    error line and never reaches the internal-error handler."""
    import permpoly.groups

    rng = random.Random(20261018)
    path = tmp_path / "input.json"

    def expect_input_error(argv):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:"), (argv, err)
        assert "Traceback" not in err and "internal error" not in err

    def run(command, doc, *flags):
        path.write_text(json.dumps(doc), encoding="utf-8")
        expect_input_error(command + list(flags) + [str(path)])

    spec_commands = [["dim"], ["chartable"], ["lattice"],
                     ["faces", "--order", "2"]]
    for _ in range(200):
        run(rng.choice(spec_commands), bad_spec(rng))
    # pair files: a bad member, or keys other than first and second
    for _ in range(60):
        command = [rng.choice(["stable", "effective"])]
        good = {"degree": 4, "generators": ["(1 2)"]}
        kind = rng.randrange(3)
        if kind == 0:
            pair = {"first": good, "second": bad_spec(rng)}
            if rng.random() < 0.5:
                pair = {"first": pair["second"], "second": good}
        elif kind == 1:
            pair = rng.choice([{}, {"first": good}, {"second": good},
                               {"first": good, "second": good, "third": 1},
                               {"first": good, "Second": good}])
        else:
            pair = rng.choice([[good, good], "pair", None, 2])
        run(command, pair)
    # files that are no JSON document at all
    for raw in (b"", b"{not json", b'{"degree": 4', b"\xff\xfe{}",
                b"[" * 100000, b'{"degree": ' + b"9" * 5000 + b"}"):
        path.write_bytes(raw)
        expect_input_error(["dim", str(path)])
    # a key given twice, even with the same value, in a spec or a pair
    for _ in range(10):
        again = rng.choice(['"degree": 4', '"generators": ["(1 2)"]',
                            '"label": "x"'])
        spec = '{"label": "x", "degree": 4, "generators": ["(1 2)"], %s}' \
            % again
        if rng.random() < 0.5:
            path.write_text(spec, encoding="utf-8")
            expect_input_error(["dim", str(path)])
        else:
            members = [spec, json.dumps(KLEIN)]
            rng.shuffle(members)
            path.write_text('{"first": %s, "second": %s}' % tuple(members),
                            encoding="utf-8")
            expect_input_error([rng.choice(["stable", "effective"]),
                                str(path)])
    # an order over the cap: the closure stops at the cap
    s5 = {"degree": 5, "generators": ["(1 2 3 4 5)", "(1 2)"]}
    for _ in range(10):
        run(["dim"], s5, "--cap", str(rng.choice([rng.randint(1, 119), 0,
                                                  -rng.randint(1, 9)])))
    # a degree over the vertex-entry cap, decided before any parsing
    monkeypatch.setattr(permpoly.groups, "parse_cycles", None)
    for _ in range(10):
        degree = rng.choice([3163, rng.randint(3163, 10 ** 6),
                             10 ** rng.randint(7, 40)])
        run(["dim"], {"degree": degree, "generators": ["(1 2)"]})


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_console_script_help():
    # The `ppt` script is what an install would make of this entry point;
    # check the mapping and run the same code without installing anything.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    # matched as text: tomllib is 3.11+ and the package supports 3.10
    text = pyproject.read_text(encoding="utf-8")
    scripts = text.partition("[project.scripts]")[2].split("\n[")[0]
    entry = re.search(r'^ppt\s*=\s*"([^"]*)"\s*$', scripts, re.M)
    assert entry is not None
    target = entry.group(1)
    assert target == "permpoly.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "permpoly.cli", "--help"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: ppt ")
    assert "reproduce" in out.stdout
