"""CLI: file formats, exit codes, determinism, structured output."""

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

import clusterlab.cli
import clusterlab.errors
from clusterlab.cli import (
    load_map_file,
    load_seed_file,
    main,
    save_seed_file,
)
from clusterlab.disc import ArcFamily
from clusterlab.errors import InvalidFamily, InvalidSeed, ParseError
from clusterlab.laurent import parse_poly
from clusterlab.seeds import Seed


A2 = {
    "variables": [
        {"id": "y1", "exchangeable": True},
        {"id": "y2", "exchangeable": True},
    ],
    "matrix": [["y1", "y2", 1], ["y2", "y1", -1]],
}

SIG = {
    "variables": [
        {"id": "x1", "exchangeable": False},
        {"id": "x2", "exchangeable": True},
        {"id": "x3", "exchangeable": True},
    ],
    "matrix": [
        ["x1", "x2", 1],
        ["x2", "x1", -1],
        ["x3", "x2", 1],
        ["x2", "x3", -1],
    ],
}

FMAP = {"assignment": [["x1", "y1"], ["x2", "y2"], ["x3", 1]]}

TIDEAL_SRC = {
    "variables": [
        {"id": "a1", "exchangeable": False},
        {"id": "x", "exchangeable": True},
        {"id": "a2", "exchangeable": False},
    ],
    "matrix": [["a1", "x", 1], ["x", "a1", -1], ["x", "a2", 1], ["a2", "x", -1]],
}

TIDEAL_MAP = {
    "assignment": [["a1", 1], ["a2", -1], ["x", 0]],
    "extra": [["a1*x^-1 + a2*x^-1", "y1"]],
}

PENTAGON = {
    "points": ["0/1", "1/5", "2/5", "3/5", "4/5"],
    "arcs": [
        ["0/1", "1/5"],
        ["1/5", "2/5"],
        ["2/5", "3/5"],
        ["3/5", "4/5"],
        ["4/5", "0/1"],
        ["0/1", "2/5"],
        ["0/1", "3/5"],
    ],
}


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, data in [
        ("a2.seed", A2),
        ("sig.seed", SIG),
        ("f.map", FMAP),
        ("tideal.seed", TIDEAL_SRC),
        ("tideal.map", TIDEAL_MAP),
        ("pent.tri", PENTAGON),
    ]:
        path = tmp_path / name
        path.write_text(json.dumps(data))
        out[name] = str(path)
    out["dir"] = tmp_path
    return out


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestSeedFiles:
    def test_load_save_roundtrip(self, files, tmp_path):
        seed = load_seed_file(files["sig.seed"])
        out = tmp_path / "resaved.seed"
        save_seed_file(seed, str(out))
        again = load_seed_file(str(out))
        assert again.same_seed(seed)
        assert tuple(again.labels) == tuple(sorted(seed.labels))

    def test_equal_seeds_byte_identical(self, tmp_path):
        s1 = Seed.initial(["a", "b"], ["a"], [("a", "b", 1), ("b", "a", -1)])
        s2 = Seed.initial(["b", "a"], ["a"], [("b", "a", -1), ("a", "b", 1)])
        p1, p2 = tmp_path / "s1.seed", tmp_path / "s2.seed"
        save_seed_file(s1, str(p1))
        save_seed_file(s2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_seed(self, tmp_path):
        path = tmp_path / "empty.seed"
        save_seed_file(Seed.empty(), str(path))
        assert load_seed_file(str(path)).labels == ()

    def test_diagonal_entry_invalid(self, tmp_path):
        path = tmp_path / "bad.seed"
        path.write_text(
            json.dumps(
                {
                    "variables": [{"id": "x1", "exchangeable": True}],
                    "matrix": [["x1", "x1", 1]],
                }
            )
        )
        with pytest.raises(InvalidSeed):
            load_seed_file(str(path))

    def test_undeclared_variable_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.seed"
        path.write_text(
            json.dumps(
                {
                    "variables": [{"id": "x1", "exchangeable": True}],
                    "matrix": [["x1", "zz", 1]],
                }
            )
        )
        with pytest.raises(ParseError):
            load_seed_file(str(path))

    def test_syntax_error_carries_location(self, tmp_path):
        path = tmp_path / "bad.seed"
        path.write_text("{ not json ")
        with pytest.raises(ParseError) as err:
            load_seed_file(str(path))
        assert err.value.line is not None

    def test_map_file_with_extra(self, files):
        src = load_seed_file(files["tideal.seed"])
        dst = load_seed_file(files["a2.seed"])
        m = load_map_file(files["tideal.map"], src, dst)
        assert m.assignment == {"a1": 1, "a2": -1, "x": 0}
        assert len(m.extra) == 1


class TestExitCodes:
    def test_check_morphism_pass(self, files, capsys):
        code, _ = run_cli(
            [
                "check-morphism",
                "--src", files["sig.seed"],
                "--dst", files["a2.seed"],
                "--map", files["f.map"],
                "--depth", "4",
            ],
            capsys,
        )
        assert code == 0

    def test_check_ideal_witness_exits_one(self, files, capsys):
        code, out = run_cli(
            [
                "check-ideal",
                "--src", files["tideal.seed"],
                "--dst", files["a2.seed"],
                "--map", files["tideal.map"],
            ],
            capsys,
        )
        assert code == 1
        assert "witness: y1" in out

    def test_validate_tri(self, files, capsys):
        code, _ = run_cli(["validate-tri", "--tri", files["pent.tri"]], capsys)
        assert code == 0

    def test_invalid_tri_exits_one(self, files, capsys):
        bad = dict(PENTAGON)
        bad["arcs"] = PENTAGON["arcs"][:5]  # edges only: not maximal
        path = files["dir"] / "bad.tri"
        path.write_text(json.dumps(bad))
        code, out = run_cli(["validate-tri", "--tri", str(path)], capsys)
        assert code == 1
        assert "not maximal" in out

    @pytest.mark.parametrize(
        "arcs, code, text",
        [
            (
                PENTAGON["arcs"][:5] + [["3/5", "0/1"], ["1/5", "3/5"], ["0/1", "2/5"]],
                1,
                "error: arcs {0/1, 2/5} and {1/5, 3/5} cross\nvalid: False\n",
            ),
            (
                PENTAGON["arcs"][:5] + [["1/5", "4/5"]],
                1,
                "error: not maximal: arc {1/5, 3/5} crosses nothing in the set\nvalid: False\n",
            ),
            (
                PENTAGON["arcs"] + [["0/1", "1/3"]],
                3,
                "error: arc {0/1, 1/3} uses a point outside the marked set\n",
            ),
        ],
    )
    def test_invalid_finite_tri_texts(self, files, capsys, arcs, code, text):
        path = files["dir"] / "bad.tri"
        path.write_text(json.dumps({**PENTAGON, "arcs": arcs}))
        assert run_cli(["validate-tri", "--tri", str(path)], capsys) == (code, text)

    def test_missing_file_exits_three(self, files, capsys):
        code, _ = run_cli(["enumerate", "--seed", "/nonexistent.seed"], capsys)
        assert code == 3

    def test_unknown_flag_exits_three(self, files):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "clusterlab.cli",
                "enumerate",
                "--seed", files["a2.seed"],
                "--frobnicate",
            ],
            capture_output=True,
        )
        assert proc.returncode == 3

    def test_positivity_path_quiver(self, files, capsys):
        code, out = run_cli(
            [
                "positivity",
                "--oracle", "path-quiver",
                "--sequence", "x0,x1",
                "--target", "x0",
            ],
            capsys,
        )
        assert code == 0
        assert "positive: True" in out

    def test_not_similar_exits_one(self, files, tmp_path, capsys):
        zero = {
            "variables": [
                {"id": "z1", "exchangeable": True},
                {"id": "z2", "exchangeable": True},
            ],
            "matrix": [],
        }
        path = tmp_path / "zero.seed"
        path.write_text(json.dumps(zero))
        code, _ = run_cli(
            ["similar", "--src", files["a2.seed"], "--dst", str(path)], capsys
        )
        assert code == 1

    def test_similar_opposite(self, files, tmp_path, capsys):
        opp = {
            "variables": A2["variables"],
            "matrix": [["y1", "y2", -1], ["y2", "y1", 1]],
        }
        path = tmp_path / "opp.seed"
        path.write_text(json.dumps(opp))
        code, out = run_cli(
            ["similar", "--src", files["a2.seed"], "--dst", str(path)], capsys
        )
        assert code == 0
        assert "similar: True" in out


class TestDeterminism:
    def test_byte_identical_reports(self, files):
        cmd = [
            sys.executable,
            "-m",
            "clusterlab.cli",
            "enumerate",
            "--seed", files["a2.seed"],
            "--depth", "5",
        ]
        a = subprocess.run(cmd, capture_output=True).stdout
        b = subprocess.run(cmd, capture_output=True).stdout
        assert a == b and a

    def test_structured_same_content(self, files, capsys):
        code, plain = run_cli(
            ["enumerate", "--seed", files["a2.seed"], "--depth", "5"], capsys
        )
        code2, structured = run_cli(
            [
                "--format", "structured",
                "enumerate",
                "--seed", files["a2.seed"],
                "--depth", "5",
            ],
            capsys,
        )
        assert code == code2 == 0
        data = json.loads(structured)
        assert data["count"] == 5
        assert all(v in plain for v in data["values"])


def rendered(report, fmt):
    """The text `main` prints for a report in the given format."""
    if fmt == "structured":
        return json.dumps(report, indent=2) + "\n"
    return "".join(f"{key}: {value}\n" for key, value in report.items())


def run_captured(argv):
    """Exit code, stdout and stderr of one in-process `main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    """`main` builds its parser once per process and reuses it."""

    def test_consecutive_calls_match_fresh_processes(self, files):
        calls = [
            ["validate-tri", "--tri", files["pent.tri"]],
            ["enumerate", "--seed", files["a2.seed"], "--frobnicate"],
            ["--format", "structured", "components", "--seed", files["sig.seed"]],
        ]
        reused = [run_captured(argv) for argv in calls]
        assert clusterlab.cli._parser() is clusterlab.cli._parser()
        fresh = []
        for argv in calls:
            proc = subprocess.run(
                [sys.executable, "-m", "clusterlab.cli", *argv], capture_output=True, text=True
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 3, 0]
        assert "clusterlab: error: unrecognized arguments: --frobnicate" in reused[1][2]

    def test_dispatch_reads_the_current_handler(self, files, monkeypatch, capsys):
        argv = ["--format", "structured", "components", "--seed", files["a2.seed"]]
        assert run_cli(argv, capsys)[0] == 0
        monkeypatch.setattr(
            clusterlab.cli, "_cmd_components", lambda args: (1, {"replaced": args.seed})
        )
        code, out = run_cli(argv, capsys)
        assert code == 1
        assert json.loads(out) == {"replaced": files["a2.seed"]}


class TestCommands:
    def test_mutate_and_save(self, files, tmp_path, capsys):
        out = tmp_path / "mutated.seed"
        code, _ = run_cli(
            [
                "mutate",
                "--seed", files["a2.seed"],
                "--at", "y1",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        seed = load_seed_file(str(out))
        assert "y1'1" in seed.labels

    def test_mutate_coefficient_exits_three(self, files, capsys):
        code, _ = run_cli(
            ["mutate", "--seed", files["sig.seed"], "--at", "x1"], capsys
        )
        assert code == 3

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize(
        "steps, message",
        [
            (["--at", "nope"],
             "sequence ['nope'] fails admissibility at index 0: 'nope' is not a label of the seed"),
            # after x2 the label x2 is gone: its successor is x2'1
            (["--sequence", "x2,x2"],
             "sequence ['x2', 'x2'] fails admissibility at index 1: 'x2' is not a label of the seed"),
            (["--sequence", "x3,x1"],
             "sequence ['x3', 'x1'] fails admissibility at index 1: 'x1' is not exchangeable"),
        ],
    )
    def test_an_inadmissible_step_names_its_cause(self, files, fmt, steps, message):
        argv = ["--format", fmt, "mutate", "--seed", files["sig.seed"], *steps]
        assert run_captured(argv) == (3, rendered({"error": message}, fmt), "")

    def test_components(self, files, capsys):
        code, out = run_cli(["components", "--seed", files["sig.seed"]], capsys)
        assert code == 0
        assert "count: 1" in out

    COPRODUCT = {
        "variables": [
            {"id": "x1", "exchangeable": False},
            *({"id": v, "exchangeable": True} for v in ("x2", "x3", "y1", "y2")),
        ],
        "matrix": [
            ["x1", "x2", 1], ["x2", "x1", -1], ["x2", "x3", -1],
            ["x3", "x2", 1], ["y1", "y2", 1], ["y2", "y1", -1],
        ],
        "values": [[v, v] for v in ("x1", "x2", "x3", "y1", "y2")],
    }

    COPRODUCT_PLAIN = """\
command: coproduct
seed:
  variables:
    -
      id: x1
      exchangeable: False
    -
      id: x2
      exchangeable: True
    -
      id: x3
      exchangeable: True
    -
      id: y1
      exchangeable: True
    -
      id: y2
      exchangeable: True
  matrix:
    - x1, x2, 1
    - x2, x1, -1
    - x2, x3, -1
    - x3, x2, 1
    - y1, y2, 1
    - y2, y1, -1
  values:
    - x1, x1
    - x2, x2
    - x3, x3
    - y1, y1
    - y2, y2
"""

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_coproduct_reports_and_writes_the_union(self, files, tmp_path, fmt):
        out = tmp_path / "union.seed"
        argv = ["--format", fmt, "coproduct", "--seeds", files["a2.seed"], files["sig.seed"], "--out", str(out)]
        report = {"command": "coproduct", "seed": self.COPRODUCT}
        text = rendered(report, fmt) if fmt == "structured" else self.COPRODUCT_PLAIN
        assert run_captured(argv) == (0, text, "")
        assert out.read_text(encoding="utf-8") == json.dumps(self.COPRODUCT, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_coproduct_collision_exits_three(self, files, fmt):
        # summands that share a label are an input error, not a failed
        # verification
        argv = ["--format", fmt, "coproduct", "--seeds", files["a2.seed"], files["a2.seed"]]
        report = {"error": "label 'y1' occurs in more than one summand"}
        assert run_captured(argv) == (3, rendered(report, fmt), "")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize("order, text", [
        (["y.seed", "x.seed"], "labels 'y' and 'x' share the value x"),
        (["x.seed", "y.seed"], "labels 'x' and 'y' share the value x"),
    ])
    def test_coproduct_of_summands_sharing_a_value_exits_three(self, tmp_path, fmt, order, text):
        # distinct labels, but y's value is the variable x, which is x's
        # value in the initial seed on {x}; the pair is named in label order
        y = {"variables": [{"id": "y", "exchangeable": True}], "matrix": [], "values": [["y", "x"]]}
        x = {"variables": [{"id": "x", "exchangeable": True}], "matrix": []}
        for name, data in [("y.seed", y), ("x.seed", x)]:
            (tmp_path / name).write_text(json.dumps(data))
        argv = ["--format", fmt, "coproduct", "--seeds", *(str(tmp_path / n) for n in order)]
        assert run_captured(argv) == (3, rendered({"error": text}, fmt), "")

    def test_flip_roundtrip(self, files, tmp_path, capsys):
        out1 = tmp_path / "flip1.tri"
        code, report = run_cli(
            [
                "flip",
                "--tri", files["pent.tri"],
                "--arc", "0/1~2/5",
                "--out", str(out1),
            ],
            capsys,
        )
        assert code == 0
        assert "added: 1/5~3/5" in report
        code, report = run_cli(
            ["flip", "--tri", str(out1), "--arc", "1/5~3/5"], capsys
        )
        assert code == 0
        assert "added: 0/1~2/5" in report

    def test_tri_seed(self, files, tmp_path, capsys):
        out = tmp_path / "pent.seed"
        code, _ = run_cli(
            ["tri-seed", "--tri", files["pent.tri"], "--out", str(out)], capsys
        )
        assert code == 0
        seed = load_seed_file(str(out))
        assert len(seed.labels) == 7
        assert len(seed.exchangeable) == 2

    def test_image_seed(self, files, capsys):
        code, out = run_cli(
            [
                "image-seed",
                "--src", files["sig.seed"],
                "--dst", files["a2.seed"],
                "--map", files["f.map"],
            ],
            capsys,
        )
        assert code == 0
        assert '"id": "y1"' in out or "id: y1" in out

    def test_limit_arcs(self, files, tmp_path, capsys):
        tri = {
            "families": [
                {
                    "kind": "left-fountain",
                    "base": "1/4",
                    "limit": "0",
                    "scale": "1/2",
                    "start": 4,
                },
                {
                    "kind": "right-fountain",
                    "base": "3/4",
                    "limit": "0",
                    "scale": "1/2",
                    "start": 4,
                },
            ],
            "arcs": [["1/4", "3/4"]],
            "points": ["1/2", "1/6", "5/6"],
        }
        path = tmp_path / "split.tri"
        path.write_text(json.dumps(tri))
        code, out = run_cli(["limit-arcs", "--tri", str(path)], capsys)
        assert code == 0
        assert "0/1~1/4" in out and "0/1~3/4" in out

    def test_filtration_exports_stages(self, files, tmp_path, capsys):
        outdir = tmp_path / "stages"
        code, _ = run_cli(
            [
                "filtration",
                "--oracle", "path-quiver",
                "--steps", "3",
                "--out-dir", str(outdir),
            ],
            capsys,
        )
        assert code == 0
        stage2 = load_seed_file(str(outdir / "stage2.seed"))
        assert len(stage2.labels) == 5

    def test_stable_mutate(self, files, capsys):
        code, out = run_cli(
            [
                "stable-mutate",
                "--oracle", "path-quiver",
                "--sequence", "x0",
                "--target", "x0",
            ],
            capsys,
        )
        assert code == 0
        assert "stage: 1" in out
        assert "x0^-1*x1 + x0^-1*xm1" in out


class TestMoreCli:
    def test_structured_error_output(self, files, capsys):
        code = main(["--format", "structured", "enumerate", "--seed", "/missing"])
        out = capsys.readouterr().out
        assert code == 3
        assert json.loads(out)["error"]

    def test_filtration_from_triangulation_file(self, files, capsys):
        code, out = run_cli(
            ["filtration", "--tri", files["pent.tri"], "--steps", "4"], capsys
        )
        assert code == 0
        assert "triangulation-glueing" in out

    def test_enumerate_default_depth_six(self, files, capsys):
        code, out = run_cli(["enumerate", "--seed", files["sig.seed"]], capsys)
        assert code == 0
        assert "count: 6" in out

    def test_enumerate_node_budget_text(self, files, capsys):
        code, out = run_cli(
            ["enumerate", "--seed", files["a2.seed"], "--nodes", "3"], capsys
        )
        assert code == 2
        assert "seed frontier exceeded the node budget of 3" in out

    def test_check_morphism_node_budget_text(self, files, capsys):
        path = files["dir"] / "id.map"
        path.write_text(json.dumps({"assignment": [["y1", "y1"], ["y2", "y2"]]}))
        code, out = run_cli(
            [
                "check-morphism",
                "--src", files["a2.seed"],
                "--dst", files["a2.seed"],
                "--map", str(path),
                "--nodes", "4",
            ],
            capsys,
        )
        assert code == 2
        assert "biadmissible enumeration exceeded 4 nodes" in out

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_similar_budget_exits_two(self, tmp_path, fmt):
        # the twelve loose variables match in 12! * 2^12 ways before the
        # pair z1, z2 (b = 2, -1 against 1, -1) is found never to match
        paths = []
        for b in (2, 1):
            path = tmp_path / f"z{b}.seed"
            path.write_text(json.dumps({
                "variables": [{"id": v, "exchangeable": True}
                              for v in [f"a{i:02d}" for i in range(12)] + ["z1", "z2"]],
                "matrix": [["z1", "z2", b], ["z2", "z1", -1]],
            }))
            paths.append(str(path))
        code, out, err = run_captured(["--format", fmt, "similar", "--src", paths[0], "--dst", paths[1]])
        report = {"inconclusive": "similarity search exceeded budget of 200000"}
        assert (code, out, err) == (2, rendered(report, fmt), "")

    @pytest.mark.parametrize(
        "verb, flag, value",
        [
            ("enumerate", "--depth", "-1"),
            ("enumerate", "--nodes", "-5"),
            ("filtration", "--steps", "-2"),
        ],
    )
    def test_negative_budget_flag_exits_three(self, files, capsys, verb, flag, value):
        argv = [verb, flag, value]
        if verb == "enumerate":
            argv += ["--seed", files["a2.seed"]]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert f"{flag} must not be negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["mutate", "--at", "y1", "--sequence", "y2"],
             "argument --sequence: not allowed with argument --at"),
            (["mutate", "--sequence", "y2", "--at", "y1"],
             "argument --at: not allowed with argument --sequence"),
            (["mutate"], "mutate needs --at or --sequence"),
            (["mutate", "--sequence", ""], "mutate needs --at or --sequence"),
            (["filtration", "--tri", "pent.tri", "--oracle", "fan"],
             "argument --oracle: not allowed with argument --tri"),
            (["filtration", "--oracle", "path-quiver", "--tri", "pent.tri"],
             "argument --tri: not allowed with argument --oracle"),
        ],
    )
    def test_ambiguous_or_missing_source_exits_three(self, files, capsys, argv, message):
        # two sources for one verb are rejected, not resolved by precedence
        argv = [files.get(a, a) for a in argv]
        if argv[0] == "mutate":
            argv += ["--seed", files["a2.seed"]]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert capsys.readouterr().err.endswith(f"error: {message}\n")


PATH3 = {
    "variables": [
        {"id": "x1", "exchangeable": False},
        {"id": "x2", "exchangeable": True},
        {"id": "x3", "exchangeable": False},
    ],
    "matrix": [["x1", "x2", 1], ["x2", "x1", -1], ["x2", "x3", 1], ["x3", "x2", -1]],
}

A3 = {
    "variables": [{"id": v, "exchangeable": True} for v in ("x1", "x2", "x3")],
    "matrix": [["x1", "x2", 1], ["x2", "x1", -1], ["x2", "x3", 1], ["x3", "x2", -1]],
}

SPLIT_TRI = {
    "points": ["1/2", "1/6", "5/6"],
    "arcs": [["1/4", "3/4"]],
    "families": [
        {"kind": "left-fountain", "base": "1/4", "limit": "0/1", "scale": "1/2", "start": 4},
        {"kind": "right-fountain", "base": "3/4", "limit": "0/1", "scale": "1/2", "start": 4},
    ],
}

# the map sending x1, x2 and x3 to y1: x2' = (x1 + x3) / x2 goes to 2, not to y1' of A2
COMPOSITE_CM3 = {
    "cm1": True,
    "cm2": True,
    "cm2_witnesses": [],
    "cm3": "counterexample",
    "counterexample": {
        "sequence": ["x2"],
        "variable": "x2",
        "lhs": "2",
        "rhs": "y1^-1*y2 + y1^-1",
    },
    "nodes": 2,
}

COMPOSITE_CM3_PLAIN = """cm1: True
cm2: True
cm2_witnesses: 
cm3: counterexample
counterexample:
  sequence: x2
  variable: x2
  lhs: 2
  rhs: y1^-1*y2 + y1^-1
nodes: 2
"""


class TestReportBranches:
    """Report shapes of the verbs' less travelled branches, in both formats."""

    def test_a_plain_list_mixing_a_pair_and_a_scalar(self):
        # each item of a list that holds a list takes its own line: a pair
        # joined by commas, a scalar as itself
        report = {"items": [["x1", "y1"], 3, "z"]}
        assert clusterlab.cli._render_plain(report) == ["items:", "  - x1, y1", "  - 3", "  - z"]

    @pytest.fixture
    def more(self, files):
        out = dict(files)
        for name, data in [
            ("path3.seed", PATH3),
            ("a3.seed", A3),
            ("split.tri", SPLIT_TRI),
            ("composite.map", {"assignment": [["x1", "y1"], ["x2", "y1"], ["x3", "y1"]]}),
            ("identity.map", {"assignment": [["x1", "x1"], ["x2", "x2"], ["x3", "x3"]]}),
        ]:
            path = files["dir"] / name
            path.write_text(json.dumps(data))
            out[name] = str(path)
        return out

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize("verb", ["check-morphism", "check-ideal"])
    def test_a_cm3_counterexample_exits_one(self, more, fmt, verb):
        argv = ["--format", fmt, verb, "--src", more["path3.seed"], "--dst", more["a2.seed"]]
        code, out, err = run_captured([*argv, "--map", more["composite.map"]])
        head = {"command": verb}
        if verb == "check-ideal":
            head["error"] = "the map is not a verified rooted cluster morphism"
        if fmt == "structured":
            assert out == rendered({**head, **COMPOSITE_CM3}, fmt)
        else:
            assert out == rendered(head, fmt) + COMPOSITE_CM3_PLAIN
        assert (code, err) == (1, "")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_the_identity_is_ideal_to_depth(self, more, fmt):
        argv = ["--format", fmt, "check-ideal", "--src", more["a3.seed"], "--dst", more["a3.seed"]]
        code, out, err = run_captured([*argv, "--map", more["identity.map"], "--depth", "2"])
        report = {"command": "check-ideal", "status": "ideal-to-depth", "depth": 2}
        assert (code, out, err) == (0, rendered(report, fmt), "")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize("nodes", ["5", "13"])
    def test_check_ideal_does_not_walk_the_target_an_image_exchangeable_leaves_unread(self, more, fmt, nodes):
        # x1's image is exchangeable in the image seed, so the report is
        # ideal-to-depth whatever the target's walk would find: a budget
        # that CM3 and the source's walk meet exits 0, although linear A3
        # has 14 seeds to depth 4
        edge = {
            "variables": [{"id": "x1", "exchangeable": True}, {"id": "x2", "exchangeable": False}],
            "matrix": [["x1", "x2", 1], ["x2", "x1", -1]],
        }
        for name, data in [("edge.seed", edge), ("edge.map", {"assignment": [["x1", "x1"], ["x2", "x2"]]})]:
            (more["dir"] / name).write_text(json.dumps(data))
        argv = ["--format", fmt, "check-ideal", "--src", str(more["dir"] / "edge.seed"), "--dst", more["a3.seed"]]
        code, out, err = run_captured([*argv, "--map", str(more["dir"] / "edge.map"), "--depth", "4", "--nodes", nodes])
        report = {"command": "check-ideal", "status": "ideal-to-depth", "depth": 4}
        assert (code, out, err) == (0, rendered(report, fmt), "")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["flip", "--tri", "split.tri", "--arc", "1/4~3/4"], "flip applies to finite triangulations"),
            (["tri-seed", "--tri", "split.tri"], "tri-seed applies to finite triangulations"),
            (
                ["stable-mutate", "--oracle", "zigzag", "--sequence", "x0", "--target", "x0"],
                "unknown oracle 'zigzag' "
                "(expected path-quiver | fan | split-fountain | nest | wrap:SEEDFILE)",
            ),
        ],
    )
    def test_input_errors_exit_three(self, more, fmt, argv, message):
        code, out, err = run_captured(["--format", fmt, *(more.get(a, a) for a in argv)])
        assert (code, out, err) == (3, rendered({"error": message}, fmt), "")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_a_negative_term_fails_positivity(self, monkeypatch, fmt):
        value = parse_poly("x1 - 2*x0 + x0^-1*xm1 - x2^2")
        monkeypatch.setattr(clusterlab.cli, "stable_mutation", lambda oracle, seq, target: (value, 2))
        argv = ["--format", fmt, "positivity", "--oracle", "path-quiver", "--sequence", "x0,x1"]
        report = {
            "command": "positivity",
            "sequence": ["x0", "x1"],
            "target": "x0",
            "value": "-x2^2 - 2*x0 + x1 + x0^-1*xm1",
            "stage": 2,
            "positive": False,
            "negative_terms": ["-2*x0", "-x2^2"],
        }
        if fmt == "plain":
            report = {**report, "sequence": "x0, x1", "negative_terms": "-2*x0, -x2^2"}
        assert run_captured([*argv, "--target", "x0"]) == (1, rendered(report, fmt), "")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_the_stable_mutate_report(self, fmt):
        argv = ["--format", fmt, "stable-mutate", "--oracle", "path-quiver", "--sequence", "x0,x1"]
        report = {
            "command": "stable-mutate",
            "sequence": ["x0", "x1"],
            "target": "x1",
            "value": "x1^-1*xm1 + x0^-1*x2 + x0^-1*x1^-1*x2*xm1",
            "stage": 2,
        }
        if fmt == "plain":
            report = {**report, "sequence": "x0, x1"}
        assert run_captured([*argv, "--target", "x1"]) == (0, rendered(report, fmt), "")


class TestHardenedInput:
    """Every malformed file, unknown target and removed flag is an input
    error (exit 3) with a message, never a traceback or a guess."""

    def test_enumerate_budget_of_zero(self, files, capsys):
        code, out = run_cli(
            ["enumerate", "--seed", files["a2.seed"], "--nodes", "0", "--depth", "0"],
            capsys,
        )
        assert code == 2
        assert "seed frontier exceeded the node budget of 0" in out

    @pytest.mark.parametrize(
        "data, message",
        [
            (
                {"variables": [{"id": "y1", "exchangeable": "no"}]},
                "'exchangeable' must be true or false",
            ),
            (
                {**A2, "matrix": A2["matrix"] + [["y1", "y2", 2]]},
                "matrix entry ('y1', 'y2') is given twice",
            ),
            (
                {**A2, "matrix": A2["matrix"] + [["y1", "y2", 1]]},
                "matrix entry ('y1', 'y2') is given twice",
            ),
            ({**A2, "matrix": [[["y1"], "y2", 1]]}, "matrix entries are"),
            ({**A2, "matrix": 5}, "'matrix' must be a list"),
            ({**A2, "values": [["y1", 5], ["y2", "y2"]]}, "'values' entries are"),
        ],
    )
    def test_bad_seed_file_exits_three(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.seed"
        path.write_text(json.dumps(data))
        code, out = run_cli(["components", "--seed", str(path)], capsys)
        assert code == 3
        assert message in out

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize(
        "values, message",
        [
            ([["y1", "y1"], ["y2", "y2"], ["y1", "y2"]], "values entry for 'y1' is given twice"),
            ([["y1", "y1"], ["y2", "y2"], ["y3", "y2"]], "values entry references undeclared variable 'y3'"),
            ([["y1", "y1"], ["y2", "y2^"]], "bad laurent text: unexpected end of input"),
        ],
        ids=["repeated-id", "undeclared-id", "bad-text"],
    )
    def test_bad_seed_values_exit_three(self, tmp_path, fmt, values, message):
        path = tmp_path / "bad.seed"
        path.write_text(json.dumps({**A2, "values": values}))
        argv = ["--format", fmt, "components", "--seed", str(path)]
        assert run_captured(argv) == (3, rendered({"error": message}, fmt), "")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_a_repeated_variable_id_is_named_before_the_values_are_read(self, tmp_path, fmt):
        # the loader refuses the repeated id before it parses the values,
        # whose text is malformed here
        data = {"variables": [{"id": "y1", "exchangeable": True}, {"id": "y1"}], "matrix": [], "values": [["y1", "y1^"]]}
        path = tmp_path / "bad.seed"
        path.write_text(json.dumps(data))
        argv = ["--format", fmt, "components", "--seed", str(path)]
        assert run_captured(argv) == (3, rendered({"error": "duplicate labels in cluster"}, fmt), "")

    IDENTITY = [["y1", "y1"], ["y2", "y2"]]

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize(
        "data, message",
        [
            ({"assignment": 5}, "'assignment' must be a list"),
            ({"assignment": IDENTITY, "extra": 7}, "'extra' must be a list"),
            ({"assignment": IDENTITY, "extra": [[3, "y1"]]},
             "'extra' entries are [laurent-text, target-id-or-integer] pairs"),
            ({"assignment": IDENTITY, "extra": [["y1", [1]]]},
             "extra image of y1 must be a label or an integer"),
            ({"assignment": IDENTITY, "extra": [["y1", True]]},
             "extra image of y1 must be a label or an integer"),
            ({"assignment": IDENTITY, "extra": [["y1", 1.5]]},
             "extra image of y1 must be a label or an integer"),
            ({"assignment": IDENTITY, "extra": [["y1", None]]},
             "extra image of y1 must be a label or an integer"),
            ({"assignment": [["y1", "y1"], ["y1", "y2"], ["y2", "y2"]]},
             "assignment source 'y1' is given twice"),
            ({"assignment": IDENTITY, "extra": [["y1 + y2", "y1"], ["y2 + y1", "y2"]]},
             "extra generator y1 + y2 is given twice"),
            ({"assignment": IDENTITY, "extra": [["y1^", "y1"]]},
             "bad laurent text in 'extra': unexpected end of input"),
        ],
    )
    def test_bad_map_file_exits_three(self, files, fmt, data, message):
        # each of these used to end in a traceback, or to keep the last of
        # two entries and check the map so guessed
        path = files["dir"] / "bad.map"
        path.write_text(json.dumps(data))
        argv = ["--format", fmt, "check-morphism", "--src", files["a2.seed"], "--dst", files["a2.seed"]]
        assert run_captured([*argv, "--map", str(path)]) == (3, rendered({"error": message}, fmt), "")

    FOUNTAIN = {"kind": "right-fountain", "base": "0/1", "limit": "1/2",
                "scale": "1/2", "start": 2}

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize(
        "verb, data, message",
        [
            ("validate-tri", {"families": [{k: v for k, v in FOUNTAIN.items() if k != "limit"}]},
             "families need a 'limit'"),
            ("validate-tri", {"families": [{k: v for k, v in FOUNTAIN.items() if k != "scale"}]},
             "families need a 'scale'"),
            ("validate-tri", {"families": [{**FOUNTAIN, "strat": 2}]},
             "unknown key 'strat' in a family (expected kind | limit | scale | base | limit2 | scale2 | start)"),
            ("validate-tri", {"points": PENTAGON["points"], "arc": PENTAGON["arcs"]},
             "unknown key 'arc' in the triangulation file (expected points | arcs | families)"),
            ("enumerate", {**A2, "variables": [{"id": "y1", "exchangable": True}, A2["variables"][1]]},
             "unknown key 'exchangable' in a variable (expected id | exchangeable)"),
            ("enumerate", {**A2, "value": [["y1", "y1"], ["y2", "y2"]]},
             "unknown key 'value' in the seed file (expected variables | matrix | values)"),
            ("check-morphism", {"assignment": IDENTITY, "extras": [["y1", "y1"]]},
             "unknown key 'extras' in the map file (expected assignment | extra)"),
        ],
        ids=["no-limit", "no-scale", "family-key", "tri-key", "variable-key", "seed-key", "map-key"],
    )
    def test_unknown_or_missing_key_exits_three(self, files, fmt, verb, data, message):
        # a family without limit or scale used to end in a traceback; each
        # misspelt key used to be ignored, so the file was read as if the
        # key were absent (the seed file as A2 with y1 a coefficient)
        path = files["dir"] / "bad.json"
        path.write_text(json.dumps(data))
        argv = {
            "validate-tri": ["validate-tri", "--tri", str(path)],
            "enumerate": ["enumerate", "--seed", str(path)],
            "check-morphism": ["check-morphism", "--src", files["a2.seed"], "--dst", files["a2.seed"],
                               "--map", str(path)],
        }[verb]
        assert run_captured(["--format", fmt, *argv]) == (3, rendered({"error": message}, fmt), "")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_half_nest_without_a_second_limit_exits_one(self, tmp_path, fmt):
        path = tmp_path / "bad.tri"
        path.write_text(json.dumps({"families": [{"kind": "half-nest", "limit": "0/1", "scale": "1/4"}]}))
        argv = ["--format", fmt, "validate-tri", "--tri", str(path)]
        assert run_captured(argv) == (1, rendered({"error": "half-nest needs a second limit"}, fmt), "")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize(
        "family, message",
        [
            ({"kind": "nest", "limit": "1/2", "scale": "1/4", "scale2": "0"},
             "tip sequence needs a nonzero step"),
            ({"kind": "right-fountain", "limit": "1/2", "scale": "1/2", "start": 1, "base": "0"},
             "tip sequence must stay within half a turn of its limit"),
            ({"kind": "right-fountain", "limit": "1/2", "scale": "1/2", "start": 0, "base": "0"},
             "tip index range must start at k >= 1"),
        ],
        ids=["zero-step", "half-turn", "start-zero"],
    )
    def test_tip_sequence_guards_exit_one(self, tmp_path, fmt, family, message):
        path = tmp_path / "bad.tri"
        path.write_text(json.dumps({"families": [family]}))
        argv = ["--format", fmt, "validate-tri", "--tri", str(path)]
        assert run_captured(argv) == (1, rendered({"error": message}, fmt), "")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_families_sharing_moving_endpoints_exit_one(self, tmp_path, fmt):
        # two left-fountains on one base and limit: tip k of the first, at
        # 1/(3k) from the limit, is tip 2k of the second
        fountain = {"kind": "left-fountain", "base": "1/2", "limit": "0", "start": 1}
        path = tmp_path / "bad.tri"
        path.write_text(json.dumps({"families": [{**fountain, "scale": "1/3"}, {**fountain, "scale": "1/6"}]}))
        argv = ["--format", fmt, "validate-tri", "--tri", str(path)]
        expected = rendered({"error": "families must not share moving endpoints"}, fmt)
        assert run_captured(argv) == (1, expected, "")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_filtration_of_an_arc_crossing_a_limit_arc_exits_one(self, tmp_path, fmt):
        # the second fountain's arc {1/800, 3/4} crosses the first's limit
        # arc {0, 1/2}; triangulation_components refuses it, so filtration
        # does (validate-tri, which checks a window of arcs, still accepts it)
        fountain = {"kind": "left-fountain", "limit": "0", "start": 1}
        path = tmp_path / "crossing.tri"
        path.write_text(json.dumps({"families": [
            {**fountain, "base": "1/2", "scale": "1/3"},
            {**fountain, "base": "3/4", "scale": "1/100"},
        ]}))
        argv = ["--format", fmt, "filtration", "--tri", str(path)]
        message = "arc {1/800, 3/4} crosses the limit arc {0/1, 1/2}; inconsistent triangulation"
        assert run_captured(argv) == (1, rendered({"error": message}, fmt), "")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize(
        "labels, matrix, message",
        [
            ("ab", [["b", "a", 1]], "sign violation at ('a', 'b'): b=0, b'=1"),
            ("ab", [["a", "a", 1], ["a", "b", 1], ["b", "a", -1]], "sign violation at ('a', 'a'): b=1, b'=1"),
            ("abc", [["a", "b", 1], ["a", "c", -1], ["b", "a", -2], ["b", "c", 1], ["c", "a", 1], ["c", "b", -1]],
             "inconsistent symmetrizer ratios on cycle ('b', 'a', 'c')"),
        ],
        ids=["one-way", "diagonal", "cycle"],
    )
    def test_a_matrix_that_is_not_skew_symmetrizable_exits_three(self, tmp_path, fmt, labels, matrix, message):
        # the Seed constructor refuses it, with the witness of its walk in
        # label order; a one-way entry is found from the column it lies in
        path = tmp_path / "bad.seed"
        path.write_text(json.dumps({"variables": [{"id": v, "exchangeable": True} for v in labels],
                                    "matrix": matrix}))
        argv = ["--format", fmt, "enumerate", "--seed", str(path)]
        assert run_captured(argv) == (3, rendered({"error": message}, fmt), "")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_extra_arc_crossing_a_limit_arc_exits_one(self, tmp_path, fmt):
        # validate-tri used to accept this file, and filtration --tri then
        # failed with the same text
        path = tmp_path / "bad.tri"
        path.write_text(json.dumps({"arcs": [["49/100", "3/5"]], "families": [self.FOUNTAIN]}))
        message = "arc {49/100, 3/5} crosses the limit arc {0/1, 1/2}; inconsistent triangulation"
        for verb in (["validate-tri"], ["filtration", "--steps", "3"]):
            argv = ["--format", fmt, verb[0], "--tri", str(path), *verb[1:]]
            assert run_captured(argv) == (1, rendered({"error": message}, fmt), "")

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"families": [{**FOUNTAIN, "scale": [1]}]},
             "'scale' must be a fraction string"),
            ({"families": [{**FOUNTAIN, "scale": "1/0"}]}, "bad fraction '1/0'"),
            ({"families": [{**FOUNTAIN, "limit": 5}]},
             "'limit' must be a fraction string"),
            ({"families": [{**FOUNTAIN, "start": True}]}, "'start' must be an integer"),
            ({"families": 5}, "'families' must be a list"),
            ({"points": ["0/1", "1/2"], "arcs": [[[1], "1/2"]]},
             "an arc endpoint must be a fraction string"),
            ({"points": ["0/1", "1/2"], "arcs": [[0, "1/2"]]},
             "an arc endpoint must be a fraction string"),
            ({"points": [0, "1/2"], "arcs": [["0/1", "1/2"]]},
             "a point must be a fraction string"),
            ({"points": ["0/1", "1/2"], "arcs": [["0/1", "1/1"]]},
             "joins a point to itself"),
            ({"points": ["0/1", "1/2"], "arcs": [["0/1", "1/3"]]},
             "uses a point outside the marked set"),
            ({"families": [{**FOUNTAIN, "kind": ["x"]}]},
             "unknown family kind ['x'] (expected fountain | left-fountain"),
            ({"families": [{**FOUNTAIN, "kind": "spiral"}]},
             "unknown family kind 'spiral' (expected fountain | left-fountain"),
        ],
    )
    def test_bad_triangulation_file_exits_three(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.tri"
        path.write_text(json.dumps(data))
        code, out = run_cli(["validate-tri", "--tri", str(path)], capsys)
        assert code == 3
        assert message in out

    @pytest.mark.parametrize(
        "family",
        [
            {**FOUNTAIN, "base": "1/2"},
            {"kind": "half-nest", "limit": "1/4", "limit2": "1/4", "scale": "1/8"},
        ],
    )
    def test_family_without_limit_arc_exits_one(self, tmp_path, capsys, family):
        # validate-tri used to accept these, and limit-arcs then failed
        # with a traceback building the limit arc from two equal points
        path = tmp_path / "bad.tri"
        path.write_text(json.dumps({"families": [family]}))
        for verb in ("validate-tri", "limit-arcs"):
            code, out = run_cli([verb, "--tri", str(path)], capsys)
            assert code == 1
            assert "limit arc joins a point to itself" in out

    def test_fountain_base_on_a_tip_exits_one(self, tmp_path, capsys):
        # tip 2 of this fan is 1/4, so base 1/4 would make a loop arc
        path = tmp_path / "bad.tri"
        path.write_text(json.dumps({"families": [{**self.FOUNTAIN, "base": "1/4"}]}))
        for verb in ("validate-tri", "limit-arcs"):
            code, out = run_cli([verb, "--tri", str(path)], capsys)
            assert code == 1
            assert "right-fountain base 1/4 is one of its own tips" in out

    HALF_NEST_MEETING = {"kind": "half-nest", "limit": "0", "limit2": "1/12", "scale": "1/3"}

    def test_half_nest_tips_that_meet_exit_one(self, tmp_path, capsys):
        # a_8 = b_8 = 1/24: the tip sequences meet beyond the 12 arcs the
        # family checks for crossings, within the 32 it checks for meeting
        path = tmp_path / "bad.tri"
        path.write_text(json.dumps({"families": [self.HALF_NEST_MEETING]}))
        for verb in ("validate-tri", "limit-arcs"):
            code, out = run_cli([verb, "--tri", str(path)], capsys)
            assert code == 1
            assert "a family's tip sequences meet, joining a point to itself" in out
        with pytest.raises(InvalidFamily, match="tip sequences meet"):
            ArcFamily(
                "half-nest", limit=Fraction(0), limit2=Fraction(1, 12), scale=Fraction(1, 3)
            )

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_half_nest_meeting_at_its_first_tips_exits_one(self, tmp_path, capsys, fmt):
        # a_1 = b_1 = 1/4: the first arc would join a point to itself, which
        # used to escape the family's crossing check as a bare ValueError
        family = {"kind": "half-nest", "limit": "0/1", "limit2": "1/2", "scale": "1/4"}
        path = tmp_path / "bad.tri"
        path.write_text(json.dumps({"families": [family]}))
        message = "a family's tip sequences meet, joining a point to itself"
        for verb in (["validate-tri"], ["limit-arcs"], ["filtration", "--steps", "3"]):
            code, out = run_cli(["--format", fmt, verb[0], "--tri", str(path), *verb[1:]], capsys)
            assert code == 1
            assert message in out
        with pytest.raises(InvalidFamily, match=message):
            ArcFamily("half-nest", limit=Fraction(0), limit2=Fraction(1, 2), scale=Fraction(1, 4))

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_half_nest_meeting_late_exits_one(self, tmp_path, capsys, fmt):
        # a_20 = b_20 = 1/60: found for every k, not in a window of arcs; this
        # file used to pass validate-tri and stall filtration at size 37
        family = {"kind": "half-nest", "limit": "0", "limit2": "1/30", "scale": "1/3"}
        path = tmp_path / "late.tri"
        path.write_text(json.dumps({"families": [family]}))
        message = "a family's tip sequences meet, joining a point to itself"
        for verb in (["validate-tri"], ["limit-arcs"], ["filtration", "--steps", "20"]):
            code, out = run_cli(["--format", fmt, verb[0], "--tri", str(path), *verb[1:]], capsys)
            assert code == 1
            assert message in out

    @pytest.mark.parametrize(
        "family, message",
        [
            ({**FOUNTAIN, "scale2": "0"}, "right-fountain takes no scale2"),
            ({**FOUNTAIN, "kind": "left-fountain", "scale2": "1/8"},
             "left-fountain takes no scale2"),
            ({"kind": "nest", "limit": "1/2", "scale": "1/4", "limit2": "1/8"},
             "nest takes no second limit"),
            ({**FOUNTAIN, "limit2": "1/8"}, "right-fountain takes no second limit"),
            ({**FOUNTAIN, "kind": "fountain", "scale2": "-1/8"}, "scale2 must be positive"),
        ],
    )
    def test_family_field_its_kind_ignores_exits_one(self, tmp_path, capsys, family, message):
        # each of these files used to exit 0, the field silently ignored
        path = tmp_path / "bad.tri"
        path.write_text(json.dumps({"families": [family]}))
        for verb in ("validate-tri", "limit-arcs"):
            code, out = run_cli([verb, "--tri", str(path)], capsys)
            assert code == 1
            assert message in out

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize("order", [("p", "q", "r"), ("r", "p", "q")])
    def test_mutation_onto_an_existing_value_exits_three(self, tmp_path, capsys, fmt, order):
        # mutating p gives (y + 1) / x, the value r already has; the error
        # names both labels in label order
        data = {
            "variables": [{"id": v, "exchangeable": v != "r"} for v in order],
            "matrix": [["p", "q", 1], ["q", "p", -1]],
            "values": [["p", "x"], ["q", "y"], ["r", "x^-1*y + x^-1"]],
        }
        path = tmp_path / "dup.seed"
        path.write_text(json.dumps(data))
        pair = "\"p'1\" and 'r'" if order[0] == "p" else "'r' and \"p'1\""
        message = f"labels {pair} share the value x^-1*y + x^-1"
        for verb in (["mutate", "--at", "p"], ["enumerate", "--depth", "1"]):
            code, out = run_cli(["--format", fmt, verb[0], "--seed", str(path), *verb[1:]], capsys)
            assert code == 3
            assert (json.loads(out)["error"] if fmt == "structured" else out) == (
                message if fmt == "structured" else f"error: {message}\n"
            )

    def test_flip_at_a_point_exits_three(self, files, capsys):
        code, out = run_cli(["flip", "--tri", files["pent.tri"], "--arc", "0/1~0/1"], capsys)
        assert code == 3
        assert "bad arc label '0/1~0/1'" in out

    @pytest.mark.parametrize("verb", ["stable-mutate", "positivity"])
    @pytest.mark.parametrize(
        "oracle, target",
        [
            ("path-quiver", "y"),
            ("path-quiver", "x01"),
            ("fan", "0/1~1/5"),
            ("fan", "1/4~0/1"),
            ("nest", "not-an-arc"),
            ("wrap:a2", "y3"),
        ],
    )
    def test_unknown_target_exits_three(self, files, capsys, verb, oracle, target):
        if oracle == "wrap:a2":
            oracle = "wrap:" + files["a2.seed"]
        code, out = run_cli(
            [verb, "--oracle", oracle, "--sequence", "", "--target", target], capsys
        )
        assert code == 3
        assert f"{target!r} is not a vertex of the oracle's seed" in out

    @pytest.mark.parametrize("verb", ["stable-mutate", "positivity"])
    @pytest.mark.parametrize(
        "sequence, message",
        [
            ("y", "'y' is not a vertex of the oracle's seed"),
            ("x0,x0", "step 'x0' can never become admissible in any stage"),
        ],
    )
    def test_step_naming_no_live_label_exits_three(self, capsys, verb, sequence, message):
        code, out = run_cli(
            [verb, "--oracle", "path-quiver", "--sequence", sequence, "--target", "x0"], capsys
        )
        assert code == 3
        assert message in out

    XYX = {
        "variables": [{"id": v, "exchangeable": True} for v in ("x", "y", "x'1")],
        "matrix": [["x", "y", 1], ["y", "x", -1], ["y", "x'1", 1], ["x'1", "y", -1]],
    }

    @pytest.mark.parametrize("verb", ["stable-mutate", "positivity"])
    def test_fresh_label_on_a_vertex_exits_three(self, tmp_path, capsys, verb):
        path = tmp_path / "xyx.seed"
        path.write_text(json.dumps(self.XYX))
        oracle = "wrap:" + str(path)
        code, out = run_cli([verb, "--oracle", oracle, "--sequence", "x,x'1", "--target", "y"], capsys)
        assert code == 3
        assert """mutating 'x' makes "x'1", also a vertex of the oracle's seed""" in out
        # once x'1 is mutated away, every stage gives its name to the new label
        code, out = run_cli([verb, "--oracle", oracle, "--sequence", "x'1,x,x'1", "--target", "x"], capsys)
        assert code == 0
        assert "stage: 3" in out

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize(
        "argv, content, message",
        [
            (["enumerate", "--seed"], None, "cannot read {}: Is a directory"),
            (["enumerate", "--seed"], b"\xff\xfe\x00", "not UTF-8 text: {}"),
            (["enumerate", "--seed"], b"[" * 100_000, "JSON nested too deeply: {}"),
            (["mutate", "--seed", "a2.seed", "--at", "y1", "--out"], None,
             "cannot write {}: Is a directory"),
            (["filtration", "--steps", "2", "--out-dir"], b"", "cannot create {}: File exists"),
        ],
        ids=["read-directory", "not-utf8", "nested", "write-directory", "out-dir-is-a-file"],
    )
    def test_file_fault_exits_three(self, files, tmp_path, fmt, argv, content, message):
        # each of these used to end in a traceback and exit 1
        path = tmp_path / "fault"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        argv = ["--format", fmt, *(files.get(arg, arg) for arg in argv), str(path)]
        report = {"error": message.format(path)}
        assert run_captured(argv) == (3, rendered(report, fmt), "")

    def test_jobs_flag_is_gone(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "2", "enumerate", "--seed", files["a2.seed"]])
        assert exc.value.code == 3
        assert "clusterlab: error:" in capsys.readouterr().err


# the exit code and report of `main` for each error class, by its kind:
# "input" exits 3, "inconclusive" 2, "invalid" (a refuted triangulation) and
# "failure" 1
ERROR_KINDS = {
    "ClusterLabError": "failure",
    "InputError": "input",
    "Inconclusive": "inconclusive",
    "DivisionByZero": "failure",
    "NotDivisible": "failure",
    "LaurentParseError": "input",
    "InvalidSeed": "input",
    "NotSkewSymmetrizable": "failure",
    "NotExchangeable": "input",
    "NotAdmissible": "input",
    "ResourceLimit": "inconclusive",
    "LabelCollision": "input",
    "SearchBudgetExceeded": "inconclusive",
    "CrossingPair": "invalid",
    "NotMaximal": "invalid",
    "NotFlippable": "input",
    "InvalidFamily": "failure",
    "UnmarkedPoint": "input",
    "TooFewPoints": "input",
    "NotAnArc": "failure",
    "NonLaurentImage": "failure",
    "SeedMismatch": "failure",
    "NotSimilar": "failure",
    "OracleInconsistent": "failure",
    "NotOnlyCoefficients": "failure",
    "NotFullSubseed": "failure",
    "IncompatibleCone": "failure",
    "NotAdmissibleAtStage": "input",
    "UnknownVertex": "input",
    "ParseError": "input",
}

KIND_OUTCOMES = {
    "input": (3, {"error": "boom"}),
    "inconclusive": (2, {"inconclusive": "boom"}),
    "invalid": (1, {"error": "boom", "valid": False}),
    "failure": (1, {"error": "boom"}),
}


class TestErrorKinds:
    """`main` reads an error's exit code from its class's kind."""

    def test_the_table_names_every_error_class(self):
        classes = {
            name for name, cls in vars(clusterlab.errors).items()
            if isinstance(cls, type) and issubclass(cls, clusterlab.errors.ClusterLabError)
        }
        assert classes == ERROR_KINDS.keys()

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize("name", sorted(ERROR_KINDS))
    def test_exit_code_and_report_follow_the_kind(self, files, monkeypatch, fmt, name):
        cls = getattr(clusterlab.errors, name)

        def handler(args):
            # __new__ alone: the message without each class's own arguments
            raise cls.__new__(cls, "boom")

        monkeypatch.setattr(clusterlab.cli, "_cmd_components", handler)
        code, report = KIND_OUTCOMES[ERROR_KINDS[name]]
        argv = ["--format", fmt, "components", "--seed", files["a2.seed"]]
        assert run_captured(argv) == (code, rendered(report, fmt), "")


class TestMutatedSeedFiles:
    def test_mutated_seed_roundtrip(self, files, tmp_path):
        from clusterlab.seeds import mutate_seed

        seed = load_seed_file(files["a2.seed"])
        mutated = mutate_seed(seed, "y1")
        path = tmp_path / "mutated.seed"
        save_seed_file(mutated, str(path))
        again = load_seed_file(str(path))
        assert again.same_seed(mutated)
        assert "y1'1" in again.labels


LONG = "9" * 5000  # past int's default limit of 4300 digits of integer text


class TestUnreadableIntegers:
    """A digit string that int cannot read, in a label, a Laurent atom or a
    JSON number, is a counter-free suffix, an unknown vertex or an input
    error (exit 3), never a ValueError traceback."""

    def write(self, tmp_path, data):
        path = tmp_path / "seed.seed"
        path.write_text(data if isinstance(data, str) else json.dumps(data), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_a_suffix_int_cannot_read_is_no_counter(self, tmp_path, fmt):
        for label in ["x'²", f"x'{LONG}"]:
            path = self.write(tmp_path, {"variables": [{"id": label, "exchangeable": True}], "matrix": []})
            code, out, err = run_captured(["--format", fmt, "mutate", "--seed", path, "--at", label])
            assert (code, err) == (0, "")
            assert label + "'1" in (out if fmt == "plain" else json.loads(out)["seed"]["variables"][0]["id"])
            code, out, err = run_captured(["--format", fmt, "enumerate", "--seed", path, "--depth", "2"])
            assert (code, err) == (0, "")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize("label", ["x²", "xm²", f"x{LONG}", f"xm{LONG}"])
    def test_a_path_quiver_label_int_cannot_read_is_no_vertex(self, fmt, label):
        argv = ["--format", fmt, "stable-mutate", "--oracle", "path-quiver", "--target", label]
        report = {"error": f"{label!r} is not a vertex of the oracle's seed"}
        assert run_captured(argv) == (3, rendered(report, fmt), "")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    @pytest.mark.parametrize("value", [f"{LONG}*x", f"x^{LONG}", f"x^-{LONG}"])
    def test_a_laurent_atom_int_cannot_read_is_a_parse_error(self, tmp_path, fmt, value):
        data = {"variables": [{"id": "x", "exchangeable": True}], "matrix": [], "values": [["x", value]]}
        argv = ["--format", fmt, "enumerate", "--seed", self.write(tmp_path, data)]
        report = {"error": "bad laurent text: integer of 5000 digits is too long"}
        assert run_captured(argv) == (3, rendered(report, fmt), "")

    @pytest.mark.parametrize("fmt", ["plain", "structured"])
    def test_a_json_number_int_cannot_read_is_a_parse_error(self, tmp_path, fmt):
        path = self.write(tmp_path, '{"variables": [{"id": "x"}], "matrix": [["x", "x", %s]]}' % LONG)
        report = {"error": f"integer too long to read: {path}"}
        assert run_captured(["--format", fmt, "components", "--seed", path]) == (3, rendered(report, fmt), "")
