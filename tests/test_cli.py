"""Command-line interface: solve, benchmark, export, describe, exit codes."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dyngraph import cli
from dyngraph.cli import main
from dyngraph.model import parse_urdf
from dyngraph.oracle import rnea_torques
from dyngraph.transcribe import JointState

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
PENDULUM = str(FIXTURES / "pendulum.urdf")
THREE_R = str(FIXTURES / "three_r.urdf")
SIX_R = str(FIXTURES / "six_r.urdf")
FIVE_BAR = str(FIXTURES / "five_bar.urdf")

SOLVE_KEYS = {
    "solution", "ordering", "fillIn", "edgeCount",
    "residualMax", "leftoverMax", "rcond", "elapsedMicros", "buildMicros",
}

FIVE_BAR_STATE = [
    "--q", "1.9,-1.176132,1.2,1.198527,1.674659",
    "--qd", "0.3,-0.631527,-0.2,0.570604,0.702131",
]


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_zero_state_zero_torques(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--urdf", THREE_R, "--type", "inverse",
            "--q", "0,0,0", "--qdd", "0,0,0", "--gravity", "0 0 0",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == SOLVE_KEYS
        assert all(abs(v) < 1e-12 for v in doc["solution"]["torques"].values())
        assert doc["residualMax"] < 1e-10
        # the gate's evidence: above size x 1e-9 (39 unknowns), at most 1
        assert 39 * 1e-9 < doc["rcond"] <= 1.0

    def test_pendulum_static_torque(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--urdf", PENDULUM, "--type", "inverse",
            "--q", "0", "--qdd", "0", "--gravity", "0 -9.81 0",
        )
        assert code == 0
        tau = json.loads(out)["solution"]["torques"]["hinge"]
        assert abs(tau - 1.2 * 9.81 * 0.45) < 1e-10

    def test_forward_solution_keys(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--urdf", THREE_R, "--type", "forward",
            "--q", "0.3,-0.5,0.8", "--qd", "0.1,0.2,-0.1",
            "--tau", "1.0,-0.5,0.2", "--gravity", "0 -9.81 0",
        )
        assert code == 0
        doc = json.loads(out)
        sol = doc["solution"]
        assert set(sol) == {"torques", "accels", "twists", "wrenches", "linkAccels"}
        assert set(sol["accels"]) == {"j1", "j2", "j3"}
        # given torques echo back
        assert sol["torques"] == {"j1": 1.0, "j2": -0.5, "j3": 0.2}

    def test_hybrid_mixed_spec(self, capsys):
        mixed = json.dumps(
            {"j1": {"accel": 0.5}, "j2": {"torque": 1.0}, "j3": {"torque": -0.2}}
        )
        code, out, _ = run(
            capsys, "solve", "--urdf", THREE_R, "--type", "hybrid",
            "--q", "0.3,-0.5,0.8", "--qd", "0.1,0.2,-0.1",
            "--mixed", mixed, "--gravity", "0 -9.81 0",
        )
        assert code == 0
        sol = json.loads(out)["solution"]
        assert sol["accels"]["j1"] == 0.5
        assert sol["torques"]["j2"] == 1.0
        assert sol["torques"]["j3"] == -0.2

    def test_named_orderings_agree(self, capsys):
        torques = {}
        for name in ("rnea", "md", "nd"):
            code, out, _ = run(
                capsys, "solve", "--urdf", SIX_R, "--type", "inverse",
                "--q", "0.2,0.4,-0.3,0.8,-1.0,0.5", "--qd", "0.1,0,0.2,-0.1,0.3,0",
                "--qdd", "0.5,-0.2,0.1,0,0.4,-0.3", "--ordering", name,
            )
            assert code == 0
            torques[name] = json.loads(out)["solution"]["torques"]
        for a in torques.values():
            for j, v in torques["rnea"].items():
                assert abs(a[j] - v) < 1e-10

    def test_custom_ordering(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--urdf", PENDULUM, "--type", "inverse",
            "--q", "0", "--qdd", "0", "--gravity", "0 -9.81 0",
            "--ordering", "custom:F1,Vd1,tau1",
        )
        assert code == 0
        assert json.loads(out)["ordering"] == ["F1", "Vd1", "tau1"]

    @pytest.mark.parametrize("keys,detail", [
        ("tau1,tau2", "Vd1 is missing"),
        ("tau1,tau1,tau2,tau3,F1,F2,F3,Vd1,Vd2,Vd3", "tau1 appears twice"),
        ("Vd9,tau1,tau2,tau3,F1,F2,F3,Vd1,Vd2,Vd3", "Vd9 is not one of them"),
    ], ids=["missing", "duplicated", "unknown"])
    def test_custom_ordering_error_names_key(self, capsys, keys, detail):
        code, _, err = run(
            capsys, "solve", "--urdf", THREE_R, "--type", "inverse",
            "--qdd", "0,0,0", "--ordering", "custom:" + keys,
        )
        assert code == 1
        assert err.strip() == ("error: ordering is not a permutation of the graph's "
                               "variables: " + detail)

    def test_loop_without_plane_fails_naming_wrench(self, capsys):
        code, _, err = run(
            capsys, "solve", "--urdf", FIVE_BAR, "--type", "forward",
            *FIVE_BAR_STATE, "--tau", "1.0,0.5", "--gravity", "0 -9.81 0",
        )
        assert code == 1
        assert err.startswith("error:")
        assert "F5" in err
        assert len(err.strip().splitlines()) == 1

    def test_loop_with_plane_solves(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--urdf", FIVE_BAR, "--type", "forward",
            *FIVE_BAR_STATE, "--tau", "1.0,0.5", "--gravity", "0 -9.81 0",
            "--planar-loop", "j5:0 0 1",
        )
        assert code == 0
        assert json.loads(out)["residualMax"] < 1e-8

    def test_min_torque_prior_flag(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--urdf", FIVE_BAR, "--type", "inverse",
            *FIVE_BAR_STATE, "--qdd", "0.7,-0.4", "--gravity", "0 -9.81 0",
            "--planar-loop", "j5:0 0 1", "--min-torque-prior",
        )
        assert code == 0
        torques = json.loads(out)["solution"]["torques"]
        assert set(torques) == {"j1", "j2", "j3", "j4", "j5"}
        # passive joints echo their zero designation; the drive pair is solved
        assert torques["j2"] == torques["j4"] == torques["j5"] == 0.0
        assert abs(torques["j1"]) > 0.1 and abs(torques["j3"]) > 0.1

    def test_tool_wrench_matches_the_recursive_oracle(self, capsys):
        q, qd, qdd = [0.3, -0.7, 1.1], [0.2, 0.5, -0.4], [0.9, -0.3, 0.6]
        wrench = [0.1, -0.2, 0.3, 1.5, -2.0, 0.7]
        code, out, _ = run(capsys, "solve", "--urdf", THREE_R, "--type", "inverse",
                           *(f"--{flag}={','.join(map(str, v))}" for flag, v in (
                               ("q", q), ("qd", qd), ("qdd", qdd), ("tool-wrench", wrench))))
        assert code == 0
        torques = json.loads(out)["solution"]["torques"]
        model, state = parse_urdf(pathlib.Path(THREE_R).read_text()), JointState(q, qd)
        want = rnea_torques(model, state, qdd, tool_wrench=wrench)
        np.testing.assert_allclose([torques[j] for j in ("j1", "j2", "j3")], want,
                                   rtol=0, atol=1e-9)
        # the wrench moves every torque, so a flag left unread would fail
        assert np.all(np.abs(want - rnea_torques(model, state, qdd)) > 1e-3)

    def test_leftover_max_shows_prior_conflict(self, capsys):
        # the redundantly driven five-bar leaves dead rows; they are
        # consistent without the prior and carry its conflict with it
        leftover = {}
        for extra in ((), ("--min-torque-prior",)):
            code, out, _ = run(
                capsys, "solve", "--urdf", FIVE_BAR, "--type", "inverse",
                *FIVE_BAR_STATE, "--qdd", "0.7,-0.4", "--gravity", "0 -9.81 0",
                "--planar-loop", "j5:0 0 1", *extra,
            )
            assert code == 0
            doc = json.loads(out)
            assert set(doc) == SOLVE_KEYS
            leftover[extra] = doc["leftoverMax"]
        assert 0.0 <= leftover[()] < 1e-12
        assert 1e-4 < leftover[("--min-torque-prior",)] < 1e-1

    def test_missing_file(self, capsys):
        code, _, err = run(
            capsys, "solve", "--urdf", "/does/not/exist.urdf",
            "--type", "inverse", "--q", "0", "--qdd", "0",
        )
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_description(self, capsys, tmp_path):
        bad = tmp_path / "bad.urdf"
        bad.write_text("<robot name='x'><link name='a'></robot>")
        code, _, err = run(
            capsys, "solve", "--urdf", str(bad),
            "--type", "inverse", "--q", "0", "--qdd", "0",
        )
        assert code == 1
        assert err.startswith("error:")


class TestBenchmark:
    def test_inverse_orderings_table(self, capsys):
        code, out, _ = run(
            capsys, "benchmark", "--urdf", SIX_R, "--type", "inverse",
            "--orderings", "rnea,md,nd", "--trials", "5", "--seed", "3",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines[0].split()[:2] == ["ordering", "edges"]
        assert [l.split()[0] for l in lines[1:]] == ["rnea", "md", "nd"]

    def test_json_rows(self, capsys):
        code, out, _ = run(
            capsys, "benchmark", "--urdf", THREE_R, "--type", "forward",
            "--orderings", "crba,aba", "--trials", "2", "--seed", "1", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["ordering"] for r in doc["rows"]] == ["crba", "aba"]
        by_name = {r["ordering"]: r for r in doc["rows"]}
        assert by_name["aba"]["edgeCount"] < by_name["crba"]["edgeCount"]

    def test_single_trial(self, capsys):
        code, out, _ = run(
            capsys, "benchmark", "--urdf", THREE_R, "--type", "inverse",
            "--orderings", "rnea", "--trials", "1", "--seed", "9", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 1
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["meanMicros"] == doc["rows"][0]["medianMicros"]

    def test_seed_fixes_everything_but_time(self, capsys):
        def snapshot():
            code, out, _ = run(
                capsys, "benchmark", "--urdf", THREE_R, "--type", "inverse",
                "--orderings", "rnea,md", "--trials", "3", "--seed", "42", "--json",
            )
            assert code == 0
            doc = json.loads(out)
            for row in doc["rows"]:
                row.pop("meanMicros")
                row.pop("medianMicros")
            return doc

        assert snapshot() == snapshot()

    def test_custom_ordering_takes_the_keys_after_it(self, capsys):
        keys = "tau3,tau2,tau1,F1,F2,F3,Vd1,Vd2,Vd3"
        code, out, _ = run(
            capsys, "benchmark", "--urdf", THREE_R, "--type", "inverse",
            "--orderings", f"md,custom:{keys}", "--trials", "2",
        )
        assert code == 0
        rows = [l.split() for l in out.splitlines()[1:] if l.strip()]
        assert [r[0] for r in rows] == ["md", f"custom:{keys}"]
        code, out, _ = run(
            capsys, "solve", "--urdf", THREE_R, "--type", "inverse",
            "--q", "0,0,0", "--qdd", "0,0,0", "--ordering", f"custom:{keys}",
        )
        assert code == 0
        assert int(rows[1][1]) == json.loads(out)["edgeCount"]


    def test_hybrid_random_problems(self, capsys):
        mixed = json.dumps({"j1": {"accel": 0.0}, "j2": {"torque": 0.0},
                            "j3": {"accel": 0.0}})
        code, out, _ = run(
            capsys, "benchmark", "--urdf", THREE_R, "--type", "hybrid",
            "--mixed", mixed, "--orderings", "auto,md,nd", "--trials", "3",
            "--seed", "4", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["ordering"] for r in doc["rows"]] == ["auto", "md", "nd"]
        assert all(r["edgeCount"] > 0 for r in doc["rows"])


THREE_TORQUES = '"j2": {"torque": 0}, "j3": {"torque": 0}'
HOSTILE = {
    "solve-list": ("solve", "[1,2]"),
    "solve-null": ("solve", '{"j1": {"accel": null}}'),
    "solve-huge-int": ("solve", '{"j1": {"accel": 1%s}}' % ("0" * 400)),
    "benchmark-number": ("benchmark", '{"j1": 1}'),
    "benchmark-list": ("benchmark", "[1]"),
    "benchmark-unknown-kind": ("benchmark", '{"j1": {"foo": 1}, %s}' % THREE_TORQUES),
}


@pytest.mark.parametrize("command,mixed", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_mixed_is_a_usage_error(capsys, command, mixed):
    extra = ["--orderings", "md", "--trials", "1"] if command == "benchmark" else []
    code, out, err = run(capsys, command, "--urdf", THREE_R, "--type", "hybrid",
                         "--mixed", mixed, *extra)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


UNPARSABLE_VECTOR = {
    "solve-gravity": ("--gravity", ["solve", "--type", "inverse", "--qdd", "0,0,0",
                                    "--gravity", "0 0 x"]),
    "solve-planar-loop": ("--planar-loop", ["solve", "--type", "inverse", "--qdd", "0,0,0",
                                            "--planar-loop", "j5:0 0 x"]),
    "benchmark-gravity": ("--gravity", ["benchmark", "--type", "inverse", "--orderings",
                                        "md", "--trials", "1", "--gravity", "0 0 x"]),
}


@pytest.mark.parametrize("flag,args", UNPARSABLE_VECTOR.values(),
                         ids=UNPARSABLE_VECTOR.keys())
def test_unparsable_vector_names_its_flag(capsys, flag, args):
    code, out, err = run(capsys, *args, "--urdf", THREE_R)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag}")


INVERSE = ["solve", "--urdf", THREE_R, "--type", "inverse"]
USAGE_ERROR = {
    "gravity-length": ("--gravity: expected 3", [*INVERSE, "--qdd", "0,0,0",
                                                 "--gravity", "0 -9.81"]),
    "q-length": ("--q/--qd must have 3 entries", [*INVERSE, "--qdd", "0,0,0", "--q", "0,0"]),
    "qd-length": ("--q/--qd must have 3 entries", [*INVERSE, "--qdd", "0,0,0",
                                                   "--qd", "0,0,0,0"]),
    "planar-loop-colon": ("--planar-loop: expected JOINT:NX NY NZ", [
        *INVERSE, "--qdd", "0,0,0", "--planar-loop", "j5 0 0 1"]),
    "missing-qdd": ("--type inverse requires --qdd", INVERSE),
    "missing-tau": ("--type forward requires --tau", ["solve", "--urdf", THREE_R,
                                                      "--type", "forward"]),
    "missing-mixed": ("--type hybrid requires --mixed", ["solve", "--urdf", THREE_R,
                                                         "--type", "hybrid"]),
    "mixed-not-json": ("--mixed is not valid JSON", ["solve", "--urdf", THREE_R, "--type",
                                                     "hybrid", "--mixed", "{j1: accel}"]),
    "benchmark-loop": ("benchmark generates random states and needs a tree", [
        "benchmark", "--urdf", FIVE_BAR, "--type", "inverse", "--orderings", "md"]),
    "orderings-empty": ("--orderings is empty", ["benchmark", "--urdf", THREE_R, "--type",
                                                 "inverse", "--orderings", " , "]),
    "orderings-repeated": ("--orderings names 'md' twice", [
        "benchmark", "--urdf", THREE_R, "--type", "inverse", "--orderings", "md,md,aba"]),
}


@pytest.mark.parametrize("message,args", USAGE_ERROR.values(), ids=USAGE_ERROR.keys())
def test_usage_error_names_its_flag(capsys, message, args):
    code, out, err = run(capsys, *args)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")


def test_benchmark_orderings_that_disagree_exit_1(capsys, monkeypatch):
    # "nd"'s values are shifted, so the probe's cross-check names the pair
    solve = cli.solve_dynamics

    def shifted(model, state, spec, ordering):
        res = solve(model, state, spec, ordering)
        if ordering != "nd":
            return res
        return dataclasses.replace(res, values={k: v + 1e-6 for k, v in res.values.items()})

    monkeypatch.setattr(cli, "solve_dynamics", shifted)
    code, out, err = run(capsys, "benchmark", "--urdf", THREE_R, "--type", "inverse",
                         "--orderings", "md,nd", "--trials", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: orderings 'md' and 'nd' disagree by 1.0")
    assert len(err.splitlines()) == 1


def test_benchmark_zero_trials_is_a_usage_error(capsys):
    code, _, err = run(capsys, "benchmark", "--urdf", THREE_R, "--type", "inverse",
                       "--orderings", "rnea", "--trials", "0")
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "--trials" in err


class TestExport:
    def test_graph_node_counts(self, capsys, tmp_path):
        out_path = tmp_path / "g.dot"
        code, _, _ = run(
            capsys, "export", "--urdf", THREE_R, "--type", "inverse",
            "--q", "0,0,0", "--qdd", "0,0,0", "--what", "graph",
            "--out", str(out_path),
        )
        assert code == 0
        dot = out_path.read_text()
        assert dot.count("shape=circle") == 9
        assert dot.count("shape=point") == 9

    def test_dag_matches_recursive_dependency_pattern(self, capsys, tmp_path):
        out_path = tmp_path / "d.dot"
        code, _, _ = run(
            capsys, "export", "--urdf", THREE_R, "--type", "inverse",
            "--q", "0,0,0", "--qdd", "0,0,0", "--what", "dag",
            "--ordering", "rnea", "--out", str(out_path),
        )
        assert code == 0
        dot = out_path.read_text()
        edges = {
            tuple(part.strip().strip('";') for part in line.split("->"))
            for line in dot.splitlines() if "->" in line
        }
        assert edges == {
            ("tau1", "F1"), ("tau2", "F2"), ("tau3", "F3"),
            ("F1", "F2"), ("F1", "Vd1"),
            ("F2", "F3"), ("F2", "Vd2"),
            ("F3", "Vd3"),
            ("Vd3", "Vd2"), ("Vd2", "Vd1"),
        }

    @pytest.mark.parametrize("what", ["graph", "dag"])
    def test_stdout_is_what_out_writes(self, capsys, tmp_path, what):
        args = ["export", "--urdf", SIX_R, "--type", "forward", "--q", "0.1,0.2,0.3,0.4,0.5,0.6",
                "--tau", "1,0,0,0,0,-1", "--what", what, "--ordering", "nd"]
        out_path = tmp_path / "x.dot"
        assert run(capsys, *args, "--out", str(out_path)) == (0, "", "")
        code, out, err = run(capsys, *args)
        assert (code, err) == (0, "")
        assert out == out_path.read_text() and out.endswith("}\n")

    def test_unwritable_path_exits_two(self, capsys):
        code, _, err = run(
            capsys, "export", "--urdf", THREE_R, "--type", "inverse",
            "--q", "0,0,0", "--qdd", "0,0,0", "--what", "graph",
            "--out", "/no/such/dir/x.dot",
        )
        assert code == 2
        assert err.startswith("error:")


class TestDescribe:
    @pytest.mark.parametrize("urdf", [THREE_R, FIVE_BAR])
    def test_prints_the_model_json(self, capsys, urdf):
        code, out, err = run(capsys, "describe", "--urdf", urdf)
        assert (code, err) == (0, "")
        assert out == parse_urdf(pathlib.Path(urdf).read_text()).to_json() + "\n"


class TestEntryPoint:
    @pytest.mark.parametrize("args", [
        ["solve", "--urdf", THREE_R, "--type", "inverse", "--qdd", "0,0,0"],
        ["benchmark", "--urdf", THREE_R, "--type", "inverse", "--orderings", "md",
         "--trials", "1"],
        ["export", "--urdf", THREE_R, "--type", "inverse", "--qdd", "0,0,0", "--what", "dag"],
        ["describe", "--urdf", THREE_R],
    ], ids=lambda args: args[0])
    def test_closed_standard_output_exits_two(self, args):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "dyngraph", *args], stdout=write,
                                  stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write standard output:")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dyngraph", "solve", "--urdf", PENDULUM,
             "--type", "inverse", "--q", "0", "--qdd", "0",
             "--gravity", "0 -9.81 0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        tau = json.loads(proc.stdout)["solution"]["torques"]["hinge"]
        assert abs(tau - 1.2 * 9.81 * 0.45) < 1e-10
