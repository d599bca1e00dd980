import argparse
import dataclasses
import json
import subprocess
import sys

import pytest

from lodecomp import cli
from lodecomp.catalog import dress_state, ghz_state, z_state
from lodecomp.cli import main
from lodecomp.decomposition import maximal_decomposition
from lodecomp.entanglement import e_lo
from lodecomp.fileio import StateFile, report_document, report_to_json
from lodecomp.tolerances import Tolerances

from util import coarse_grain


def run_cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "lodecomp", *argv],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.json"
    proc = run_cli("generate", "--kind", "ghz", "-o", str(path))
    assert proc.returncode == 0, proc.stderr
    return path


@pytest.fixture
def z_file(tmp_path):
    path = tmp_path / "z.json"
    proc = run_cli("generate", "--kind", "z", "--weights", "0.5,0.25,0.25", "-o", str(path))
    assert proc.returncode == 0, proc.stderr
    return path


class TestGenerate:
    def test_all_fixed_kinds(self, tmp_path):
        for kind in ("ghz", "w", "u", "v", "x"):
            path = tmp_path / f"{kind}.json"
            proc = run_cli("generate", "--kind", kind, "-o", str(path))
            assert proc.returncode == 0, proc.stderr
            document = json.loads(path.read_text())
            assert document["name"] == kind
            assert document["schema_version"] == 1

    def test_random_kinds(self, tmp_path):
        for extra in (
            ("--kind", "random", "--dims", "2,3,2", "--seed", "5"),
            ("--kind", "product", "--dims", "2,2,2", "--split", "2", "--seed", "5"),
            ("--kind", "random_local_dressing", "--base", "ghz", "--seed", "5"),
        ):
            path = tmp_path / "state.json"
            proc = run_cli("generate", *extra, "-o", str(path))
            assert proc.returncode == 0, proc.stderr

    def test_stdout_when_no_output(self):
        proc = run_cli("generate", "--kind", "ghz")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["dims"] == [2, 2, 2]

    def test_z_without_weights_is_input_error(self, tmp_path):
        proc = run_cli("generate", "--kind", "z", "-o", str(tmp_path / "z.json"))
        assert proc.returncode == 2
        assert "error" in proc.stderr

    @pytest.mark.parametrize("args", [
        ("--kind", "ghz", "--n", "0"),
        ("--kind", "w", "--n", "0"),
        ("--kind", "z", "--n", "0", "--weights", "1"),
        ("--kind", "product", "--dims", "2,2,2", "--split", "0"),
    ])
    def test_explicit_zero_is_input_error(self, tmp_path, capsys, args):
        # an explicit 0 reaches validation: it is not read as "not given"
        path = tmp_path / "state.json"
        assert main(["generate", *args, "-o", str(path)]) == 2
        assert "error" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("args, extra", [
        (("--kind", "u", "--dims", "3,3,3"), ["dims"]),
        (("--kind", "ghz", "--seed", "3"), ["seed"]),
        (("--kind", "random", "--dims", "2,2,2", "--n", "3"), ["n_subsystems"]),
        (("--kind", "x", "--weights", "0.5,0.5"), ["weights"]),
        (("--kind", "u", "--d", "3"), ["d"]),
        (("--kind", "ghz", "--base", "w"), ["base"]),
        (("--kind", "random", "--dims", "2,2", "--base-seed", "4"), ["base_seed"]),
    ])
    def test_flag_the_kind_does_not_take_is_input_error(self, tmp_path, capsys, args, extra):
        # a flag the kind does not take exits 2, in the catalog's words
        path = tmp_path / "state.json"
        assert main(["generate", *args, "-o", str(path)]) == 2
        kind = args[1]
        assert f"kind {kind!r} does not accept parameters {extra}" in capsys.readouterr().err
        assert not path.exists()

    def test_d_follows_the_dressed_base(self, tmp_path, capsys):
        # --d is the ghz shorthand also when ghz is the state random_local_dressing dresses
        path = tmp_path / "state.json"
        args = ["generate", "--kind", "random_local_dressing", "--d", "3", "-o", str(path)]
        assert main([*args, "--base", "w"]) == 2
        assert "kind 'w' does not accept parameters ['d']" in capsys.readouterr().err
        assert not path.exists()
        assert main([*args, "--base", "ghz"]) == 0
        assert json.loads(path.read_text())["dims"] == [3, 3, 3]

    @pytest.mark.parametrize("args, dims", [
        (("--kind", "ghz", "--d", "3", "--dims", "2,2"), "2,2"),
        (("--kind", "ghz", "--d", "3", "--dims", "2,2", "--n", "2"), "2,2"),
        (("--kind", "random_local_dressing", "--base", "ghz", "--d", "3", "--dims", "5,5,5"),
         "5,5,5"),
    ])
    def test_dims_that_disagree_with_d_is_input_error(self, tmp_path, capsys, args, dims):
        # --d is not dropped for --dims, nor --dims for --d
        path = tmp_path / "state.json"
        assert main(["generate", *args, "-o", str(path)]) == 2
        assert capsys.readouterr().err == f"error: --dims {dims} disagrees with --d 3\n"
        assert not path.exists()

    def test_d_with_matching_dims(self, tmp_path):
        path = tmp_path / "state.json"
        assert main(["generate", "--kind", "ghz", "--d", "3", "--dims", "3,3", "-o", str(path)]) == 0
        assert json.loads(path.read_text())["dims"] == [3, 3]

    @pytest.mark.parametrize("args, message", [
        (("--kind", "z", "--dims", "2,x"), "--dims must be a comma-separated integer list"),
        (("--kind", "product"), "product requires dims"),
        (("--kind", "random", "--dims", "2,2", "--seed", "-1"),
         "seed must be a nonnegative integer, got -1"),
        (("--kind", "product", "--dims", "2,2", "--seed", "-3"),
         "seed must be a nonnegative integer, got -3"),
    ])
    def test_dims_input_error_names_the_defect(self, tmp_path, capsys, args, message):
        path = tmp_path / "state.json"
        assert main(["generate", *args, "-o", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not path.exists()

    def test_dressing_without_base_is_input_error(self, tmp_path):
        proc = run_cli("generate", "--kind", "random_local_dressing")
        assert proc.returncode == 2

    def test_custom_name(self, tmp_path):
        path = tmp_path / "named.json"
        run_cli("generate", "--kind", "w", "--name", "probe", "-o", str(path))
        assert json.loads(path.read_text())["name"] == "probe"

    def test_deterministic_for_fixed_seed(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("generate", "--kind", "random", "--dims", "2,2,2", "--seed", "7", "-o", str(a))
        run_cli("generate", "--kind", "random", "--dims", "2,2,2", "--seed", "7", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestDecompose:
    def test_table(self, ghz_file):
        proc = run_cli("decompose", str(ghz_file))
        assert proc.returncode == 0
        assert "branches: 2" in proc.stdout
        assert "E_LO = 1.000000 bits" in proc.stdout
        assert "path: block-sbd" in proc.stdout
        assert "degenerate_spectrum=yes" in proc.stdout

    def test_json(self, z_file, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("decompose", str(z_file), "--format", "json", "-o", str(out))
        assert proc.returncode == 0
        document = json.loads(out.read_text())
        assert document["branch_count"] == 3
        assert document["weights"][0] == pytest.approx(0.5, abs=1e-9)

    def test_csv(self, z_file):
        proc = run_cli("decompose", str(z_file), "--format", "csv")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "branch,weight"
        assert len(lines) == 4
        assert lines[1].startswith("0,0.5")

    def test_missing_file_is_input_error(self):
        proc = run_cli("decompose", "/nonexistent/state.json")
        assert proc.returncode == 2

    def test_malformed_file_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        proc = run_cli("decompose", str(bad))
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "pair",
        [[10**400, 0], [True, 0], ["1", 0], [1.0, 0.0, 0.0]],
        ids=["huge_integer", "boolean", "string", "three_elements"],
    )
    def test_malformed_amplitude_is_input_error(self, tmp_path, capsys, pair):
        # in-process: the exit code and message are main's, with no interpreter start
        document = json.loads(StateFile.from_state(ghz_state()).to_json())
        document["amps"][5] = pair
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        assert main(["decompose", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: amps[5]")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("flag", ["--tol-deg", "--tol-supp", "--tol-edge"])
    def test_invalid_tolerance_is_input_error(self, tmp_path, capsys, flag, value):
        # --tol-edge -1 used to link every block into one branch and exit 0;
        # nan and inf used to exit 3
        path = tmp_path / "z.json"
        path.write_text(StateFile.from_state(z_state((0.5, 0.3, 0.2))).to_json())
        assert main(["decompose", str(path), f"{flag}={value}"]) == 2
        assert "must be a finite number > 0" in capsys.readouterr().err

    def test_boolean_dimension_is_input_error(self, tmp_path, capsys):
        # json reads true as a bool, and a bool is an int: [true, 2, 2] must not read as 1x2x2
        document = json.loads(StateFile.from_state(ghz_state()).to_json())
        document["dims"] = [True, 2, 2]
        document["amps"] = document["amps"][:4]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        assert main(["decompose", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: dims must be")

    def test_amplitudes_whose_squares_overflow(self, tmp_path, capsys):
        # a valid Bell state: its squared norm overflows, which used to exit 2
        # with "a decomposition needs at least one branch"
        path = tmp_path / "huge.json"
        path.write_text(
            '{"schema_version":1,"dims":[2,2],"amps":[[1e300,0],[0,0],[0,0],[1e300,0]]}'
        )
        report = tmp_path / "report.json"
        assert main(["decompose", str(path), "--format", "json", "-o", str(report)]) == 0
        assert capsys.readouterr().err == ""
        document = json.loads(report.read_text())
        assert document["branch_count"] == 2
        assert document["entropy_bits"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("command", ["decompose", "entropy"])
    def test_deeply_nested_state_file_is_input_error(self, tmp_path, capsys, command):
        # json.loads raises RecursionError on deep nesting, not JSONDecodeError;
        # that used to exit 3 with "internal error: RecursionError(...)"
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        assert main([command, str(deep)]) == 2
        assert capsys.readouterr().err.startswith("error: not valid JSON: maximum recursion")

    def test_deeply_nested_metadata_is_input_error(self, tmp_path, capsys):
        text = StateFile.from_state(ghz_state()).to_json().rstrip()
        path = tmp_path / "state.json"
        path.write_text(text[:-1] + ', "metadata": {"a": ' + "[" * 100000 + "]" * 100000 + "}}")
        assert main(["decompose", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: not valid JSON: maximum recursion")

    @pytest.mark.parametrize("argv", [["decompose", "s.json"], ["entropy", "s.json"],
                                      ["compare", "a.json", "b.json"]])
    def test_seed_flag_is_a_usage_error(self, argv, capsys):
        # the answer depends on the state and the tolerances alone
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--seed", "0"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decompose", "entropy"])
    @pytest.mark.parametrize("generate, tol_supp, message", [
        (["--kind", "ghz"], "0.9",
         "error: t_supp 0.9 leaves subsystem 0 no support: its largest eigenvalue is 0.5\n"),
        (["--kind", "ghz", "--n", "2", "--d", "3"], "0.9",
         "error: t_supp 0.9 leaves subsystems [0] and [1] no support: "
         "the largest squared Schmidt coefficient is 0.333333\n"),
        (["--kind", "u"], "0.6",
         "error: t_supp 0.6 leaves subsystem 0 no support: its largest eigenvalue is 0.5\n"),
    ], ids=["ghz", "schmidt", "u"])
    def test_empty_support_is_input_error(self, tmp_path, capsys, command, generate, tol_supp, message):
        # these used to exit 2 with numpy's argmax message, or 3 with an
        # IndexError or a blame on the edge threshold
        path = tmp_path / "state.json"
        assert main(["generate", *generate, "-o", str(path)]) == 0
        assert main([command, str(path), "--tol-supp", tol_supp]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("command, kind, tol_edge, message", [
        ("decompose", ["--kind", "ghz"], "0.6",
         "error: t_edge 0.6 leaves a correlation-graph component without subsystem 1: "
         "the largest rejected edge weight is 0.5\n"),
        ("decompose", ["--kind", "z", "--weights", "0.5,0.3,0.2"], "0.25",
         "error: t_edge 0.25 leaves a correlation-graph component without subsystem 1: "
         "the largest rejected edge weight is 0.2\n"),
        ("entropy", ["--kind", "z", "--weights", "0.5,0.3,0.2"], "0.25",
         "error: t_edge 0.25 leaves a correlation-graph component without subsystem 1: "
         "the largest rejected edge weight is 0.2\n"),
    ], ids=["decompose-ghz", "decompose-z", "entropy-z"])
    def test_edge_threshold_that_strands_a_block_is_input_error(
        self, tmp_path, capsys, command, kind, tol_edge, message
    ):
        # these used to exit 3 with "a correlation-graph component misses a subsystem"
        path = tmp_path / "state.json"
        assert main(["generate", *kind, "-o", str(path)]) == 0
        assert main([command, str(path), "--tol-edge", tol_edge]) == 2
        assert capsys.readouterr().err == message

    def test_json_byte_identical_across_runs(self, ghz_file, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("decompose", str(ghz_file), "--format", "json", "-o", str(a))
        run_cli("decompose", str(ghz_file), "--format", "json", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("seed", [4, 7])
    def test_json_entropy_matches_e_lo(self, tmp_path, seed):
        # in-process, so both sides run on the same BLAS configuration
        state = tmp_path / "dressed_z.json"
        report = tmp_path / "report.json"
        assert main([
            "generate", "--kind", "random_local_dressing", "--base", "z",
            "--weights", "0.5,0.3,0.2", "--seed", str(seed), "-o", str(state),
        ]) == 0
        assert main(["decompose", str(state), "--format", "json", "-o", str(report)]) == 0
        written = json.loads(report.read_text())["entropy_bits"]
        assert written == e_lo(StateFile.read(state).to_state())


class TestEntropy:
    def test_ghz_one_bit(self, ghz_file):
        proc = run_cli("entropy", str(ghz_file))
        assert proc.returncode == 0
        assert proc.stdout == "E_LO = 1.000000 bits\n"

    def test_w_zero_bits(self, tmp_path):
        path = tmp_path / "w.json"
        run_cli("generate", "--kind", "w", "-o", str(path))
        proc = run_cli("entropy", str(path))
        assert proc.stdout == "E_LO = 0.000000 bits\n"

    def test_nats(self, ghz_file):
        proc = run_cli("entropy", str(ghz_file), "--nats")
        assert proc.stdout == "E_LO = 0.693147 nats\n"

    def test_z_entropy(self, z_file):
        proc = run_cli("entropy", str(z_file))
        assert proc.stdout == "E_LO = 1.500000 bits\n"


class TestVerify:
    def test_clean_report_passes(self, ghz_file, tmp_path):
        report = tmp_path / "report.json"
        run_cli("decompose", str(ghz_file), "--format", "json", "-o", str(report))
        proc = run_cli("verify", str(ghz_file), str(report))
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("PASS")

    def test_oracle_pass(self, z_file, tmp_path):
        report = tmp_path / "report.json"
        run_cli("decompose", str(z_file), "--format", "json", "-o", str(report))
        proc = run_cli("verify", str(z_file), str(report), "--oracle")
        assert proc.returncode == 0
        assert "maximality: pass" in proc.stdout

    def test_oracle_inconclusive_still_passes(self, tmp_path):
        state = tmp_path / "x.json"
        report = tmp_path / "report.json"
        run_cli("generate", "--kind", "x", "-o", str(state))
        run_cli("decompose", str(state), "--format", "json", "-o", str(report))
        proc = run_cli("verify", str(state), str(report), "--oracle")
        assert proc.returncode == 0
        assert "maximality: inconclusive" in proc.stdout
        assert proc.stdout.strip().endswith("PASS")

    def test_report_whose_supports_carry_no_weight_fails(self, tmp_path, capsys):
        # |2> on every subsystem of z(0.5, 0.5) on 3x3x3: no branch is left to judge
        state = z_state((0.5, 0.5), dims=(3, 3, 3))
        document = report_document(maximal_decomposition(state))
        for branch in document["branches"]:
            branch["supports"] = [[[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]] * 3
        state_path, report = tmp_path / "z.json", tmp_path / "report.json"
        StateFile.from_state(state).write(state_path)
        report.write_text(report_to_json(document))
        assert main(["verify", str(state_path), str(report)]) == 1
        out = capsys.readouterr().out
        assert "branch 0: reported supports carry no weight in the state" in out
        assert out.endswith("no branch could be rebuilt from the report\nFAIL\n")

    def test_merged_report_passes_without_the_oracle(self, tmp_path, capsys):
        # verify checks local orthogonality, not maximality: a report that
        # merges two genuine branches is self-consistent and locally
        # orthogonal, and only the oracle's search finds the missed split
        state = z_state((0.5, 0.3, 0.2))
        result = maximal_decomposition(state)
        merged = dataclasses.replace(
            result, decomposition=coarse_grain(result.decomposition, [[0, 1], [2]])
        )
        state_path, report = tmp_path / "z.json", tmp_path / "merged.json"
        StateFile.from_state(state, name="z").write(state_path)
        report.write_text(report_to_json(report_document(merged)))
        assert json.loads(report.read_text())["weights"] == pytest.approx([0.8, 0.2])
        assert main(["verify", str(state_path), str(report)]) == 0
        assert capsys.readouterr().out.endswith("PASS\n")
        assert main(["verify", str(state_path), str(report), "--oracle"]) == 1
        out = capsys.readouterr().out
        assert "maximality: fail (branch 0 splits along subsystem 0" in out
        assert out.endswith("FAIL\n")

    @pytest.mark.parametrize("state, verdict", [
        (z_state((0.5, 0.3, 0.2)), "fail"),
        (dress_state(ghz_state(3, 3), 1), "inconclusive"),
    ], ids=["z", "dressed-ghz-3x3"])
    def test_no_flag_turns_a_merged_report_into_a_pass(self, tmp_path, capsys, state, verdict):
        # every locally orthogonal decomposition coarse-grains the maximal
        # one, so no setting may pass a merge: --tol-supp 0.6 used to pass
        # the z merge and --tol-deg 1e-30 the dressed ghz one
        result = maximal_decomposition(state)
        k = result.decomposition.n_branches
        merged = dataclasses.replace(result, decomposition=coarse_grain(
            result.decomposition, [[0, 1], *([i] for i in range(2, k))]))
        state_path, report = tmp_path / "state.json", tmp_path / "merged.json"
        StateFile.from_state(state).write(state_path)
        report.write_text(report_to_json(report_document(merged)))
        assert main(["verify", str(state_path), str(report), "--oracle"]) == int(verdict == "fail")
        assert f"maximality: {verdict} (" in capsys.readouterr().out
        for flag in ("--tol-supp=0.6", "--tol-deg=1e-30", "--tol-edge=0.9"):
            with pytest.raises(SystemExit) as caught:
                main(["verify", str(state_path), str(report), "--oracle", flag])
            assert caught.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_negative_branch_weight_fails_with_three_findings(self, tmp_path, capsys):
        # -0.5 is outside the entropy's domain, so no entropy_bits can match it
        state_path, report = tmp_path / "z.json", tmp_path / "report.json"
        StateFile.from_state(z_state((0.5, 0.3, 0.2))).write(state_path)
        assert main(["decompose", str(state_path), "--format", "json", "-o", str(report)]) == 0
        document = json.loads(report.read_text())
        document["branches"][0]["weight"] = -0.5
        report.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(["verify", str(state_path), str(report)]) == 1
        lines = capsys.readouterr().out.splitlines()
        weight = document["weights"][0]
        assert lines[0].startswith("branch 0: reported weight -0.5 does not match the state")
        assert lines[1] == f"weights[0] {weight!r} is not branch 0's weight -0.5"
        assert lines[2] == "entropy_bits is not the branch weights' entropy nan"
        assert lines[-1] == "FAIL"

    def test_tampered_weight_fails(self, z_file, tmp_path):
        report = tmp_path / "report.json"
        run_cli("decompose", str(z_file), "--format", "json", "-o", str(report))
        document = json.loads(report.read_text())
        document["branches"][0]["weight"] = 0.4
        document["weights"][0] = 0.4
        report.write_text(json.dumps(document))
        proc = run_cli("verify", str(z_file), str(report))
        assert proc.returncode == 1
        assert proc.stdout.strip().endswith("FAIL")

    def test_deeply_nested_report_is_input_error(self, ghz_file, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        assert main(["verify", str(ghz_file), str(deep)]) == 2
        assert capsys.readouterr().err.startswith("error: not valid JSON: maximum recursion")

    def test_dims_mismatch_is_input_error(self, ghz_file, z_file, tmp_path):
        report = tmp_path / "report.json"
        run_cli("decompose", str(z_file), "--format", "json", "-o", str(report))
        proc = run_cli("verify", str(ghz_file), str(report))
        assert proc.returncode == 2

    def test_structurally_broken_report_is_input_error(self, ghz_file, tmp_path):
        report = tmp_path / "report.json"
        run_cli("decompose", str(ghz_file), "--format", "json", "-o", str(report))
        document = json.loads(report.read_text())
        del document["weights"]
        report.write_text(json.dumps(document))
        proc = run_cli("verify", str(ghz_file), str(report))
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["branches"][0].update(weight=None),
            lambda doc: doc["branches"].__setitem__(0, [doc["branches"][0]["weight"]]),
            lambda doc: doc["branches"][0]["supports"][1].__setitem__(0, 0.5),
            lambda doc: doc["branches"][0]["supports"][1][0][0].__setitem__(0, float("nan")),
            lambda doc: doc["branches"][0]["supports"][1].append([[1.0, 0.0]]),
        ],
        ids=["weight_null", "branch_as_list", "column_as_number", "entry_nan", "short_column"],
    )
    def test_malformed_report_entry_is_input_error(self, ghz_file, tmp_path, mutate):
        report = tmp_path / "report.json"
        run_cli("decompose", str(ghz_file), "--format", "json", "-o", str(report))
        document = json.loads(report.read_text())
        mutate(document)
        report.write_text(json.dumps(document))
        proc = run_cli("verify", str(ghz_file), str(report))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: branch 0")


    @pytest.mark.parametrize(
        ("field", "value"),
        [("dims", [True, 2, 2]), ("branch_count", True)],
        ids=["dims", "branch_count"],
    )
    def test_boolean_report_integer_is_input_error(self, tmp_path, capsys, field, value):
        # each boolean equals the integer it replaces, so only a type check can catch it
        state = tmp_path / "state.json"
        report = tmp_path / "report.json"
        assert main(["generate", "--kind", "product", "--dims", "1,2,2", "-o", str(state)]) == 0
        assert main(["decompose", str(state), "--format", "json", "-o", str(report)]) == 0
        document = json.loads(report.read_text())
        assert document[field] == value
        document[field] = value
        report.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(["verify", str(state), str(report)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def drop_last_branch(doc):
    del doc["branches"][-1], doc["weights"][-1]
    doc["branch_count"] -= 1


def rescale_weight(doc):
    doc["branches"][1]["weight"] *= 1.5
    doc["weights"][1] *= 1.5


def swap_subsystem_supports(doc):
    supports = doc["branches"][0]["supports"]
    supports[0], supports[1] = supports[1], supports[0]


# (mutation, exit code) pairs: every report is a genuine one edited, and
# each edit must fail verification (1) or parsing (2), never pass (0) or
# crash (3)
REPORT_MUTATIONS = {
    "entropy_zero": (lambda doc: doc.update(entropy_bits=0.0), 1),
    "weights_halved": (lambda doc: doc.update(weights=[w / 2 for w in doc["weights"]]), 1),
    "weights_number": (lambda doc: doc.update(weights=5), 2),
    "weights_short": (lambda doc: doc["weights"].pop(), 2),
    "entropy_missing": (lambda doc: doc.pop("entropy_bits"), 2),
    "branch_weight_huge_integer": (lambda doc: doc["branches"][0].update(weight=10**400), 2),
    "rescale_weight": (rescale_weight, 1),
    "drop_branch": (drop_last_branch, 1),
    "permute_column_entries": (lambda doc: doc["branches"][0]["supports"][1][0].reverse(), 1),
    "non_orthonormal_support": (
        lambda doc: doc["branches"][0]["supports"][2].__setitem__(
            0, [[2 * re, 2 * im] for re, im in doc["branches"][0]["supports"][2][0]]
        ),
        1,
    ),
    "swap_subsystem_supports": (swap_subsystem_supports, 1),
}


class TestTamperedReports:
    @pytest.fixture(scope="class")
    def genuine(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("tampered")
        state = work / "state.json"
        StateFile.from_state(dress_state(z_state((0.5, 0.3, 0.2)), seed=3)).write(state)
        report = work / "report.json"
        assert main(["decompose", str(state), "--format", "json", "-o", str(report)]) == 0
        return state, json.loads(report.read_text())

    def test_genuine_report_passes(self, genuine, tmp_path, capsys):
        state, document = genuine
        report = tmp_path / "report.json"
        report.write_text(json.dumps(document))
        assert main(["verify", str(state), str(report)]) == 0
        assert capsys.readouterr().out.strip().endswith("PASS")

    @pytest.mark.parametrize("name", sorted(REPORT_MUTATIONS))
    def test_mutation_is_rejected(self, genuine, tmp_path, capsys, name):
        state, document = genuine
        mutate, code = REPORT_MUTATIONS[name]
        document = json.loads(json.dumps(document))
        mutate(document)
        report = tmp_path / "report.json"
        report.write_text(json.dumps(document))
        assert main(["verify", str(state), str(report)]) == code
        out, err = capsys.readouterr()
        assert out.strip().endswith("FAIL") if code == 1 else err.startswith("error: ")


def set_branch_count(doc):
    doc["branch_count"] += 1
    doc["weights"].append(0.0)


# (file, edit, message): each edit of a genuine ghz state file or report
# exits 2 with exactly this message
MALFORMED_FILES = {
    "state_not_object": ("state", lambda doc: [doc], "state file must be a JSON object"),
    "amps_not_list": ("state", lambda doc: {**doc, "amps": 5}, "amps must be a list of [re, im] pairs"),
    "name_not_string": ("state", lambda doc: {**doc, "name": 5}, "name must be a string"),
    "metadata_not_object": ("state", lambda doc: {**doc, "metadata": [1]},
                            "metadata must be an object"),
    "entropy_string": ("report", lambda doc: {**doc, "entropy_bits": "1.0"},
                       "entropy_bits must be a finite number"),
    "no_branches": ("report", lambda doc: {**doc, "branches": [], "branch_count": 0, "weights": []},
                    "report must contain at least one branch"),
    "branch_count_beyond_list": ("report", set_branch_count,
                                 "branch_count does not match the branch list"),
    "branch_not_object": ("report", lambda doc: doc["branches"].__setitem__(0, 1.0),
                          "branch 0 must be an object"),
    "support_empty": ("report", lambda doc: doc["branches"][0]["supports"].__setitem__(0, []),
                      "branch 0 subsystem 0 support is empty"),
    "column_not_list": ("report", lambda doc: doc["branches"][0]["supports"].__setitem__(0, [5]),
                        "branch 0 support 0 columns must be lists of [re, im] pairs"),
    # a boolean or a float is not the integer version 1
    "schema_version_true": ("state", lambda doc: {**doc, "schema_version": True},
                            "unsupported schema_version True"),
    "schema_version_float": ("report", lambda doc: {**doc, "schema_version": 1.0},
                             "unsupported schema_version 1.0"),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
    def test_input_error_names_the_defect(self, tmp_path, capsys, name):
        which, edit, message = MALFORMED_FILES[name]
        state, report = tmp_path / "state.json", tmp_path / "report.json"
        StateFile.from_state(ghz_state(), name="ghz").write(state)
        assert main(["decompose", str(state), "--format", "json", "-o", str(report)]) == 0
        path = {"state": state, "report": report}[which]
        document = json.loads(path.read_text())
        edited = edit(document)  # None: edited in place
        path.write_text(json.dumps(document if edited is None else edited))
        assert main(["verify", str(state), str(report)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCompare:
    def test_side_by_side(self, ghz_file, tmp_path):
        other = tmp_path / "dressed.json"
        run_cli(
            "generate", "--kind", "random_local_dressing", "--base", "ghz",
            "--seed", "4", "-o", str(other),
        )
        proc = run_cli("compare", str(ghz_file), str(other))
        assert proc.returncode == 0
        assert "identical weight multisets: yes" in proc.stdout

    def test_different_states_differ(self, ghz_file, z_file):
        proc = run_cli("compare", str(ghz_file), str(z_file))
        assert proc.returncode == 0
        assert "identical weight multisets: no" in proc.stdout


class TestToleranceFlags:
    """Every ``--tol-*`` flag of every command sets one settable cutoff."""

    JUDGED = {
        "t_deg": 1e-8, "t_supp": 1e-10, "t_edge": 1e-10,
        "w_min": 1e-12, "t_nindep": 1e-8, "sbd_stable_rounds": 3,
    }

    @pytest.fixture
    def z_files(self, tmp_path):
        state = z_state((0.5, 0.3, 0.2))
        state_path, report = tmp_path / "z.json", tmp_path / "report.json"
        StateFile.from_state(state, name="z").write(state_path)
        result = maximal_decomposition(state)
        report.write_text(report_to_json(report_document(result)))
        return state_path, report

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("command, flag", [
        (command, flag)
        for command in ("entropy", "compare")
        for flag in ("--tol-deg", "--tol-supp", "--tol-edge")
    ])
    def test_invalid_tolerance_is_input_error_on_every_command(
        self, z_files, capsys, command, flag, value
    ):
        # each command builds its Tolerances from its own flags, so each
        # rejects a bad cutoff before any work; verify takes no cutoff
        state_path, _ = z_files
        inputs = [str(state_path)] * (2 if command == "compare" else 1)
        assert main([command, *inputs, f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert "must be a finite number > 0" in err and flag.replace("--tol-", "t_") in err

    @pytest.mark.parametrize("name", ["t_deg", "t_supp", "t_edge"])
    def test_each_flag_moves_only_its_threshold(self, z_files, name):
        # the fixed thresholds stay in the report's block whatever the flags say
        state_path, _ = z_files
        out = state_path.with_name("tuned.json")
        flag = "--tol-" + name.removeprefix("t_")
        assert main(["decompose", str(state_path), flag, "0.001", "--format", "json", "-o", str(out)]) == 0
        tolerances = json.loads(out.read_text())["diagnostics"]["tolerances"]
        assert tolerances == {**self.JUDGED, name: 0.001}


class TestParserReuse:
    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    def test_flags_do_not_carry_over_between_parses(self):
        parser = cli._parser()
        first = parser.parse_args(
            ["decompose", "s.json", "--tol-deg", "0.001", "--format", "csv"]
        )
        assert (first.tol_deg, first.format) == (0.001, "csv")
        verify = parser.parse_args(["verify", "s.json", "r.json"])
        assert verify.func is cli.cmd_verify
        assert verify.oracle is False
        assert not hasattr(verify, "tol_deg")
        assert not hasattr(verify, "seed") and not hasattr(verify, "format")
        again = parser.parse_args(["decompose", "s.json"])
        assert vars(again) == vars(cli.build_parser().parse_args(["decompose", "s.json"]))

    def test_every_tolerance_field_is_a_flag(self):
        # a Tolerances field no flag sets would be a knob only library
        # callers can turn; verify judges at fixed tolerances and takes none
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        fields = {"--tol-" + f.name.removeprefix("t_") for f in dataclasses.fields(Tolerances)}
        for command in ("decompose", "entropy", "compare", "verify"):
            flags = {
                option
                for action in sub.choices[command]._actions
                for option in action.option_strings
                if option.startswith("--tol-")
            }
            assert flags == (set() if command == "verify" else fields)

    def test_successive_main_calls_see_only_their_own_flags(self, tmp_path, capsys):
        state = tmp_path / "ghz.json"
        assert main(["generate", "--kind", "ghz", "--d", "3", "-o", str(state)]) == 0
        tuned = tmp_path / "tuned.json"
        plain = tmp_path / "plain.json"
        assert main([
            "decompose", str(state), "--tol-deg", "0.001",
            "--format", "json", "-o", str(tuned),
        ]) == 0
        assert main(["verify", str(state), str(tuned), "--oracle"]) == 0
        assert "maximality:" in capsys.readouterr().out
        assert main(["verify", str(state), str(tuned)]) == 0
        assert "maximality:" not in capsys.readouterr().out
        assert main(["decompose", str(state), "--format", "json", "-o", str(plain)]) == 0
        diagnostics = json.loads(plain.read_text())["diagnostics"]
        # every threshold the run was judged by, settable or fixed
        judged = {
            "t_deg": 1e-8, "t_supp": 1e-10, "t_edge": 1e-10,
            "w_min": 1e-12, "t_nindep": 1e-8, "sbd_stable_rounds": 3,
        }
        assert diagnostics["tolerances"] == judged
        assert diagnostics["seed"] == 0
        tuned_tolerances = json.loads(tuned.read_text())["diagnostics"]["tolerances"]
        assert tuned_tolerances == {**judged, "t_deg": 0.001}
        # a usage error leaves the parser as it was
        with pytest.raises(SystemExit):
            main(["decompose"])
        assert main(["decompose", str(state), "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("branch,weight\n")
