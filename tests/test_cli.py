import json
import subprocess
import sys

import pytest

from lodecomp.cli import main
from lodecomp.entanglement import e_lo
from lodecomp.fileio import StateFile


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

    def test_json_byte_identical_across_runs(self, ghz_file, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("decompose", str(ghz_file), "--format", "json", "--seed", "3", "-o", str(a))
        run_cli("decompose", str(ghz_file), "--format", "json", "--seed", "3", "-o", str(b))
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
        assert written == e_lo(StateFile.read(state).to_state()).entropy_bits


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
        ],
        ids=["weight_null", "branch_as_list", "column_as_number", "entry_nan"],
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
