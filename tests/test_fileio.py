import json

import numpy as np
import pytest

from lodecomp.catalog import ghz_state, random_state, z_state
from lodecomp.decomposition import maximal_decomposition, verify_lo
from lodecomp.entanglement import e_lo
from lodecomp.fileio import (
    SCHEMA_VERSION,
    StateFile,
    branches_from_report,
    parse_report,
    read_report,
    report_document,
    report_to_json,
)


def sample_report(state):
    result = maximal_decomposition(state)
    return report_document(result, e_lo(state), name="sample")


class TestStateFile:
    def test_round_trip_bit_identical(self, tmp_path):
        state = random_state((3, 2, 2), seed=13)
        path = tmp_path / "state.json"
        StateFile.from_state(state, name="probe").write(path)
        loaded = StateFile.read(path)
        assert loaded.dims == (3, 2, 2)
        assert loaded.name == "probe"
        assert np.array_equal(loaded.amps, state.amps)

    def test_json_stable(self):
        state = ghz_state()
        a = StateFile.from_state(state).to_json()
        b = StateFile.from_state(state).to_json()
        assert a == b

    def test_metadata_preserved(self):
        sf = StateFile.from_state(ghz_state(), metadata={"source": "test", "k": 3})
        again = StateFile.from_json(sf.to_json())
        assert again.metadata == {"source": "test", "k": 3}

    def test_to_state_normalizes(self):
        sf = StateFile((2, 2), np.array([2.0, 0.0, 0.0, 2.0]), None, None)
        state = sf.to_state()
        assert np.linalg.norm(state.amps) == pytest.approx(1.0)

    def test_rejects_bad_schema_version(self):
        document = json.loads(StateFile.from_state(ghz_state()).to_json())
        document["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            StateFile.from_json(json.dumps(document))

    def test_rejects_wrong_amp_count(self):
        document = json.loads(StateFile.from_state(ghz_state()).to_json())
        document["amps"] = document["amps"][:-1]
        with pytest.raises(ValueError):
            StateFile.from_json(json.dumps(document))

    def test_rejects_malformed_pairs(self):
        document = json.loads(StateFile.from_state(ghz_state()).to_json())
        document["amps"][0] = [1.0]
        with pytest.raises(ValueError):
            StateFile.from_json(json.dumps(document))
        document["amps"][0] = [1.0, "zero"]
        with pytest.raises(ValueError):
            StateFile.from_json(json.dumps(document))

    def test_amplitudes_read_exactly(self):
        # the array fast path must give the bits complex(re, im) gives,
        # signed zeros and integers included
        pairs = [[0.1, -0.0], [-0.0, 0.0], [3, -2], [2**53 + 1, 1e-310], [-1.5e300, 7]]
        document = json.loads(StateFile.from_state(ghz_state()).to_json())
        document["amps"][: len(pairs)] = pairs
        amps = StateFile.from_json(json.dumps(document)).amps
        want = np.array([complex(re, im) for re, im in document["amps"]])
        assert amps.dtype == np.complex128
        assert amps.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "pair, message",
        [
            ([10**400, 0], "finite"),
            ([0, True], "two numbers"),
            ([False, 0.5], "two numbers"),
            (["1", 0], "two numbers"),
            ([1.0, None], "two numbers"),
            ([1.0, 0.0, 0.0], "pair"),
            ([[1.0, 0.0]], "pair"),
            ([float("inf"), 0.0], "finite"),
        ],
        ids=["huge_integer", "true", "false", "string", "null", "three_elements", "nested", "inf"],
    )
    def test_bad_amplitude_names_its_index(self, pair, message):
        document = json.loads(StateFile.from_state(ghz_state()).to_json())
        document["amps"][6] = pair
        with pytest.raises(ValueError, match=rf"amps\[6\] must .*{message}"):
            StateFile.from_json(json.dumps(document))

    def test_rejects_non_json(self):
        with pytest.raises(ValueError):
            StateFile.from_json("{not json")

    def test_rejects_bad_dims(self):
        document = json.loads(StateFile.from_state(ghz_state()).to_json())
        document["dims"] = [2, 0, 2]
        with pytest.raises(ValueError):
            StateFile.from_json(json.dumps(document))


class TestReportDocument:
    def test_fields_present(self):
        document = sample_report(z_state((0.5, 0.3, 0.2)))
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["branch_count"] == 3
        assert document["weights"] == sorted(document["weights"], reverse=True)
        assert document["diagnostics"]["path"] == "eigenvector-graph"
        assert document["flags"] == {"degenerate_spectrum": False, "non_unique": False}

    def test_round_trip_through_parse(self, tmp_path):
        document = sample_report(ghz_state())
        text = report_to_json(document)
        assert parse_report(text) == document
        path = tmp_path / "report.json"
        path.write_text(text, encoding="utf-8")
        assert read_report(path) == document

    def test_serialization_deterministic(self):
        state = z_state((0.5, 0.25, 0.25))
        assert report_to_json(sample_report(state)) == report_to_json(sample_report(state))

    def test_parse_rejects_missing_fields(self):
        document = sample_report(ghz_state())
        del document["weights"]
        with pytest.raises(ValueError, match="weights"):
            parse_report(report_to_json(document))

    def test_parse_rejects_count_mismatch(self):
        document = sample_report(ghz_state())
        document["branch_count"] = 5
        with pytest.raises(ValueError, match="branch_count"):
            parse_report(report_to_json(document))

    def test_parse_rejects_bad_schema(self):
        document = sample_report(ghz_state())
        document["schema_version"] = 2
        with pytest.raises(ValueError, match="schema_version"):
            parse_report(report_to_json(document))


class TestBranchesFromReport:
    def test_clean_rebuild(self):
        state = z_state((0.5, 0.3, 0.2))
        document = sample_report(state)
        rebuilt, problems = branches_from_report(document, state)
        assert problems == []
        assert rebuilt.n_branches == 3
        assert verify_lo(rebuilt).passed

    def test_rebuild_matches_original(self):
        state = ghz_state()
        original = maximal_decomposition(state).decomposition
        rebuilt, problems = branches_from_report(sample_report(state), state)
        assert problems == []
        assert np.allclose(rebuilt.weights, original.weights)
        for j in range(2):
            overlap = abs(np.vdot(rebuilt.branches[j].vector, original.branches[j].vector))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_tampered_weight_reported(self):
        state = z_state((0.5, 0.3, 0.2))
        document = sample_report(state)
        document["branches"][0]["weight"] = 0.45
        rebuilt, problems = branches_from_report(document, state)
        assert rebuilt is not None
        assert len(problems) == 1
        assert "does not match" in problems[0]

    def test_foreign_support_carries_no_weight(self):
        # supports on a level the state never populates
        state = z_state((0.6, 0.4), 3, (3, 3, 3))
        document = sample_report(state)
        spare_column = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]  # |2>
        document["branches"][0]["supports"] = [[spare_column]] * 3
        rebuilt, problems = branches_from_report(document, state)
        assert any("carry no weight" in p for p in problems)
        assert rebuilt is None or rebuilt.n_branches == 1

    def test_structural_defect_raises(self):
        state = ghz_state()
        document = sample_report(state)
        document["branches"][0]["supports"] = document["branches"][0]["supports"][:2]
        with pytest.raises(ValueError, match="one support per subsystem"):
            branches_from_report(document, state)

    def test_wrong_dimension_raises(self):
        state = ghz_state()
        document = sample_report(state)
        document["branches"][0]["supports"][1] = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(ValueError, match="dimension"):
            branches_from_report(document, state)
