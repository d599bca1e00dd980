import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodecomp.catalog import (
    dress_state,
    ghz_state,
    product_state,
    random_state,
    u_state,
    v_state,
    w_state,
    x_state,
    z_state,
)
from lodecomp.decomposition import maximal_decomposition, verify_lo
from lodecomp.tensor import StateTensor
from lodecomp.fileio import (
    SCHEMA_VERSION,
    StateFile,
    _pairs_to_complex,
    branches_from_report,
    parse_report,
    report_document,
    report_to_json,
)

import util  # noqa: F401  (puts bench/ on the path)
import states  # noqa: E402


def sample_report(state):
    result = maximal_decomposition(state)
    return report_document(result, name="sample")


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

    def test_round_trip_through_parse(self):
        document = sample_report(ghz_state())
        assert parse_report(report_to_json(document)) == document

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
        # one edit, three findings: the weight against the state, then the
        # weights list and the entropy against the edited weight
        state = z_state((0.5, 0.3, 0.2))
        document = sample_report(state)
        document["branches"][0]["weight"] = 0.45
        rebuilt, problems = branches_from_report(document, state)
        assert rebuilt is not None
        assert len(problems) == 3
        assert problems[0].startswith("branch 0: reported weight 0.45 does not match the state")
        assert problems[1].startswith("weights[0] ") and problems[1].endswith("weight 0.45")
        assert problems[2].startswith("entropy_bits is not the branch weights' entropy ")

    def test_summary_fields_checked_against_the_branch_weights(self):
        state = z_state((0.5, 0.3, 0.2))
        document = sample_report(state)
        document["weights"][1] += 1e-6
        document["entropy_bits"] += 1e-6
        rebuilt, problems = branches_from_report(document, state)
        assert rebuilt.n_branches == 3
        assert [p.split()[0] for p in problems] == ["weights[1]", "entropy_bits"]

    def test_foreign_support_carries_no_weight(self):
        # supports on a level the state never populates
        state = z_state((0.6, 0.4), 3, (3, 3, 3))
        document = sample_report(state)
        spare_column = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]  # |2>
        document["branches"][0]["supports"] = [[spare_column]] * 3
        rebuilt, problems = branches_from_report(document, state)
        assert any("carry no weight" in p for p in problems)
        assert rebuilt is None or rebuilt.n_branches == 1

    def test_genuine_weights_recomputed_bit_exactly_with_mixed_ranks(self):
        # branches of support ranks 1, 4 and 1 on 6x6x6: |000>, the Bell-pair
        # ring of x_state in levels 1-4 of every party, and |555>, dressed.
        # The rebuild projects onto the reported supports with the product
        # that produced the reported weights, so each one comes back exact
        ring = x_state().amps.reshape(4, 4, 4)
        for dressing in range(36):
            core = np.zeros((6, 6, 6), dtype=np.complex128)
            core[0, 0, 0], core[5, 5, 5] = np.sqrt(0.5), np.sqrt(0.2)
            core[1:5, 1:5, 1:5] = np.sqrt(0.3) * ring
            state = dress_state(StateTensor((6, 6, 6), core.reshape(-1)), seed=dressing)
            document = parse_report(report_to_json(sample_report(state)))
            rebuilt, problems = branches_from_report(document, state)
            assert problems == []
            ranks = sorted(b.support_ranks for b in rebuilt.branches)
            assert ranks == [(1, 1, 1), (1, 1, 1), (4, 4, 4)]
            reported = [entry["weight"] for entry in document["branches"]]
            assert [b.weight for b in rebuilt.branches] == reported

    @pytest.mark.parametrize("state", [random_state((3, 4), seed=21), ghz_state(2, 3),
                                       dress_state(ghz_state(2, 4), seed=1)],
                             ids=["random-3x4", "bell-like-3x3", "bell-like-4x4-dressed"])
    def test_schmidt_weights_recomputed_bit_exactly(self, state):
        # the Schmidt path weighs each branch by ||P_0 psi||^2 from its
        # reported support, as the rebuild does
        document = parse_report(report_to_json(sample_report(state)))
        assert document["diagnostics"]["path"] == "schmidt"
        rebuilt, problems = branches_from_report(document, state)
        assert problems == []
        assert [b.weight for b in rebuilt.branches] == [e["weight"] for e in document["branches"]]

    def test_no_branch_rebuilds_nothing(self):
        # parse_report refuses this document; a library caller still gets a finding
        document = {"dims": [2, 2, 2], "branches": [], "weights": [], "entropy_bits": 0.0}
        assert branches_from_report(document, ghz_state()) == (
            None, ["entropy_bits is not the branch weights' entropy nan"])

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


def dumps(document) -> str:
    """What the writers must produce, byte for byte."""
    return json.dumps(document, sort_keys=True) + "\n"


CATALOG = {
    "ghz": ghz_state(),
    "ghz-3x3": ghz_state(3, 3),
    "w": w_state(),
    "z": z_state((0.5, 0.3, 0.2)),
    "u": u_state(),
    "v": v_state(),
    "x": x_state(),
    "product": product_state((2, 3, 2), split=1, seed=2),
    "random": random_state((2, 3, 2), seed=4),
}


def catalog_states():
    for name, state in CATALOG.items():
        yield name, state
        yield f"{name}-dressed", dress_state(state, seed=3)


def workload_states():
    for workload in sorted(states.WORKLOADS):
        for k, case in enumerate(states.make_cases(workload, 0)):
            yield f"{workload}-{k}", StateFile.from_json(states.state_json(case)).to_state()


def assert_bit_identical(got, want):
    """``got``, a parsed document, is ``want`` with every float's float64 bits."""
    if isinstance(want, dict):
        assert type(got) is dict and sorted(got) == sorted(want)
        for key, value in want.items():
            assert_bit_identical(got[key], value)
    elif isinstance(want, (list, tuple)):
        assert type(got) is list and len(got) == len(want)
        for got_item, want_item in zip(got, want):
            assert_bit_identical(got_item, want_item)
    elif isinstance(want, float):
        assert type(got) is float
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
    else:
        assert type(got) is type(want) and got == want


def reference_state_document(state_file):
    # StateFile.to_json's document, with amplitudes converted one at a time
    document = {
        "schema_version": SCHEMA_VERSION,
        "dims": [int(d) for d in state_file.dims],
        "amps": [[float(x.real), float(x.imag)] for x in state_file.amps],
    }
    if state_file.name is not None:
        document["name"] = state_file.name
    if state_file.metadata is not None:
        document["metadata"] = state_file.metadata
    return document


# JSON-like values with the floats and strings a writer can get wrong
special_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1e16, 1e-7])
finite_floats = st.one_of(special_floats, st.floats(allow_nan=False, allow_infinity=False))
pair_floats = st.one_of(finite_floats, finite_floats.map(np.float64))
odd_numbers = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)]),
)
texts = st.one_of(
    st.text(max_size=8),
    st.sampled_from(
        ["\x00splice\x00", "\x00", '"quoted"', "na\u00efve \u4e2d\u6587", "\\u0000splice\\u0000"]
    ),
)
json_values = st.recursive(
    st.one_of(pair_floats, odd_numbers, texts),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(texts, children, max_size=3),
    max_leaves=8,
)
good_pairs = st.lists(pair_floats, min_size=2, max_size=2)
bad_pairs = st.one_of(
    st.lists(st.one_of(pair_floats, odd_numbers), min_size=2, max_size=2),
    st.lists(pair_floats, max_size=3),
    json_values,
)


def report_shaped(pairs):
    """Report-like documents whose support columns hold ``pairs``."""
    columns = st.lists(pairs, min_size=1, max_size=3)
    supports = st.lists(st.lists(columns, min_size=1, max_size=2), min_size=1, max_size=3)
    branch = st.fixed_dictionaries(
        {"weight": pair_floats, "supports": supports}, optional={"note": json_values}
    )
    return st.fixed_dictionaries(
        {
            "schema_version": st.just(SCHEMA_VERSION),
            "name": st.none() | texts,
            "weights": st.lists(pair_floats, max_size=3),
            "branches": st.lists(branch, min_size=1, max_size=3),
            "diagnostics": json_values,
        },
        optional={"extra": json_values},
    )


def malformed_reports():
    """Documents that are anything but the report's shape, somewhere."""
    column = st.lists(st.one_of(good_pairs, bad_pairs), max_size=3) | json_values
    support = st.lists(column, max_size=2) | json_values
    supports = st.lists(support, max_size=3) | json_values
    branch = st.fixed_dictionaries(
        {"weight": json_values}, optional={"supports": supports, "note": json_values}
    ) | json_values
    return st.fixed_dictionaries(
        {"name": texts},
        optional={"branches": st.lists(branch, max_size=3) | json_values, "extra": json_values},
    )


WRITER_STATES = list(catalog_states()) + list(workload_states())


class TestWritersAreSortedJsonDumps:
    @pytest.mark.parametrize("name, state", WRITER_STATES)
    def test_report_bytes_equal_json_dumps(self, name, state):
        document = report_document(maximal_decomposition(state), name=name)
        assert report_to_json(document) == dumps(document)

    @pytest.mark.parametrize("name, state", WRITER_STATES)
    def test_state_file_bytes_equal_json_dumps(self, name, state):
        state_file = StateFile.from_state(state, name=name, metadata={"seed": 3, "x": [-0.0]})
        assert state_file.to_json() == dumps(reference_state_document(state_file))

    @pytest.mark.parametrize("name, state", WRITER_STATES)
    def test_files_read_back_bit_identical(self, name, state):
        document = report_document(maximal_decomposition(state), name=name)
        assert_bit_identical(json.loads(report_to_json(document)), document)
        state_file = StateFile.from_state(state, name=name, metadata={"seed": 3, "x": [-0.0]})
        assert_bit_identical(json.loads(state_file.to_json()),
                             reference_state_document(state_file))

    @given(report_shaped(good_pairs))
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_report_shaped_documents(self, document):
        assert report_to_json(document) == dumps(document)

    @given(report_shaped(st.one_of(good_pairs, bad_pairs)))
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_report_shaped_documents_with_odd_pairs(self, document):
        assert report_to_json(document) == dumps(document)

    @given(malformed_reports())
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_malformed_documents(self, document):
        assert report_to_json(document) == dumps(document)

    @given(
        st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True), min_size=1, max_size=6),
        st.none() | texts,
        st.none() | st.dictionaries(texts, json_values, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_state_files(self, amps, name, metadata):
        state_file = StateFile((len(amps), 1), np.array(amps, dtype=np.complex128), name, metadata)
        assert state_file.to_json() == dumps(reference_state_document(state_file))

    @pytest.mark.parametrize(
        "pair",
        [
            [True, 0.5], [1, 0.5], [None, 0.5], ["0.5", 0.5], [np.float64(0.1), -0.0],
            [math.nan, 0.5], [0.5, -math.inf], [0.5], [0.5, 0.5, 0.5], (0.5, 0.5), [],
        ],
    )
    def test_one_odd_pair_in_a_report(self, pair):
        document = sample_report(z_state((0.5, 0.3, 0.2)))
        document["branches"][1]["supports"][2][0][1] = pair
        assert report_to_json(document) == dumps(document)

    @pytest.mark.parametrize("key", [1, -(2**70), 1.5, math.nan, -math.inf, True, False, None])
    def test_non_string_keys(self, key):
        state_file = StateFile.from_state(ghz_state(), metadata={key: [key]})
        assert state_file.to_json() == dumps(reference_state_document(state_file))

    def test_key_json_rejects_raises(self):
        document = {"metadata": {(1, 2): 0}}
        with pytest.raises(TypeError):
            dumps(document)
        with pytest.raises(TypeError):
            report_to_json(document)

    def test_circular_documents_raise_as_json_does(self):
        looped = {"a": []}
        looped["a"].append(looped)
        metadata = {}
        metadata["self"] = metadata
        state_file = StateFile((2, 2), np.ones(4, dtype=np.complex128), None, metadata)
        for write, document in ((report_to_json, looped),
                                (StateFile.to_json, state_file)):
            with pytest.raises(ValueError, match="^Circular reference detected$"):
                write(document)
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            dumps(looped)

    def test_shared_container_without_a_cycle(self):
        shared = [1.0]
        document = {"a": shared, "b": shared, "c": {"d": shared, "e": [shared, [shared]]}}
        assert report_to_json(document) == dumps(document)
        state_file = StateFile.from_state(ghz_state(), metadata={"x": shared, "y": shared})
        assert state_file.to_json() == dumps(reference_state_document(state_file))

    def test_old_splice_marker_in_a_name(self):
        document = sample_report(ghz_state())
        document["name"] = "\x00splice\x00"
        assert report_to_json(document) == dumps(document)
        state_file = StateFile.from_state(ghz_state(), name="\x00splice\x00")
        assert state_file.to_json() == dumps(reference_state_document(state_file))


def reference_pairs_to_complex(pairs, name):
    """The per-index parse: every amplitude read by complex(re, im), and
    the first pair that is not a list of two finite numbers named."""
    out = np.empty(len(pairs), dtype=np.complex128)
    for k, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"{name(k)} must be a [re, im] pair")
        re, im = pair
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re, im)):
            raise ValueError(f"{name(k)} must contain two numbers")
        try:
            out[k] = complex(re, im)
        except OverflowError:
            raise ValueError(f"{name(k)} must contain two finite numbers") from None
        if not np.isfinite(out[k]):
            raise ValueError(f"{name(k)} must contain two finite numbers")
    return out


def amps_name(k):
    return f"amps[{k}]"


def outcome(parse, pairs):
    try:
        return parse(pairs, amps_name).tobytes()
    except ValueError as exc:
        return str(exc)


json_numbers = st.one_of(
    finite_floats,
    st.integers(min_value=-(2**64), max_value=2**64),
    st.sampled_from([2**53 + 1, -(2**63) - 1, 10**308, 2**1023 * 3 // 2, 2**1024 - 2**970 - 1]),
)
json_scalars = st.one_of(
    json_numbers,
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**309), 2**1024 - 2**970]),
)


class TestAmplitudeParser:
    @given(st.lists(st.lists(json_numbers, min_size=2, max_size=2), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_fast_path_bits_equal_complex(self, pairs):
        fast = _pairs_to_complex(pairs, amps_name)
        want = reference_pairs_to_complex(pairs, amps_name)
        assert fast.tobytes() == want.tobytes()

    @given(
        st.lists(
            st.one_of(
                st.lists(json_numbers, min_size=2, max_size=2),
                st.lists(json_scalars, min_size=2, max_size=2),
                st.lists(json_scalars, max_size=3),
                st.tuples(json_numbers, json_numbers),
                json_scalars,
            ),
            max_size=8,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_same_bits_and_messages_as_the_per_index_parse(self, pairs):
        assert outcome(_pairs_to_complex, pairs) == outcome(reference_pairs_to_complex, pairs)

    def test_support_defect_names_its_column_entry(self):
        # the same bad entry in column 0 or in column 1 of one support reads apart
        state = ghz_state()
        for column in (0, 1):
            document = sample_report(state)
            document["branches"][0]["supports"][1].append([[1.0, 0.0], [0.0, 0.0]])
            document["branches"][0]["supports"][1][column][1] = [0.0, True]
            message = rf"^branch 0 support 1 column {column}\[1\] must contain two numbers$"
            with pytest.raises(ValueError, match=message):
                branches_from_report(document, state)

    def test_first_bad_pair_is_named_also_when_it_is_not_finite(self):
        # a non-finite pair named before a later boolean one
        amps = [[math.nan, 0.0], [True, 0.0], [0.0, 0.0], [0.0, 0.0]]
        text = json.dumps({"schema_version": SCHEMA_VERSION, "dims": [2, 2], "amps": amps})
        with pytest.raises(ValueError, match=r"^amps\[0\] must contain two finite numbers$"):
            StateFile.from_json(text)
        state = ghz_state()
        document = sample_report(state)
        document["branches"][0]["supports"][1][0][:2] = [[math.nan, 0.0], [True, 0.0]]
        message = r"^branch 0 support 1 column 0\[0\] must contain two finite numbers$"
        with pytest.raises(ValueError, match=message):
            branches_from_report(document, state)

    def test_integer_that_rounds_to_the_largest_float_is_never_named(self):
        # read as the fast path reads it, also when a later pair is bad
        largest, overflows = 2**1024 - 2**970 - 1, 2**1024 - 2**970
        assert _pairs_to_complex([[largest, 0]], amps_name)[0] == np.finfo(np.float64).max
        with pytest.raises(ValueError, match=r"^amps\[1\] must contain two numbers$"):
            _pairs_to_complex([[largest, 0], [True, 0]], amps_name)
        with pytest.raises(ValueError, match=r"^amps\[0\] must contain two finite numbers$"):
            _pairs_to_complex([[overflows, 0], [True, 0]], amps_name)

    def test_tuple_pair_is_not_a_pair(self):
        # JSON has no tuples: a tuple is not read as a pair
        with pytest.raises(ValueError, match=r"^amps\[1\] must be a \[re, im\] pair$"):
            _pairs_to_complex([[1.0, 0.0], (0.0, 1.0)], amps_name)
