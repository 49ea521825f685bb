"""Spec dataclasses: validation, dict/JSON round-trips (incl. property tests)."""

import base64
import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.specs import (
    RECORD_FIELDS,
    AnalysisSpec,
    FaultSpec,
    GraphSpec,
    RunResult,
    ScenarioSpec,
    bitmap_bytes,
    bitmap_text,
    canonical_json,
    spec_hash,
)
from repro.errors import SpecError

# JSON-safe parameter values (what spec params may carry).
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
param_dicts = st.dictionaries(
    st.text(min_size=1, max_size=10), json_scalars, max_size=4
)


@st.composite
def graph_specs(draw, max_depth=2):
    params = dict(draw(param_dicts))
    if max_depth > 0 and draw(st.booleans()):
        params["base"] = draw(graph_specs(max_depth=max_depth - 1))
    return GraphSpec(draw(st.text(min_size=1, max_size=10)), params)


@st.composite
def scenario_specs(draw):
    fault = None
    if draw(st.booleans()):
        fault = FaultSpec(draw(st.text(min_size=1, max_size=10)), draw(param_dicts))
    analysis = AnalysisSpec(
        mode=draw(st.sampled_from(["node", "edge"])),
        pruner=draw(st.sampled_from([None, "prune", "prune2"])),
        epsilon=draw(st.one_of(st.none(), st.floats(min_value=0.01, max_value=1.0))),
        finder=draw(st.sampled_from([None, "hybrid", "sweep"])),
        exact_threshold=draw(st.integers(min_value=0, max_value=30)),
        measure_expansion=draw(st.booleans()),
    )
    return ScenarioSpec(
        graph=draw(graph_specs()),
        fault=fault,
        analysis=analysis,
        seed=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2**62))),
        label=draw(st.text(max_size=10)),
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(graph_specs())
    def test_graph_spec_dict_round_trip(self, spec):
        assert GraphSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=60, deadline=None)
    @given(scenario_specs())
    def test_scenario_dict_round_trip(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=40, deadline=None)
    @given(scenario_specs())
    def test_scenario_json_round_trip(self, spec):
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.hash() == spec.hash()

    @settings(max_examples=40, deadline=None)
    @given(scenario_specs())
    def test_dict_form_is_json_serialisable(self, spec):
        json.dumps(spec.to_dict())  # must not raise

    def test_nested_graph_spec_round_trips(self):
        spec = GraphSpec(
            "chain_replacement",
            {"base": GraphSpec("expander", {"n": 32, "degree": 4, "seed": 1}), "k": 4},
        )
        restored = GraphSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert isinstance(restored.params["base"], GraphSpec)


class TestHashing:
    def test_hash_is_content_based(self):
        a = GraphSpec("torus", {"sides": 8, "d": 2})
        b = GraphSpec("torus", {"d": 2, "sides": 8})  # key order irrelevant
        assert spec_hash(a) == spec_hash(b) == a.key()

    def test_hash_differs_on_params(self):
        a = GraphSpec("torus", {"sides": 8, "d": 2})
        b = GraphSpec("torus", {"sides": 9, "d": 2})
        assert spec_hash(a) != spec_hash(b)

    @settings(max_examples=60, deadline=None)
    @given(scenario_specs(), st.one_of(st.none(), st.integers(0, 2**62)))
    def test_memoised_hash_is_the_content_hash(self, spec, seed):
        assert spec.hash() == spec_hash(spec)
        assert spec.graph.key() == spec_hash(spec.graph)
        reseeded = spec.with_seed(seed)
        assert reseeded.hash() == spec_hash(reseeded)

    def test_with_seed_changes_hash_not_graph_key(self):
        spec = ScenarioSpec(graph=GraphSpec("torus", {"sides": 8, "d": 2}), seed=1)
        other = spec.with_seed(2)
        assert spec.hash() != other.hash()
        assert spec.graph.key() == other.graph.key()


def survivor_sets(n_original):
    """Valid surviving sets of a network of ``n_original`` nodes: strictly
    increasing ids in ``range(n_original)``."""
    return st.sets(st.integers(0, max(n_original - 1, 0)), max_size=40).map(
        lambda ids: tuple(sorted(i for i in ids if i < n_original))
    )


@st.composite
def run_results(draw):
    spec = draw(scenario_specs())
    floats = st.floats(allow_nan=False, allow_infinity=False)
    n_original = draw(st.one_of(st.integers(0, 64), st.integers(0, 2**16 + 10)))
    nodes = draw(
        st.one_of(
            st.just(tuple(range(n_original))) if n_original <= 4096 else st.just(()),
            survivor_sets(n_original),
        )
    )
    return RunResult(
        spec=spec,
        seed=spec.seed,
        label=spec.label,
        graph_name=draw(st.text(max_size=8)),
        n_original=n_original,
        mode=spec.analysis.mode,
        fault_kind=draw(st.text(max_size=8)),
        f=draw(st.integers(0, 2**20)),
        fault_fraction=draw(floats),
        faulty_components=draw(st.integers(0, 99)),
        largest_faulty_component=draw(st.integers(0, 99)),
        n_surviving=len(nodes),
        surviving_fraction=draw(floats),
        n_culled_sets=draw(st.integers(0, 9)),
        prune_iterations=draw(st.integers(0, 9)),
        baseline_expansion=draw(floats),
        baseline_exact=draw(st.booleans()),
        surviving_expansion=draw(st.one_of(st.none(), floats)),
        expansion_retention=draw(st.one_of(st.none(), floats)),
        surviving_nodes=nodes,
        epsilon=draw(floats),
    )


def reference_bitmap(nodes):
    """The stored bitmap text of ``nodes``, built bit by bit."""
    packed = bytearray(nodes[-1] // 8 + 1 if nodes else 0)
    for i in nodes:
        packed[i // 8] |= 1 << (i % 8)
    return base64.b64encode(bytes(packed)).decode()


class TestFingerprint:
    @settings(max_examples=150, deadline=None)
    @given(run_results())
    def test_fingerprint_hashes_the_canonical_record_without_timings(self, result):
        """The fingerprint hashes the stored record: every field but the
        spec and the node tuple, the spec hash, and the surviving set as
        base64 of its packed little-endian bitmap."""
        record = result.to_dict()
        assert "timings" not in record
        del record["spec"]
        record["surviving"] = reference_bitmap(record.pop("surviving_nodes"))
        assert record == result.record()
        assert set(record) == RECORD_FIELDS
        expected = hashlib.sha256(canonical_json(record).encode()).hexdigest()[:16]
        assert result.fingerprint_and_text() == (expected, canonical_json(record))
        assert result.fingerprint() == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 300).flatmap(survivor_sets))
    def test_bitmap_text_is_the_one_canonical_encoding(self, nodes):
        text = reference_bitmap(nodes)
        packed = bitmap_bytes(text)
        assert packed is not None and bitmap_text(packed + b"\0\0") == text
        assert not text or packed[-1] != 0

    @pytest.mark.parametrize(
        "text", ["QR==", "QQ", "Q Q==", "AA==", "QQA=", "é", 5, None, "QQ==\n"]
    )
    def test_non_canonical_bitmap_text_rejected(self, text):
        assert bitmap_bytes(text) is None

    @pytest.mark.parametrize(
        "nodes, n_original",
        [((2, 1), 4), ((1, 1), 4), ((-1, 2), 4), ((0, 4), 4), ((0.0, 1), 4),
         ((True,), 4), (("1",), 4), ((1, 2**70), 2**71), (((1,),), 4)],
    )
    def test_invalid_survivor_sets_raise_when_encoded(self, nodes, n_original):
        """Unsorted, repeated, negative, out-of-range or non-int ids have no
        bitmap: encoding them is a SpecError, never a silent reorder."""
        spec = ScenarioSpec(graph=GraphSpec("torus", {"sides": 4, "d": 2}), seed=1)
        result = _small_result(spec, nodes, n_original=n_original)
        with pytest.raises(SpecError, match="surviving_nodes"):
            result.record()
        with pytest.raises(SpecError, match="surviving_nodes"):
            result.fingerprint()


def _small_result(spec, nodes, n_original=16):
    return RunResult(
        spec=spec, seed=spec.seed, label=spec.label, graph_name="T",
        n_original=n_original, mode="node", fault_kind="none", f=0,
        fault_fraction=0.0, faulty_components=0, largest_faulty_component=0,
        n_surviving=len(nodes), surviving_fraction=0.125, n_culled_sets=0,
        prune_iterations=0, baseline_expansion=1.0, baseline_exact=True,
        surviving_expansion=None, expansion_retention=None,
        surviving_nodes=nodes, epsilon=0.1,
    )


class TestValidation:
    def test_empty_generator_rejected(self):
        with pytest.raises(SpecError):
            GraphSpec("")

    def test_bad_mode_rejected(self):
        with pytest.raises(SpecError):
            AnalysisSpec(mode="vertex")

    def test_bad_epsilon_rejected(self):
        with pytest.raises(SpecError):
            AnalysisSpec(epsilon=1.5)

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError):
            GraphSpec.from_dict({"generator": "torus", "params": {}, "extra": 1})
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(
                {"graph": {"generator": "torus", "params": {}}, "oops": True}
            )

    def test_missing_graph_rejected(self):
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict({"seed": 1})

    def test_non_int_seed_rejected(self):
        with pytest.raises(SpecError):
            ScenarioSpec(graph=GraphSpec("torus"), seed="seven")

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError):
            ScenarioSpec.from_json("{not json")

    @pytest.mark.parametrize(
        "nodes", [["x"], [None], 5, [1.5], [True], [1, 2.0], [[1]], {"1": 1}, "12"]
    )
    def test_wrong_typed_node_ids_rejected(self, nodes):
        """Any surviving-node id that is not a JSON integer is a SpecError,
        never a TypeError/ValueError escaping, nor a silent conversion
        (``1.5`` or ``true`` read as ``1`` would change the fingerprint)."""
        spec = ScenarioSpec(graph=GraphSpec("torus", {"sides": 4, "d": 2}), seed=1)
        result = _small_result(spec, (1, 2))
        d = result.to_dict()
        assert RunResult.from_dict(d) == result
        d["surviving_nodes"] = nodes
        with pytest.raises(SpecError, match="surviving_nodes"):
            RunResult.from_dict(d)

    def test_spec_hash_is_the_specs_own(self):
        """``spec_hash`` is read from the spec, so a result cannot carry a
        stale one (as ``dataclasses.replace(result, spec=other)`` would
        have), and a readable dict claiming another hash is rejected."""
        spec = ScenarioSpec(graph=GraphSpec("torus", {"sides": 4, "d": 2}), seed=1)
        other = spec.with_seed(2)
        result = _small_result(spec, (1, 2))
        assert result.spec_hash == spec.hash()
        assert dataclasses.replace(result, spec=other).spec_hash == other.hash()
        d = result.to_dict()
        d["spec_hash"] = other.hash()
        with pytest.raises(SpecError, match="spec_hash"):
            RunResult.from_dict(d)

    def test_non_json_param_rejected_at_construction(self):
        class Opaque:
            pass

        with pytest.raises(SpecError, match="not.*JSON-serialisable"):
            GraphSpec("torus", {"sides": Opaque()})

    def test_numpy_scalar_params_normalised(self):
        import numpy as np

        spec = GraphSpec("torus", {"sides": np.int64(8), "d": np.int32(2)})
        assert spec.params == {"sides": 8, "d": 2}
        assert type(spec.params["sides"]) is int
        assert GraphSpec.from_dict(spec.to_dict()) == spec

    def test_numpy_array_params_normalised(self):
        import numpy as np

        spec = GraphSpec("mesh", {"sides": np.array([4, 4])})
        assert spec.params == {"sides": [4, 4]}
        assert GraphSpec.from_dict(spec.to_dict()) == spec

    def test_specs_are_hashable_and_set_dedupable(self):
        a = ScenarioSpec(graph=GraphSpec("torus", {"sides": 8, "d": 2}), seed=1)
        b = ScenarioSpec(graph=GraphSpec("torus", {"d": 2, "sides": 8}), seed=1)
        c = a.with_seed(2)
        assert hash(a) == hash(b) and a == b
        assert {a, b, c} == {a, c}
        assert hash(GraphSpec("torus", {"sides": 8, "d": 2}))  # no TypeError

    def test_tuple_params_normalised_to_lists(self):
        spec = GraphSpec("mesh", {"sides": (4, 4)})
        assert spec.params == {"sides": [4, 4]}
        assert GraphSpec.from_dict(spec.to_dict()) == spec

    def test_graph_spec_inside_list_rejected(self):
        with pytest.raises(SpecError, match="direct parameter value"):
            GraphSpec("x", {"bases": [GraphSpec("torus", {"sides": 4, "d": 2})]})

    def test_graph_spec_in_fault_or_finder_params_rejected(self):
        inner = GraphSpec("torus", {"sides": 4, "d": 2})
        with pytest.raises(SpecError, match="GraphSpec"):
            FaultSpec("random_node", {"g": inner, "p": 0.1})
        with pytest.raises(SpecError, match="GraphSpec"):
            AnalysisSpec(finder="sweep", finder_params={"g": inner})
