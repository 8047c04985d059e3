import json

import numpy as np
import pytest

from scenesel.core import DataError
from scenesel.state import RoundState, load_round_state, save_round_state


POOL = [f"scene_{i:06d}" for i in range(12)]


class TestRoundStateInvariants:
    def test_fresh_state(self):
        st = RoundState.fresh(POOL, n0=0, budget_total=6, rng_seed=7)
        assert st.round_index == 0
        assert st.labeled_ids == frozenset()
        assert st.unlabeled_ids == frozenset(POOL)
        assert st.per_round_selected == ()

    def test_fresh_labels_n0_ids_drawn_from_the_sorted_pool(self):
        st = RoundState.fresh(reversed(POOL), n0=4, budget_total=12, rng_seed=7)
        drawn = {POOL[i] for i in np.random.default_rng(7).choice(len(POOL), size=4, replace=False)}
        assert st.labeled_ids == drawn
        assert st.unlabeled_ids == frozenset(POOL) - drawn
        assert st.round_index == 0 and st.per_round_selected == ()

    def test_fresh_n0_above_pool_rejected(self):
        with pytest.raises(ValueError):
            RoundState.fresh(POOL, n0=len(POOL) + 1, budget_total=12, rng_seed=7)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            RoundState(
                round_index=0,
                labeled_ids=frozenset({"a"}),
                unlabeled_ids=frozenset({"a", "b"}),
                budget_total=5,
                per_round_selected=(),
                rng_seed=0,
            )

    def test_budget_exceeded_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            RoundState(
                round_index=1,
                labeled_ids=frozenset({"a", "b"}),
                unlabeled_ids=frozenset({"c"}),
                budget_total=1,
                per_round_selected=(("a", "b"),),
                rng_seed=0,
            )

    def test_round_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="round_index"):
            RoundState(
                round_index=2,
                labeled_ids=frozenset({"a"}),
                unlabeled_ids=frozenset({"b"}),
                budget_total=5,
                per_round_selected=(("a",),),
                rng_seed=0,
            )

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            RoundState(
                round_index=-1,
                labeled_ids=frozenset(),
                unlabeled_ids=frozenset(POOL),
                budget_total=5,
                per_round_selected=(),
                rng_seed=0,
            )

    def test_with_selection_moves_ids(self):
        st = RoundState.fresh(POOL, n0=0, budget_total=6, rng_seed=7)
        nxt = st.with_selection((POOL[0], POOL[3]))
        assert nxt.round_index == 1
        assert nxt.labeled_ids == frozenset({POOL[0], POOL[3]})
        assert POOL[0] not in nxt.unlabeled_ids
        assert nxt.per_round_selected == ((POOL[0], POOL[3]),)
        # the original is untouched
        assert st.round_index == 0
        assert st.labeled_ids == frozenset()

    def test_with_selection_rejects_unknown_id(self):
        st = RoundState.fresh(POOL, n0=0, budget_total=6, rng_seed=7)
        with pytest.raises(ValueError, match="not in unlabeled"):
            st.with_selection(("nope",))


class TestPersistence:
    def test_fresh_roundtrip(self, tmp_path):
        st = RoundState.fresh(POOL, n0=0, budget_total=6, rng_seed=7)
        path = tmp_path / "state.json"
        save_round_state(st, path)
        assert load_round_state(path) == st

    def test_two_round_roundtrip(self, tmp_path):
        ids = [f"s{i:04d}" for i in range(600)]
        st = RoundState.fresh(ids, n0=0, budget_total=400, rng_seed=11)
        st = st.with_selection(tuple(ids[:200]))
        st = st.with_selection(tuple(ids[200:400]))
        path = tmp_path / "state.json"
        save_round_state(st, path)
        back = load_round_state(path)
        assert back == st
        assert len(back.per_round_selected) == 2
        assert all(len(r) == 200 for r in back.per_round_selected)

    def test_corrupt_json_raises_data_error(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError):
            load_round_state(path)

    def test_missing_file_raises_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_round_state(tmp_path / "absent.json")

    def test_wrong_version_rejected(self, tmp_path):
        st = RoundState.fresh(POOL, n0=0, budget_total=6, rng_seed=7)
        path = tmp_path / "state.json"
        save_round_state(st, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="version"):
            load_round_state(path)

    def test_invariants_revalidated_on_load(self, tmp_path):
        st = RoundState.fresh(POOL, n0=0, budget_total=6, rng_seed=7)
        path = tmp_path / "state.json"
        save_round_state(st, path)
        doc = json.loads(path.read_text())
        doc["labeled_ids"] = [POOL[0]]  # now overlaps unlabeled
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="overlap"):
            load_round_state(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("labeled_ids", POOL[0]),
            ("unlabeled_ids", POOL[5]),
            ("labeled_ids", [POOL[0], 7]),
            ("per_round_selected", [POOL[0]]),
        ],
    )
    def test_id_lists_must_be_lists_of_strings(self, tmp_path, key, value):
        # A string would load as the set of its characters, and the next save
        # would write those in place of the ids.
        st = RoundState.fresh(POOL, n0=0, budget_total=12, rng_seed=7).with_selection((POOL[0],))
        path = tmp_path / "state.json"
        save_round_state(st, path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError) as err:
            load_round_state(path)
        assert str(err.value).startswith(f"{path}: invalid round state: {key}")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rng_seed", 7.9),
            ("rng_seed", "7"),
            ("rng_seed", True),
            ("rng_seed", 7.0),
            ("budget_total", 2.5),
            ("round_index", 1.0),
            ("round_index", None),
        ],
    )
    def test_integer_fields_must_be_json_integers(self, tmp_path, key, value):
        # ``int`` would load 7.9, "7" and true as 7, 7 and 1.
        st = RoundState.fresh(POOL, n0=0, budget_total=12, rng_seed=7).with_selection((POOL[0],))
        path = tmp_path / "state.json"
        save_round_state(st, path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError) as err:
            load_round_state(path)
        assert str(err.value) == f"{path}: invalid round state: {key} must be an integer, got {value!r}"

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_the_json_integer_1(self, tmp_path, version):
        path = tmp_path / "state.json"
        save_round_state(RoundState.fresh(POOL, n0=0, budget_total=6, rng_seed=7), path)
        doc = json.loads(path.read_text())
        doc["version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError) as err:
            load_round_state(path)
        assert str(err.value) == f"{path}: unsupported state version {version!r}"

    def test_non_object_document_raises_data_error(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(POOL))
        with pytest.raises(DataError, match="not a JSON object"):
            load_round_state(path)

    def test_no_tmp_file_left_behind(self, tmp_path):
        st = RoundState.fresh(POOL, n0=0, budget_total=6, rng_seed=7)
        save_round_state(st, tmp_path / "state.json")
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
