import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scenesel import kitti
from scenesel.cli import main
from scenesel.core import DEFAULT_CATALOG, ClassCatalog, DataError, ParseError, Scene, _block_of_rows
from scenesel.kitti import (
    ParsedPool,
    SidecarStore,
    load_mixture_sidecar,
    load_pool_dir,
    parse_label_file,
    save_mixture_sidecar,
    serialize_label_file,
    sidecar_reader,
    write_label_file,
)
from conftest import make_box, make_detection, mixture_from_rows, random_scene, scene_of, scene_with_mixtures, uniform_mixture

SAMPLE_LINE = "Car 0.0 0 -1.57 614 181 727 284 1.57 1.73 4.15 1.0 1.47 8.41 -1.56 0.9"
# The catalog of the sample line's class, as KITTI spells it.
CAR = ClassCatalog(("Car",))


def with_field(index, value, line=SAMPLE_LINE):
    fields = line.split()
    fields[index] = value
    return " ".join(fields)


DONTCARE_LINE = "DontCare -1 -1 -10 0 0 0 0 -1 -1 -1 -1000 -1000 -1000 -10"

# One rejected second line per case: the label line rules, in the order the
# parser checks them.
REJECTED_LINES = {
    "14 fields": " ".join(SAMPLE_LINE.split()[:14]).encode(),
    "17 fields": (SAMPLE_LINE + " 0.5").encode(),
    "non-numeric field": with_field(5, "abc").encode(),
    "non-numeric field on a DontCare line": with_field(13, "x", DONTCARE_LINE).encode(),
    "inf occluded": with_field(2, "inf").encode(),
    "inf occluded on a DontCare line": with_field(2, "inf", DONTCARE_LINE).encode(),
    "w <= 0": with_field(9, "0").encode(),
    "inf l": with_field(10, "inf").encode(),
    "nan yaw": with_field(14, "nan").encode(),
    "nan x": with_field(11, "nan").encode(),
    "inf z": with_field(13, "-inf").encode(),
    "score 1.5": with_field(15, "1.5").encode(),
    "0xff byte": b"Car \xff" + SAMPLE_LINE[3:].encode(),
}


class TestParse:
    def test_sample_line(self, tmp_path):
        p = tmp_path / "000001.txt"
        p.write_text(SAMPLE_LINE + "\n")
        scene = parse_label_file(p, CAR)
        assert scene.id == "000001"
        assert len(scene.detections) == 1
        det = scene.detections[0]
        assert det.class_label == "Car"
        assert det.confidence == pytest.approx(0.9)
        assert det.box.h == pytest.approx(1.57)
        assert det.box.w == pytest.approx(1.73)
        assert det.box.l == pytest.approx(4.15)
        assert (det.box.x, det.box.y, det.box.z) == pytest.approx((1.0, 1.47, 8.41))
        assert det.box.theta == pytest.approx(-1.56)

    def test_missing_score_defaults_to_one(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text(" ".join(SAMPLE_LINE.split()[:15]) + "\n")
        assert parse_label_file(p, CAR).detections[0].confidence == 1.0

    def test_empty_file(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("")
        assert parse_label_file(p, CAR).detections == ()

    @pytest.mark.parametrize("bad", REJECTED_LINES.values(), ids=REJECTED_LINES.keys())
    def test_rejected_line_names_path_and_line(self, tmp_path, bad):
        p = tmp_path / "s.txt"
        p.write_bytes(SAMPLE_LINE.encode() + b"\n" + bad + b"\n" + SAMPLE_LINE.encode() + b"\n")
        with pytest.raises(ParseError) as excinfo:
            parse_label_file(p, CAR)
        assert excinfo.value.line_no == 2
        assert excinfo.value.path == str(p)
        assert str(excinfo.value).startswith(f"{p}:2: ")

    def test_dontcare_skipped(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text(DONTCARE_LINE + "\n")
        assert parse_label_file(p, CAR).detections == ()

    def test_unknown_class_policy(self, tmp_path, catalog):
        p = tmp_path / "s.txt"
        p.write_text("Truck " + " ".join(SAMPLE_LINE.split()[1:]) + "\n")
        assert parse_label_file(p, catalog=catalog).detections == ()


class TestRoundtrip:
    def test_empty_scene_serializes_to_empty_text(self):
        assert serialize_label_file(Scene("s")) == ""

    def test_score_normalized_on_roundtrip(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text(" ".join(SAMPLE_LINE.split()[:15]) + "\n")
        scene = parse_label_file(p, CAR)
        text = serialize_label_file(scene)
        assert text.split()[-1] == "1.000000"

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_property_roundtrip(self, tmp_path_factory, seed):
        scene = random_scene(random.Random(seed), "scene")
        tmp = tmp_path_factory.mktemp("rt") / "scene.txt"
        write_label_file(scene, tmp)
        assert parse_label_file(tmp, DEFAULT_CATALOG) == scene


def saved_sidecar(tmp_path, *mixtures):
    """A sidecar saved from a scene of one car per one-detection mixture,
    and that scene without its mixtures."""
    scene = scene_with_mixtures("s", *((make_detection(), m) for m in mixtures))
    path = tmp_path / "s.mdn"
    save_mixture_sidecar(scene, path)
    return path, scene_of("s", scene.detections)


def edited(path, edit):
    doc = json.loads(path.read_text())
    edit(doc["detections"])
    path.write_text(json.dumps(doc))


class TestSidecar:
    def test_single_component_roundtrip(self, tmp_path):
        m = uniform_mixture(var=0.04)
        path, bare = saved_sidecar(tmp_path, m)
        loaded = load_mixture_sidecar(path, bare)
        assert loaded.mixtures == m
        from uncertainty_oracle import mixture_au

        assert mixture_au(loaded.mixtures, "x") == pytest.approx(0.04)

    def test_count_mismatch(self, tmp_path):
        m = uniform_mixture()
        path, three = saved_sidecar(tmp_path, m, m, m)
        two = scene_of("s", three.detections[:2])
        with pytest.raises(DataError, match="3 entries"):
            load_mixture_sidecar(path, two)

    def test_bad_weights_rejected(self, tmp_path):
        path, bare = saved_sidecar(tmp_path, uniform_mixture())
        text = path.read_text().replace("1.0", "0.9", 1)
        path.write_text(text)
        with pytest.raises(DataError):
            load_mixture_sidecar(path, bare)

    def test_valid_three_component_simplex(self, tmp_path):
        m = mixture_from_rows((0.5, 0.3, 0.2), (0.0, 0.1, 0.2), (0.01, 0.02, 0.03))
        path, bare = saved_sidecar(tmp_path, m)
        loaded = load_mixture_sidecar(path, bare)
        assert loaded.mixtures == m

    def test_save_creates_directory_and_leaves_no_tmp(self, tmp_path):
        scene = scene_with_mixtures("s", (make_detection(), uniform_mixture()))
        path = tmp_path / "new" / "s.mdn"
        save_mixture_sidecar(scene, path)
        assert [p.name for p in path.parent.iterdir()] == ["s.mdn"]
        assert load_mixture_sidecar(path, scene_of("s", (make_detection(),))) == scene

    def test_block_is_written_as_nested_rows(self, tmp_path):
        m = mixture_from_rows((0.5, 0.5), (0.1, -0.2), (0.01, 0.02))
        path, _ = saved_sidecar(tmp_path, m, uniform_mixture(k=2))
        entries = json.loads(path.read_text())["detections"]
        assert entries[0] == {"weights": [[0.5, 0.5]] * 7, "means": [[0.1, -0.2]] * 7, "variances": [[0.01, 0.02]] * 7}
        assert entries[1]["means"] == [[0.0, 0.0]] * 7

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("rows differ in K", "entry 1: all dimensions must share the same component count"),
            ("entries differ in K", "entry 1: mixture has 1 components but entry 0 has 2"),
            ("non-numeric value", "entry 1: could not convert string to float: 'wide'"),
            ("null value", "entry 1: float() argument must be a string or a real number, not 'NoneType'"),
            ("missing field", "entry 1: 'variances'"),
            ("bad value before a short row", "entry 1: mixture weights must sum to 1, got 1.5"),
            ("first failing entry", "entry 0: mixture means must be finite"),
        ],
    )
    def test_fault_names_the_file_and_the_first_failing_entry(self, tmp_path, fault, message):
        m = uniform_mixture(k=2)
        path, bare = saved_sidecar(tmp_path, m, m, m)

        def edit(entries):
            if fault == "rows differ in K":
                entries[1]["weights"][4] = [1.0]
            elif fault == "entries differ in K":
                entries[1] = {name: [[1.0 if name == "weights" else 0.0]] * 7 for name in entries[1]}
            elif fault == "non-numeric value":
                entries[1]["means"][3][1] = "wide"
            elif fault == "null value":
                entries[1]["weights"][0][0] = None
            elif fault == "missing field":
                del entries[1]["variances"]
            elif fault == "bad value before a short row":
                entries[1]["weights"][2] = [1.0, 0.5]
                entries[1]["means"][5] = [0.0]
            else:
                entries[0]["means"][6][0] = float("inf")
                entries[1]["weights"][0] = [1.0]

        edited(path, edit)
        with pytest.raises(DataError) as err:
            load_mixture_sidecar(path, bare)
        assert str(err.value).startswith(f"{path}: {message}")


def test_sidecars_cast_as_one_array_give_the_blocks_of_block_of_rows(tmp_path, catalog):
    # The float of every number of a synth pool's sidecars, cast by numpy,
    # against ``float`` on each number, as ``_block_of_rows`` does.
    assert main(["--seed", "5", "synth", "--out", str(tmp_path), "--n-scenes", "12", "--objects", "2,12"]) == 0
    scenes = load_pool_dir(tmp_path, catalog)
    assert sum(len(s.labels) for s in scenes) > 20
    for scene in scenes:
        path = kitti.sidecar_path(tmp_path, scene.id)
        entries = json.loads(path.read_text())["detections"]
        expected = _block_of_rows([(e["weights"], e["means"], e["variances"]) for e in entries])
        block = load_mixture_sidecar(path, scene).mixtures.block
        assert block.shape == expected.shape
        assert list(map(float.hex, block.reshape(-1).tolist())) == list(map(float.hex, expected.reshape(-1).tolist()))


class TestParsedPool:
    """``load_pool_dir`` with a store: each file read once, a stored one
    built from its columns, a new one parsed from the bytes read."""

    def pool(self, tmp_path, n=4):
        rng = random.Random(3)
        for i in range(n):
            write_label_file(random_scene(rng, f"s{i}", max_objects=4), tmp_path / "labels" / f"s{i}.txt")
        return tmp_path

    def reloaded(self, path, catalog):
        store = ParsedPool()
        store.load(path, catalog)
        return store

    def test_stored_scenes_equal_parsed_ones_bit_for_bit(self, tmp_path, catalog):
        pool = self.pool(tmp_path)
        first = ParsedPool()
        parsed = load_pool_dir(pool, catalog, first)
        first.save(tmp_path / "state.pool.npz", catalog)
        again = self.reloaded(tmp_path / "state.pool.npz", catalog)
        stored = load_pool_dir(pool, catalog, again)
        assert (first.parsed, again.parsed) == (4, 0)
        assert stored == parsed
        assert [s.boxes.tobytes() for s in stored] == [s.boxes.tobytes() for s in parsed]
        assert all(not s.boxes.flags.writeable for s in stored)

    def test_each_label_file_is_read_once(self, tmp_path, catalog, monkeypatch):
        pool = self.pool(tmp_path)
        read = []
        read_bytes = kitti.read_bytes

        def counting(path):
            read.append(str(path))
            return read_bytes(path)

        monkeypatch.setattr(kitti, "read_bytes", counting)
        load_pool_dir(pool, catalog)
        assert sorted(read) == sorted(map(str, (pool / "labels").iterdir()))

    def test_an_unchanged_pool_is_not_written_again_and_a_changed_one_holds_what_was_read(self, tmp_path, catalog):
        pool, path = self.pool(tmp_path), tmp_path / "state.pool.npz"
        store = ParsedPool()
        load_pool_dir(pool, catalog, store)
        store.save(path, catalog)
        path.write_bytes(path.read_bytes())  # a new inode: a rewrite would replace it
        inode = path.stat().st_ino
        store = self.reloaded(path, catalog)
        load_pool_dir(pool, catalog, store)
        store.save(path, catalog)
        assert path.stat().st_ino == inode
        (pool / "labels" / "s0.txt").unlink()
        store = self.reloaded(path, catalog)
        load_pool_dir(pool, catalog, store)
        store.save(path, catalog)
        assert path.stat().st_ino != inode
        assert len(self.reloaded(path, catalog).stored) == 3

    def test_files_of_equal_bytes_are_parsed_once_and_stored_once(self, tmp_path, catalog):
        # Scenes without a detection have empty label files, all alike.
        pool, path = self.pool(tmp_path, n=2), tmp_path / "state.pool.npz"
        for sid in ("e1", "e2", "e3"):
            (pool / "labels" / f"{sid}.txt").write_text("")
        parsed = []
        for _ in range(2):
            store = self.reloaded(path, catalog)
            scenes = load_pool_dir(pool, catalog, store)
            store.save(path, catalog)
            parsed.append(store.parsed)
        assert parsed == [3, 0]
        assert [s.id for s in scenes] == ["e1", "e2", "e3", "s0", "s1"]
        assert len(self.reloaded(path, catalog).stored) == 3
        inode = path.stat().st_ino
        store = self.reloaded(path, catalog)
        load_pool_dir(pool, catalog, store)
        store.save(path, catalog)
        assert path.stat().st_ino == inode  # nothing changed, nothing written

    def test_a_file_that_is_not_a_pool_file_is_data_error_naming_it(self, tmp_path, catalog):
        path = tmp_path / "state.pool.npz"
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))  # an npy array, not an npz
        with pytest.raises(DataError, match=f"^{path}: invalid parsed-pool file: "):
            self.reloaded(path, catalog)


class TestPoolDir:
    def test_load_sorted_with_sidecars(self, tmp_path, catalog):
        (tmp_path / "labels").mkdir()
        (tmp_path / "sidecars").mkdir()
        rng = random.Random(0)
        saved = {}
        for sid in ("b", "a"):
            scene = random_scene(rng, sid, max_objects=2)
            write_label_file(scene, tmp_path / "labels" / f"{sid}.txt")
            saved[sid] = scene_with_mixtures(sid, *((d, uniform_mixture()) for d in scene.detections))
            save_mixture_sidecar(saved[sid], tmp_path / "sidecars" / f"{sid}.mdn")
        scenes = load_pool_dir(tmp_path, catalog)
        assert [s.id for s in scenes] == ["a", "b"]
        assert list(map(sidecar_reader(tmp_path, scenes), scenes)) == [saved["a"], saved["b"]]

    def test_missing_sidecar_names_file(self, tmp_path, catalog):
        (tmp_path / "labels").mkdir()
        write_label_file(random_scene(random.Random(1), "x"), tmp_path / "labels" / "x.txt")
        with pytest.raises(DataError, match="x.mdn"):
            sidecar_reader(tmp_path, load_pool_dir(tmp_path, catalog))

    def test_load_lists_txt_names_only_sorted(self, tmp_path, catalog):
        (tmp_path / "labels").mkdir()
        for name in ("c.txt", "a.txt", "B.txt", "notes.md", "d.TXT"):
            (tmp_path / "labels" / name).write_text("")
        assert [s.id for s in load_pool_dir(tmp_path, catalog)] == ["B", "a", "c"]


class TestSidecarReader:
    """One listing of ``sidecars/``, judged as a ``stat`` per scene is, before
    any sidecar is parsed; then one parse per scene id."""

    def pool(self, tmp_path, ids=("a", "b", "c")):
        (tmp_path / "sidecars").mkdir()
        for sid in ids:
            (tmp_path / "sidecars" / f"{sid}.mdn").write_text("{}")
        return [Scene(sid) for sid in ("a", "b", "c")]

    def test_all_present(self, tmp_path):
        sidecar_reader(tmp_path, self.pool(tmp_path))

    def test_the_first_missing_in_scene_order_is_named(self, tmp_path):
        scenes = self.pool(tmp_path, ids=("a",))
        with pytest.raises(DataError, match=r"^missing mixture sidecar: .*/sidecars/b\.mdn$"):
            sidecar_reader(tmp_path, scenes)

    def test_missing_directory_names_the_first_scene(self, tmp_path):
        with pytest.raises(DataError, match=r"^missing mixture sidecar: .*/sidecars/a\.mdn$"):
            sidecar_reader(tmp_path, [Scene("a"), Scene("b")])

    def test_symbolic_links_count_as_their_targets(self, tmp_path):
        scenes = self.pool(tmp_path, ids=("a", "b"))
        (tmp_path / "sidecars" / "c.mdn").symlink_to(tmp_path / "sidecars" / "a.mdn")
        sidecar_reader(tmp_path, scenes)
        (tmp_path / "sidecars" / "c.mdn").unlink()
        (tmp_path / "sidecars" / "c.mdn").symlink_to(tmp_path / "nowhere.mdn")
        with pytest.raises(DataError, match=r"^missing mixture sidecar: .*/sidecars/c\.mdn$"):
            sidecar_reader(tmp_path, scenes)

    def test_each_scene_is_parsed_once_on_its_first_call(self, tmp_path, monkeypatch):
        scenes = self.pool(tmp_path)
        read = sidecar_reader(tmp_path, scenes)
        parsed = []

        def parse(path, scene, data=None):
            parsed.append(path)
            return Scene(scene.id)

        monkeypatch.setattr(kitti, "load_mixture_sidecar", parse)
        first = read(scenes[1])
        assert read(scenes[1]) is first
        assert read(Scene("b")) is first
        read(scenes[0])
        assert parsed == [tmp_path / "sidecars" / "b.mdn", tmp_path / "sidecars" / "a.mdn"]


class TestSidecarStore:
    """The mixtures of the sidecars a reader read, kept by digest across
    processes: a stored sidecar is not parsed again, an edited or dropped
    one is."""

    @staticmethod
    def pool(tmp_path, catalog):
        """Scenes a, b and c with their sidecars; b has no detection."""
        (tmp_path / "labels").mkdir()
        (tmp_path / "sidecars").mkdir()
        for sid, n in (("a", 2), ("b", 0), ("c", 1)):
            dets = [make_detection(box=make_box(x=float(i))) for i in range(n)]
            scene = scene_with_mixtures(sid, *((d, uniform_mixture(k=2, var=0.1 * (i + 1))) for i, d in enumerate(dets)))
            write_label_file(scene, tmp_path / "labels" / f"{sid}.txt")
            save_mixture_sidecar(scene, tmp_path / "sidecars" / f"{sid}.mdn")
        return load_pool_dir(tmp_path, catalog)

    @staticmethod
    def parsed_ids(monkeypatch):
        parsed = []
        load = kitti.load_mixture_sidecar

        def counting(path, scene, data=None):
            parsed.append(scene.id)
            return load(path, scene, data)

        monkeypatch.setattr(kitti, "load_mixture_sidecar", counting)
        return parsed

    def test_a_saved_store_serves_the_kept_sidecars_with_the_parsed_mixtures(self, tmp_path, catalog, monkeypatch):
        scenes = self.pool(tmp_path, catalog)
        parsed = self.parsed_ids(monkeypatch)
        first = SidecarStore()
        want = list(map(sidecar_reader(tmp_path, scenes, first), scenes))
        assert (parsed, first.parsed) == (["a", "b", "c"], 3)
        first.save(tmp_path / "state.sidecars.npz", ["c"])  # c is labeled
        parsed.clear()
        store = SidecarStore()
        store.load(tmp_path / "state.sidecars.npz")
        assert sorted(sid for sid, (digest, _) in first.read.items() if digest in store.stored) == ["a", "b"]
        got = list(map(sidecar_reader(tmp_path, scenes, store), scenes))
        assert got == want
        assert got[1] is scenes[1]  # no detection: the scene as it is
        assert (parsed, store.parsed, len(store.read)) == (["c"], 1, 3)

    def test_an_edited_sidecar_is_parsed_again(self, tmp_path, catalog, monkeypatch):
        scenes = self.pool(tmp_path, catalog)
        first = SidecarStore()
        list(map(sidecar_reader(tmp_path, scenes, first), scenes))
        first.save(tmp_path / "state.sidecars.npz", [])
        edited = scene_with_mixtures("a", *((d, uniform_mixture(k=2, var=0.5)) for d in scenes[0].detections))
        save_mixture_sidecar(edited, tmp_path / "sidecars" / "a.mdn")
        parsed = self.parsed_ids(monkeypatch)
        store = SidecarStore()
        store.load(tmp_path / "state.sidecars.npz")
        assert sidecar_reader(tmp_path, scenes, store)(scenes[0]).mixtures == edited.mixtures
        assert parsed == ["a"]

    def test_a_stored_block_of_another_detection_count_is_parsed(self, tmp_path, catalog):
        # Scene a's label file loses a line; its sidecar, stored with two
        # detections, no longer fits, and the parse says so.
        scenes = self.pool(tmp_path, catalog)
        first = SidecarStore()
        list(map(sidecar_reader(tmp_path, scenes, first), scenes))
        first.save(tmp_path / "state.sidecars.npz", [])
        store = SidecarStore()
        store.load(tmp_path / "state.sidecars.npz")
        one = Scene("a", scenes[0].labels[:1], scenes[0].boxes[:1])
        with pytest.raises(DataError, match="sidecar has 2 entries but scene 'a' has 1 detections"):
            sidecar_reader(tmp_path, scenes, store)(one)
