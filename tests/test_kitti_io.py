import random

import pytest
from hypothesis import given, settings, strategies as st

from scenesel.core import DataError, ParseError, Scene
from scenesel.kitti import (
    load_mixture_sidecar,
    load_pool_dir,
    parse_label_file,
    save_mixture_sidecar,
    serialize_label_file,
    write_label_file,
)
from conftest import make_detection, random_scene, uniform_mixture

SAMPLE_LINE = "Car 0.0 0 -1.57 614 181 727 284 1.57 1.73 4.15 1.0 1.47 8.41 -1.56 0.9"


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
        scene = parse_label_file(p)
        assert scene.id == "000001"
        assert len(scene.detections) == 1
        det = scene.detections[0]
        assert det.class_label == "Car"
        assert det.confidence == pytest.approx(0.9)
        assert det.box.h == pytest.approx(1.57)
        assert det.box.w == pytest.approx(1.73)
        assert det.box.l == pytest.approx(4.15)
        assert det.box.center == pytest.approx((1.0, 1.47, 8.41))
        assert det.box.theta == pytest.approx(-1.56)

    def test_missing_score_defaults_to_one(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text(" ".join(SAMPLE_LINE.split()[:15]) + "\n")
        assert parse_label_file(p).detections[0].confidence == 1.0

    def test_empty_file(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("")
        assert parse_label_file(p).detections == ()

    @pytest.mark.parametrize("bad", REJECTED_LINES.values(), ids=REJECTED_LINES.keys())
    def test_rejected_line_names_path_and_line(self, tmp_path, bad):
        p = tmp_path / "s.txt"
        p.write_bytes(SAMPLE_LINE.encode() + b"\n" + bad + b"\n" + SAMPLE_LINE.encode() + b"\n")
        with pytest.raises(ParseError) as excinfo:
            parse_label_file(p)
        assert excinfo.value.line_no == 2
        assert excinfo.value.path == str(p)
        assert str(excinfo.value).startswith(f"{p}:2: ")

    def test_dontcare_skipped(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text(DONTCARE_LINE + "\n")
        assert parse_label_file(p).detections == ()

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
        scene = parse_label_file(p)
        text = serialize_label_file(scene)
        assert text.split()[-1] == "1.000000"

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_property_roundtrip(self, tmp_path_factory, seed):
        scene = random_scene(random.Random(seed), "scene")
        tmp = tmp_path_factory.mktemp("rt") / "scene.txt"
        write_label_file(scene, tmp)
        assert parse_label_file(tmp) == scene


class TestSidecar:
    def test_single_component_roundtrip(self, tmp_path):
        m = uniform_mixture(var=0.04)
        scene = Scene("s", (make_detection(mixture=m),))
        path = tmp_path / "s.mdn"
        save_mixture_sidecar(scene, path)
        bare = Scene("s", (make_detection(),))
        loaded = load_mixture_sidecar(path, bare)
        assert loaded.detections[0].mixture == m
        from scenesel.uncertainty import mixture_au

        assert mixture_au(loaded.detections[0].mixture, "x") == pytest.approx(0.04)

    def test_count_mismatch(self, tmp_path):
        m = uniform_mixture()
        three = Scene("s", tuple(make_detection(mixture=m) for _ in range(3)))
        path = tmp_path / "s.mdn"
        save_mixture_sidecar(three, path)
        two = Scene("s", tuple(make_detection() for _ in range(2)))
        with pytest.raises(DataError, match="3 entries"):
            load_mixture_sidecar(path, two)

    def test_bad_weights_rejected(self, tmp_path):
        m = uniform_mixture()
        scene = Scene("s", (make_detection(mixture=m),))
        path = tmp_path / "s.mdn"
        save_mixture_sidecar(scene, path)
        text = path.read_text().replace("1.0", "0.9", 1)
        path.write_text(text)
        with pytest.raises(DataError):
            load_mixture_sidecar(path, Scene("s", (make_detection(),)))

    def test_valid_three_component_simplex(self, tmp_path):
        from conftest import mixture_from_rows

        m = mixture_from_rows((0.5, 0.3, 0.2), (0.0, 0.1, 0.2), (0.01, 0.02, 0.03))
        scene = Scene("s", (make_detection(mixture=m),))
        path = tmp_path / "s.mdn"
        save_mixture_sidecar(scene, path)
        loaded = load_mixture_sidecar(path, Scene("s", (make_detection(),)))
        assert loaded.detections[0].mixture == m

    def test_save_creates_directory_and_leaves_no_tmp(self, tmp_path):
        scene = Scene("s", (make_detection(mixture=uniform_mixture()),))
        path = tmp_path / "new" / "s.mdn"
        save_mixture_sidecar(scene, path)
        assert [p.name for p in path.parent.iterdir()] == ["s.mdn"]
        assert load_mixture_sidecar(path, Scene("s", (make_detection(),))) == scene


class TestPoolDir:
    def test_load_sorted_with_sidecars(self, tmp_path, catalog):
        (tmp_path / "labels").mkdir()
        (tmp_path / "sidecars").mkdir()
        rng = random.Random(0)
        for sid in ("b", "a"):
            scene = random_scene(rng, sid, max_objects=2)
            write_label_file(scene, tmp_path / "labels" / f"{sid}.txt")
            withm = Scene(
                sid, tuple(make_detection(d.class_label, d.confidence, d.box, uniform_mixture()) for d in scene.detections)
            )
            save_mixture_sidecar(withm, tmp_path / "sidecars" / f"{sid}.mdn")
        scenes = load_pool_dir(tmp_path, catalog, with_sidecars=True)
        assert [s.id for s in scenes] == ["a", "b"]

    def test_missing_sidecar_names_file(self, tmp_path, catalog):
        (tmp_path / "labels").mkdir()
        write_label_file(random_scene(random.Random(1), "x"), tmp_path / "labels" / "x.txt")
        with pytest.raises(DataError, match="x.mdn"):
            load_pool_dir(tmp_path, catalog, with_sidecars=True)
