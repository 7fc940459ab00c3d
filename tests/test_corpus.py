import re

import pytest

from driftguard.corpus import (
    corpus_path,
    load_corpus_pair,
    read_response_file,
    sanitize_ref,
    write_corpus,
)
from driftguard.types import BenchmarkItem, ContractError

import reference_fixtures as refs


class TestSanitize:
    def test_distinct_refs_never_collide(self):
        a = sanitize_ref("http://x/a.jpg")
        b = sanitize_ref("http://x/a_jpg")
        assert a != b

    def test_deterministic(self):
        ref = "http://localhost:4567/demo/data/0052.jpg"
        assert sanitize_ref(ref) == sanitize_ref(ref)

    def test_filesystem_safe(self):
        stem = sanitize_ref("http://x:99/path?q=1&r=%20")
        assert all(c.isalnum() or c in "._-" for c in stem)


class TestWriteRead:
    def test_round_trip_preserves_content(self, tmp_path):
        old_snapshot, _ = refs.fixture_snapshots()
        write_corpus(tmp_path, old_snapshot)
        for response in old_snapshot:
            loaded = read_response_file(
                corpus_path(tmp_path, response.image_ref), response.image_ref
            )
            assert loaded.labels() == response.labels()
            assert loaded.confidences() == response.confidences()

    def test_writes_are_byte_stable(self, tmp_path):
        old_snapshot, _ = refs.fixture_snapshots()
        paths = write_corpus(tmp_path / "one", old_snapshot)
        again = write_corpus(tmp_path / "two", old_snapshot)
        for first, second in zip(paths, again):
            assert first.read_bytes() == second.read_bytes()


class TestLoadPair:
    def write_pair(self, tmp_path):
        old_snapshot, new_snapshot = refs.fixture_snapshots()
        write_corpus(tmp_path / "old", old_snapshot)
        write_corpus(tmp_path / "new", new_snapshot)
        return tmp_path / "old", tmp_path / "new"

    def test_with_manifest_items(self, tmp_path):
        old_dir, new_dir = self.write_pair(tmp_path)
        dataset, old_snapshot, new_snapshot = load_corpus_pair(
            old_dir, new_dir, refs.FIXTURE_ITEMS
        )
        assert [i.image_ref for i in dataset.items] == [i.image_ref for i in refs.FIXTURE_ITEMS]
        assert dataset.items[2].expected_labels == {"fauna"}
        assert old_snapshot[0].image_ref == refs.CAR_URI
        assert len(new_snapshot) == 3

    def test_without_manifest_uses_file_stems(self, tmp_path):
        old_dir, new_dir = self.write_pair(tmp_path)
        dataset, old_snapshot, _ = load_corpus_pair(old_dir, new_dir)
        assert len(dataset.items) == 3
        assert all(not item.expected_labels for item in dataset.items)
        stems = sorted(p.stem for p in old_dir.glob("*.json"))
        assert [i.image_ref for i in dataset.items] == stems
        assert [r.image_ref for r in old_snapshot] == stems

    def test_misaligned_directories_rejected(self, tmp_path):
        old_dir, new_dir = self.write_pair(tmp_path)
        extra = new_dir / "extra-00000000.json"
        extra.write_text('{"responses": []}', encoding="utf-8")
        with pytest.raises(ContractError, match="not aligned"):
            load_corpus_pair(old_dir, new_dir)

    def test_missing_manifest_file_rejected(self, tmp_path):
        old_dir, new_dir = self.write_pair(tmp_path)
        items = refs.FIXTURE_ITEMS + [BenchmarkItem("http://nowhere/x.jpg", "")]
        with pytest.raises(ContractError, match="missing corpus file"):
            load_corpus_pair(old_dir, new_dir, items)

    def test_directory_in_place_of_a_file_is_a_missing_file(self, tmp_path):
        old_dir, new_dir = self.write_pair(tmp_path)
        path = corpus_path(new_dir, refs.FIXTURE_ITEMS[1].image_ref)
        path.unlink()
        path.mkdir()
        with pytest.raises(ContractError, match=f"missing corpus file {path}"):
            load_corpus_pair(old_dir, new_dir, refs.FIXTURE_ITEMS)

    def test_file_that_is_not_utf8_is_named(self, tmp_path):
        old_dir, new_dir = self.write_pair(tmp_path)
        path = corpus_path(old_dir, refs.FIXTURE_ITEMS[0].image_ref)
        path.write_bytes(b'{"responses": [], "x": "\xff"}')
        with pytest.raises(ValueError, match=str(path)):
            load_corpus_pair(old_dir, new_dir, refs.FIXTURE_ITEMS)

    @pytest.mark.parametrize(
        "content",
        [b"not json", b"[" * 100_000, b'{"responses": 1}'],
        ids=["not json", "nested too deeply", "not the wire format"],
    )
    def test_file_that_is_not_a_json_wire_body_is_named(self, tmp_path, content):
        old_dir, new_dir = self.write_pair(tmp_path)
        path = corpus_path(old_dir, refs.FIXTURE_ITEMS[0].image_ref)
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_corpus_pair(old_dir, new_dir, refs.FIXTURE_ITEMS)

    def test_empty_directories_rejected(self, tmp_path):
        (tmp_path / "old").mkdir()
        (tmp_path / "new").mkdir()
        with pytest.raises(ContractError, match="empty"):
            load_corpus_pair(tmp_path / "old", tmp_path / "new")
