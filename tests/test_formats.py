"""On-disk format round-trips and validation."""

import os

import numpy as np
import pytest

from semaug import GlobalStats
from semaug.errors import FormatError
from semaug import features, formats
from semaug.formats import (
    atomic_write,
    load_features,
    load_stats,
    save_features,
    save_stats,
    write_pgm,
)
from conftest import reaped_pid, traced_peak


class TestFeatureFile:
    def test_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(61)
        values = rng.normal(size=(17, 9)).astype(np.float32)
        path = tmp_path / "a.fmx"
        save_features(path, values)
        loaded = load_features(path)
        assert loaded.dtype == np.float32
        assert np.array_equal(loaded, values)

    def test_write_read_write_byte_identical(self, tmp_path):
        rng = np.random.default_rng(62)
        for i in range(10):
            values = rng.normal(size=(rng.integers(1, 30), rng.integers(1, 12)))
            first = tmp_path / f"{i}_a.fmx"
            second = tmp_path / f"{i}_b.fmx"
            save_features(first, values)
            save_features(second, load_features(first))
            assert first.read_bytes() == second.read_bytes()

    def test_header_fields(self, tmp_path):
        path = tmp_path / "h.fmx"
        save_features(path, np.zeros((3, 5), dtype=np.float32))
        blob = path.read_bytes()
        assert blob[:4] == b"FMX1"
        assert int.from_bytes(blob[4:6], "little") == 1
        assert int.from_bytes(blob[6:10], "little") == 3
        assert int.from_bytes(blob[10:14], "little") == 5
        assert len(blob) == 14 + 4 * 15

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fmx"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError):
            load_features(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.fmx"
        save_features(path, np.zeros((4, 4), dtype=np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(FormatError):
            load_features(path)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(FormatError):
            save_features(tmp_path / "x.fmx", np.zeros(5))

    def test_chunked_payload_matches_whole_cast(self, tmp_path, monkeypatch):
        monkeypatch.setattr(features, "CHUNK_BINS", 3 * 7)  # 3 rows a chunk
        values = np.random.default_rng(63).normal(size=(10, 7))
        path = tmp_path / "c.fmx"
        save_features(path, values)
        assert path.read_bytes()[14:] == values.astype("<f4").tobytes()

    def test_write_memory(self, tmp_path):
        values = np.random.default_rng(64).normal(size=(60000, 40))
        _, peak = traced_peak(lambda: save_features(tmp_path / "m.fmx", values))
        assert peak < 2 << 20

    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(features, "CHUNK_BINS", 1)  # one row a chunk
        values = np.array([[1.0], [2.0], ["not a number"]], dtype=object)
        with pytest.raises(ValueError):
            save_features(tmp_path / "f.fmx", values)
        assert list(tmp_path.iterdir()) == []


class TestAtomicWrite:
    def test_raise_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_write(path, "w") as handle:
                handle.write("new")
                raise RuntimeError("interrupted")
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_uncreatable_temp_raises_open_error_alone(self, tmp_path):
        # the target's parent is a file: open fails, and no cleanup error
        # is chained onto it
        blocker = tmp_path / "afile"
        blocker.write_text("in the way\n")
        with pytest.raises(NotADirectoryError) as exc:
            with atomic_write(blocker / "x", "w") as handle:
                handle.write("never")
        assert exc.value.__context__ is None
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "in the way\n"

    def test_success_replaces_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_write(path, "w", encoding="ascii") as handle:
            handle.write("new\n")
        assert path.read_text() == "new\n"
        assert list(tmp_path.iterdir()) == [path]


class TestSweepStaleTemporaries:
    def test_removes_only_dead_writers_temporaries(self, tmp_path):
        dead, alive = reaped_pid(), os.getpid()
        stale = [f".a.fmx.{dead}.140.tmp", f".global_stats.txt.{dead}.1.tmp",
                 f".x.12.{dead}.7.tmp"]
        kept = [
            f".a.fmx.{alive}.140.tmp",
            f"a.fmx.{dead}.1.tmp",
            f".a.fmx.{dead}.tmp",
            f".a.fmx.{dead}.1.tmp.bak",
            ".a.fmx.0.1.tmp",
            # a pid no process can have: os.kill cannot check it
            ".a.fmx.99999999999999999999.1.tmp",
            "a.fmx",
        ]
        for name in stale + kept:
            (tmp_path / name).write_bytes(b"partial")
        (tmp_path / f".d.fmx.{dead}.1.tmp").mkdir()
        removed = formats.sweep_stale_temporaries(tmp_path)
        assert sorted(path.name for path in removed) == sorted(stale)
        left = sorted(path.name for path in tmp_path.iterdir())
        assert left == sorted(kept + [f".d.fmx.{dead}.1.tmp"])

    def test_probes_with_signal_0_only(self, tmp_path, monkeypatch):
        # any other signal would reach the process it probes; pids 7 and 8
        # stand in for a running and an exited writer
        (tmp_path / ".a.fmx.7.1.tmp").write_bytes(b"partial")
        (tmp_path / ".b.fmx.8.1.tmp").write_bytes(b"partial")
        calls = []

        def probe(pid, signal):
            calls.append((pid, signal))
            if pid == 8:
                raise ProcessLookupError(3, "No such process")

        monkeypatch.setattr(formats.os, "kill", probe)
        removed = formats.sweep_stale_temporaries(tmp_path)
        assert [path.name for path in removed] == [".b.fmx.8.1.tmp"]
        assert sorted(calls) == [(7, 0), (8, 0)]

    def test_keeps_what_cannot_be_checked(self, tmp_path, monkeypatch):
        name = f".a.fmx.{reaped_pid()}.1.tmp"
        (tmp_path / name).write_bytes(b"partial")

        def not_permitted(pid, signal):
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(formats.os, "kill", not_permitted)
        assert formats.sweep_stale_temporaries(tmp_path) == []
        assert [path.name for path in tmp_path.iterdir()] == [name]


class TestStatsFile:
    def _stats(self, rng, channels=7):
        return GlobalStats(
            mean=rng.normal(size=channels),
            std=rng.uniform(0.1, 2.0, size=channels),
            num_frames_seen=int(rng.integers(1, 10000)),
        )

    def test_round_trip_values(self, tmp_path):
        stats = self._stats(np.random.default_rng(63))
        path = tmp_path / "s.txt"
        save_stats(path, stats)
        loaded = load_stats(path)
        assert np.array_equal(loaded.mean, stats.mean)
        assert np.array_equal(loaded.std, stats.std)
        assert loaded.num_frames_seen == stats.num_frames_seen

    def test_write_read_write_byte_identical(self, tmp_path):
        rng = np.random.default_rng(64)
        for i in range(10):
            stats = self._stats(rng, channels=int(rng.integers(1, 20)))
            first = tmp_path / f"{i}_a.txt"
            second = tmp_path / f"{i}_b.txt"
            save_stats(first, stats)
            save_stats(second, load_stats(first))
            assert first.read_bytes() == second.read_bytes()

    def test_header_line(self, tmp_path):
        stats = GlobalStats(np.zeros(3), np.ones(3), 42)
        path = tmp_path / "s.txt"
        save_stats(path, stats)
        assert path.read_text().splitlines()[0] == "SEMSTATS v1 C=3 N=42"

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a stats file\n")
        with pytest.raises(FormatError):
            load_stats(path)

    @pytest.mark.parametrize("header", [
        "SEMSTATS v12 C=2 N=-7 junk",
        "SEMSTATS v12 C=2 N=5",
        "SEMSTATS v1 C=2 N=-7",
        "SEMSTATS v1 C=2 N=5 junk",
        "SEMSTATS v1 C=0 N=5",
        "SEMSTATS v1 C=2 N=0",
        "SEMSTATS v1 C=+2 N=5",
        "SEMSTATS v1 C=2",
        "SEMSTATS v1 N=5 C=2",
        "SEMSTATS v1  C=2 N=5",
        "",
    ])
    def test_rejects_malformed_header(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\n0 0.0 1.0\n1 0.0 1.0\n")
        with pytest.raises(FormatError) as exc:
            load_stats(path)
        assert f"header {header!r}" in str(exc.value)

    def test_rejects_nonpositive_std(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("SEMSTATS v1 C=1 N=5\n0 0.0 0.0\n")
        with pytest.raises(FormatError):
            load_stats(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["mean", "std"])
    def test_rejects_non_finite(self, tmp_path, field, value):
        mean, std = (value, "1.0") if field == "mean" else ("0.0", value)
        path = tmp_path / "bad.txt"
        path.write_text(f"SEMSTATS v1 C=2 N=5\n0 0.0 1.0\n1 {mean} {std}\n")
        with pytest.raises(FormatError):
            load_stats(path)

    @pytest.mark.parametrize("line", ["x 1.0 abc", "1 abc 1.0", "1 0.0 1.0e", "7 0.0 1.0", "1 0.0"])
    def test_rejects_malformed_channel_line(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"SEMSTATS v1 C=2 N=5\n0 0.0 1.0\n{line}\n")
        with pytest.raises(FormatError) as exc:
            load_stats(path)
        assert str(path) in str(exc.value)
        assert f"line 3 {line!r}" in str(exc.value)

    def test_rejects_wrong_line_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("SEMSTATS v1 C=2 N=5\n0 0.0 1.0\n")
        with pytest.raises(FormatError):
            load_stats(path)

    _CANONICAL = "SEMSTATS v1 C=2 N=5\n0 0.1 0.1\n1 -0.0 2.0\n"

    @pytest.mark.parametrize("text,line", [
        (_CANONICAL.replace("\n", "\r\n"), 1),
        ("SEMSTATS v1 C=2 N=5\n+0 0.1 0.1\n1 -0.0 2.0\n", 2),
        ("SEMSTATS v1 C=2 N=5\n0 1e-1 0.1\n1 -0.0 2.0\n", 2),
        ("SEMSTATS v1 C=2 N=5\n0 0.1 0.1_0\n1 -0.0 2.0\n", 2),
        ("SEMSTATS v1 C=2 N=5\n0 0.1 0.1\n1  -0.0 2.0\n", 3),
        (_CANONICAL[:-1], 3),
        ("SEMSTATS v1 C=2 N=5\r\n+0 1e-1 0.1_0\r\n1  -0.0 +2\r\n", 1),
    ], ids=["crlf", "plus-index", "exponent", "underscore", "double-space",
            "no-final-newline", "all-at-once"])
    def test_rejects_what_save_stats_does_not_write(self, tmp_path, text, line):
        # each text holds the values of _CANONICAL, which loads, spelled otherwise
        canonical = tmp_path / "good.txt"
        canonical.write_bytes(self._CANONICAL.encode("ascii"))
        save_stats(tmp_path / "resaved.txt", load_stats(canonical))
        assert (tmp_path / "resaved.txt").read_bytes() == canonical.read_bytes()
        path = tmp_path / "bad.txt"
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(FormatError, match="is not spelled as save_stats writes it") as exc:
            load_stats(path)
        written = self._CANONICAL.splitlines(keepends=True)[line - 1]
        assert str(exc.value).startswith(f"{path}: line {line} ")
        assert str(exc.value).endswith(repr(written))

    def test_rejects_non_ascii_naming_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"SEMSTATS v1 C=1 N=5\n0 0.0 1\xff0\n")
        with pytest.raises(FormatError, match="byte 0xff at offset 27 is not ASCII") as exc:
            load_stats(path)
        assert str(exc.value).startswith(f"{path}: ")


class TestPgm:
    def test_header_and_payload(self, tmp_path):
        image = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "i.pgm"
        write_pgm(path, image)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n4 3\n255\n")
        assert blob[len(b"P5\n4 3\n255\n"):] == image.tobytes()

    def test_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(FormatError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=np.float64))

    def test_rejects_wrong_ndim(self, tmp_path):
        with pytest.raises(FormatError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 3), dtype=np.uint8))
