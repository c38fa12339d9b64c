"""Helper constructors shared by the test suite."""

from __future__ import annotations

import struct
import zlib
from collections import Counter

import numpy as np

from repro.storage.documentdb import DocumentStore
from repro.timeseries.calendar import MINUTES_PER_DAY, points_per_day
from repro.timeseries.series import LoadSeries

POINTS_PER_DAY = points_per_day(5)

#: Frozen .sgx v1 structs (one inline chunk per server), kept here so
#: compatibility tests can fabricate genuine v1 files without the
#: production writer having to retain a legacy encode path.
_V1_HEADER = struct.Struct("<4sHHIIIQI")
_V1_HEADER_CRC = struct.Struct("<I")
_V1_CHUNK_FIXED = struct.Struct("<IIIqqIQqqI")
_V1_STRING_LEN = struct.Struct("<H")


def frame_to_sgx_v1_bytes(frame) -> bytes:
    """Serialise ``frame`` exactly as the .sgx format v1 writer did.

    Byte-for-byte the layout shipped before multi-chunk series: header,
    dictionary, then one ``(chunk header, payload)`` pair per server with
    a single whole-series zone map.
    """

    def packed(text: str) -> bytes:
        encoded = text.encode("utf-8")
        return _V1_STRING_LEN.pack(len(encoded)) + encoded

    dictionary: dict[str, int] = {}

    def intern(text: str) -> int:
        return dictionary.setdefault(text, len(dictionary))

    chunk_blobs = []
    for server_id, metadata, series in frame.items():
        timestamps = np.ascontiguousarray(series.timestamps, dtype="<i8")
        values = np.ascontiguousarray(series.values, dtype="<f8")
        payload = timestamps.tobytes() + values.tobytes()
        n_points = int(timestamps.shape[0])
        if n_points:
            min_ts, max_ts = int(timestamps[0]), int(timestamps[-1])
        else:
            min_ts, max_ts = 0, -1
        chunk_header = packed(server_id) + _V1_CHUNK_FIXED.pack(
            intern(metadata.region),
            intern(metadata.engine),
            intern(metadata.true_class),
            metadata.default_backup_start,
            metadata.default_backup_end,
            metadata.backup_duration_minutes,
            n_points,
            min_ts,
            max_ts,
            zlib.crc32(payload),
        )
        chunk_blobs.append((chunk_header, payload))

    dict_section = b"".join(packed(text) for text in dictionary)
    structure_crc = zlib.crc32(dict_section)
    for chunk_header, _payload in chunk_blobs:
        structure_crc = zlib.crc32(chunk_header, structure_crc)
    body = dict_section + b"".join(header + payload for header, payload in chunk_blobs)
    header = _V1_HEADER.pack(
        b"SGXF",
        1,
        0,
        frame.interval_minutes,
        len(frame),
        len(dictionary),
        _V1_HEADER.size + _V1_HEADER_CRC.size + len(body),
        structure_crc,
    )
    return header + _V1_HEADER_CRC.pack(zlib.crc32(header)) + body


#: Frozen .sgx v2 structs (per-day chunks, one *joint* payload CRC per
#: chunk), for compatibility tests against files the v2 writer shipped.
_V2_SERVER_FIXED = struct.Struct("<IIIqqII")
_V2_CHUNK_HEADER = struct.Struct("<QqqI")


def frame_to_sgx_v2_bytes(frame, chunk_minutes: int = MINUTES_PER_DAY) -> bytes:
    """Serialise ``frame`` exactly as the .sgx format v2 writer did.

    Identical to v3 except each chunk header carries a single CRC over
    the concatenated (timestamps + values) payload instead of one CRC per
    column buffer.
    """
    from repro.storage.columnar import _split_at_boundaries

    def packed(text: str) -> bytes:
        encoded = text.encode("utf-8")
        return _V1_STRING_LEN.pack(len(encoded)) + encoded

    dictionary: dict[str, int] = {}

    def intern(text: str) -> int:
        return dictionary.setdefault(text, len(dictionary))

    records = []
    for server_id, metadata, series in frame.items():
        timestamps = np.ascontiguousarray(series.timestamps, dtype="<i8")
        values = np.ascontiguousarray(series.values, dtype="<f8")
        pieces = _split_at_boundaries(timestamps, values, chunk_minutes)
        chunk_table = bytearray()
        payloads = []
        for chunk_ts, chunk_vs in pieces:
            n_points = int(chunk_ts.shape[0])
            payload = chunk_ts.tobytes() + chunk_vs.tobytes()
            if n_points:
                min_ts, max_ts = int(chunk_ts[0]), int(chunk_ts[-1])
            else:
                min_ts, max_ts = 0, -1
            chunk_table += _V2_CHUNK_HEADER.pack(n_points, min_ts, max_ts, zlib.crc32(payload))
            payloads.append(payload)
        record_header = (
            packed(server_id)
            + _V2_SERVER_FIXED.pack(
                intern(metadata.region),
                intern(metadata.engine),
                intern(metadata.true_class),
                metadata.default_backup_start,
                metadata.default_backup_end,
                metadata.backup_duration_minutes,
                len(payloads),
            )
            + bytes(chunk_table)
        )
        records.append((record_header, payloads))

    dict_section = b"".join(packed(text) for text in dictionary)
    structure_crc = zlib.crc32(dict_section)
    for record_header, _payloads in records:
        structure_crc = zlib.crc32(record_header, structure_crc)
    body_parts = [dict_section]
    for record_header, payloads in records:
        body_parts.append(record_header)
        body_parts.extend(payloads)
    body = b"".join(body_parts)
    header = _V1_HEADER.pack(
        b"SGXF",
        2,
        0,
        frame.interval_minutes,
        len(frame),
        len(dictionary),
        _V1_HEADER.size + _V1_HEADER_CRC.size + len(body),
        structure_crc,
    )
    return header + _V1_HEADER_CRC.pack(zlib.crc32(header)) + body


#: Frozen .sgx v3 chunk header (per-column CRCs, no value statistics),
#: for compatibility tests against files the v3 writer shipped.
_V3_CHUNK_HEADER = struct.Struct("<QqqII")


def frame_to_sgx_v3_bytes(frame, chunk_minutes: int = MINUTES_PER_DAY) -> bytes:
    """Serialise ``frame`` exactly as the .sgx format v3 writer did.

    Identical to v4 except the chunk table carries no value
    pre-aggregates -- each entry is ``n_points | min_ts | max_ts |
    ts_crc | vs_crc``.
    """
    from repro.storage.columnar import _split_at_boundaries

    def packed(text: str) -> bytes:
        encoded = text.encode("utf-8")
        return _V1_STRING_LEN.pack(len(encoded)) + encoded

    dictionary: dict[str, int] = {}

    def intern(text: str) -> int:
        return dictionary.setdefault(text, len(dictionary))

    records = []
    for server_id, metadata, series in frame.items():
        timestamps = np.ascontiguousarray(series.timestamps, dtype="<i8")
        values = np.ascontiguousarray(series.values, dtype="<f8")
        pieces = _split_at_boundaries(timestamps, values, chunk_minutes)
        chunk_table = bytearray()
        payloads = []
        for chunk_ts, chunk_vs in pieces:
            n_points = int(chunk_ts.shape[0])
            ts_bytes = chunk_ts.tobytes()
            vs_bytes = chunk_vs.tobytes()
            if n_points:
                min_ts, max_ts = int(chunk_ts[0]), int(chunk_ts[-1])
            else:
                min_ts, max_ts = 0, -1
            chunk_table += _V3_CHUNK_HEADER.pack(
                n_points, min_ts, max_ts, zlib.crc32(ts_bytes), zlib.crc32(vs_bytes)
            )
            payloads.append(ts_bytes + vs_bytes)
        record_header = (
            packed(server_id)
            + _V2_SERVER_FIXED.pack(
                intern(metadata.region),
                intern(metadata.engine),
                intern(metadata.true_class),
                metadata.default_backup_start,
                metadata.default_backup_end,
                metadata.backup_duration_minutes,
                len(payloads),
            )
            + bytes(chunk_table)
        )
        records.append((record_header, payloads))

    dict_section = b"".join(packed(text) for text in dictionary)
    structure_crc = zlib.crc32(dict_section)
    for record_header, _payloads in records:
        structure_crc = zlib.crc32(record_header, structure_crc)
    body_parts = [dict_section]
    for record_header, payloads in records:
        body_parts.append(record_header)
        body_parts.extend(payloads)
    body = b"".join(body_parts)
    header = _V1_HEADER.pack(
        b"SGXF",
        3,
        0,
        frame.interval_minutes,
        len(frame),
        len(dictionary),
        _V1_HEADER.size + _V1_HEADER_CRC.size + len(body),
        structure_crc,
    )
    return header + _V1_HEADER_CRC.pack(zlib.crc32(header)) + body


class CrashInjector:
    """Kill a manifest transaction at the N-th hit of one fault point.

    Install via :func:`repro.storage.manifest.fault_handler`::

        injector = CrashInjector("manifest.pointer")
        with fault_handler(injector):
            with pytest.raises(InjectedCrash):
                lake.write_extract(key, frame)

    ``occurrence`` picks a later hit of the same point (1 = first).
    With ``crash_at=None`` the injector only records the points it saw
    (``.seen``), which is how tests enumerate a protocol's fault points
    without hard-coding the order.
    """

    def __init__(self, crash_at: str | None, occurrence: int = 1) -> None:
        from repro.storage.manifest import InjectedCrash

        self._crash_at = crash_at
        self._occurrence = occurrence
        self._exc = InjectedCrash
        self.seen: list[str] = []
        self.fired = False

    def __call__(self, point: str) -> None:
        self.seen.append(point)
        if self._crash_at is not None and point == self._crash_at:
            if self.seen.count(point) >= self._occurrence:
                self.fired = True
                raise self._exc(point)


def make_series(values, start=0, interval=5) -> LoadSeries:
    """Construct a series from raw values on a regular grid."""
    return LoadSeries.from_values(
        np.asarray(values, dtype=float), start=start, interval_minutes=interval
    )


def flat_day(level: float, day: int = 0, interval: int = 5) -> LoadSeries:
    """One day of constant load."""
    n = MINUTES_PER_DAY // interval
    return LoadSeries.from_values(
        np.full(n, level), start=day * MINUTES_PER_DAY, interval_minutes=interval
    )


def diurnal_series(
    n_days: int,
    base: float = 20.0,
    amplitude: float = 30.0,
    noise: float = 0.0,
    interval: int = 5,
    seed: int = 0,
    start_day: int = 0,
) -> LoadSeries:
    """A repeating diurnal (sinusoidal) load trace over ``n_days`` days."""
    rng = np.random.default_rng(seed)
    points_day = MINUTES_PER_DAY // interval
    n = n_days * points_day
    phase = 2 * np.pi * np.arange(n) / points_day
    values = base + amplitude * 0.5 * (1 + np.sin(phase - np.pi / 2))
    if noise:
        values = values + rng.normal(0, noise, n)
    values = np.clip(values, 0, 100)
    return LoadSeries.from_values(
        values, start=start_day * MINUTES_PER_DAY, interval_minutes=interval
    )


def weekly_profile_series(
    n_days: int,
    weekday_level: float = 60.0,
    weekend_level: float = 10.0,
    noise: float = 0.5,
    seed: int = 1,
) -> LoadSeries:
    """A trace whose level depends on the day of week (weekly pattern)."""
    rng = np.random.default_rng(seed)
    days = []
    for day in range(n_days):
        level = weekend_level if day % 7 in (5, 6) else weekday_level
        days.append(np.full(POINTS_PER_DAY, level))
    values = np.concatenate(days) + rng.normal(0, noise, n_days * POINTS_PER_DAY)
    return LoadSeries.from_values(np.clip(values, 0, 100))


def count_cache_writes(monkeypatch) -> Counter:
    """Count ``DocumentStore._persist`` disk writes, keyed by file name."""
    writes: Counter = Counter()
    real_persist = DocumentStore._persist

    def counting_persist(self):
        if self._path is not None:
            writes[self._path.name] += 1
        real_persist(self)

    monkeypatch.setattr(DocumentStore, "_persist", counting_persist)
    return writes
