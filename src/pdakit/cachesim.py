"""End-to-end coded caching rounds driven by an array.

Splits every file into F equal packets, fills each user's cache from the
star cells of its column, broadcasts one XOR per color slot, and has each
user decode its requested file by cancelling cached packets out of the
broadcasts.  A valid array always decodes bit-exactly; a broken one
surfaces as DecodeError.  This is the operational check that a generated
array actually serves a caching system.

Files are numbered 1..N (demand values), users and packet rows 0-based,
slots 1..S (the array's colors).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DecodeError, DimensionError, InvalidParameter
from .pda import STAR, Pda, as_grid

Cache = dict[tuple[int, int], bytes]  # (file, row) -> packet


def _grid(p) -> np.ndarray:
    """The array's grid, unvalidated: broken arrays must reach decode."""
    return p.grid if isinstance(p, Pda) else as_grid(p)


@dataclass(frozen=True)
class FileLibrary:
    """N files of F packets each, all packets the same size.

    packets[i][j] is packet row j of file i+1 (files are 1-based in
    demands, 0-based in this tuple).
    """

    packets: tuple[tuple[bytes, ...], ...]

    def __post_init__(self):
        if not self.packets or not self.packets[0]:
            raise InvalidParameter("library needs at least one file and one packet")
        b = len(self.packets[0][0])
        for i, file_packets in enumerate(self.packets):
            if len(file_packets) != len(self.packets[0]):
                raise InvalidParameter(f"file {i + 1} has a different packet count")
            for j, pkt in enumerate(file_packets):
                if len(pkt) != b:
                    raise InvalidParameter(
                        f"packet ({i + 1}, {j}) has {len(pkt)} bytes, expected {b}"
                    )

    @classmethod
    def random(cls, n_files: int, f: int, packet_size: int = 64, seed: int = 0) -> "FileLibrary":
        """Seeded random content; content never affects correctness."""
        if n_files < 1 or f < 1 or packet_size < 1:
            raise InvalidParameter("library dimensions must be positive")
        rng = np.random.default_rng(seed)
        return cls(
            packets=tuple(
                tuple(rng.bytes(packet_size) for _ in range(f))
                for _ in range(n_files)
            )
        )

    @property
    def n_files(self) -> int:
        return len(self.packets)

    @property
    def f(self) -> int:
        return len(self.packets[0])

    @property
    def packet_size(self) -> int:
        return len(self.packets[0][0])

    def packet(self, file: int, row: int) -> bytes:
        return self.packets[file - 1][row]

    def file_bytes(self, file: int) -> bytes:
        return b"".join(self.packets[file - 1])


@dataclass(frozen=True)
class DemandVector:
    """One file request per user, values in 1..N."""

    d: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(int(x) for x in self.d))
        if any(x < 1 for x in self.d):
            raise InvalidParameter(f"demand values must be >= 1, got {self.d}")

    def __len__(self):
        return len(self.d)

    def __getitem__(self, k):
        return self.d[k]


@dataclass(frozen=True)
class Broadcast:
    """One coded signal: XOR of W_{demand(k), row} over the slot's cells."""

    slot: int
    payload: bytes
    contributors: tuple[tuple[int, int], ...]  # (file, row) per cell


@dataclass(frozen=True)
class Transcript:
    broadcasts: tuple[Broadcast, ...]

    @property
    def packets_sent(self) -> int:
        return len(self.broadcasts)

    def by_slot(self, slot: int) -> Broadcast:
        return self.broadcasts[slot - 1]


def _check_demand(d, users: int, lib: FileLibrary) -> DemandVector:
    if not isinstance(d, DemandVector):
        d = DemandVector(d=tuple(d))
    if len(d) != users:
        raise InvalidParameter(f"demand has {len(d)} entries for {users} users")
    if any(x > lib.n_files for x in d.d):
        raise InvalidParameter(f"demand {d.d} exceeds library of {lib.n_files} files")
    return d


def _xor(a: bytes, b: bytes) -> bytes:
    return (
        np.frombuffer(a, dtype=np.uint8) ^ np.frombuffer(b, dtype=np.uint8)
    ).tobytes()


def place(p, lib: FileLibrary) -> list[Cache]:
    """Fill each user's cache: every file's packet at the column's star rows."""
    grid = _grid(p)
    if lib.f != len(grid):
        raise DimensionError(f"library has {lib.f} packets per file, array has {len(grid)} rows")
    caches: list[Cache] = []
    for k in range(grid.shape[1]):
        cache: Cache = {}
        for j in np.nonzero(grid[:, k] == STAR)[0].tolist():
            for file in range(1, lib.n_files + 1):
                cache[(file, j)] = lib.packet(file, j)
        caches.append(cache)
    return caches


def deliver(p, lib: FileLibrary, d) -> Transcript:
    """One broadcast per slot s: XOR of W_{demand(k), j} over cells holding s."""
    grid = _grid(p)
    if lib.f != len(grid):
        raise DimensionError(f"library has {lib.f} packets per file, array has {len(grid)} rows")
    d = _check_demand(d, grid.shape[1], lib)
    cells_by_slot: dict[int, list[tuple[int, int]]] = {}
    for (j, k), s in np.ndenumerate(grid):
        if s != STAR:
            cells_by_slot.setdefault(int(s), []).append((j, k))
    broadcasts = []
    for s in range(1, int(grid.max(initial=0)) + 1):
        payload = bytes(lib.packet_size)
        contributors = []
        for j, k in cells_by_slot.get(s, ()):
            payload = _xor(payload, lib.packet(d[k], j))
            contributors.append((d[k], j))
        broadcasts.append(
            Broadcast(slot=s, payload=payload, contributors=tuple(contributors))
        )
    return Transcript(broadcasts=tuple(broadcasts))


def decode(k: int, cache: Cache, transcript: Transcript, d, p) -> bytes:
    """Reconstruct user k's requested file from its cache and the broadcasts.

    For each non-star row of the user's column, the matching slot's
    payload is XORed with every other contributing packet, all of which a
    valid array guarantees are cached.  A missing one means the array is
    broken and raises DecodeError.
    """
    grid = _grid(p)
    if not isinstance(d, DemandVector):
        d = DemandVector(d=tuple(d))
    want = d[k]
    rows: list[bytes] = []
    for j, s in enumerate(grid[:, k].tolist()):
        if s == STAR:
            rows.append(cache[(want, j)])
            continue
        bc = transcript.by_slot(s)
        payload = bc.payload
        own = (want, j)
        remaining = list(bc.contributors)
        remaining.remove(own)
        for other in remaining:
            if other not in cache:
                raise DecodeError(
                    f"user {k} lacks packet {other} needed to decode slot {s}"
                )
            payload = _xor(payload, cache[other])
        rows.append(payload)
    return b"".join(rows)


@dataclass(frozen=True)
class RoundResult:
    transcript: Transcript
    decoded: tuple[bytes, ...]
    all_ok: bool


def run_round(p, lib: FileLibrary, d) -> RoundResult:
    """place + deliver + decode for every user, checked bit-exactly."""
    grid = _grid(p)
    users = grid.shape[1]
    d = _check_demand(d, users, lib)
    caches = place(grid, lib)
    transcript = deliver(grid, lib, d)
    decoded = tuple(decode(k, caches[k], transcript, d, grid) for k in range(users))
    all_ok = all(decoded[k] == lib.file_bytes(d[k]) for k in range(users))
    return RoundResult(transcript=transcript, decoded=decoded, all_ok=all_ok)


@dataclass(frozen=True)
class TraceRow:
    trial: int
    user: int
    demand: int
    decoded_ok: bool


@dataclass(frozen=True)
class MeasureReport:
    delivery_rate: Fraction
    uncoded_rate: Fraction
    all_decoded: bool
    trace: tuple[TraceRow, ...]


def measure(
    p,
    trials: int = 20,
    seed: int = 0,
    n_files: Optional[int] = None,
    packet_size: int = 64,
) -> MeasureReport:
    """Sample random demands and run full rounds; report loads exactly.

    delivery_rate = S/F, uncoded_rate = K(1 - Z/F), both exact rationals.
    n_files defaults to K+1 so every demand pattern is expressible.
    """
    if not isinstance(p, Pda):
        p = Pda.from_grid(p)
    if trials < 0:
        raise InvalidParameter(f"trials must be >= 0, got {trials}")
    n = p.k + 1 if n_files is None else n_files
    lib = FileLibrary.random(n, p.f, packet_size=packet_size, seed=seed)
    rng = np.random.default_rng(seed)
    trace: list[TraceRow] = []
    all_ok = True
    for trial in range(trials):
        demand = tuple(int(x) for x in rng.integers(1, n + 1, size=p.k))
        result = run_round(p, lib, demand)
        for k in range(p.k):
            ok = result.decoded[k] == lib.file_bytes(demand[k])
            all_ok = all_ok and ok
            trace.append(TraceRow(trial=trial, user=k, demand=demand[k], decoded_ok=ok))
    return MeasureReport(
        delivery_rate=Fraction(p.s, p.f),
        uncoded_rate=Fraction(p.k) * (1 - Fraction(p.z, p.f)),
        all_decoded=all_ok,
        trace=tuple(trace),
    )


def transcript_to_json(t: Transcript, meta: Optional[dict] = None) -> str:
    """Slot, hex payload, and contributor list per broadcast."""
    doc = {
        "broadcasts": [
            {
                "slot": b.slot,
                "payload": b.payload.hex(),
                "contributors": [[file, row] for file, row in b.contributors],
            }
            for b in t.broadcasts
        ],
        "packets_sent": t.packets_sent,
    }
    if meta is not None:
        doc["meta"] = meta
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_trace_csv(path, rows: Sequence[TraceRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "user", "demand", "decoded_ok"])
        for r in rows:
            writer.writerow([r.trial, r.user, r.demand, int(r.decoded_ok)])
