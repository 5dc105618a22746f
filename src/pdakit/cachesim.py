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
import itertools
import json
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DecodeError, DimensionError, InvalidParameter
from .pda import STAR, Pda, as_grid


def _grid(p) -> np.ndarray:
    """The array's grid, unvalidated: broken arrays must reach decode."""
    return p.grid if isinstance(p, Pda) else as_grid(p)


@dataclass(frozen=True, init=False, eq=False)
class FileLibrary:
    """N files of F packets each, all packets the same size.

    The bytes live once, in the read-only (N, F, B) uint8 array ``data``:
    data[i, j] is packet row j of file i+1 (files are 1-based in demands,
    0-based here).
    """

    data: np.ndarray

    def __init__(self, packets):
        """packets: an (N, F, B) uint8 array, or N sequences of F equal-size packets."""
        if not isinstance(packets, np.ndarray):
            packets = _stack(packets)
        if packets.ndim != 3 or packets.dtype != np.uint8 or 0 in packets.shape[:2]:
            raise InvalidParameter("library needs an (N, F, B) uint8 array with N, F >= 1")
        data = np.ascontiguousarray(packets).view()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @classmethod
    def random(cls, n_files: int, f: int, packet_size: int = 64, seed: int = 0) -> "FileLibrary":
        """Seeded random content; content never affects correctness.

        Packet by packet the bytes equal ``rng.bytes(packet_size)`` drawn
        file-major, which is how every seed has always filled the library.
        """
        if n_files < 1 or f < 1 or packet_size < 1:
            raise InvalidParameter("library dimensions must be positive")
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2**32, size=(n_files * f, -(-packet_size // 4)), dtype=np.uint32)
        packets = words.astype("<u4", copy=False).view(np.uint8)[:, :packet_size]
        return cls(packets.reshape(n_files, f, packet_size))

    @property
    def n_files(self) -> int:
        return self.data.shape[0]

    @property
    def f(self) -> int:
        return self.data.shape[1]

    @property
    def packet_size(self) -> int:
        return self.data.shape[2]

    @property
    def packets(self) -> tuple[tuple[memoryview, ...], ...]:
        """packets[i][j]: packet row j of file i+1, a read-only view into ``data``."""
        n, f, b = self.data.shape
        flat = memoryview(self.data.reshape(-1))
        return tuple(
            tuple(flat[(i * f + j) * b:(i * f + j + 1) * b] for j in range(f)) for i in range(n)
        )

    def packet(self, file: int, row: int) -> bytes:
        return self.data[file - 1, row].tobytes()

    def file_bytes(self, file: int) -> bytes:
        return self.data[file - 1].tobytes()


def _stack(packets) -> np.ndarray:
    files = [list(file_packets) for file_packets in packets]
    if not files or not files[0]:
        raise InvalidParameter("library needs at least one file and one packet")
    b = len(files[0][0])
    for i, file_packets in enumerate(files):
        if len(file_packets) != len(files[0]):
            raise InvalidParameter(f"file {i + 1} has a different packet count")
        for j, pkt in enumerate(file_packets):
            if len(pkt) != b:
                raise InvalidParameter(
                    f"packet ({i + 1}, {j}) has {len(pkt)} bytes, expected {b}"
                )
    joined = b"".join(itertools.chain.from_iterable(files))
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(files), len(files[0]), b)


class Cache(Mapping):
    """One user's cache: packet (file, row) of every file at each held row.

    A read-only view of the library's ``data``; nothing is copied.
    ``held`` is the user's column star mask, so whether a packet is cached
    is a mask test.  Iteration goes row by row, files ascending.
    """

    __slots__ = ("data", "held")

    def __init__(self, lib: FileLibrary, held: np.ndarray):
        self.data = lib.data
        self.held = held

    def __contains__(self, key) -> bool:
        try:
            file, row = map(operator.index, key)
        except (TypeError, ValueError):
            return False
        return 1 <= file <= len(self.data) and 0 <= row < len(self.held) and bool(self.held[row])

    def __getitem__(self, key) -> bytes:
        if key not in self:
            raise KeyError(key)
        file, row = key
        return self.data[file - 1, row].tobytes()

    def __iter__(self):
        files = range(1, len(self.data) + 1)
        return ((file, row) for row in self.held.nonzero()[0].tolist() for file in files)

    def __len__(self) -> int:
        return len(self.data) * int(np.count_nonzero(self.held))


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

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The broadcasts as arrays, built once per transcript.

        Payloads (S, B); contributor files and rows in slot order; starts
        (S+1,), with slot s's contributors at [starts[s-1], starts[s]).
        """
        bcs = self.broadcasts
        size = len(bcs[0].payload) if bcs else 0
        payloads = np.frombuffer(b"".join(b.payload for b in bcs), dtype=np.uint8)
        cells = np.fromiter(
            itertools.chain.from_iterable(itertools.chain.from_iterable(b.contributors for b in bcs)),
            dtype=np.int64,
        ).reshape(-1, 2)
        sizes = np.fromiter((len(b.contributors) for b in bcs), dtype=np.int64, count=len(bcs))
        starts = np.concatenate(([0], np.cumsum(sizes)))
        return payloads.reshape(len(bcs), size), cells[:, 0], cells[:, 1], starts


def _check_demand(d, users: int, lib: FileLibrary) -> DemandVector:
    if not isinstance(d, DemandVector):
        d = DemandVector(d=tuple(d))
    if len(d) != users:
        raise InvalidParameter(f"demand has {len(d)} entries for {users} users")
    if any(x > lib.n_files for x in d.d):
        raise InvalidParameter(f"demand {d.d} exceeds library of {lib.n_files} files")
    return d


def _check_rows(grid: np.ndarray, lib: FileLibrary) -> None:
    if lib.f != len(grid):
        raise DimensionError(f"library has {lib.f} packets per file, array has {len(grid)} rows")


def _xor_in(acc: np.ndarray, data: np.ndarray, group: np.ndarray, files: np.ndarray,
            rows: np.ndarray) -> None:
    """acc[group[i]] ^= data[files[i] - 1, rows[i]] for every i; group ascending.

    One pass per position inside a group.  Groups are visited largest
    first, so pass r XORs into a prefix of a reordered copy of acc, in
    place, and no pass gathers more than len(acc) packets.
    """
    size = np.bincount(group, minlength=len(acc))
    order = np.argsort(-size, kind="stable")
    where = np.empty_like(order)
    where[order] = np.arange(len(order))
    rank = np.arange(len(group)) - np.searchsorted(group, group)
    items = np.argsort(rank * len(acc) + where[group])
    work = acc[order]
    start = 0
    for n in np.bincount(rank).tolist():
        at = items[start:start + n]
        work[:n] ^= data[files[at] - 1, rows[at]]
        start += n
    acc[order] = work


def place(p, lib: FileLibrary) -> list[Cache]:
    """Each user's cache: every file's packet at the column's star rows."""
    grid = _grid(p)
    _check_rows(grid, lib)
    held = grid == STAR
    held.setflags(write=False)
    return [Cache(lib, column) for column in held.T]


def deliver(p, lib: FileLibrary, d) -> Transcript:
    """One broadcast per slot s: XOR of W_{demand(k), j} over cells holding s.

    Contributors of a slot are its cells in row-major order.
    """
    grid = _grid(p)
    _check_rows(grid, lib)
    d = _check_demand(d, grid.shape[1], lib)
    rows, cols = np.nonzero(grid != STAR)
    order = np.argsort(grid[rows, cols], kind="stable")
    rows, cols = rows[order], cols[order]
    slots = grid[rows, cols]
    files = np.asarray(d.d, dtype=np.int64)[cols]
    n_slots = int(grid.max(initial=0))
    payloads = np.zeros((n_slots, lib.packet_size), dtype=np.uint8)
    _xor_in(payloads, lib.data, slots - 1, files, rows)
    contributors = list(zip(files.tolist(), rows.tolist()))
    bounds = np.searchsorted(slots, np.arange(1, n_slots + 2)).tolist()
    return Transcript(
        broadcasts=tuple(
            Broadcast(
                slot=s,
                payload=payloads[s - 1].tobytes(),
                contributors=tuple(contributors[bounds[s - 1]:bounds[s]]),
            )
            for s in range(1, n_slots + 1)
        )
    )


def decode(k: int, cache: Cache, transcript: Transcript, d, p) -> bytes:
    """Reconstruct user k's requested file from its cache and the broadcasts.

    For each non-star row of the user's column, the matching slot's
    payload is XORed with every other contributing packet, all of which a
    valid array guarantees are cached.  A missing one means the array is
    broken and raises DecodeError naming the first one: rows in column
    order, then contributors in slot order.
    """
    grid = _grid(p)
    if not isinstance(d, DemandVector):
        d = DemandVector(d=tuple(d))
    want = d[k]
    column = grid[:, k]
    star = column == STAR
    if not cache.held[star].all():
        raise DecodeError(f"user {k}'s cache lacks star rows of column {k}")
    out = np.empty((len(column), cache.data.shape[2]), dtype=np.uint8)
    out[star] = cache.data[want - 1, star]
    rows = (~star).nonzero()[0]
    if not len(rows):
        return out.tobytes()
    slots = column[rows]
    payloads, files, contrib_rows, starts = transcript._table
    # One pair per (decoded row, contributor of its slot), rows in column
    # order and contributors in slot order; only indices, no packets.
    lo, size = starts[slots - 1], starts[slots] - starts[slots - 1]
    pair_row = np.repeat(np.arange(len(rows)), size)
    at = np.repeat(lo - (np.cumsum(size) - size), size) + np.arange(len(pair_row))
    pf, pr = files[at], contrib_rows[at]
    # The user's own packet is the first contributor equal to (want, row).
    mine = ((pf == want) & (pr == rows[pair_row])).nonzero()[0]
    mine_row = pair_row[mine]
    first = np.ones(len(mine), dtype=bool)
    first[1:] = mine_row[1:] != mine_row[:-1]
    other = np.ones(len(at), dtype=bool)
    other[mine[first]] = False
    held = cache.held[pr] & (pf >= 1) & (pf <= len(cache.data))
    missing = (other & ~held).nonzero()[0]
    if len(missing):
        i = missing[0]
        raise DecodeError(
            f"user {k} lacks packet {(int(pf[i]), int(pr[i]))} "
            f"needed to decode slot {int(slots[pair_row[i]])}"
        )
    decoded = payloads[slots - 1]
    others = other.nonzero()[0]
    _xor_in(decoded, cache.data, pair_row[others], pf[others], pr[others])
    out[rows] = decoded
    return out.tobytes()


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
    demands = np.random.default_rng(seed).integers(1, n + 1, size=(trials, p.k)).tolist()
    trace: list[TraceRow] = []
    for trial, demand in enumerate(demands):
        result = run_round(p, lib, demand)
        # run_round has compared every user; only a failed round needs it per user.
        for k, want in enumerate(demand):
            ok = result.all_ok or result.decoded[k] == lib.file_bytes(want)
            trace.append(TraceRow(trial=trial, user=k, demand=want, decoded_ok=ok))
    return MeasureReport(
        delivery_rate=Fraction(p.s, p.f),
        uncoded_rate=Fraction(p.k) * (1 - Fraction(p.z, p.f)),
        all_decoded=all(row.decoded_ok for row in trace),
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
