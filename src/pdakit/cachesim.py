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
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import DecodeError, DimensionError, InvalidParameter, allocating, cells, index
from .pda import STAR, Pda, as_grid, rate


@dataclass(frozen=True, init=False, eq=False)
class FileLibrary:
    """N files of F packets each, all packets the same size.

    The bytes live once, in the read-only (N, F, B) uint8 array ``data``:
    data[i, j] is packet row j of file i+1 (files are 1-based in demands,
    0-based here).  The library owns them, so round results may hold them
    by reference.
    """

    data: np.ndarray

    def __init__(self, packets):
        """packets: an (N, F, B) uint8 array-like, copied."""
        try:
            packets = np.array(packets)
        except ValueError:  # nested sequences of unequal lengths
            raise InvalidParameter("library needs an (N, F, B) uint8 array, got ragged input") from None
        self._hold(packets)

    def _hold(self, packets: np.ndarray) -> "FileLibrary":
        """Take packets, an array no one else writes to, as ``data``."""
        if packets.ndim != 3 or packets.dtype != np.uint8 or 0 in packets.shape[:2]:
            raise InvalidParameter("library needs an (N, F, B) uint8 array with N, F >= 1")
        data = np.ascontiguousarray(packets)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        return self

    @classmethod
    def random(cls, n_files: int, f: int, packet_size: int = 64, seed: int = 0) -> "FileLibrary":
        """Seeded random content; content never affects correctness.

        Packet by packet the bytes equal ``rng.bytes(packet_size)`` drawn
        file-major, which is how every seed has always filled the library.
        """
        n_files, f = index(n_files, "n_files"), index(f, "f")
        packet_size = index(packet_size, "packet_size")
        if n_files < 1 or f < 1 or packet_size < 1:
            raise InvalidParameter("library dimensions must be positive")
        rng = np.random.default_rng(index(seed, "seed", start=0))
        with allocating(f"{n_files} files of {f} packets of {packet_size} bytes "
                        "do not fit in memory"):
            words = rng.integers(0, 2**32, size=(n_files * f, -(-packet_size // 4)), dtype=np.uint32)
        packets = words.astype("<u4", copy=False).view(np.uint8)[:, :packet_size]
        return cls.__new__(cls)._hold(packets.reshape(n_files, f, packet_size))

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

    def file_bytes(self, file: int) -> bytes:
        """File ``file`` (1..N), its F packets joined."""
        return self.data[index(file, "file", self.n_files + 1, 1) - 1].tobytes()


class Cache:
    """One user's cache: every file's packet at each star row of its column.

    ``data`` is the library's read-only (N, F, B) packets, by reference,
    and ``held`` the column's read-only star mask: packet (file, row) is
    cached when held[row] is True.  Nothing is copied.
    """

    __slots__ = ("data", "held")

    def __init__(self, lib: FileLibrary, held: np.ndarray):
        self.data = lib.data
        self.held = held

    def __len__(self) -> int:
        """The number of packets cached, N per star row."""
        return len(self.data) * int(np.count_nonzero(self.held))


@dataclass(frozen=True)
class DemandVector:
    """One file request per user, values in 1..N, each read with errors.index."""

    d: tuple[int, ...]

    def __post_init__(self):
        d = tuple(index(x, f"user {k}'s demand") for k, x in enumerate(self.d))
        object.__setattr__(self, "d", d)
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


@dataclass(frozen=True, init=False, eq=False)
class Transcript:
    """A round's broadcasts as one read-only slot table.

    Slot s's XOR is ``payloads[s-1]`` of the (S, B) payloads; its (file, row)
    contributors are ``files`` and ``rows`` at [starts[s-1], starts[s]).
    """

    payloads: np.ndarray
    files: np.ndarray
    rows: np.ndarray
    starts: np.ndarray

    def __init__(self, broadcasts: Sequence[Broadcast]):
        """The records' table; their slots must run 1..n in order, their payloads one size."""
        bcs = tuple(broadcasts)
        size = len(bcs[0].payload) if bcs else 0
        for n, b in enumerate(bcs):
            if index(b.slot, "slot") != n + 1 or len(b.payload) != size:
                raise InvalidParameter(f"broadcast {n} is slot {b.slot} with {len(b.payload)} "
                                       f"bytes, expected slot {n + 1} with {size}")
        payloads = np.frombuffer(b"".join(b.payload for b in bcs), dtype=np.uint8)
        pairs = cells([cell for b in bcs for cell in b.contributors], "contributor")
        starts = np.cumsum([0, *(len(b.contributors) for b in bcs)])
        self._hold(payloads.reshape(len(bcs), size), pairs[:, 0], pairs[:, 1], starts)

    @classmethod
    def _of_table(cls, *table: np.ndarray) -> "Transcript":
        """A transcript over a table built elsewhere: payloads, files, rows, starts."""
        return cls.__new__(cls)._hold(*table)

    def _hold(self, *table: np.ndarray) -> "Transcript":
        for name, array in zip(("payloads", "files", "rows", "starts"), table):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        return self

    @property
    def packets_sent(self) -> int:
        return len(self.payloads)

    @property
    def broadcasts(self) -> tuple[Broadcast, ...]:
        """One record per slot, built from the table on each request."""
        pairs, bounds = list(zip(self.files.tolist(), self.rows.tolist())), self.starts.tolist()
        return tuple(Broadcast(s, payload.tobytes(), tuple(pairs[bounds[s - 1]:bounds[s]]))
                     for s, payload in enumerate(self.payloads, start=1))


def _check_demand(d, users: int, n_files: int) -> DemandVector:
    d = d if isinstance(d, DemandVector) else DemandVector(d=tuple(d))
    if len(d) != users:
        raise InvalidParameter(f"demand has {len(d)} entries for {users} users")
    if any(x > n_files for x in d.d):
        raise InvalidParameter(f"demand {d.d} exceeds library of {n_files} files")
    return d


def _check_rows(grid: np.ndarray, lib: FileLibrary) -> None:
    if lib.f != len(grid):
        raise DimensionError(f"library has {lib.f} packets per file, array has {len(grid)} rows")


# Packet bytes one XOR pass gathers.  On the K=10, F=252 greedy round with
# 4 KiB packets (CPU time per round, best of 5, 12 runs), 32 KiB blocks ran
# 31-60% slower (median 48%), 2 MiB blocks 10-35% slower (median 16%), and
# 256 KiB blocks as fast.
_BLOCK = 512 << 10


def _xor_runs(acc: np.ndarray, packets: np.ndarray, src: np.ndarray, first: np.ndarray,
              count: np.ndarray) -> None:
    """acc[i] ^= packets[src[first[i] + r]] for every r < count[i]; count non-increasing.

    acc is walked in blocks of rows holding at most _BLOCK bytes.  Inside a
    block, pass r XORs into the prefix of rows with more than r packets to
    add, in place, so no pass gathers more than one block of packets.
    """
    per_block = max(1, _BLOCK // max(acc.shape[1], 1))
    for lo in range(0, len(acc), per_block):
        runs = count[lo:lo + per_block]
        prefix = np.searchsorted(-runs, -np.arange(runs.max(initial=0)))
        for r, m in enumerate(prefix.tolist()):
            acc[lo:lo + m] ^= packets.take(src[first[lo:lo + m] + r], axis=0)


def place(p, lib: FileLibrary) -> list[Cache]:
    """Each user's cache: every file's packet at the column's star rows."""
    grid = as_grid(p)
    _check_rows(grid, lib)
    held = grid == STAR
    held.setflags(write=False)
    return [Cache(lib, column) for column in held.T]


def deliver(p, lib: FileLibrary, d) -> Transcript:
    """One broadcast per slot s: XOR of W_{demand(k), j} over cells holding s.

    Contributors of a slot are its cells in row-major order.
    """
    grid = as_grid(p)
    _check_rows(grid, lib)
    d = _check_demand(d, grid.shape[1], lib.n_files)
    rows, cols = np.nonzero(grid != STAR)
    order = np.argsort(grid[rows, cols], kind="stable")
    rows, cols = rows[order], cols[order]
    slots = grid[rows, cols]
    files = np.asarray(d.d, dtype=np.int64)[cols]
    n_slots, size = int(grid.max(initial=0)), lib.packet_size
    starts = np.searchsorted(slots, np.arange(1, n_slots + 2))
    # Slots with the most contributors first, as the XOR kernel needs.
    count = np.diff(starts)
    by_count = np.argsort(-count, kind="stable")
    work = np.zeros((n_slots, size), dtype=np.uint8)
    packets = lib.data.reshape(lib.n_files * lib.f, size)
    _xor_runs(work, packets, (files - 1) * lib.f + rows, starts[by_count], count[by_count])
    payloads = np.empty_like(work)
    payloads[by_count] = work
    return Transcript._of_table(payloads, files, rows, starts)


def decode(k: int, cache: Cache, transcript: Transcript, d, p) -> bytes:
    """Reconstruct user k's requested file from its cache and the broadcasts.

    run_round's decoding kernel run for user k alone: each non-star row's
    slot payload is XORed with the slot's other contributing packets, all
    cached if the array is valid.  DecodeError names the first missing one
    (rows in column order, then contributors in slot order), a slot the
    transcript does not carry, or payloads that are not packet-sized.
    """
    grid = as_grid(p)
    if len(cache.held) != len(grid):
        raise DimensionError(f"cache has {len(cache.held)} packet rows per file, "
                             f"array has {len(grid)} rows")
    d = _check_demand(d, grid.shape[1], len(cache.data))
    k = index(k, "user")
    if not 0 <= k < len(d):
        raise InvalidParameter(f"user {k} is not one of the array's {len(d)} users")
    files, which, _ = _decode_all([k], cache.data, cache.held[:, None], transcript, [d[k]], grid)
    return files[which[0] - 1].tobytes()


def _decode_all(users, data: np.ndarray, held: np.ndarray, transcript: Transcript, want,
                grid: np.ndarray):
    """decode() for every users[u] at once: (files, which, all equal to the library).

    data is the library's (N, F, B) packets; column u of the (F, len(users))
    star mask held is user users[u]'s cache, and want[u] its file.  The
    index work runs once per (user, row) pair: each pair's contributors,
    its own packet and the missing-packet check.  When several users fail,
    the lowest one's first failure is raised.  files is a read-only
    (n, F, B) packet array and which[u] the 1-based file of it that user
    users[u] decoded.  The bytes are XORed once per slot that some pair
    reads, not once per pair: the slot's residue, its payload XOR every
    contributor it lists, is zero when the transcript is the array's.  A
    pair whose slot lists its own packet W(want, row) decodes the residue
    XOR W(want, row); one whose slot does not (a transcript not made for
    this array) decodes the residue.  The residues are one table, one row
    per slot read, made by one kernel call.  Only the rows that move are
    decoded: those of pairs whose slot's residue is not zero or does not
    list their own packet.  Every other pair decodes W(want, row) XOR 0,
    the library's own packet, so a valid round moves nothing and returns
    (data, want), copying no file.  Otherwise files is the demanded files
    with the moved rows patched, and which is 1..len(users).
    """
    n_files, f, size = data.shape
    want = np.asarray(want, dtype=np.int64)
    column = grid[:, users]
    need = column != STAR
    # One pair per decoded (user, row): users ascending, rows in column order.
    pu, prow = np.nonzero(need.T)
    slot = column[prow, pu]
    payloads, starts = transcript.payloads, transcript.starts
    n_slots = len(payloads)
    sent = slot <= n_slots
    lo = starts[np.minimum(slot - 1, n_slots)]
    count = starts[np.minimum(slot, n_slots)] - lo
    # One entry per (pair, contributor of its slot), contributors in slot order.
    pair = np.repeat(np.arange(len(slot)), count)
    at = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(len(pair))
    pf, pr = transcript.files[at], transcript.rows[at]
    # A pair's own packet is the first contributor equal to (want, row).
    mine = ((pf == np.repeat(want[pu], count)) & (pr == np.repeat(prow, count))).nonzero()[0]
    own = mine[np.diff(pair[mine], prepend=-1) != 0]
    other = np.ones(len(pair), dtype=bool)
    other[own] = False
    cached = ((pf >= 1) & (pf <= n_files) & (pr >= 0) & (pr < f)
              & held.ravel().take(np.clip(pr, 0, f - 1) * len(want) + np.repeat(pu, count)))
    missing = (other & ~cached).nonzero()[0]
    lacks = (~need & ~held).any(axis=0)
    if len(missing) or not sent.all() or lacks.any():
        _raise_first(users, lacks, sent, slot, pu, pair, missing, pf, pr)
    if len(slot) and payloads.shape[1] != size:
        raise DecodeError(f"the transcript's payloads have {payloads.shape[1]} bytes, packets {size}")

    # One run per slot that some pair reads: entries [starts[s-1], starts[s])
    # of the transcript's table, as flat packet indices, longest runs first
    # as the XOR kernel needs.
    read = np.bincount(slot, minlength=n_slots + 1).nonzero()[0]
    first = starts[read - 1]
    count = starts[read] - first
    order = np.argsort(-count, kind="stable")
    read, first, count = read[order], first[order], count[order]
    res = payloads.take(read - 1, axis=0)
    packets = data.reshape(n_files * f, size)
    _xor_runs(res, packets, (transcript.files - 1) * f + transcript.rows, first, count)
    if len(own) == len(slot) and not res.max(initial=0):
        return data, want, True
    position = np.zeros(n_slots + 1, dtype=np.int64)
    position[read] = np.arange(len(read))
    run = position[slot]
    lists_own = np.zeros(len(slot), dtype=np.int64)
    lists_own[pair[own]] = 1
    move = (res.any(axis=1)[run] | (lists_own == 0)).nonzero()[0]
    move = move[np.argsort(-lists_own[move], kind="stable")]
    mine = (want[pu[move]] - 1) * f + prow[move]
    # Each moving pair's residue, XORed with its own packet W(want, row)
    # where the slot lists it: what the pair decoded.
    got = res.take(run[move], axis=0)
    _xor_runs(got, packets, mine, np.arange(len(got)), lists_own[move])
    files = data.take(want - 1, axis=0)
    files.reshape(len(want) * f, size)[pu[move] * f + prow[move]] = got
    files.setflags(write=False)
    return files, np.arange(1, len(want) + 1), np.array_equal(got, packets[mine])


def _raise_first(users, lacks, sent, slot, pu, pair, missing, pf, pr):
    """Raise the DecodeError of the lowest failing user.

    A user's star rows are checked first, then its rows in column order:
    a row fails when its slot was not sent or a contributor is missing.
    """
    bad = ~sent
    bad[pair[missing]] = True
    star_user = int(lacks.argmax()) if lacks.any() else len(lacks)
    p = int(bad.argmax()) if bad.any() else None
    if p is None or star_user <= pu[p]:
        k = users[star_user]
        raise DecodeError(f"user {k}'s cache lacks star rows of column {k}")
    k, s = users[pu[p]], int(slot[p])
    if not sent[p]:
        raise DecodeError(f"user {k} needs slot {s}, but the transcript has no broadcast for it")
    i = missing[np.searchsorted(pair[missing], p)]
    raise DecodeError(f"user {k} lacks packet {(int(pf[i]), int(pr[i]))} needed to decode slot {s}")


class _FileRows(Sequence):
    """A round's decoded files, each one bytes per access."""

    __slots__ = ("_result",)

    def __init__(self, result: "RoundResult"):
        self._result = result

    def __len__(self) -> int:
        return len(self._result._want)

    def __getitem__(self, k):
        users = range(len(self))[k]
        if isinstance(k, slice):
            return tuple(map(self._result._file, users))
        return self._result._file(users)

    def __iter__(self):
        return map(self._result._file, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self):
        _, f, size = self._result._data.shape
        return f"<{len(self)} decoded files of {f * size} bytes>"


@dataclass(frozen=True, init=False, eq=False)
class RoundResult:
    """A round's transcript and every user's decoded file.

    A result holds read-only (n, F, B) packets and the 1-based file of
    them that each user reads, as _decode_all returns them: for a valid
    round the library's packets, by reference, and the demand, so it
    copies no file.  ``decoded[k]`` builds user k's bytes alone on each
    access.
    """

    transcript: Transcript
    all_ok: bool

    def __init__(self, transcript: Transcript, decoded: Sequence[bytes], all_ok: bool):
        """decoded: one file per user, all of one length; joined once, as files 1..K."""
        rows = list(decoded)
        size = len(rows[0]) if rows else 0
        for k, row in enumerate(rows):
            if len(row) != size:
                raise InvalidParameter(f"user {k}'s file has {len(row)} bytes, user 0's {size}")
        joined = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), 1, size)
        self._hold(transcript, joined, range(1, len(rows) + 1), all_ok)

    @classmethod
    def _of_files(cls, transcript: Transcript, data: np.ndarray, want, all_ok: bool) -> "RoundResult":
        """A result over read-only packets data, user k reading file want[k] of them."""
        return cls.__new__(cls)._hold(transcript, data, want, all_ok)

    def _hold(self, transcript, data, want, all_ok) -> "RoundResult":
        for name, value in (("transcript", transcript), ("all_ok", all_ok), ("_data", data),
                            ("_want", np.asarray(want, dtype=np.int64))):
            object.__setattr__(self, name, value)
        return self

    @property
    def decoded(self) -> Sequence[bytes]:
        """decoded[k]: user k's file as bytes, built on each access."""
        return _FileRows(self)

    def _file(self, k: int) -> bytes:
        return self._data[self._want[k] - 1].tobytes()


def run_round(p, lib: FileLibrary, d) -> RoundResult:
    """place + deliver + decode for every user, checked bit-exactly."""
    grid = as_grid(p)
    users = grid.shape[1]
    d = _check_demand(d, users, lib.n_files)
    transcript = deliver(grid, lib, d)
    files, which, all_ok = _decode_all(range(users), lib.data, grid == STAR, transcript, d.d, grid)
    return RoundResult._of_files(transcript, files, which, all_ok)


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


def measure(p, trials: int = 20, seed: int = 0, n_files: Optional[int] = None,
            packet_size: int = 64) -> MeasureReport:
    """Sample random demands and run full rounds; report loads exactly.

    delivery_rate = S/F, uncoded_rate = K(1 - Z/F), both exact, from pda.rate.
    n_files defaults to K+1 so every demand pattern is expressible.
    """
    if not isinstance(p, Pda):
        p = Pda.from_grid(p)
    trials = index(trials, "trials")
    if trials < 0:
        raise InvalidParameter(f"trials must be >= 0, got {trials}")
    n = p.k + 1 if n_files is None else index(n_files, "n_files")
    lib = FileLibrary.random(n, p.f, packet_size=packet_size, seed=seed)
    with allocating(f"{trials} trials of {p.k} demands do not fit in memory"):
        demands = np.random.default_rng(seed).integers(1, n + 1, size=(trials, p.k)).tolist()
    loads = rate(p)
    trace: list[TraceRow] = []
    for trial, demand in enumerate(demands):
        result = run_round(p, lib, demand)
        for k, want in enumerate(demand):
            ok = result.all_ok or result.decoded[k] == lib.file_bytes(want)
            trace.append(TraceRow(trial=trial, user=k, demand=want, decoded_ok=ok))
    return MeasureReport(
        delivery_rate=loads.delivery_rate,
        uncoded_rate=p.k * (1 - loads.memory_ratio),
        all_decoded=all(row.decoded_ok for row in trace),
        trace=tuple(trace),
    )


def transcript_to_json(t: Transcript, meta: Optional[dict] = None) -> str:
    """Slot, hex payload, and contributor list per broadcast."""
    broadcasts = [{"slot": b.slot, "payload": b.payload.hex(),
                   "contributors": [[file, row] for file, row in b.contributors]}
                  for b in t.broadcasts]
    doc = {"broadcasts": broadcasts, "packets_sent": t.packets_sent}
    if meta is not None:
        doc["meta"] = meta
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_trace_csv(path, rows: Sequence[TraceRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "user", "demand", "decoded_ok"])
        for r in rows:
            writer.writerow([r.trial, r.user, r.demand, int(r.decoded_ok)])
