import hashlib
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

from pdakit import cachesim
from pdakit.cachesim import (
    Broadcast,
    DemandVector,
    FileLibrary,
    Transcript,
    decode,
    deliver,
    measure,
    place,
    run_round,
    transcript_to_json,
    write_trace_csv,
)
from pdakit.errors import DecodeError, DimensionError, InvalidParameter
from pdakit.graph import BipartiteColoredGraph, graph_to_pda, greedy_strong_color
from pdakit.pda import STAR, Pda, construct_mn_pda
from pdakit.seqcodec import default_star_pattern, placement_to_adjacency

import oracles

S = STAR

CROSS = Pda.from_grid([[S, 1], [1, S]])


def small_lib(p, n_files=None, seed=1):
    return FileLibrary.random(n_files or p.k + 1, p.f, packet_size=8, seed=seed)


def decode_all(users, data, held, transcript, want, grid):
    """cachesim._decode_all's moves assembled into the (K, F·B) files: (out, ok)."""
    moved, got, ok = cachesim._decode_all(users, data, held, transcript, want, grid)
    return cachesim._assemble(data, want, moved, got), ok


class TestLibrary:
    def test_random_is_seeded(self):
        a = FileLibrary.random(2, 3, packet_size=16, seed=4)
        b = FileLibrary.random(2, 3, packet_size=16, seed=4)
        c = FileLibrary.random(2, 3, packet_size=16, seed=5)
        assert a.packets == b.packets
        assert a.packets != c.packets

    def test_file_is_its_packets_joined(self):
        lib = FileLibrary.random(2, 3, packet_size=4, seed=0)
        assert lib.file_bytes(2) == b"".join(lib.packets[1])
        assert len(lib.file_bytes(1)) == 12

    @pytest.mark.parametrize("shape, digest", [
        ((1, 1, 1, 0), "d2e2adf7177b7a8afddbc12d1634cf23ea1a71020f6a1308070a16400fb68fde"),
        ((2, 3, 1, 4), "0426bdd91f4c31be070cba09a864e7d6f910960d77c53c7d8d0fca81c56cf702"),
        ((3, 5, 3, 1), "84d386ba7188643b9ac093b9bd5b71d1b1b006afff755b5000af20748228ba3b"),
        ((2, 7, 5, 9), "d3681824247509fa523f95d57f7f8c37063cb5c72fd4e3053d9e236f77ef7576"),
        ((4, 4, 6, 2), "8974d84ec775443deb7a9bc5ac1f58d2e04e22d4031ee0781a80bd8c6f3e2ac0"),
        ((3, 4, 64, 7), "511d74f3f722a340797b11cb74ce7c4f79cecb8c606910694d025c77d142893c"),
        ((2, 2, 4097, 5), "ff8cc96c60576aa75a9b62e6a9762e32e7a30840218c6459aac7ff7df2044f4a"),
    ])
    def test_random_bytes_are_pinned(self, shape, digest):
        # (files, packets per file, packet size, seed); the digests are of
        # the files' bytes drawn one packet at a time by rng.bytes
        n, f, size, seed = shape
        lib = FileLibrary.random(n, f, packet_size=size, seed=seed)
        joined = b"".join(lib.file_bytes(i + 1) for i in range(n))
        assert hashlib.sha256(joined).hexdigest() == digest

    def test_one_read_only_array_behind_every_view(self):
        lib = FileLibrary.random(3, 4, packet_size=5, seed=0)
        assert lib.data.shape == (3, 4, 5) and not lib.data.flags.writeable
        view = lib.packets[2][1]
        assert view == lib.packet(3, 1) and view.readonly
        assert np.shares_memory(np.frombuffer(view, dtype=np.uint8), lib.data)
        assert FileLibrary(lib.packets).packets == lib.packets

    def test_the_library_owns_its_bytes(self):
        # Results hold the library by reference, so a write to the array
        # it was built from must reach neither the library nor a result.
        a = np.zeros((3, 2, 4), dtype=np.uint8)
        lib = FileLibrary(a)
        result = run_round(CROSS, lib, (1, 3))
        a[0, 0, 0] = 7
        a[2] = 9
        assert not lib.data.any() and a.flags.writeable
        assert result.decoded == (bytes(8), bytes(8)) and not result.files.any()

    def test_random_hands_over_its_own_array(self):
        n, f, size = 4, 64, 4096
        FileLibrary.random(1, 1, packet_size=4)   # the generator's first-use set-up
        tracemalloc.start()
        try:
            lib = FileLibrary.random(n, f, packet_size=size, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lib.data.shape == (n, f, size)
        # One N·F·B array; a second copy would double the peak.
        assert peak < 1.5 * n * f * size

    def test_unequal_packet_rejected(self):
        with pytest.raises(InvalidParameter):
            FileLibrary(packets=(((b"aa", b"b"),)))

    def test_demand_range_checked(self):
        with pytest.raises(InvalidParameter):
            DemandVector(d=(1, 0))

    @pytest.mark.parametrize("demand, user, shown", [
        ((1.5, 2, 3, 4), 0, "1.5"),             # int() would serve file 1
        ((1, np.float64(2.9), 3, 4), 1, "np.float64(2.9)"),   # int() would serve file 2
        ((1, 2, "2", 4), 2, "'2'"),             # int() would parse it
        ((1, True, 3, 4), 1, "True"),           # operator.index would serve file 1
    ])
    def test_non_integer_demands_are_rejected(self, demand, user, shown):
        p = construct_mn_pda(4, 2)
        lib = FileLibrary.random(4, p.f, packet_size=8, seed=1)
        message = f"user {user}'s demand {shown} is not an integer"
        with pytest.raises(InvalidParameter, match=re.escape(message)):
            run_round(p, lib, demand)
        with pytest.raises(InvalidParameter, match=re.escape(message)):
            DemandVector(d=demand)

    def test_packet_lookups_are_checked(self):
        lib = FileLibrary.random(3, 2, packet_size=4, seed=0)
        for file in range(1, 4):
            assert lib.file_bytes(file) == lib.data[file - 1].tobytes()
            for row in range(2):
                assert lib.packet(file, row) == lib.data[file - 1, row].tobytes()
        assert lib.packet(np.int64(3), np.uint8(1)) == lib.data[2, 1].tobytes()
        for file, row, message in [
            (0, 0, "file 0 is not in 1..3"),
            (-1, 0, "file -1 is not in 1..3"),
            (4, 0, "file 4 is not in 1..3"),
            (1, -1, "row -1 is not in 0..1"),
            (1, 2, "row 2 is not in 0..1"),
            (1.5, 0, "file 1.5 is not an integer"),
            (1, 1.5, "row 1.5 is not an integer"),
            (True, 0, "file True is not an integer"),
            (1, True, "row True is not an integer"),
        ]:
            with pytest.raises(InvalidParameter, match=re.escape(message)):
                lib.packet(file, row)
            if row == 0:
                with pytest.raises(InvalidParameter, match=re.escape(message)):
                    lib.file_bytes(file)

    def test_numpy_integer_demands_are_accepted(self):
        p = construct_mn_pda(4, 2)
        lib = FileLibrary.random(4, p.f, packet_size=8, seed=1)
        demand = (np.int64(1), np.uint8(2), 3, np.int32(4))
        assert DemandVector(d=demand).d == (1, 2, 3, 4)
        assert all(type(x) is int for x in DemandVector(d=demand).d)
        assert run_round(p, lib, demand).files.tobytes() == run_round(p, lib, (1, 2, 3, 4)).files.tobytes()


class TestPlace:
    def test_cross_pattern_caches(self):
        lib = small_lib(CROSS, n_files=2)
        caches = place(CROSS, lib)
        assert [cache.held.tolist() for cache in caches] == [[True, False], [False, True]]
        assert caches[0].data[1, 0].tobytes() == lib.packet(2, 0)

    def test_no_stars_no_cache(self):
        p = Pda.from_grid([[1, 2], [3, 4]])
        caches = place(p, small_lib(p))
        assert all(not c for c in caches)

    def test_full_stars_full_cache(self):
        p = Pda.from_grid([[S], [S]])
        lib = small_lib(p, n_files=3)
        caches = place(p, lib)
        assert len(caches[0]) == 3 * 2

    def test_cache_size_is_files_times_stars(self):
        for k, t in [(3, 1), (4, 2), (5, 3)]:
            p = construct_mn_pda(k, t)
            lib = small_lib(p)
            for cache in place(p, lib):
                assert len(cache) == lib.n_files * p.z

    def test_dimension_mismatch(self):
        lib = FileLibrary.random(2, 5, packet_size=4, seed=0)
        with pytest.raises(DimensionError):
            place(CROSS, lib)

    def test_a_cache_is_the_library_and_its_star_column(self):
        for p in (CROSS, construct_mn_pda(4, 2), Pda.from_grid([[1, 2], [3, 4]])):
            lib = small_lib(p)
            for k, cache in enumerate(place(p, lib)):
                assert len(cache) == lib.n_files * p.z
                assert cache.data is lib.data
                assert np.array_equal(cache.held, p.grid[:, k] == 0)
                assert cache.held.tolist() == [j in p.star_rows(k) for j in range(p.f)]
                assert not cache.held.flags.writeable


class TestDeliver:
    def test_cross_pattern_single_broadcast(self):
        lib = small_lib(CROSS, n_files=2)
        t = deliver(CROSS, lib, (1, 2))
        assert t.packets_sent == 1
        b = t.broadcasts[0]
        assert b.slot == 1
        assert sorted(b.contributors) == [(1, 1), (2, 0)]
        want = bytes(x ^ y for x, y in zip(lib.packet(1, 1), lib.packet(2, 0)))
        assert b.payload == want

    def test_single_cell_sends_plain_packet(self):
        p = Pda.from_grid([[1], [S]])
        lib = small_lib(p)
        t = deliver(p, lib, (2,))
        assert t.broadcasts[0].payload == lib.packet(2, 0)

    def test_identical_demands_still_send_every_slot(self):
        p = construct_mn_pda(3, 1)
        t = deliver(p, small_lib(p), (2, 2, 2))
        assert t.packets_sent == p.s

    def test_broadcast_count_always_s(self):
        for k, t_par in [(3, 1), (4, 1), (4, 2), (5, 2)]:
            p = construct_mn_pda(k, t_par)
            lib = small_lib(p)
            rng = np.random.default_rng(k * 10 + t_par)
            for _ in range(5):
                d = tuple(int(x) for x in rng.integers(1, lib.n_files + 1, size=p.k))
                assert deliver(p, lib, d).packets_sent == p.s

    def test_demand_validation(self):
        lib = small_lib(CROSS, n_files=2)
        with pytest.raises(InvalidParameter):
            deliver(CROSS, lib, (1,))
        with pytest.raises(InvalidParameter):
            deliver(CROSS, lib, (1, 3))


class TestDecode:
    def test_cross_pattern_by_hand(self):
        lib = small_lib(CROSS, n_files=2)
        caches = place(CROSS, lib)
        t = deliver(CROSS, lib, (1, 2))
        got = decode(0, caches[0], t, (1, 2), CROSS)
        assert got == lib.file_bytes(1)
        assert decode(1, caches[1], t, (1, 2), CROSS) == lib.file_bytes(2)

    def test_everything_cached_needs_no_broadcast(self):
        p = Pda.from_grid([[S], [S]])
        lib = small_lib(p, n_files=2)
        caches = place(p, lib)
        t = deliver(p, lib, (2,))
        assert t.packets_sent == 0
        assert decode(0, caches[0], t, (2,), p) == lib.file_bytes(2)

    def test_same_row_equal_pair_breaks(self):
        grid = [[1, 1]]
        lib = FileLibrary.random(3, 1, packet_size=4, seed=0)
        caches = place(grid, lib)
        t = deliver(grid, lib, (1, 2))
        with pytest.raises(DecodeError):
            decode(0, caches[0], t, (1, 2), grid)

    def test_uncached_cross_cell_breaks(self):
        grid = [[1, 2], [2, 1]]
        lib = FileLibrary.random(3, 2, packet_size=4, seed=0)
        caches = place(grid, lib)
        t = deliver(grid, lib, (1, 2))
        with pytest.raises(DecodeError):
            run_round(grid, lib, (1, 2))
        with pytest.raises(DecodeError):
            decode(0, caches[0], t, (1, 2), grid)

    def test_contributor_outside_the_library_is_not_cached(self):
        lib = small_lib(CROSS, n_files=2)
        caches = place(CROSS, lib)
        bc = deliver(CROSS, lib, (1, 2)).broadcasts[0]
        assert bc.contributors == ((2, 0), (1, 1))
        for file in (0, 3):
            t = Transcript(broadcasts=(Broadcast(1, bc.payload, ((file, 0), (1, 1))),))
            with pytest.raises(DecodeError, match=rf"lacks packet \({file}, 0\)"):
                decode(0, caches[0], t, (1, 2), CROSS)
        # User 1 holds row 1; a row outside the array is not held, not even
        # -1, which numpy would wrap round to row 1.
        for row in (-1, 2):
            t = Transcript(broadcasts=(Broadcast(1, bc.payload, ((2, 0), (1, row))),))
            with pytest.raises(DecodeError, match=rf"lacks packet \(1, {row}\)"):
                decode(1, caches[1], t, (1, 2), CROSS)

    def test_slot_without_broadcast_is_named(self):
        p = construct_mn_pda(3, 1)
        lib = small_lib(p)
        caches = place(p, lib)
        bcs = deliver(p, lib, (1, 2, 3)).broadcasts
        with pytest.raises(DecodeError) as info:
            decode(0, caches[0], Transcript(broadcasts=bcs[:1]), (1, 2, 3), p)
        assert str(info.value) == "user 0 needs slot 2, but the transcript has no broadcast for it"
        with pytest.raises(DecodeError, match="user 2 needs slot 2"):
            decode(2, caches[2], Transcript(broadcasts=()), (1, 2, 3), p)

    def test_slots_must_run_one_to_n_in_order(self):
        p = construct_mn_pda(3, 1)
        lib = small_lib(p)
        b1, b2, b3 = deliver(p, lib, (1, 2, 3)).broadcasts
        # Read by position, the reversed records would carry slot 3's
        # contributors as slot 1; a repeated label would shadow slot 2.
        with pytest.raises(InvalidParameter) as info:
            Transcript(broadcasts=(b3, b2, b1))
        assert str(info.value) == "broadcast 0 is slot 3 with 8 bytes, expected slot 1 with 8"
        with pytest.raises(InvalidParameter, match="broadcast 1 is slot 1 with 8 bytes, expected slot 2 "):
            Transcript(broadcasts=(b1, b1, b3))

    def test_payload_sizes_are_checked(self):
        p = construct_mn_pda(3, 1)
        lib = small_lib(p)
        caches = place(p, lib)
        bcs = deliver(p, lib, (1, 2, 3)).broadcasts
        short = Broadcast(2, bcs[1].payload[:5], bcs[1].contributors)
        with pytest.raises(InvalidParameter, match="broadcast 1 is slot 2 with 5 bytes, expected slot 2 "):
            Transcript(broadcasts=(bcs[0], short, bcs[2]))
        for size in (5, 9):
            resized = [Broadcast(b.slot, (b.payload * 2)[:size], b.contributors) for b in bcs]
            t = Transcript(broadcasts=resized)
            with pytest.raises(DecodeError, match=f"payloads have {size} bytes, packets 8"):
                decode(0, caches[0], t, (1, 2, 3), p)
        # Only a slot that is read needs packet-sized payloads.
        grid = [[S, 1], [S, S]]
        lib = FileLibrary.random(2, 2, packet_size=8, seed=0)
        caches = place(grid, lib)
        bc = deliver(grid, lib, (1, 2)).broadcasts[0]
        t = Transcript(broadcasts=(Broadcast(1, bc.payload[:3], bc.contributors),))
        assert decode(0, caches[0], t, (1, 2), grid) == lib.file_bytes(1)
        with pytest.raises(DecodeError, match="payloads have 3 bytes"):
            decode(1, caches[1], t, (1, 2), grid)

    def test_a_transcript_refuses_what_it_would_truncate(self):
        # An int64 cast would read contributor (1.5, 1) as (1, 1), and decode
        # would then return wrong bytes with no error.
        lib = small_lib(CROSS, n_files=2)
        bc = deliver(CROSS, lib, (1, 2)).broadcasts[0]
        for cell in ((1.5, 1), (True, 0), (2, 0.9), (np.float64(2), 0), ("2", 0)):
            with pytest.raises(InvalidParameter, match="is not an integer"):
                Transcript(broadcasts=(Broadcast(1, bc.payload, ((1, 1), cell)),))
        with pytest.raises(InvalidParameter, match="slot 1.0 is not an integer"):
            Transcript(broadcasts=(Broadcast(1.0, bc.payload, bc.contributors),))
        cells = tuple((np.int64(file), np.int64(row)) for file, row in bc.contributors)
        t = Transcript(broadcasts=(Broadcast(np.int64(1), bc.payload, cells),))
        assert t.files.tolist() == [file for file, _ in bc.contributors]
        assert decode(0, place(CROSS, lib)[0], t, (1, 2), CROSS) == lib.file_bytes(1)

    def test_a_non_integer_user_is_refused(self):
        p = construct_mn_pda(3, 1)
        lib = small_lib(p)
        caches = place(p, lib)
        t = deliver(p, lib, (1, 2, 3))
        for k in (1.5, True, np.float64(1), "1"):
            with pytest.raises(InvalidParameter, match=re.escape(f"user {k!r} is not an integer")):
                decode(k, caches[1], t, (1, 2, 3), p)
        assert decode(np.int64(1), caches[1], t, (1, 2, 3), p) == lib.file_bytes(2)

    def test_arguments_are_checked_as_deliver_checks_them(self):
        p = construct_mn_pda(3, 1)
        lib = small_lib(p)
        caches = place(p, lib)
        t = deliver(p, lib, (1, 2, 3))
        for k in (3, 5, -1):
            with pytest.raises(InvalidParameter, match=f"user {k} is not one of the array's 3 users"):
                decode(k, caches[2], t, (1, 2, 3), p)
        with pytest.raises(InvalidParameter, match="exceeds library of 4 files"):
            decode(0, caches[0], t, (9, 2, 3), p)
        with pytest.raises(InvalidParameter, match="demand has 2 entries for 3 users"):
            decode(0, caches[0], t, (1, 2), p)

    def test_cache_of_another_user_is_rejected(self):
        lib = small_lib(CROSS, n_files=2)
        caches = place(CROSS, lib)
        t = deliver(CROSS, lib, (1, 2))
        with pytest.raises(DecodeError, match="cache lacks star rows"):
            decode(0, caches[1], t, (1, 2), CROSS)

    def test_array_of_another_f_is_rejected(self):
        placed = construct_mn_pda(4, 2)
        lib = small_lib(placed)
        caches = place(placed, lib)
        d = (1, 2, 3, 4)
        t = deliver(placed, lib, d)
        for other in (construct_mn_pda(4, 1), construct_mn_pda(4, 3)):
            with pytest.raises(DimensionError,
                               match=f"cache has 6 packet rows per file, array has {other.f} rows"):
                decode(0, caches[0], t, d, other)

    def test_broken_pair_fuzz(self):
        # duplicate an existing color somewhere that ruins the star-cross
        # structure; the simulator must notice for every such array
        rng = np.random.default_rng(20260814)
        broken = 0
        while broken < 25:
            k = int(rng.integers(3, 6))
            t_par = int(rng.integers(1, k - 1))
            p = construct_mn_pda(k, t_par)
            grid = p.grid.copy()
            cells = list(zip(*np.nonzero(grid != S)))
            j1, k1 = cells[int(rng.integers(0, len(cells)))]
            color = int(grid[j1, k1])
            targets = [
                (j2, k2)
                for j2 in range(p.f)
                for k2 in range(p.k)
                if j2 != j1
                and k2 != k1
                and (grid[j1, k2] != S or grid[j2, k1] != S)
            ]
            if not targets:
                continue
            j2, k2 = targets[int(rng.integers(0, len(targets)))]
            grid[j2, k2] = color
            assert not oracles.oracle_verify(grid)
            lib = FileLibrary.random(2, p.f, packet_size=4, seed=broken)
            demand = tuple(int(x) for x in rng.integers(1, 3, size=p.k))
            with pytest.raises(DecodeError):
                run_round(grid, lib, demand)
            broken += 1

    def test_xor_cancellation_is_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pkts = [bytes(rng.bytes(16)) for _ in range(4)]
            payload = bytes(16)
            for pkt in pkts:
                payload = bytes(x ^ y for x, y in zip(payload, pkt))
            for pkt in pkts[1:]:
                payload = bytes(x ^ y for x, y in zip(payload, pkt))
            assert payload == pkts[0]


def greedy_grid(k, f, z, seed):
    adj = placement_to_adjacency(z, f, k, default_star_pattern(k, f, z))
    g = BipartiteColoredGraph(
        k=k, f=f, edges=tuple((int(j), int(i), None) for i, j in np.argwhere(adj.mask))
    )
    return graph_to_pda(greedy_strong_color(g, order="random", seed=seed)).grid.tolist()


def break_pair(grid, rng):
    """Copy one cell's color to a random other cell."""
    grid = [list(row) for row in grid]
    cells = [(i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if v != S]
    i1, j1 = cells[int(rng.integers(0, len(cells)))]
    i2, j2 = int(rng.integers(0, len(grid))), int(rng.integers(0, len(grid[0])))
    grid[i2][j2] = grid[i1][j1]
    return grid


def tamper(grid, records, kind, rng, n_files):
    """(records altered one way, the (row, user) cell altered), or None
    when the grid offers no such change.

    "none" leaves the records as they are.  "flip" flips one payload bit
    of a slot.  "swap" replaces one contributor with a packet its cell's
    user caches.  "drop" removes one cell's own packet from a slot of 2 or
    more cells, payload unchanged.
    """
    records = list(records)
    if kind == "none":
        return records, None
    slots = [b.slot for b in records if len(b.contributors) > (kind == "drop")]
    if not slots or not records[0].payload:
        return None
    s = slots[int(rng.integers(0, len(slots)))]
    payload, contributors = bytearray(records[s - 1].payload), list(records[s - 1].contributors)
    c = int(rng.integers(0, len(contributors)))
    cells = [(i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if v == s]
    if kind == "flip":
        payload[int(rng.integers(0, len(payload)))] ^= 1 << int(rng.integers(0, 8))
    elif kind == "drop":
        del contributors[c]
    else:
        j = cells[c][1]
        stars = [i for i, row in enumerate(grid) if row[j] == S]
        if not stars:
            return None
        contributors[c] = (int(rng.integers(1, n_files + 1)), stars[int(rng.integers(0, len(stars)))])
    records[s - 1] = Broadcast(s, bytes(payload), tuple(contributors))
    return records, cells[c]


class TestAgainstOracle:
    def test_rounds_match_packet_by_packet_oracle(self):
        rng = np.random.default_rng(20261018)
        grids = [oracles.mn_grid(k, t) for k, t in [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3)]]
        grids += [greedy_grid(k, f, z, seed) for seed, (k, f, z) in
                  enumerate([(4, 4, 2), (5, 10, 4), (6, 20, 10), (8, 4, 3)])]
        grids += [break_pair(grids[int(rng.integers(0, len(grids)))], rng) for _ in range(40)]
        grids += [oracles.random_grid(rng) for _ in range(120)]
        outcomes = {"decoded": 0, "missing": 0}
        for n, grid in enumerate(grids):
            f, k = len(grid), len(grid[0])
            for size in (1, 3, 8, 64):
                n_files = int(rng.integers(1, max(k - 1, 1) + 1))   # N < K: demands repeat
                lib = FileLibrary.random(n_files, f, packet_size=size, seed=n)
                demand = tuple(int(x) for x in rng.integers(1, n_files + 1, size=k))
                packets = [[lib.packet(file, j) for j in range(f)] for file in range(1, n_files + 1)]
                broadcasts, decoded = oracles.oracle_round(grid, packets, demand)

                t = deliver(grid, lib, demand)
                assert [(b.slot, b.payload, list(b.contributors)) for b in t.broadcasts] == [
                    (s, payload, contributors)
                    for s, (payload, contributors) in enumerate(broadcasts, start=1)
                ]
                first = next(((u, out) for u, out in enumerate(decoded)
                              if isinstance(out, tuple)), None)
                if first is None:
                    result = run_round(grid, lib, demand)
                    assert result.decoded == tuple(decoded) and result.all_ok
                    outcomes["decoded"] += 1
                else:
                    u, (_, packet, slot) = first
                    with pytest.raises(DecodeError) as info:
                        run_round(grid, lib, demand)
                    assert str(info.value) == (
                        f"user {u} lacks packet {packet} needed to decode slot {slot}"
                    )
                    outcomes["missing"] += 1
        assert min(outcomes.values()) > 200

    def test_small_blocks_match_the_oracle(self, monkeypatch):
        # With 24-byte blocks a kernel block holds 24, 8, 3 or 1 rows of 1, 3,
        # 8 or 64 bytes: slot runs, or the pairs a failed round writes.  The
        # grids also cover cuts of that many user-major (user, row) pairs
        # that split one user's rows, and cuts that span an all-star column,
        # which has no pairs.
        block = 24
        monkeypatch.setattr(cachesim, "_BLOCK", block)
        rng = np.random.default_rng(20261019)
        grids = [oracles.mn_grid(k, t) for k, t in [(3, 1), (4, 2), (5, 2)]]
        grids += [greedy_grid(4, 4, 2, 0), greedy_grid(8, 4, 3, 1)]
        grids += [break_pair(grids[int(rng.integers(0, len(grids)))], rng) for _ in range(10)]
        grids += [oracles.random_grid(rng) for _ in range(100)]
        # An all-star column inside each of the first 15 grids.
        grids += [[row[:j] + [S] + row[j:] for row in grid]
                  for grid in grids[:15] for j in [int(rng.integers(1, len(grid[0])))]]
        seen = {"decoded": 0, "missing": 0, "split": 0, "spans all-star": 0}
        for n, grid in enumerate(grids):
            f, k = len(grid), len(grid[0])
            stars = [sum(row[j] == S for row in grid) for j in range(k)]
            # The user of each pair, pairs user-major as the decoder cuts them.
            pair_user = [j for j in range(k) for _ in range(f - stars[j])]
            for size in (1, 3, 8, 64):
                per_block = max(1, block // size)
                blocks = [pair_user[b:b + per_block] for b in range(0, len(pair_user), per_block)]
                seen["split"] += any(pair_user[b - 1] == pair_user[b]
                                     for b in range(per_block, len(pair_user), per_block))
                seen["spans all-star"] += any(
                    stars[j] == f for users in blocks for j in range(users[0] + 1, users[-1]))
                n_files = int(rng.integers(1, k + 1))
                lib = FileLibrary.random(n_files, f, packet_size=size, seed=n)
                demand = tuple(int(x) for x in rng.integers(1, n_files + 1, size=k))
                packets = [[lib.packet(file, j) for j in range(f)] for file in range(1, n_files + 1)]
                _, decoded = oracles.oracle_round(grid, packets, demand)
                first = next(((u, out) for u, out in enumerate(decoded)
                              if isinstance(out, tuple)), None)
                if first is None:
                    result = run_round(grid, lib, demand)
                    assert result.decoded == tuple(decoded) and result.all_ok
                    seen["decoded"] += 1
                else:
                    u, (_, packet, slot) = first
                    with pytest.raises(DecodeError) as info:
                        run_round(grid, lib, demand)
                    assert str(info.value) == (
                        f"user {u} lacks packet {packet} needed to decode slot {slot}"
                    )
                    seen["missing"] += 1
        assert min(seen.values()) > 20, seen

    def test_tampered_transcripts_match_the_oracle(self, monkeypatch):
        # One residue per slot, shared by the slot's pairs, must decode what
        # a pair-by-pair decoder does, also when a slot's pairs differ in
        # whether it lists their own packet.  24-byte blocks hold 24, 8, 3
        # or 1 slot runs of 1, 3, 8 or 64 bytes.
        monkeypatch.setattr(cachesim, "_BLOCK", 24)
        rng = np.random.default_rng(20261023)
        grids = [oracles.mn_grid(4, 2), oracles.mn_grid(5, 2)]
        grids += [greedy_grid(4, 4, 2, 0), greedy_grid(5, 10, 4, 1), greedy_grid(8, 4, 3, 2)]
        grids += [oracles.random_grid(rng) for _ in range(60)]
        seen = {"none": 0, "flip": 0, "swap": 0, "drop": 0,
                "decoded": 0, "wrong": 0, "missing": 0, "split slot": 0}
        for n, grid in enumerate(grids):
            k = len(grid[0])
            array = np.array(grid, dtype=np.int64)
            for size, kind in itertools.product((1, 3, 8, 64), ("none", "flip", "swap", "drop")):
                n_files = int(rng.integers(1, k + 1))
                lib = FileLibrary.random(n_files, len(grid), packet_size=size, seed=n)
                demand = tuple(int(x) for x in rng.integers(1, n_files + 1, size=k))
                tampered = tamper(grid, deliver(grid, lib, demand).broadcasts, kind, rng, n_files)
                if tampered is None:
                    continue
                records, cell = tampered
                seen[kind] += 1
                packets = [[lib.packet(file, j) for j in range(len(grid))]
                           for file in range(1, n_files + 1)]
                decoded = oracles.oracle_decode(
                    grid, packets, demand, [(b.payload, b.contributors) for b in records])
                args = (range(k), lib.data, array == STAR, Transcript(broadcasts=records), demand, array)
                first = next(((u, out) for u, out in enumerate(decoded)
                              if isinstance(out, tuple)), None)
                if first is not None:
                    u, (_, packet, slot) = first
                    with pytest.raises(DecodeError) as info:
                        cachesim._decode_all(*args)
                    assert str(info.value) == (
                        f"user {u} lacks packet {packet} needed to decode slot {slot}"
                    )
                    seen["missing"] += 1
                    continue
                out, ok = decode_all(*args)
                assert [row.tobytes() for row in out.reshape(k, -1)] == decoded
                wanted = [lib.file_bytes(file) for file in demand]
                assert ok == (decoded == wanted)
                seen["decoded" if ok else "wrong"] += 1
                if kind == "drop" and not ok:
                    # The cell whose own packet was dropped decodes right,
                    # the other cells of its slot wrong.
                    i, j = cell
                    row = slice(i * size, (i + 1) * size)
                    seen["split slot"] += decoded[j][row] == wanted[j][row]
        assert min(seen.values()) > 20, seen


class TestOneKernel:
    """run_round decodes all users in one pass; decode is that pass for one."""

    def grids(self):
        return [oracles.mn_grid(4, 2), oracles.mn_grid(6, 3), [[S, 1], [1, S]], [[S], [S]],
                greedy_grid(5, 10, 4, 0), greedy_grid(8, 4, 3, 1)]

    def test_records_round_trip_to_the_table_deliver_builds(self):
        rng = np.random.default_rng(5)
        for n, grid in enumerate(self.grids()):
            for size in (1, 64):
                lib = FileLibrary.random(len(grid[0]) + 1, len(grid), packet_size=size, seed=n)
                demand = tuple(int(x) for x in rng.integers(1, lib.n_files + 1, size=len(grid[0])))
                t = deliver(grid, lib, demand)
                rebuilt = Transcript(broadcasts=t.broadcasts)
                assert transcript_to_json(rebuilt) == transcript_to_json(t)
                assert rebuilt.packets_sent == t.packets_sent == max(map(max, grid))
                if not t.packets_sent:
                    continue   # no broadcast fixes no packet size for the rebuilt table
                for name in ("payloads", "files", "rows", "starts"):
                    handed, built = getattr(t, name), getattr(rebuilt, name)
                    assert handed.dtype == built.dtype
                    assert np.array_equal(handed, built)
                    assert not handed.flags.writeable and not built.flags.writeable

    def test_a_round_builds_no_records(self, monkeypatch):
        def no_records(*args, **kwargs):
            raise AssertionError("a Broadcast was built")

        monkeypatch.setattr(cachesim, "Broadcast", no_records)
        for n, grid in enumerate(self.grids()):
            lib = FileLibrary.random(len(grid[0]) + 1, len(grid), packet_size=8, seed=n)
            assert run_round(grid, lib, (1,) * len(grid[0])).all_ok

    def test_decode_equals_the_round_for_every_user(self):
        rng = np.random.default_rng(6)
        for n, grid in enumerate(self.grids()):
            k = len(grid[0])
            lib = FileLibrary.random(k + 1, len(grid), packet_size=16, seed=n)
            demand = tuple(int(x) for x in rng.integers(1, k + 2, size=k))
            caches = place(grid, lib)
            result = run_round(grid, lib, demand)
            for u in range(k):
                assert decode(u, caches[u], result.transcript, demand, grid) == result.decoded[u]

    def test_broken_array_fails_alike_in_both(self):
        rng = np.random.default_rng(7)
        sources = [grid for grid in self.grids() if max(map(max, grid))]
        failed = 0
        for n in range(60):
            grid = break_pair(sources[n % len(sources)], rng)
            k = len(grid[0])
            lib = FileLibrary.random(k + 1, len(grid), packet_size=8, seed=n)
            demand = tuple(int(x) for x in rng.integers(1, k + 2, size=k))
            caches = place(grid, lib)
            t = deliver(grid, lib, demand)
            messages = []
            for u in range(k):
                try:
                    decode(u, caches[u], t, demand, grid)
                except DecodeError as e:
                    messages.append(str(e))
            if not messages:
                assert run_round(grid, lib, demand).all_ok
                continue
            with pytest.raises(DecodeError) as info:
                run_round(grid, lib, demand)
            assert str(info.value) == messages[0]
            failed += 1
        assert failed > 20

    def test_a_flipped_payload_bit_fails_only_its_slots_rows(self, monkeypatch):
        # 8-byte packets and 32-byte blocks: MN(5,2)'s 10 slot runs take 3 blocks.
        monkeypatch.setattr(cachesim, "_BLOCK", 32)
        p = construct_mn_pda(5, 2)
        grid = p.grid
        lib = FileLibrary.random(6, p.f, packet_size=8, seed=3)
        d = (2, 6, 2, 1, 4)
        records = list(deliver(p, lib, d).broadcasts)
        slot, byte, bit = 7, 5, 3
        payload = bytearray(records[slot - 1].payload)
        payload[byte] ^= 1 << bit
        records[slot - 1] = Broadcast(slot, bytes(payload), records[slot - 1].contributors)
        tampered = Transcript(broadcasts=records)
        calls = []
        real = cachesim._xor_runs

        def counted(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(cachesim, "_xor_runs", counted)
        out, ok = decode_all(range(p.k), lib.data, grid == STAR, tampered, d, grid)
        assert not ok
        # One call for the residues, then one for slot 7's three rows alone.
        assert calls == [p.s, 3]
        flip = np.zeros(8, dtype=np.uint8)
        flip[byte] = 1 << bit
        expect = lib.data[np.array(d) - 1].copy()
        expect[(grid == slot).T] ^= flip
        assert np.count_nonzero(grid == slot) == 3
        assert np.array_equal(out.reshape(p.k, p.f, 8), expect)

    def test_a_valid_round_does_no_check_work_beyond_its_runs(self, monkeypatch):
        # 8-byte packets and 32-byte blocks: MN(5,2)'s 10 slot runs take 3 blocks.
        monkeypatch.setattr(cachesim, "_BLOCK", 32)
        calls = []
        real = cachesim._xor_runs

        def counted(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(cachesim, "_xor_runs", counted)
        p = construct_mn_pda(5, 2)
        lib = FileLibrary.random(6, p.f, packet_size=8, seed=4)
        result = run_round(p, lib, (2, 6, 2, 1, 4))
        assert result.all_ok
        # One call for deliver's payloads, then one for the residues: no write-back pass.
        assert calls == [p.s, p.s]

    def test_the_kernel_gathers_one_block_at_a_time(self, monkeypatch):
        # 256 rows of 4 KiB in 64 KiB blocks: 16 rows per block.  Untiled,
        # a pass would gather all 1 MiB of packets at once.
        block = 64 << 10
        monkeypatch.setattr(cachesim, "_BLOCK", block)
        rng = np.random.default_rng(8)
        packets = rng.integers(0, 256, size=(64, 4096), dtype=np.uint8)
        acc = rng.integers(0, 256, size=(256, 4096), dtype=np.uint8)
        count = np.sort(rng.integers(0, 4, size=len(acc)))[::-1].copy()
        first = np.cumsum(count) - count
        src = rng.integers(0, len(packets), size=int(count.sum()))
        expect = acc.copy()
        for i in range(len(acc)):
            for r in range(count[i]):
                expect[i] ^= packets[src[first[i] + r]]
        tracemalloc.start()
        try:
            cachesim._xor_runs(acc, packets, src, first, count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * block
        assert np.array_equal(acc, expect)

    def test_a_valid_round_gathers_each_slot_once(self, monkeypatch):
        # MN(6,3): E = 60 decoded rows in S = 15 slots of t + 1 = 4 cells each.
        gathered = []
        real = cachesim._xor_runs

        def counted(acc, packets, src, first, count):
            # acc holds the payloads taken; the kernel gathers count.sum() packets.
            gathered.append(len(acc) + int(count.sum()))
            return real(acc, packets, src, first, count)

        p = construct_mn_pda(6, 3)
        lib = FileLibrary.random(7, p.f, packet_size=8, seed=6)
        d = (2, 7, 2, 1, 4, 3)
        t = deliver(p, lib, d)
        monkeypatch.setattr(cachesim, "_xor_runs", counted)
        out, ok = decode_all(range(p.k), lib.data, p.grid == STAR, t, d, p.grid)
        assert ok and np.array_equal(out.reshape(p.k, -1), lib.data[np.array(d) - 1].reshape(p.k, -1))
        e = int(np.count_nonzero(p.grid != STAR))
        assert (e, p.s) == (60, 15)
        # Each slot's 4 cells and its payload once: E + S, not E·(t+1) + E = 300.
        assert sum(gathered) == e + p.s

    def test_a_slot_that_does_not_list_its_own_packet(self):
        # Slot 4 is cell (0, 2) alone.  Its record lists a packet user 2
        # caches, (1, 2), in place of the one it decodes, (4, 0).
        p = Pda.from_grid([[S, 1, 4], [1, S, 3], [2, 3, S]])
        grid = p.grid
        lib = FileLibrary.random(4, p.f, packet_size=8, seed=5)
        d = (2, 3, 4)
        records = list(deliver(p, lib, d).broadcasts)
        assert records[3].contributors == ((4, 0),)
        records[3] = Broadcast(4, records[3].payload, ((1, 2),))
        tampered = Transcript(broadcasts=records)
        out, ok = decode_all(range(p.k), lib.data, grid == STAR, tampered, d, grid)
        assert not ok
        expect = lib.data[np.array(d) - 1].copy()
        payload = np.frombuffer(records[3].payload, dtype=np.uint8)
        expect[2, 0] = payload ^ lib.data[0, 2]
        assert not np.array_equal(expect[2, 0], lib.data[3, 0])
        assert np.array_equal(out.reshape(p.k, p.f, 8), expect)
        caches = place(p, lib)
        assert decode(2, caches[2], tampered, d, p) == expect[2].tobytes()

    def test_a_zero_residue_still_fails_a_pair_whose_slot_lacks_its_packet(self):
        # Packet (1, 2) gets the bytes of (4, 0), so slot 4's record listing
        # (1, 2) in place of (4, 0) cancels to zero; user 2 decodes that zero.
        p = Pda.from_grid([[S, 1, 4], [1, S, 3], [2, 3, S]])
        grid = p.grid
        data = FileLibrary.random(4, p.f, packet_size=8, seed=5).data.copy()
        data[0, 2] = data[3, 0]
        lib = FileLibrary(data)
        d = (2, 3, 4)
        records = list(deliver(p, lib, d).broadcasts)
        records[3] = Broadcast(4, records[3].payload, ((1, 2),))
        out, ok = decode_all(range(p.k), lib.data, grid == STAR,
                                       Transcript(broadcasts=records), d, grid)
        assert not ok
        expect = lib.data[np.array(d) - 1].copy()
        expect[2, 0] = 0
        assert lib.data[3, 0].any()
        assert np.array_equal(out.reshape(p.k, p.f, 8), expect)

    def test_a_slot_that_lists_no_packet_decodes_from_its_payload(self):
        # Slot 4 is cell (0, 2) alone and its payload is (4, 0) itself, so a
        # record listing no contributor still decodes: nothing to cancel.
        p = Pda.from_grid([[S, 1, 4], [1, S, 3], [2, 3, S]])
        grid = p.grid
        lib = FileLibrary.random(4, p.f, packet_size=8, seed=5)
        d = (2, 3, 4)
        records = list(deliver(p, lib, d).broadcasts)
        records[3] = Broadcast(4, records[3].payload, ())
        out, ok = decode_all(range(p.k), lib.data, grid == STAR,
                                       Transcript(broadcasts=records), d, grid)
        assert ok
        assert np.array_equal(out.reshape(p.k, p.f, 8), lib.data[np.array(d) - 1])


class TestRoundResult:
    """A round's files live in one read-only array; decoded builds bytes on request."""

    def test_a_valid_round_copies_no_file(self):
        # MN(8,4) with 4 KiB packets: K·F·B = 8·70·4096 bytes, 2.3 MB.
        p = construct_mn_pda(8, 4)
        lib = FileLibrary.random(p.k + 1, p.f, packet_size=4096, seed=8)
        demand = (1, 9, 2, 2, 5, 7, 3, 8)
        tracemalloc.start()
        try:
            result = run_round(p, lib, demand)
            _, round_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for k, want in enumerate(demand):
                assert result.decoded[k] == lib.file_bytes(want)
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.all_ok
        bound = p.k * p.f * 4096
        assert round_peak < bound and read_peak < bound

    def test_files_match_the_oracle_and_are_built_once(self, monkeypatch):
        # run_round over its own transcript and over tampered ones: files
        # and decoded are the library patched where a user decoded other
        # bytes, built on the first read of files and kept.
        rng = np.random.default_rng(20261025)
        grids = [oracles.mn_grid(4, 2), oracles.mn_grid(6, 3), greedy_grid(5, 10, 4, 0)]
        real = cachesim.deliver
        # A swapped contributor mostly leaves some user a packet it lacks,
        # which raises; TestAgainstOracle covers that.
        seen = {"none": 0, "flip": 0, "drop": 0, "wrong": 0}
        for n, grid in enumerate(grids):
            k = len(grid[0])
            for _, size, kind in itertools.product(range(4), (1, 8, 64), ("none", "flip", "drop")):
                lib = FileLibrary.random(k + 1, len(grid), packet_size=size, seed=n)
                demand = tuple(int(x) for x in rng.integers(1, k + 2, size=k))
                packets = [[lib.packet(file, j) for j in range(len(grid))]
                           for file in range(1, k + 2)]
                tampered = tamper(grid, real(grid, lib, demand).broadcasts, kind, rng, k + 1)
                if tampered is None:
                    continue
                records = tampered[0]
                if kind == "none":
                    _, decoded = oracles.oracle_round(grid, packets, demand)
                else:
                    decoded = oracles.oracle_decode(
                        grid, packets, demand, [(b.payload, b.contributors) for b in records])
                if any(isinstance(out, tuple) for out in decoded):
                    continue
                monkeypatch.setattr(cachesim, "deliver",
                                    lambda *args: Transcript(broadcasts=records))
                result = run_round(grid, lib, demand)
                assert result.decoded == decoded
                files = result.files
                assert [row.tobytes() for row in files] == decoded
                assert not files.flags.writeable and result.files is files
                assert result.all_ok == (decoded == [lib.file_bytes(w) for w in demand])
                seen[kind] += 1
                seen["wrong"] += not result.all_ok
        assert min(seen.values()) > 10, seen

    def test_files_are_one_read_only_array_of_the_demanded_files(self):
        for p, size in ((construct_mn_pda(4, 2), 8), (CROSS, 1), (Pda.from_grid([[S], [S]]), 16)):
            lib = FileLibrary.random(p.k + 1, p.f, packet_size=size, seed=p.k)
            demand = tuple(range(p.k + 1, 1, -1))
            result = run_round(p, lib, demand)
            assert result.files.shape == (p.k, p.f * size) and result.files.dtype == np.uint8
            assert not result.files.flags.writeable
            with pytest.raises(ValueError):
                result.files[0, 0] = 1
            for k, want in enumerate(demand):
                assert result.files[k].tobytes() == lib.file_bytes(want)

    def test_decoded_rows_and_decode_are_bytes(self):
        p = construct_mn_pda(4, 2)
        lib = small_lib(p)
        demand = (1, 2, 3, 1)
        result = run_round(p, lib, demand)
        caches = place(p, lib)
        rows = result.decoded
        assert len(rows) == p.k
        assert all(type(rows[k]) is bytes for k in range(p.k))
        assert all(type(row) is bytes for row in rows)
        assert rows[-1] == rows[3] == lib.file_bytes(1) and rows[1:3] == rows[1:3]
        assert rows == tuple(lib.file_bytes(want) for want in demand)
        assert rows == [lib.file_bytes(want) for want in demand]
        assert rows != tuple(lib.file_bytes(want) for want in demand[:3])
        assert rows != (b"",) * p.k
        assert type(decode(2, caches[2], result.transcript, demand, p)) is bytes
        with pytest.raises(IndexError):
            rows[p.k]
        with pytest.raises(TypeError):
            rows[0] = b""

    def test_public_constructor_copies_bytes_rows_once(self):
        p = construct_mn_pda(3, 1)
        lib = small_lib(p)
        result = run_round(p, lib, (1, 2, 3))
        rows = tuple(result.decoded)
        rebuilt = cachesim.RoundResult(transcript=result.transcript, decoded=rows, all_ok=True)
        assert rebuilt.decoded == rows and rebuilt.all_ok
        assert np.array_equal(rebuilt.files, result.files) and not rebuilt.files.flags.writeable
        empty = cachesim.RoundResult(transcript=result.transcript, decoded=(), all_ok=True)
        assert empty.files.shape == (0, 0) and empty.decoded == ()
        with pytest.raises(InvalidParameter, match="user 1's file has 3 bytes"):
            cachesim.RoundResult(transcript=result.transcript, decoded=(b"abcd", b"abc"), all_ok=True)

    def test_results_compare_without_comparing_arrays(self):
        p = construct_mn_pda(3, 1)
        lib = small_lib(p)
        a, b = run_round(p, lib, (1, 2, 3)), run_round(p, lib, (1, 2, 3))
        assert a == a and a != b
        assert a.decoded == b.decoded

    def test_failed_round_is_traced_user_by_user(self, monkeypatch):
        real = cachesim._decode_all

        def corrupt_user_one(users, data, held, transcript, want, grid):
            moved, got, _ = real(users, data, held, transcript, want, grid)
            out = cachesim._assemble(data, want, moved, got).reshape(-1, data.shape[2])
            cell = len(out) // 2
            return np.append(moved, cell), np.vstack([got, out[cell] ^ 1]), False

        monkeypatch.setattr(cachesim, "_decode_all", corrupt_user_one)
        p = construct_mn_pda(2, 1)
        report = measure(p, trials=2, seed=4)
        assert [row.decoded_ok for row in report.trace] == [True, False] * 2
        assert not report.all_decoded


    def test_a_moved_cell_that_decodes_right_is_traced_ok(self, monkeypatch):
        # MN(2,1)'s one slot lists user 1's packet first.  Dropping it from
        # the record moves user 1's cell, which decodes the residue, its
        # own packet; user 0's cell decodes that residue XOR its packet.
        real = cachesim.deliver

        def drop_first(*args):
            records = list(real(*args).broadcasts)
            records[0] = Broadcast(1, records[0].payload, records[0].contributors[1:])
            return Transcript(broadcasts=records)

        monkeypatch.setattr(cachesim, "deliver", drop_first)
        report = measure(construct_mn_pda(2, 1), trials=3, seed=4)
        assert [row.decoded_ok for row in report.trace] == [False, True] * 3


class TestRounds:
    def test_zero_byte_packets(self):
        p = construct_mn_pda(4, 2)
        lib = FileLibrary(np.zeros((p.k + 1, p.f, 0), dtype=np.uint8))
        demand = (1, 2, 3, 5)
        transcript = deliver(p, lib, demand)
        assert transcript.payloads.shape == (p.s, 0)
        result = run_round(p, lib, demand)
        assert result.all_ok and result.files.shape == (p.k, 0)
        assert result.transcript.payloads.shape == (p.s, 0)
        caches = place(p, lib)
        assert all(decode(k, caches[k], transcript, demand, p) == b"" for k in range(p.k))

    def test_exhaustive_demands_small_systems(self):
        for k, t_par in [(2, 1), (3, 1), (3, 2), (4, 2)]:
            p = construct_mn_pda(k, t_par)
            n = 3
            lib = FileLibrary.random(n, p.f, packet_size=8, seed=k)
            for demand in itertools.product(range(1, n + 1), repeat=p.k):
                result = run_round(p, lib, demand)
                assert result.all_ok
                assert result.transcript.packets_sent == p.s
                for u in range(p.k):
                    assert result.decoded[u] == lib.file_bytes(demand[u])

    def test_measure_classical_loads(self):
        r3 = measure(construct_mn_pda(3, 1), trials=10, seed=0)
        assert r3.delivery_rate == 1
        assert r3.uncoded_rate == 2
        assert r3.all_decoded

        r2 = measure(construct_mn_pda(2, 1), trials=10, seed=0)
        assert str(r2.delivery_rate) == "1/2"
        assert r2.uncoded_rate == 1

    def test_measure_everything_cached(self):
        report = measure([[S], [S]], trials=3, seed=0)
        assert report.delivery_rate == 0
        assert report.all_decoded

    def test_measure_trace_shape(self):
        p = construct_mn_pda(3, 1)
        report = measure(p, trials=4, seed=9)
        assert len(report.trace) == 4 * p.k
        assert {row.trial for row in report.trace} == {0, 1, 2, 3}
        assert all(row.decoded_ok for row in report.trace)
        assert all(1 <= row.demand <= p.k + 1 for row in report.trace)

    def test_measure_is_seeded(self):
        p = construct_mn_pda(3, 1)
        a = measure(p, trials=5, seed=3)
        b = measure(p, trials=5, seed=3)
        assert a.trace == b.trace


class TestArtifacts:
    def test_transcript_json_round_trip_fields(self):
        lib = small_lib(CROSS, n_files=2)
        t = deliver(CROSS, lib, (1, 2))
        doc = json.loads(transcript_to_json(t, meta={"seed": 1}))
        assert doc["packets_sent"] == 1
        assert doc["meta"] == {"seed": 1}
        b = doc["broadcasts"][0]
        assert b["slot"] == 1
        assert bytes.fromhex(b["payload"]) == t.broadcasts[0].payload

    def test_transcript_json_stable(self):
        lib = small_lib(CROSS, n_files=2)
        t1 = transcript_to_json(deliver(CROSS, lib, (1, 2)))
        t2 = transcript_to_json(deliver(CROSS, lib, (1, 2)))
        assert t1 == t2

    def test_trace_csv(self, tmp_path):
        p = construct_mn_pda(3, 1)
        report = measure(p, trials=2, seed=0)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, report.trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,user,demand,decoded_ok"
        assert len(lines) == 1 + len(report.trace)
        assert lines[1].split(",")[3] == "1"
