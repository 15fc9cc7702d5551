"""Traversal maps: the long-double oracle, the extrapolated stop, symmetry, batch independence, frames, bounded work."""

import dataclasses
import functools
import math
import time

import numpy as np
import pytest

import traversal_reference as reference
from epdyn import (
    DEFAULT_PARAMS,
    Direction,
    EPOnContourError,
    EpdynError,
    FieldPoint,
    HERMITIAN_PARAMS,
    IntegratorConfig,
    LoopSpec,
    StateVector,
    StepBudgetError,
    SystemParams,
    diode_loop,
    encircling_loop,
    hermitian_loop,
    propagate_adiabatic,
    propagate_direct,
)
from epdyn import traversal
from epdyn.analysis import SweepSpec, final_state_report, sweep, table1
from epdyn.propagation import _map_loop, _map_record
from epdyn.traversal import traversal_maps

REF = DEFAULT_PARAMS
ACCEPT = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)

#: The four diode ratios (CW from states 1 and 2, CCW from states 1 and 2)
#: of the long-double product at 2048 steps, to 5 significant digits.
DIODE_RATIOS = (5398.1, 1538.7, 2435.5, 8544.2)

#: A loop whose contour passes 1e-4 from the EP: the ellipse is centered on
#: it and 1e-4 wide in omega.
THIN = LoopSpec(
    center=FieldPoint(1.0, 0.2),
    semi_axis_omega=1e-4,
    semi_axis_eps=0.1,
    direction=Direction.CW,
    duration_T=5.0,
)


def grid_cell(n: int, i: int, j: int, direction: Direction) -> LoopSpec:
    """Cell (i, j) of an n x n sweep grid over T in [300, 375] and amp_scale in [0.05, 1.3].

    n = 8 spans the README's sweep example and n = 4 is perfbench's
    ``sweep`` workload, both on the CLI's linear spacing (``--t-spacing
    linear``; the README example's T takes the default geometric spacing).
    """
    spacing = [lo + (hi - lo) / (n - 1) * k for lo, hi, k in ((300.0, 375.0, i), (0.05, 1.3, j))]
    spec = SweepSpec(template=diode_loop(Direction.CW), durations=(spacing[0],), amp_scales=(spacing[1],),
                     direction=direction)
    return spec.cell_loop(0, 0)


def plain_map(loop: LoopSpec, n: int) -> tuple:
    """(U, exponent) of the loop's eigenframe product on n steps, as ``_settle`` forms it at one count."""
    run = traversal._intervals(REF, traversal._batch(REF, [loop], True), n, n)
    u, e = traversal._rotate(run, run.x, run.e)
    return u[:, :, 0, 0], int(e[0, 0])


@functools.lru_cache(maxsize=None)
def oracle(loop: LoopSpec) -> tuple:
    """The oracle's map of the loop at 16,384 steps (about 1.4 s each)."""
    return reference.traversal_map(REF, loop, 16384)


def oracle_error(u: np.ndarray, log_scale: float, loop: LoopSpec) -> float:
    """max |U e^log_scale - V| / max |V| against the oracle's V at 16,384 steps."""
    want, want_log = oracle(loop)
    big = np.max(np.abs(u))
    return float(np.max(np.abs(u / big * math.exp(log_scale + math.log(big) - float(want_log)) - want.astype(complex))))


def scaled(tmap):
    """U e^log_scale as (U, log_scale) with the largest entry of U equal to 1."""
    big = np.max(np.abs(tmap.U))
    return tmap.U / big, tmap.log_scale + math.log(big)


class TestOracle:
    @pytest.fixture(scope="class")
    def oracle(self):
        return [reference.traversal_map(REF, diode_loop(d), 2048) for d in (Direction.CW, Direction.CCW)]

    def test_oracle_needs_extended_precision(self, monkeypatch):
        class Float64Info:
            eps = np.finfo(float).eps

        monkeypatch.setattr(reference.np, "finfo", lambda dtype: Float64Info)
        with pytest.raises(RuntimeError, match="no extended precision"):
            reference.traversal_map(REF, diode_loop(Direction.CW), 256)

    def test_oracle_pins_the_diode_ratios(self, oracle):
        ratios = [reference.ratio(u, k) for u, _ in oracle for k in (0, 1)]
        assert [float(f"{r:.5g}") for r in ratios] == list(DIODE_RATIOS)

    def test_table1_agrees_with_the_oracle(self, oracle):
        table = table1(REF, diode_loop(Direction.CW), ACCEPT)
        want = [reference.ratio(u, k) for u, _ in oracle for k in (0, 1)]
        for row, ratio in zip(table.rows, want):
            assert row.report.ratio == pytest.approx(ratio, rel=1e-3), row
        # the maps themselves, normalized, and their scales
        maps = traversal_maps(REF, [diode_loop(d) for d in (Direction.CW, Direction.CCW)], ACCEPT.rel_tol)
        for tmap, (u, log_scale) in zip(maps, oracle):
            assert tmap.frame == "eigen"
            mine, mine_log = scaled(tmap)
            assert np.max(np.abs(mine - u.astype(complex))) < 1e-5
            assert mine_log == pytest.approx(float(log_scale), abs=1e-6)


def test_reversed_loop_is_the_transpose():
    # H is complex symmetric, so the reversed traversal's map is U^T; each
    # direction is computed from its own loop
    loop = encircling_loop(50.0, Direction.CW)
    cw, ccw = (scaled(m) for m in traversal_maps(REF, [loop, encircling_loop(50.0, Direction.CCW)], 1e-12))
    assert np.max(np.abs(ccw[0] - cw[0].T)) < 1e-12
    assert ccw[1] == pytest.approx(cw[1], abs=1e-12)


def test_step_exponentials_match_cosh_and_sinh():
    # the power series (|sigma^2| <= 1) and numpy's functions (beyond) give
    # cosh(sigma) and sinh(sigma)/sigma; at sigma = 0 both are 1
    rng = np.random.default_rng(7)
    zeta = (rng.normal(size=400) + 1j * rng.normal(size=400)) * np.repeat([0.01, 0.3, 1.0, 3.0], 100)
    c, s = traversal._cosh_sinhc(np.concatenate([zeta, [0j]]))
    sigma = np.sqrt(zeta)
    assert np.abs(c[:-1] - np.cosh(sigma)).max() < 1e-15 * np.abs(np.cosh(sigma)).max()
    assert np.abs(s[:-1] - np.sinh(sigma) / sigma).max() < 1e-15 * np.abs(np.sinh(sigma) / sigma).max()
    assert (c[-1], s[-1]) == (1.0, 1.0)


class TestBits:
    LOOPS = [diode_loop(Direction.CW), THIN, encircling_loop(50.0), diode_loop(Direction.CCW, 320.0)]

    def test_a_loop_alone_and_in_any_batch(self):
        alone = [traversal_maps(REF, [loop], 1e-10)[0] for loop in self.LOOPS]
        for batch in (self.LOOPS, self.LOOPS[::-1], self.LOOPS * 3):
            together = traversal_maps(REF, batch, 1e-10)
            for loop, tmap in zip(batch, together):
                want = alone[self.LOOPS.index(loop)]
                assert tmap.U.tobytes() == want.U.tobytes()
                assert (tmap.log_scale, tmap.steps, tmap.frame, tmap.floor) == (
                    want.log_scale, want.steps, want.frame, want.floor
                )

    def test_the_block_length_changes_no_bit(self, monkeypatch):
        want = traversal_maps(REF, self.LOOPS, 1e-10)
        monkeypatch.setattr(traversal, "_BLOCK_STEPS", 64)
        got = traversal_maps(REF, self.LOOPS, 1e-10)
        assert [m.U.tobytes() for m in got] == [m.U.tobytes() for m in want]
        assert [m[1:] for m in got] == [m[1:] for m in want]

    def test_a_step_count_reads_the_drive_once(self, monkeypatch):
        # what no step count changes (the drive at t = 0 and at T, the frame's start, R(th_0))
        # is taken once per _settle call: each single-block count of the diode pair reads the
        # drive once, at its Gauss points, where it read it three times (t = 0, the block, T)
        reads, counts = [], []
        real_drive, real_intervals = traversal._drive, traversal._intervals

        def drive(*args):
            reads.append(args[2].shape)
            return real_drive(*args)

        def intervals(params, batch, n, every):
            counts.append(n)
            return real_intervals(params, batch, n, every)

        monkeypatch.setattr(traversal, "_drive", drive)
        monkeypatch.setattr(traversal, "_intervals", intervals)
        maps = traversal_maps(REF, [diode_loop(Direction.CW), diode_loop(Direction.CCW)], 1e-10)
        assert [m.frame for m in maps] == ["eigen", "eigen"]  # one _settle call, in the eigenframe
        assert len(counts) > 1 and 2 * max(counts) <= traversal._BLOCK_STEPS  # every count runs one block
        assert len(reads) == len(counts) + 2


def entries(rng, shape) -> np.ndarray:
    """Complex entries with about a third of their parts ±0.0, subnormal, huge, inf or NaN."""
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, np.inf, -np.inf, np.nan])
    z = np.empty(shape, dtype=complex)
    for part in (z.real, z.imag):
        part[...] = rng.normal(size=shape)
        mask = rng.random(shape) < 0.35
        part[mask] = rng.choice(special, size=int(mask.sum()))
    return z


def same_bits(a, b) -> bool:
    """Equal bits, signed zeros included, where a NaN matches any NaN.

    numpy's vector loops and their scalar tails give NaNs of either sign, so
    a NaN's sign bit follows where it falls in an array, not the arithmetic.
    """
    a, b = (np.ascontiguousarray(x).view(np.float64) for x in (a, b))
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


class TestArrayForms:
    """The engine's broadcast array forms against their loop forms, bit for bit."""

    def test_the_broadcast_product_is_the_entrywise_product(self):
        rng = np.random.default_rng(15)
        x, y = entries(rng, (2, 2, 3, 5, 16)), entries(rng, (2, 2, 3, 5, 16))
        r, u = entries(rng, (2, 2, 3)), entries(rng, (2, 2, 3))
        pairs = {
            "tree halves": (x[..., 1::2], x[..., 0::2]),
            "scan shifts": (x[..., 4:], x[..., :-4]),
            "batch (2, 2, m, b)": (x[..., 0], y[..., 0]),
            "two exponentials": (x[:, :, 1], x[:, :, 0]),  # factors[:, :, 1] times factors[:, :, 0]
            "rotations": (r, u.transpose(1, 0, 2)),
        }
        z = entries(rng, (2, 2, 2, 4, 1024))  # past _BROADCAST_ENTRIES, one entry at a time
        pairs["two exponentials, full block"] = (z[:, :, 1], z[:, :, 0])
        pairs["tree halves, full block"] = (z[..., 1::2], z[..., 0::2])
        with np.errstate(all="ignore"):
            for name, (a, b) in pairs.items():
                assert same_bits(traversal._mat(a, b), reference.entrywise_mat(a, b)), name

    @pytest.mark.parametrize("n", [1, 2, 8, 512])
    def test_the_scans_last_element_is_the_tree(self, n):
        # level d of the scan multiplies element j by element j - d: at j = n - 1
        # those are the tree's nodes over the last 2d elements
        rng = np.random.default_rng(n)
        x = rng.normal(size=(2, 2, 3, n)) + 1j * rng.normal(size=(2, 2, 3, n))
        e = rng.integers(-50, 50, size=(3, n))
        tree, tree_e = traversal._tree(x, e)
        scan, scan_e = traversal._scan(x, e)
        assert same_bits(scan[..., -1], tree) and np.array_equal(scan_e[..., -1], tree_e)


class TestRows:
    @staticmethod
    def passes(monkeypatch) -> tuple:
        """The lengths of the trees and of the scans that ``traversal`` runs, from now on."""
        trees, scans = [], []
        real_tree, real_scan = traversal._tree, traversal._scan

        def tree(x, e):
            trees.append(x.shape[-1])
            return real_tree(x, e)

        def scan(x, e):
            scans.append(x.shape[-1])
            return real_scan(x, e)

        monkeypatch.setattr(traversal, "_tree", tree)
        monkeypatch.setattr(traversal, "_scan", scan)
        return trees, scans

    def test_the_settled_count_runs_one_product_pass(self, monkeypatch):
        # encircling_loop(50) settles at 512 steps, the 512 row intervals; the
        # map is the last element of their scan, so no tree runs over them.
        # 256 steps cannot hold 512 intervals: that count scans its one interval
        trees, scans = self.passes(monkeypatch)
        tmap, n, _, maps, exponents = traversal.eigen_rows(REF, encircling_loop(50.0), 1e-10, 512)
        assert (tmap.steps, n) == (512, 512)
        assert scans == [1, 512]
        assert 512 not in trees
        # the last row's map is the settled map's bits
        assert maps[-1].tobytes() == tmap.U.tobytes()
        assert exponents[-1, 0] * math.log(2.0) == tmap.log_scale

    @pytest.mark.parametrize("n_output", [8, 512])
    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-8])
    @pytest.mark.parametrize(
        "loop",
        [encircling_loop(50.0, Direction.CW), encircling_loop(50.0, Direction.CCW),
         diode_loop(Direction.CW), diode_loop(Direction.CCW)],
        ids=["encircling-cw", "encircling-ccw", "diode-cw", "diode-ccw"],
    )
    def test_the_last_row_is_the_traversal_map(self, loop, rel_tol, n_output):
        # the rows are rotated into the bare frame as the map is, so where both
        # stop at one step count the last row is the map's bits
        _, n, _, maps, exponents = traversal.eigen_rows(REF, loop, rel_tol, n_output)
        (tmap,) = traversal_maps(REF, [loop], rel_tol)
        assert n == tmap.steps
        assert maps[-1].tobytes() == tmap.U.tobytes()
        assert exponents[-1, 0] * math.log(2.0) == tmap.log_scale

    def test_a_count_that_cannot_settle_takes_the_scan(self, monkeypatch):
        # the README config with e1 = 18 is unresolved up to 1024 steps (no
        # count there may settle) and settles at 4096; every count from 512
        # on scans its 512 intervals, and none runs a tree over them
        params = SystemParams(e1=18.0, e2=1.0, gamma1=0.1, gamma2=0.3, d12=1.0 + 0.0j)
        loop = LoopSpec(FieldPoint(0.92005, 0.64976), 2.02446, 0.64973, Direction.CW, 348.75, 4.35017)
        trees, scans = self.passes(monkeypatch)
        tmap, n, *_ = traversal.eigen_rows(params, loop, 1e-10, 512)
        assert (tmap.steps, n) == (4096, 4096)
        assert scans == [1, 512, 512, 512, 512]
        assert 512 not in trees
        # at the unresolved counts too, the scan's last element is the tree's bits
        for steps in (512, 1024):
            run = traversal._intervals(params, traversal._batch(params, [loop], True), steps, steps // 512)
            assert not run.resolved[0]
            with np.errstate(all="ignore"):
                (x, e), (u, f) = traversal._scan(run.x, run.e), traversal._tree(run.x, run.e)
            assert (x[..., -1].tobytes(), e[..., -1].tobytes()) == (u.tobytes(), f.tobytes())


class TestExtrapolatedPair:
    """A map also stops on R_n = (16 U_n - U_{n/2}) / 15, each case against the oracle at 16,384 steps."""

    def test_a_smooth_cell_settles_at_a_quarter_of_the_steps(self):
        # README grid, CCW cell (0, 2), T = 300, amp 0.4071: U's change / 15
        # reaches rel_tol at 8192 steps; R's change / 63 at 2048, where R's
        # oracle error is 3.4e-13 and its change 9.0e-11
        loop = grid_cell(8, 0, 2, Direction.CCW)
        (tmap,) = traversal_maps(REF, [loop], 1e-10)
        assert (tmap.steps, tmap.frame) == (2048, "eigen")
        assert oracle_error(tmap.U, tmap.log_scale, loop) <= tmap.floor <= 63 * 1e-10
        # the rows keep U's rule: their prefix maps are 4th order at the settled count
        rows_map, n, *_ = traversal.eigen_rows(REF, loop, 1e-10, 512)
        assert (rows_map.steps, n) == (8192, 8192)

    def test_a_rounding_limited_cell_reports_the_undivided_change(self):
        # linear README grid, CW cell (7, 4), T = 375, amp 0.7643: R stops at 2048
        # steps with a change of 1.8e-9 (38-fold under the one before), whose
        # 63rd part, 2.9e-11, understates R's error 1.1e-9 38-fold
        loop = grid_cell(8, 7, 4, Direction.CW)
        (tmap,) = traversal_maps(REF, [loop], 1e-10)
        assert tmap.steps == 2048
        error = oracle_error(tmap.U, tmap.log_scale, loop)
        assert tmap.floor / 63 < 1e-10 < 1e-9 < error <= tmap.floor

    def test_the_first_extrapolated_change_does_not_stop_a_map(self):
        # perfbench grid CCW cell (0, 3), T = 300, amp 1.3: R's first change
        # (1024 steps) reads 6.2e-11 after / 63, but R's error is 7.9e-9;
        # with no change before it to shrink from, the doubling goes on and
        # U's stall rule stops the map at 2048 steps on U's change 1.3e-8
        loop = grid_cell(4, 0, 3, Direction.CCW)
        (tmap,) = traversal_maps(REF, [loop], 1e-10)
        u, e = plain_map(loop, 2048)
        assert (tmap.steps, tmap.U.tobytes(), tmap.log_scale) == (2048, u.tobytes(), e * math.log(2.0))
        assert tmap.floor == pytest.approx(1.26e-8, rel=0.01)
        assert oracle_error(tmap.U, tmap.log_scale, loop) <= tmap.floor
        maps = [plain_map(loop, n) for n in (256, 512, 1024)]
        r512, r1024 = (u + (u - v * 2.0 ** (f - e)) / 15 for (v, f), (u, e) in zip(maps, maps[1:]))
        first = traversal._change(r1024, maps[2][1], r512, maps[1][1])
        assert first / 63 < 1e-10 < 1e-9 < oracle_error(r1024, maps[2][1] * math.log(2.0), loop)

    def test_the_diode_maps_keep_their_count_and_bits(self):
        # table1's maps stop on U's stall rule at 1024 steps, before R may stop them
        for direction in (Direction.CW, Direction.CCW):
            (tmap,) = traversal_maps(REF, [diode_loop(direction)], 1e-10)
            u, e = plain_map(diode_loop(direction), 1024)
            assert (tmap.steps, tmap.U.tobytes(), tmap.log_scale) == (1024, u.tobytes(), e * math.log(2.0))

    @pytest.mark.parametrize(
        "change, before, r_change, r_before, verdict",
        [
            (1e-8, 1.6e-7, 5e-9, 2e-7, "extrapolated"),  # R's change / 63 <= rel_tol, 40-fold smaller
            (1e-8, 1.6e-7, 5e-9, math.inf, None),  # R's first change: nothing to shrink from
            (1e-8, 1.6e-7, 5e-9, 1e-7, None),  # only 20-fold smaller
            (1e-8, 1.6e-7, 7e-9, 1e-6, None),  # R's change / 63 above rel_tol
            (1.4e-9, 2e-8, 5e-9, 2e-7, "settled"),  # U's own rule comes first
            (1e-8, 2e-8, 5e-9, 2e-7, "settled"),  # so does U's stall at the floor
        ],
    )
    def test_extrapolated_stop_rule(self, change, before, r_change, r_before, verdict):
        assert traversal._verdict(change, before, True, 1e-10, r_change, r_before) == verdict
        assert traversal._verdict(change, before, False, 1e-10, r_change, r_before) is None


class TestFrames:
    def test_the_diode_loop_takes_the_eigenframe(self):
        for tmap in traversal_maps(REF, [diode_loop(d) for d in (Direction.CW, Direction.CCW)], 1e-10):
            assert tmap.frame == "eigen"
            assert tmap.steps >= 512

    def test_a_gauss_sample_in_the_guard_leaves_the_map_to_the_bare_frame(self):
        # a CCW circle through the EP at (1, 0.2) whose start phase puts the
        # first Gauss point of step 192 of 256 on it: the EP guard rules out
        # that count's eigenframe, so the map takes the bare frame; the
        # adiabatic route has no other frame and raises before any step, at
        # the contour point of the EP's own angle
        phase = 1.5 * math.pi - 2.0 * math.pi * (192 + 0.5 - math.sqrt(3.0) / 6.0) / 256
        loop = LoopSpec(FieldPoint(1.0, 0.25), 0.05, 0.05, Direction.CCW, 50.0, phase)
        (tmap,) = traversal_maps(REF, [loop], 1e-10)
        assert (tmap.frame, tmap.steps) == ("bare", 512)
        for n_output in (512, 500):
            with pytest.raises(EPOnContourError, match="^the contour point at t = 37.5413 of "):
                propagate_adiabatic(REF, loop, StateVector.basis(1), n_output=n_output)

    @pytest.mark.parametrize(
        "loop",
        [hermitian_loop(10.0, Direction.CW), THIN],
        ids=["ep-on-contour", "ep-1e-4-from-contour"],
    )
    def test_a_pass_at_the_ep_takes_the_bare_frame(self, loop):
        # the eigenframe product through an unresolved EP converges to a wrong
        # map; the bare frame agrees with the direct route
        (tmap,) = traversal_maps(REF, [loop], 1e-10)
        assert tmap.frame == "bare"
        init = StateVector.equal_superposition()
        direct = propagate_direct(REF, loop, init, IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15))
        want = final_state_report(direct, loop.direction)
        c = tmap.U @ init.as_array()
        pops = np.abs(c) ** 2
        assert (1 if pops[0] > pops[1] else 2) == want.dominant_state
        assert max(pops) / min(pops) == pytest.approx(want.ratio, rel=1e-6)


class TestBoundedWork:
    def test_past_the_float64_floor_a_stalled_doubling_stops_early(self):
        # at T = 600 rounding moves the diode map by more than 1e-3 at every
        # step count, in both frames; the change stalls once every step is
        # resolved, and both frames stop there instead of at the cap
        loop = diode_loop(Direction.CW, 600.0)
        start = time.perf_counter()
        with pytest.raises(StepBudgetError, match=r"duration_T=600\.0.*does not settle in float64: its change "
                           r"stalled at .* at 1024 steps"):
            traversal_maps(REF, [loop], 1e-10)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "change, before, resolved, verdict",
        [
            (1.4e-9, 2e-8, True, "settled"),  # change / 15 <= rel_tol
            (5e-4, 1e-3, True, "settled"),  # stalled at the floor
            (3e-3, 4e-3, True, "stalled"),  # stalled above the floor
            (1.4e-9, 2e-8, False, None),  # an unresolved step can agree by chance
            (3e-3, 4e-3, False, None),  # or still converge
            (3e-3, 1.0, True, None),  # shrinking 16-fold: not a stall
            (3e-3, math.inf, True, None),  # the first change
        ],
    )
    def test_stop_rule(self, change, before, resolved, verdict):
        assert traversal._verdict(change, before, resolved, 1e-10) == verdict

    @pytest.mark.parametrize("T", [2e16, 1e300])
    def test_a_map_that_overflows_at_every_step_count_stops_at_the_first(self, T, monkeypatch):
        # the largest |Re sigma| at 256 steps, scaled to the cap's step, is past
        # twice float64's exp limit; the errors are those of the cap
        loop = LoopSpec(FieldPoint(1.0, 0.2), 0.05, 0.05, Direction.CW, T)
        counts = self.counted(monkeypatch)
        with pytest.raises(StepBudgetError, match="overflows float64 at every step count up to 131072: no step fits$"):
            traversal_maps(REF, [loop], 1e-10)
        assert len(counts) <= 2, counts  # the eigenframe once, the bare frame once
        counts.clear()
        with pytest.raises(StepBudgetError, match="overflows float64 at every step count up to 131072: no step fits$"):
            propagate_adiabatic(REF, loop, StateVector.basis(1), ACCEPT)
        assert len(counts) <= 2, counts

    @pytest.mark.parametrize(
        "params, loop, finer",
        [
            # overflows at 256 to 1024 steps and is finite from 2048 on (it
            # settles nowhere: no loop that overflows at 256 steps resolves its steps by the cap)
            (REF, LoopSpec(FieldPoint(1.0, 0.2), 0.05, 0.05, Direction.CW, 1e7), 2048),
            # an imaginary sigma whose square overflows (sigma^2 = -inf at 256
            # and 512 steps, bare frame): Re sigma = 0, and 1024 steps fit
            (HERMITIAN_PARAMS, hermitian_loop(1e158), 1024),
        ],
    )
    def test_a_map_that_fits_a_finer_step_count_keeps_doubling(self, params, loop, finer, monkeypatch):
        for n, fits in ((256, False), (finer, True)):  # the bare frame's map, one interval of n steps
            run = traversal._intervals(params, traversal._batch(params, [loop], False), n, n)
            assert bool(np.isfinite(run.x).all()) is fits
        counts = self.counted(monkeypatch)
        with pytest.raises(StepBudgetError, match="has not settled at 131072 steps$"):
            traversal_maps(params, [loop], 1e-10)
        assert counts[-1] == traversal._STEP_CAP
        counts.clear()
        with pytest.raises(StepBudgetError, match="has not settled at 131072 steps$"):
            propagate_adiabatic(params, loop, StateVector.basis(1), ACCEPT)
        assert counts[-1] == traversal._STEP_CAP

    @pytest.mark.parametrize("T", [2e16, 1e7])
    def test_both_entry_points_give_one_reason(self, T):
        # the maps end in the bare frame and the adiabatic route in the
        # eigenframe, each with the one message of the condition that ends it
        loop = LoopSpec(FieldPoint(1.0, 0.2), 0.05, 0.05, Direction.CW, T)
        with pytest.raises(EpdynError) as maps:
            traversal_maps(REF, [loop], 1e-10)
        with pytest.raises(EpdynError) as adiabatic:
            propagate_adiabatic(REF, loop, StateVector.basis(1), ACCEPT)
        assert type(maps.value) is type(adiabatic.value)
        bare, eigen = f"the traversal map of {loop} ", f"the eigenframe map of {loop} "
        assert str(maps.value).startswith(bare) and str(adiabatic.value).startswith(eigen)
        assert str(maps.value)[len(bare):] == str(adiabatic.value)[len(eigen):]

    @staticmethod
    def counted(monkeypatch) -> list:
        """The step counts ``traversal._intervals`` runs, from now on."""
        counts, real = [], traversal._intervals

        def intervals(params, batch, n, *args):
            counts.append(n)
            return real(params, batch, n, *args)

        monkeypatch.setattr(traversal, "_intervals", intervals)
        return counts

    def test_a_failing_loop_leaves_its_batch_mates_alone(self):
        maps = traversal._maps(REF, [diode_loop(Direction.CW, 600.0), encircling_loop(50.0)], 1e-10)
        assert isinstance(maps[0], StepBudgetError)
        assert maps[1].U.tobytes() == traversal_maps(REF, [encircling_loop(50.0)], 1e-10)[0].U.tobytes()


def test_sweep_decisions_hold_as_the_tolerance_changes():
    # perfbench's 4x4 grid at the acceptance abs_tol; at the parent the direct
    # route's ratio of cell (3, 3) read 1265.1, 1109.8 and 837.7 at these
    # tolerances, so its pass_ratio followed the rounding
    spec = SweepSpec(
        template=diode_loop(Direction.CW),
        durations=tuple(300.0 + 25.0 * k for k in range(4)),
        amp_scales=tuple(0.05 + (1.25 / 3) * k for k in range(4)),
        direction=Direction.CCW,
        initial_phase=1.234,
        ratio_min=1e3,
        dominant_target=2,
    )
    decisions, corner = [], []
    for rel_tol in (1e-8, 1e-10, 1e-12):
        result = sweep(spec, REF, IntegratorConfig(rel_tol=rel_tol, abs_tol=1e-14))
        assert not any(c.error for c in result.cells)
        decisions.append([(c.dominant_state, c.pass_ratio, c.pass_survival) for c in result.cells])
        corner.append(result.cell(3, 3).ratio)
    assert decisions[0] == decisions[1] == decisions[2]
    assert max(corner) / min(corner) - 1.0 < 1e-3, corner


class TestOneReportPath:
    """A map's report is its two-row record's, finished as the adiabatic route finishes its rows.

    So wherever the route's last kept map is the map's U, bit for bit,
    ``simulate --method adiabatic`` prints the floats of the table's row or
    the sweep's cell.
    """

    @staticmethod
    def last_kept_map_is(loop: LoopSpec, tmap) -> bool:
        _, _, _, maps, exponents = traversal.eigen_rows(REF, loop, ACCEPT.rel_tol, 512)
        return maps[-1].tobytes() == tmap.U.tobytes() and exponents[-1, 0] == tmap.exponent

    @pytest.mark.parametrize("loop", [diode_loop(Direction.CW), encircling_loop(50.0)], ids=["diode", "encircling-50"])
    def test_the_route_reports_the_table_rows(self, loop):
        table = table1(REF, loop, ACCEPT)
        oriented = {d: dataclasses.replace(loop, direction=d) for d in (Direction.CW, Direction.CCW)}
        maps = dict(zip(oriented, traversal_maps(REF, list(oriented.values()), ACCEPT.rel_tol)))
        for row in table.rows:
            assert self.last_kept_map_is(oriented[row.direction], maps[row.direction])
            traj = propagate_adiabatic(REF, oriented[row.direction], StateVector.basis(row.initial_state), ACCEPT)
            report = final_state_report(traj, row.direction)
            assert repr(report) == repr(row.report)  # repr tells every float apart

    def test_the_route_reports_the_sweep_cells(self):
        # perfbench's 4x4 CCW grid: 12 cells' maps are the route's last kept
        # map; the other 4 stop on the extrapolated pair at 2048 steps, where
        # the route's rows take U at 8192
        spec = SweepSpec(
            template=diode_loop(Direction.CW),
            durations=tuple(300.0 + 25.0 * k for k in range(4)),
            amp_scales=tuple(0.05 + (1.25 / 3) * k for k in range(4)),
            direction=Direction.CCW,
            initial_phase=1.234,
        )
        compared = 0
        for cell in sweep(spec, REF, ACCEPT).cells:
            loop = spec.cell_loop(cell.i, cell.j)
            (tmap,) = traversal_maps(REF, [loop], ACCEPT.rel_tol)
            if self.last_kept_map_is(loop, tmap):
                report = final_state_report(propagate_adiabatic(REF, loop, spec.initial_state(), ACCEPT), loop.direction)
                assert (repr(report.ratio), repr(report.survival)) == (repr(cell.ratio), repr(cell.survival))
                compared += 1
        assert compared == 12


def test_a_tiny_state_reports_like_its_multiple():
    # the reports scale the initial state by a power of two first, so
    # |U c0|^2 of a subnormal state does not underflow
    loop = encircling_loop(15.0)
    (tmap,) = traversal_maps(REF, [loop], ACCEPT.rel_tol)
    kept = _map_loop(REF, loop, tmap)
    big, tiny = (final_state_report(_map_record(REF, loop, ACCEPT, kept, initial), loop.direction)
                 for initial in (StateVector.equal_superposition(0.0), StateVector(5e-324, 5e-324)))
    assert tiny.ratio == pytest.approx(big.ratio, rel=1e-14)
    assert tiny.survival == pytest.approx(big.survival, rel=1e-12)


@pytest.mark.parametrize("direction", [Direction.CW, Direction.CCW], ids=lambda d: d.value)
def test_direct_rows_select_as_the_map_near_the_suppressed_direction(direction):
    # every state's row is U c0 from one run of U, so a state near U's
    # suppressed input direction v2 (the map's second right singular
    # vector) loses digits to cancellation. Wherever the map's ratio exceeds
    # 10, the direct route's dominant state is the map's, for 64 Gaussian
    # states and v2 itself (the worst ratio errors against the map, here
    # and at the per-state route before it, are in notes/decisions.md)
    loop = diode_loop(direction)
    (tmap,) = traversal_maps(REF, [loop], ACCEPT.rel_tol)
    _, sigma, vh = np.linalg.svd(tmap.U)
    assert sigma[1] / sigma[0] < 1e-3
    rng = np.random.default_rng(2013)
    states = list(rng.normal(size=(64, 2)) + 1j * rng.normal(size=(64, 2))) + [vh[1].conj()]
    checked = 0
    for c0 in states:
        pops = np.abs(tmap.U @ c0) ** 2
        report = final_state_report(propagate_direct(REF, loop, StateVector(*c0), ACCEPT, n_output=8), direction)
        if max(pops[0] / pops[1], pops[1] / pops[0]) > 10.0:
            checked += 1
            assert report.dominant_state == (1 if pops[0] > pops[1] else 2), c0
    assert checked == len(states)
