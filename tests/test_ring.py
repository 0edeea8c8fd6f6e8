"""Unit tests for repro.grid.ring (persistent linked-ring contours).

The load-bearing property is **materialization equivalence**: after any
sequence of ``update`` calls, ``RingSet.to_boundaries()`` must be
byte-identical to a fresh ``extract_boundaries`` of the same cells —
canonical rotation, canonical order, outer flag and all.  The edge-case
tests pin the splice paths the equivalence suite only exercises
statistically: arcs spanning the canonical rotation origin, holes opening
and closing, and contour splits/merges (which must fall back to a full
re-trace rather than corrupt the rings).
"""

import pytest

from repro.core.algorithm import GatherOnGrid
from repro.core.config import AlgorithmConfig
from repro.core.quasiline import StartSiteIndex, run_start_sites
from repro.engine.scheduler import FsyncEngine
from repro.grid.boundary import extract_boundaries
from repro.grid.occupancy import SwarmState
from repro.grid.ring import RingSet
from repro.swarms.generators import ring, solid_rectangle


def assert_canonical(rs, cells):
    got = rs.to_boundaries()
    want = extract_boundaries(set(cells))
    assert got == want
    for rg, b in zip(rs.rings, want):
        assert len(rg) == len(b.robots)
        assert rg.robots_cycle() == b.robots


class TestConstruction:
    def test_matches_extraction_on_families(self):
        from repro.swarms.generators import FAMILIES, family

        for name in sorted(FAMILIES):
            cells = family(name, 48)
            rs = RingSet.from_cells(set(cells))
            assert_canonical(rs, cells)

    def test_single_robot(self):
        rs = RingSet.from_cells({(3, 3)})
        assert len(rs.rings) == 1
        assert len(rs.rings[0]) == 1
        assert rs.rings[0].robots_cycle() == ((3, 3),)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            RingSet.from_cells(set())


class TestSpliceEdgeCases:
    def test_dirty_arc_spans_canonical_origin(self):
        """Vacating the anchor cell itself: the dirty arc covers the
        outer ring's canonical start side, and the anchor (hence the
        head) must migrate — byte-identically to full extraction."""
        old = set(solid_rectangle(5, 5))
        anchor_cell = min(old, key=lambda c: (c[1], c[0]))
        new = (old - {anchor_cell}) | {(2, 5)}
        rs = RingSet.from_cells(old)
        rs.update(new, {anchor_cell, (2, 5)})
        assert_canonical(rs, new)

    def test_dirty_arc_spans_inner_canonical_origin(self):
        """An update touching the hole contour's lexicographically
        smallest side must re-canonicalize the inner head."""
        old = set(ring(6))
        inner = extract_boundaries(old)[1]
        min_cell = min(c for c, _ in inner.sides)
        # fold the min-side robot's cell... simplest: fill a hole cell
        # adjacent to it so its sides rewire
        new = old | {(1, 1)}
        rs = RingSet.from_cells(old)
        rs.update(new, {(1, 1)})
        assert_canonical(rs, new)
        assert min_cell is not None  # (sanity: the shape has a hole)

    def test_hole_opens(self):
        old = set(solid_rectangle(5, 5))
        new = old - {(2, 2)}
        rs = RingSet.from_cells(old)
        rs.update(new, {(2, 2)})
        assert_canonical(rs, new)
        assert len(rs.rings) == 2

    def test_hole_closes(self):
        old = set(solid_rectangle(3, 3)) - {(1, 1)}
        new = old | {(1, 1)}
        rs = RingSet.from_cells(old)
        assert len(rs.rings) == 2
        rs.update(new, {(1, 1)})
        assert_canonical(rs, new)
        assert len(rs.rings) == 1

    def test_contour_split_falls_back(self):
        """Closing a C into an O splits the outer contour into outer +
        hole; the splice cannot represent that and must fall back to a
        full re-trace, still matching extraction exactly."""
        full = set(ring(6))
        gap = (3, 0)
        old = full - {gap}  # C shape: one contour
        rs = RingSet.from_cells(old)
        assert len(rs.rings) == 1
        rs.update(full, {gap})
        assert_canonical(rs, full)
        assert len(rs.rings) == 2

    def test_contour_merge_falls_back(self):
        """Opening an O into a C merges the hole contour into the outer;
        must fall back and still match extraction exactly."""
        full = set(ring(6))
        gap = (3, 0)
        new = full - {gap}
        rs = RingSet.from_cells(full)
        assert len(rs.rings) == 2
        rs.update(new, {gap})
        assert_canonical(rs, new)
        assert len(rs.rings) == 1
        # a structural change of this size is recorded as a fallback
        assert any(cid == -1 for cid, _, _ in rs.last_resplices)

    def test_no_change_is_noop(self):
        cells = set(ring(8))
        rs = RingSet.from_cells(cells)
        before = [id(r) for r in rs.rings]
        rs.update(cells, set())
        assert [id(r) for r in rs.rings] == before
        assert rs.last_resplices == []


class TestInvariants:
    def test_canonical_min_of_an_empty_ring_is_an_invariant_error(self):
        """A ring whose every side is dead has no canonical head: a
        typed error that survives ``python -O``, not a bare assert."""
        from repro.errors import InvariantError

        rs = RingSet.from_cells(set(ring(6)))
        inner = rs.rings[1]
        rs.node_of = {}  # every heap entry is now a dead side
        inner._minheap = None
        with pytest.raises(InvariantError, match="canonical side"):
            rs._min_node(inner)


class TestNodeStability:
    def test_clean_nodes_keep_identity(self):
        """Nodes outside the dirty arcs survive an update as the same
        objects with the same node ids."""
        old = set(ring(10))
        # vacate one outer corner robot (a fold-like local change)
        new = (old - {(0, 0)}) | {(1, 1)}
        rs = RingSet.from_cells(old)
        far_side = ((5, 0), (0, -1))  # bottom wall, far from the change
        far_node = rs.node_of[far_side]
        rs.update(new, {(0, 0), (1, 1)})
        assert rs.node_of[far_side] is far_node
        assert_canonical(rs, new)

    def test_persisting_dirty_side_reuses_node(self):
        """A side inside the dirty halo that survives the re-trace keeps
        its node object (identity-preserving splice)."""
        old = set(ring(10))
        new = (old - {(0, 0)}) | {(1, 1)}
        rs = RingSet.from_cells(old)
        # (2, 0) is within the halo of (1, 1); its south side survives
        near_side = ((2, 0), (0, -1))
        near_node = rs.node_of[near_side]
        rs.update(new, {(0, 0), (1, 1)})
        assert rs.node_of[near_side] is near_node

    def test_ring_ids_stable_for_untouched_rings(self):
        old = set(ring(10))
        new = (old - {(0, 0)}) | {(1, 1)}
        rs = RingSet.from_cells(old)
        inner_id = rs.rings[1].ring_id
        rs.update(new, {(0, 0), (1, 1)})
        assert rs.rings[1].ring_id == inner_id


class TestRobotCycleNavigation:
    def test_robots_cycle_matches_collapse(self):
        for cells in (ring(7), solid_rectangle(4, 2), [(i, 0) for i in range(5)]):
            rs = RingSet.from_cells(set(cells))
            for rg, b in zip(rs.rings, extract_boundaries(set(cells))):
                assert rg.robots_cycle() == b.robots

    def test_walk_and_positions_on_one_thick_line(self):
        """1-thick contours visit interior robots twice; stepping and
        positions must follow the collapsed cycle, occurrences distinct."""
        cells = [(i, 0) for i in range(4)]
        rs = RingSet.from_cells(set(cells))
        rg = rs.rings[0]
        robots = rg.robots_cycle()
        assert len(robots) == 6  # 4 robots, 2 interior ones twice
        pm = rg.positions_map()
        assert sorted(pm.values()) == list(range(6))
        # walking n steps returns to the start occurrence
        start = next(iter(pm))
        cur = start
        for _ in range(len(rg)):
            cur = rg.step(cur, 1)
        assert cur is start

    def test_step_directions_inverse(self):
        rs = RingSet.from_cells(set(ring(6)))
        rg = rs.rings[0]
        head = rg.occurrence_head(rg.head)
        assert rg.step(rg.step(head, 1), -1) is head


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("name", ["ring_48", "blob_48", "spiral_48"])
    def test_update_tracks_engine(self, name):
        from repro.swarms.generators import family

        fam, n = name.rsplit("_", 1)
        cells = family(fam, int(n))
        rs = RingSet.from_cells(set(cells))
        ctrl = GatherOnGrid(AlgorithmConfig())
        eng = FsyncEngine(SwarmState(cells), ctrl)
        rounds = 0
        while not eng.state.is_gathered() and rounds < 200:
            eng.step()
            rounds += 1
            rs.update(
                eng.state.cells,
                eng.state.last_changed,
                rows=eng.state.rows(),
            )
            assert_canonical(rs, eng.state.cells)


class TestResplicedEvents:
    def test_incremental_emits_audit_events(self):
        from repro.core.algorithm import gather

        r = gather(ring(12), AlgorithmConfig(incremental=True))
        events = r.events.of_kind("boundary_respliced")
        assert events, "incremental mode must audit its boundary work"
        for e in events:
            for cycle_id, arc, removed in e.data["arcs"]:
                assert isinstance(cycle_id, int)
                assert arc >= 0 and removed >= 0

    def test_full_rescan_emits_none(self):
        from repro.core.algorithm import gather

        r = gather(ring(12), AlgorithmConfig(incremental=False))
        assert not r.events.of_kind("boundary_respliced")


def assert_index_matches_scan(idx, rs, cells):
    """The start-site index over the repaired rings admits exactly the
    sites the full contour scan finds on freshly extracted boundaries."""
    def canonical(sites):
        return [
            (s.boundary_index, s.robot, s.direction, s.stretch_dir, s.prev)
            for s in sorted(
                sites,
                key=lambda s: (s.boundary_index, s.position, s.direction),
            )
        ]

    steps = AlgorithmConfig().start_straight_steps
    want = run_start_sites(extract_boundaries(set(cells)), steps)
    assert canonical(idx.sites(rs)) == canonical(want)


def indexed_ring_set(cells):
    rs = RingSet.from_cells(set(cells))
    idx = StartSiteIndex(AlgorithmConfig().start_straight_steps)
    rs.observer = idx
    return rs, idx


class TestBatchedRepair:
    """``RingSet.update`` fed the union of several rounds' flips — the
    form the pipeline uses when it repairs only in rounds that read the
    contours.  The union is a superset of the net flips (a cell that
    flipped twice is only extra dirt), so every batch must still
    materialize byte-identically to full extraction."""

    @pytest.mark.parametrize("k", [1, 2, 5, 22, 40])
    @pytest.mark.parametrize(
        "fam,n",
        # sized so every gather runs 27-314 rounds, long enough for
        # several multi-round batches
        [("ring", 124), ("spiral", 331), ("blob", 1500), ("tree", 1000),
         ("solid", 2500), ("staircase", 499)],
    )
    def test_engine_batches_match_extraction(self, fam, n, k):
        from repro.swarms.generators import family

        cells = family(fam, n)
        rs, idx = indexed_ring_set(cells)
        eng = FsyncEngine(
            SwarmState(cells), GatherOnGrid(AlgorithmConfig()),
            check_connectivity=False,
        )
        batch = set()
        repairs = 0
        while not eng.state.is_gathered():
            assert eng.round_index < 1000, "the gather stalled"
            eng.step()
            batch |= eng.state.last_changed
            if eng.round_index % k == 0 or eng.state.is_gathered():
                rs.update(eng.state.cells, batch, rows=eng.state.rows())
                batch = set()
                assert_canonical(rs, eng.state.cells)
                assert_index_matches_scan(idx, rs, eng.state.cells)
                repairs += 1
        assert repairs == -(-eng.round_index // k)

    def test_hole_opens_and_closes_within_one_batch(self):
        """A hole opened in one round and filled in the next leaves no
        net flip there; the batch carries the cell as extra dirt next to
        a real change on the outer contour."""
        start = set(solid_rectangle(6, 6))
        rs, idx = indexed_ring_set(start)
        opened = start - {(2, 2), (0, 0)}
        assert len(extract_boundaries(opened)) == 2  # the hole is real
        end = opened | {(2, 2)}
        rs.update(end, {(2, 2), (0, 0)})
        assert_canonical(rs, end)
        assert_index_matches_scan(idx, rs, end)
        assert len(rs.rings) == 1

    def test_hole_closes_and_another_opens_within_one_batch(self):
        """One hole filled and another opened in one batch: the old
        inner ring is doomed and the new one reseeded."""
        start = set(solid_rectangle(7, 7)) - {(2, 2)}
        rs, idx = indexed_ring_set(start)
        end = (start | {(2, 2)}) - {(4, 4)}
        rs.update(end, {(2, 2), (4, 4)})
        assert_canonical(rs, end)
        assert_index_matches_scan(idx, rs, end)
        assert len(rs.rings) == 2

    def test_split_inside_a_batch_falls_back(self):
        """Closing a C into an O splits its contour; with further flips
        batched around it the repair must still take the full-rebuild
        fallback and match extraction."""
        full = set(ring(8))
        gap = (3, 0)
        start = full - {gap}
        rs, idx = indexed_ring_set(start)
        assert len(rs.rings) == 1
        # round 1 closes the gap; round 2 moves a far corner inward
        end = (full - {(7, 7)}) | {(6, 6)}
        rs.update(end, {gap, (7, 7), (6, 6)})
        assert any(cid == -1 for cid, _, _ in rs.last_resplices)
        assert_canonical(rs, end)
        assert_index_matches_scan(idx, rs, end)
        assert len(rs.rings) == 2


class TestDemandDrivenRepair:
    """The pipeline repairs its rings only in rounds that read them."""

    def test_repairs_equal_contour_reading_rounds(self):
        """On a compact blob gather the ring set is touched (one
        batched update, or a rebuild after the pending set outgrew the
        swarm) exactly in the rounds with a live run or a due start."""
        from repro.swarms.generators import random_blob

        cfg = AlgorithmConfig()
        ctrl = GatherOnGrid(cfg)
        # 29 rounds: runs live in rounds 0-7, starts due at 0 and 22
        eng = FsyncEngine(SwarmState(random_blob(1500, 2)), ctrl)
        rs = ctrl._pipeline.ring_set
        touched = []
        nested = [0]
        update, rebuild = rs.update, rs.rebuild

        repaired = []  # (round, arcs) of every repair that spliced

        def counting_update(*args, **kwargs):
            touched.append(eng.round_index)
            nested[0] += 1
            try:
                return update(*args, **kwargs)
            finally:
                nested[0] -= 1
                if rs.last_resplices:
                    repaired.append((
                        eng.round_index,
                        [list(r) for r in rs.last_resplices],
                    ))

        def counting_rebuild(*args, **kwargs):
            if not nested[0]:  # a fallback inside an update is not a sync
                touched.append(eng.round_index)
            return rebuild(*args, **kwargs)

        rs.update, rs.rebuild = counting_update, counting_rebuild
        reading = []
        while not eng.state.is_gathered():
            assert eng.round_index < 1000, "the gather stalled"
            r = eng.round_index
            if ctrl.run_manager.runs or r % cfg.run_start_interval == 0:
                reading.append(r)
            eng.step()
        assert touched == reading
        assert len(reading) < eng.round_index // 2  # most rounds skip
        # the audit lands in the round whose plan did the repair and
        # lists every arc of it
        audited = [
            (e.round_index, e.data["arcs"])
            for e in ctrl.events.of_kind("boundary_respliced")
        ]
        assert audited == repaired
        assert audited

    def test_pending_flips_stay_bounded_without_runs(self):
        """With runs disabled nothing reads the contours after a first
        read; the pending flips are dropped (rebuild on demand) once they
        reach the swarm size, so memory stays O(n)."""
        from repro.swarms.generators import random_blob

        ctrl = GatherOnGrid(AlgorithmConfig(enable_runs=False))
        eng = FsyncEngine(SwarmState(random_blob(300, 5)), ctrl)
        pipe = ctrl._pipeline
        pipe.contours(eng.state)  # build the rings once
        assert pipe._ring_pending == set()
        sizes = []
        while not eng.state.is_gathered():
            assert eng.round_index < 1000, "the gather stalled"
            n = len(eng.state)  # the plan syncs against this size
            eng.step()
            pending = pipe._ring_pending
            if pending is None:
                break
            assert len(pending) < n
            sizes.append(len(pending))
        assert pipe._ring_pending is None, "the bound never fired"
        assert sizes and sizes == sorted(sizes)  # a union only grows
        rebuilds = []
        rebuild = pipe.ring_set.rebuild
        pipe.ring_set.rebuild = lambda cells: rebuilds.append(1) or rebuild(
            cells
        )
        assert_canonical(pipe.contours(eng.state), eng.state.cells)
        assert rebuilds == [1]

    def test_version_jump_and_foreign_state_rebuild_on_read(self):
        """Flips the pipeline never saw (two ``apply_moves`` between
        syncs, or a different state object) cannot be batched: the next
        read must rebuild, not repair from an incomplete pending set."""
        from repro.core.incremental import IncrementalPipeline

        pipe = IncrementalPipeline(AlgorithmConfig())
        state = SwarmState(solid_rectangle(6, 6))
        pipe.contours(state)
        pipe.plan_merges(state)
        state.apply_moves({(0, 0): (1, 1)})
        state.apply_moves({(5, 5): (4, 4)})  # version jumped by two
        pipe.plan_merges(state)  # a non-reading round syncs the jump
        assert_canonical(pipe.contours(state), state.cells)
        other = SwarmState(ring(7))
        pipe.plan_merges(other)
        assert_canonical(pipe.contours(other), other.cells)
