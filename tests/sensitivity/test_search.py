"""Placement-search tests (§V-A's 2^N exploration, now branch-and-bound)."""

import itertools
import random

import pytest

from repro.apps.graph500 import Graph500Config, TrafficModel
from repro.errors import ReproError, SimulationError
from repro.sensitivity import search_placements
from repro.sensitivity.search import _BoundModel, _SearchSpace
from repro.sim import BufferAccess, KernelPhase, PatternKind, Placement
from repro.units import GB, MiB
from tests.conftest import XEON_PUS
from tests.sim import scalar_oracle


@pytest.fixture(scope="module")
def g500_setup():
    model = TrafficModel.analytic(20)
    cfg = Graph500Config(scale=20, nroots=1, threads=16)
    return model.phases(cfg), model.buffer_sizes()


class TestSearch:
    def test_enumerates_full_space(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        results = search_placements(
            xeon_engine, phases, sizes, (0, 2),
            default_node=0, pus=XEON_PUS,
        ).candidates
        assert len(results) == 2 ** 4

    def test_best_first_ordering(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        results = search_placements(
            xeon_engine, phases, sizes, (0, 2),
            default_node=0, pus=XEON_PUS,
        ).candidates
        times = [c.seconds for c in results]
        assert times == sorted(times)

    def test_oracle_places_parent_on_dram(self, xeon_engine, g500_setup):
        """The optimal placement agrees with the Latency criterion."""
        phases, sizes = g500_setup
        best = search_placements(
            xeon_engine, phases, sizes, (0, 2),
            default_node=0, pus=XEON_PUS,
        ).best
        assert best.as_dict()["parent"] == 0

    def test_candidates_share_their_pairs(self, xeon_engine, g500_setup):
        """One (buffer, node) pair per choice and search: candidates that
        put a buffer on the same node hold the same pair object."""
        phases, sizes = g500_setup
        results = search_placements(
            xeon_engine, phases, sizes, (0, 2),
            default_node=0, pus=XEON_PUS,
        ).candidates
        first_seen = {}
        for candidate in results:
            for pair in candidate.assignment:
                assert first_seen.setdefault(pair, pair) is pair
        assert len(first_seen) == 4 * 2

    def test_pruning_reduces_space(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        results = search_placements(
            xeon_engine, phases, sizes, (0, 2),
            default_node=0,
            critical_buffers=("parent", "csr_targets"),
            pus=XEON_PUS,
        ).candidates
        assert len(results) == 4

    def test_capacity_pruning(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        results = search_placements(
            xeon_engine, phases, sizes, (0, 2),
            default_node=0,
            critical_buffers=("parent",),
            node_capacity={0: 100 * GB, 2: 0},
            pus=XEON_PUS,
        ).candidates
        assert all(c.as_dict()["parent"] == 0 for c in results)

    def test_capacity_missing_node_means_unlimited(self, xeon_engine, g500_setup):
        """Regression: a node absent from node_capacity used to be treated
        as capacity 0 and silently made every placement on it infeasible."""
        phases, sizes = g500_setup
        result = search_placements(
            xeon_engine, phases, sizes, (0, 2),
            default_node=0,
            critical_buffers=("parent",),
            node_capacity={2: 0},   # node 0 not mentioned => unlimited
            pus=XEON_PUS,
        )
        assert [c.as_dict()["parent"] for c in result.candidates] == [0]
        assert result.stats.capacity_pruned == 1

    def test_budget_truncates_instead_of_raising(self, xeon_engine, g500_setup):
        """max_candidates is a pricing budget now, not a hard error."""
        phases, sizes = g500_setup
        logged = []
        result = search_placements(
            xeon_engine, phases, sizes, (0, 1, 2, 3),
            default_node=0, pus=XEON_PUS, max_candidates=8,
            log=logged.append,
        )
        assert result.stats.truncated
        assert result.stats.leaves_priced == 8
        assert len(result.candidates) == 8
        assert "TRUNCATED" in logged[0]

    def test_unknown_critical_buffer_rejected(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        with pytest.raises(ReproError):
            search_placements(
                xeon_engine, phases, sizes, (0, 2),
                default_node=0, critical_buffers=("ghost",), pus=XEON_PUS,
            )

    def test_duplicate_candidate_nodes_rejected(self, xeon_engine, g500_setup):
        """A repeated node used to be walked twice: duplicate placements
        and a space of 3^N instead of 2^N."""
        phases, sizes = g500_setup
        with pytest.raises(ReproError, match="duplicate candidate nodes"):
            search_placements(
                xeon_engine, phases, sizes, (0, 0, 2),
                default_node=0, pus=XEON_PUS, top_k=4,
            )

    @pytest.mark.parametrize(
        "kw",
        [dict(top_k=1), dict(top_k=None), dict(top_k=1, prune=False)],
        ids=["pruned", "all", "unpruned"],
    )
    def test_unknown_default_node_rejected(self, xeon_engine, g500_setup, kw):
        """Every buffer critical, so no walk prices the default node: the
        unknown node is still rejected on every path, before pricing."""
        phases, sizes = g500_setup
        with pytest.raises(SimulationError, match="unknown NUMA node 99"):
            search_placements(
                xeon_engine, phases, sizes, (0, 2), default_node=99,
                pus=XEON_PUS, **kw,
            )

    def test_duplicate_critical_buffers_rejected(self, xeon_engine, g500_setup):
        """A repeated critical buffer used to double the space and yield
        contradictory candidates, priced at its last position and charged
        twice against node capacity."""
        phases, sizes = g500_setup
        with pytest.raises(
            ReproError, match=r"duplicate critical buffers: \['parent'\]"
        ):
            search_placements(
                xeon_engine, phases, sizes, (0, 2), default_node=0,
                critical_buffers=("parent", "parent", "frontier"),
                pus=XEON_PUS,
            )

    def test_infeasible_everything_raises(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        with pytest.raises(ReproError):
            search_placements(
                xeon_engine, phases, sizes, (0,),
                default_node=0,
                critical_buffers=("parent",),
                node_capacity={0: 0},
                pus=XEON_PUS,
            )


class TestTopK:
    def test_topk_returns_exactly_the_k_best(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        full = search_placements(
            xeon_engine, phases, sizes, (0, 1, 2, 3),
            default_node=0, pus=XEON_PUS,
        )
        for k in (1, 3, 7):
            topk = search_placements(
                xeon_engine, phases, sizes, (0, 1, 2, 3),
                default_node=0, pus=XEON_PUS, top_k=k,
            )
            assert topk.candidates == full.candidates[:k]

    def test_pruned_and_unpruned_agree(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        pruned = search_placements(
            xeon_engine, phases, sizes, (0, 1, 2, 3),
            default_node=0, pus=XEON_PUS, top_k=4, prune=True,
        )
        unpruned = search_placements(
            xeon_engine, phases, sizes, (0, 1, 2, 3),
            default_node=0, pus=XEON_PUS, top_k=4, prune=False,
        )
        assert pruned.candidates == unpruned.candidates
        assert pruned.stats.bound_pruned > 0
        assert unpruned.stats.bound_pruned == 0


def _tied_workload():
    """Two symmetric single-buffer phases: placements (x=a, y=b) and
    (x=b, y=a) price identically, exercising the tie-break."""
    def phase(name, buf):
        return KernelPhase(
            name=name,
            threads=8,
            accesses=(
                BufferAccess(
                    buffer=buf, pattern=PatternKind.STREAM,
                    bytes_read=64 * MiB, working_set=64 * MiB,
                ),
            ),
        )
    phases = (phase("p1", "x"), phase("p2", "y"))
    sizes = {"x": 64 * MiB, "y": 64 * MiB}
    return phases, sizes


def _oracle(engine, phases, sizes, nodes, *, node_capacity=None, top_k=None,
            budget=None):
    """Brute force over ``itertools.product`` in the walk's order: the
    unpruned search's candidates and counts from scalar per-phase
    pricings, summed in phase order like the search."""
    critical = tuple(sorted({a.buffer for ph in phases for a in ph.accesses}))
    capacity = node_capacity or {}
    prepared = [engine.prepare_phase(ph, pus=XEON_PUS) for ph in phases]
    phase_buffers = [tuple(a.buffer for a in ph.accesses) for ph in phases]
    memo: dict[tuple, float] = {}
    priced = []
    capacity_pruned = 0
    truncated = False
    for combo in itertools.product(nodes, repeat=len(critical)):
        used: dict[int, int] = {}
        for buffer, node in zip(critical, combo):
            used[node] = used.get(node, 0) + sizes[buffer]
        if any(n in capacity and used[n] > capacity[n] for n in used):
            capacity_pruned += 1
            continue
        if budget is not None and len(priced) == budget:
            truncated = True
            break
        assignment = dict(zip(critical, combo))
        seconds = 0.0
        for idx, bufs in enumerate(phase_buffers):
            key = (idx, tuple(assignment[b] for b in bufs))
            if key not in memo:
                placement = Placement({b: {assignment[b]: 1.0} for b in bufs})
                memo[key] = engine.price_prepared(
                    prepared[idx], placement
                ).seconds
            seconds += memo[key]
        priced.append((seconds, combo))
    kept = sorted(priced)[:top_k]
    return (
        [(tuple(zip(critical, c)), s) for s, c in kept],
        len(priced), len(memo), 0, capacity_pruned, 0, truncated,
    )


def _signature(result):
    """What :func:`_oracle` returns, read off a search result."""
    s = result.stats
    return (
        [(c.assignment, c.seconds) for c in result.candidates],
        s.leaves_priced, s.slice_pricings, s.bound_pricings,
        s.capacity_pruned, s.bound_pruned, s.truncated,
    )


class TestDeterminism:
    def test_tie_break_is_seconds_then_assignment(self, xeon_engine):
        phases, sizes = _tied_workload()
        result = search_placements(
            xeon_engine, phases, sizes, (0, 2), default_node=0,
            pus=XEON_PUS,
        )
        tied = [
            c for c in result.candidates
            if c.seconds == result.candidates[1].seconds
        ]
        assert len(tied) >= 2, "workload should produce a tie"
        # Within equal seconds, assignments ascend lexicographically.
        for a, b in zip(result.candidates, result.candidates[1:]):
            assert (a.seconds, tuple(n for _, n in a.assignment)) < (
                b.seconds, tuple(n for _, n in b.assignment)
            )

    def test_serial_matches_oracle_with_ties(self, xeon_engine):
        phases, sizes = _tied_workload()
        result = search_placements(
            xeon_engine, phases, sizes, (0, 2), default_node=0, pus=XEON_PUS,
        )
        expected = _oracle(xeon_engine, phases, sizes, (0, 2))
        assert _signature(result)[0] == expected[0]

    def test_serial_matches_oracle_graph500(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        result = search_placements(
            xeon_engine, phases, sizes, (0, 1, 2, 3),
            default_node=0, pus=XEON_PUS,
        )
        # Bit-identical seconds, same ordering, same assignments.
        expected = _oracle(xeon_engine, phases, sizes, (0, 1, 2, 3))
        assert len(expected[0]) == 4 ** 4
        assert _signature(result)[0] == expected[0]

    def test_serial_topk_matches_oracle(self, xeon_engine, g500_setup):
        """Branch-and-bound keeps exactly the oracle's five best."""
        phases, sizes = g500_setup
        result = search_placements(
            xeon_engine, phases, sizes, (0, 1, 2, 3),
            default_node=0, pus=XEON_PUS, top_k=5,
        )
        assert result.stats.bound_pruned > 0
        expected = _oracle(xeon_engine, phases, sizes, (0, 1, 2, 3), top_k=5)
        assert _signature(result)[0] == expected[0]

    def test_reuse_phase_pricings_bit_identity(self, xeon_engine, g500_setup):
        """Totals summed from memoized per-phase slices equal a full
        ``price_run`` of the placement."""
        phases, sizes = g500_setup
        result = search_placements(
            xeon_engine, phases, sizes, (0, 2), default_node=0,
            pus=XEON_PUS,
        )
        assert len(result.candidates) == 2 ** 4
        for c in result.candidates:
            placement = Placement({b: {node: 1.0} for b, node in c.assignment})
            direct = xeon_engine.price_run(phases, placement, pus=XEON_PUS)
            # Not approx: the memoized totals reuse the identical floats.
            assert c.seconds == direct.seconds


def _random_workload(rng: random.Random):
    """A randomized multi-phase workload for the admissibility sweep."""
    patterns = (
        PatternKind.STREAM, PatternKind.STRIDED,
        PatternKind.RANDOM, PatternKind.POINTER_CHASE,
    )
    buffers = [f"b{i}" for i in range(rng.randint(3, 4))]
    sizes = {b: rng.randint(8, 512) * MiB for b in buffers}
    phases = []
    for p in range(rng.randint(1, 3)):
        chosen = rng.sample(buffers, rng.randint(2, len(buffers)))
        accesses = tuple(
            BufferAccess(
                buffer=b,
                pattern=rng.choice(patterns),
                bytes_read=rng.randint(1, 64) * MiB,
                bytes_written=rng.choice((0, rng.randint(1, 16) * MiB)),
                working_set=sizes[b],
                granularity=rng.choice((8, 64)),
                hot_fraction=rng.choice((0.0, 0.3, 0.7)),
            )
            for b in chosen
        )
        phases.append(
            KernelPhase(
                name=f"ph{p}",
                threads=rng.choice((4, 16)),
                accesses=accesses,
                cpu_ops=float(rng.choice((0, 10 ** 9))),
            )
        )
    return tuple(phases), sizes


def _bound_for(bound: _BoundModel, prefix: tuple[int, ...]) -> float:
    """The bound under an explicit prefix, state restored afterwards."""
    tokens = [(i, n, bound.apply(i, n)) for i, n in enumerate(prefix)]
    value = bound.bound(len(prefix))
    for i, n, token in reversed(tokens):
        bound.undo(i, n, token)
    return value


class TestLowerBound:
    def test_bound_admissible_on_randomized_workloads(self, xeon_engine):
        """The branch-and-bound lower bound never exceeds the true pricing
        of any completion — on a randomized sweep of workloads, prefixes
        and placements."""
        nodes = (0, 2)
        for seed in range(12):
            rng = random.Random(seed)
            phases, sizes = _random_workload(rng)
            # Match the search's default critical set: buffers the phases
            # actually access (a generated buffer may go unused).
            critical = tuple(
                sorted({a.buffer for ph in phases for a in ph.accesses})
            )
            full = search_placements(
                xeon_engine, phases, sizes, nodes, default_node=0,
                pus=XEON_PUS, prune=False,
            )
            space = _SearchSpace(
                xeon_engine, phases, sizes, nodes, critical, 0, None, XEON_PUS,
            )
            bound = _BoundModel(
                xeon_engine, space.prepared, critical, nodes, 0
            )
            by_combo = {
                tuple(n for _, n in c.assignment): c.seconds
                for c in full.candidates
            }
            for depth in range(len(critical) + 1):
                for combo, seconds in by_combo.items():
                    prefix = combo[:depth]
                    lb = _bound_for(bound, prefix)
                    assert lb <= seconds * (1 + 1e-9), (
                        f"seed {seed}: bound {lb} exceeds pricing {seconds} "
                        f"for prefix {prefix} of {combo}"
                    )

    def test_bound_full_assignment_below_truth(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        critical = tuple(sorted(sizes))
        full = search_placements(
            xeon_engine, phases, sizes, (0, 2), default_node=0,
            pus=XEON_PUS, prune=False,
        )
        space = _SearchSpace(
            xeon_engine, phases, sizes, (0, 2), critical, 0, None, XEON_PUS,
        )
        bound = _BoundModel(xeon_engine, space.prepared, critical, (0, 2), 0)
        for c in full.candidates:
            combo = tuple(n for _, n in c.assignment)
            assert _bound_for(bound, combo) <= c.seconds * (1 + 1e-9)


class TestLargeSpace:
    def test_2_to_16_space_completes(self, xeon_engine):
        """PR 1 refused anything past max_candidates; the streaming +
        branch-and-bound path walks a 2^16 space."""
        phases = []
        sizes = {}
        for p in range(4):
            accesses = []
            for i in range(4):
                name = f"chunk{p}_{i}"
                sizes[name] = 32 * MiB
                accesses.append(
                    BufferAccess(
                        buffer=name,
                        pattern=PatternKind.RANDOM if i % 2 else PatternKind.STREAM,
                        bytes_read=(8 + 4 * i) * MiB,
                        working_set=32 * MiB,
                    )
                )
            phases.append(
                KernelPhase(name=f"ph{p}", threads=16, accesses=tuple(accesses))
            )
        result = search_placements(
            xeon_engine, tuple(phases), sizes, (0, 2), default_node=0,
            pus=XEON_PUS, top_k=8,
        )
        assert result.stats.space_size == 2 ** 16
        assert not result.stats.truncated
        assert len(result.candidates) == 8
        priced_or_pruned = (
            result.stats.leaves_priced
            + result.stats.bound_pruned
            + result.stats.capacity_pruned
        )
        assert priced_or_pruned == 2 ** 16
        times = [c.seconds for c in result.candidates]
        assert times == sorted(times)


def _scalar_bound_tables(engine, prepared, critical, nodes, default_node):
    """Reference build of :class:`_BoundModel`'s tables from one scalar
    ``scalar_oracle.price_access_alone`` call per (phase, access, node)."""
    crit_index = {b: i for i, b in enumerate(critical)}
    n_phases, n_crit = len(prepared), len(critical)
    pricings = 0
    dec_lat = [0.0] * n_phases
    dec_bw: list[dict[int, float]] = [{} for _ in range(n_phases)]
    touch: list[list] = [[] for _ in critical]
    min_lat = [[0.0] * n_crit for _ in range(n_phases)]
    min_bw = [[0.0] * n_crit for _ in range(n_phases)]
    for p, prep in enumerate(prepared):
        for index, (access, _) in enumerate(prep.filtered):
            ci = crit_index.get(access.buffer)
            if ci is None:
                lat, bw = scalar_oracle.price_access_alone(
                    engine, prep, index, default_node
                )
                pricings += 1
                dec_lat[p] += lat
                dec_bw[p][default_node] = dec_bw[p].get(default_node, 0.0) + bw
                continue
            alone = {
                n: scalar_oracle.price_access_alone(engine, prep, index, n)
                for n in nodes
            }
            pricings += len(nodes)
            lat_by_node = {n: lat for n, (lat, _) in alone.items()}
            bw_by_node = {n: bw for n, (_, bw) in alone.items()}
            touch[ci].append((p, lat_by_node, bw_by_node))
            min_lat[p][ci] = min(lat_by_node.values())
            min_bw[p][ci] = min(bw_by_node.values())
    suffix_lat = [[0.0] * (n_crit + 1) for _ in range(n_phases)]
    suffix_bw = [[0.0] * (n_crit + 1) for _ in range(n_phases)]
    for p in range(n_phases):
        for i in range(n_crit - 1, -1, -1):
            suffix_lat[p][i] = suffix_lat[p][i + 1] + min_lat[p][i]
            suffix_bw[p][i] = max(suffix_bw[p][i + 1], min_bw[p][i])
    return pricings, dec_lat, dec_bw, touch, suffix_lat, suffix_bw


class TestBatchLeafPath:
    """Collected leaves (``top_k=None`` or ``prune=False``) are priced one
    by one through the same memo as the branch-and-bound walk's: the
    collected search must equal the brute-force oracle (candidates bit
    for bit, every count) and the pruned walk's candidates."""

    def _run(self, engine, phases, sizes, **kw):
        return search_placements(
            engine, phases, sizes, (0, 2), default_node=0,
            pus=XEON_PUS, **kw,
        )

    def test_batch_equals_lazy_g500(self, xeon_engine, g500_setup):
        phases, sizes = g500_setup
        batch = _signature(
            self._run(xeon_engine, phases, sizes, prune=False, top_k=6)
        )
        assert batch == _oracle(xeon_engine, phases, sizes, (0, 2), top_k=6)
        lazy = _signature(self._run(xeon_engine, phases, sizes, top_k=6))
        assert batch[0] == lazy[0]

    def test_batch_equals_lazy_randomized(self, xeon_engine):
        rng = random.Random(2024)
        pruned_by_capacity = truncated = bnb_capacity_pruned = 0
        for i in range(10):
            phases, sizes = _random_workload(rng)
            total = sum(sizes.values())
            # A 0-capacity node, a node missing from the dict (unlimited),
            # and a tight limit that prunes mid-walk.
            capacity = (
                None,
                {2: 0},
                {0: 0, 2: total},
                {2: max(sizes.values())},
                {0: total // 2, 2: total},
            )[i % 5]
            budget = rng.choice((None, 5, 40))
            top_k = rng.choice((None, 3))
            kw = dict(top_k=top_k, max_candidates=budget, node_capacity=capacity)
            batch = _signature(
                self._run(xeon_engine, phases, sizes, prune=False, **kw)
            )
            oracle = _oracle(
                xeon_engine, phases, sizes, (0, 2), node_capacity=capacity,
                top_k=top_k, budget=budget,
            )
            assert batch == oracle
            pruned_by_capacity += oracle[4] > 0
            truncated += oracle[6]
            if top_k is None:
                continue
            # Per-leaf fill under branch-and-bound: the same k best, and
            # every leaf priced or pruned, unless the budget cut the walk.
            bnb = self._run(xeon_engine, phases, sizes, prune=True, **kw)
            if bnb.stats.truncated:
                assert bnb.stats.leaves_priced == budget
                continue
            best = _oracle(
                xeon_engine, phases, sizes, (0, 2), node_capacity=capacity,
                top_k=top_k,
            )
            assert _signature(bnb)[0] == best[0]
            assert (
                bnb.stats.leaves_priced + bnb.stats.bound_pruned
                + bnb.stats.capacity_pruned == bnb.stats.space_size
            )
            bnb_capacity_pruned += bnb.stats.capacity_pruned > 0
        assert pruned_by_capacity and truncated and bnb_capacity_pruned

    def test_memo_coherent_across_paths(self, xeon_engine, g500_setup):
        """A space primed by the collected-leaf walk reuses its memo on
        the per-leaf path — same keys, same floats."""
        phases, sizes = g500_setup
        space = _SearchSpace(
            xeon_engine, phases, sizes, (0, 2), tuple(sizes), 0, None, XEON_PUS,
        )
        batch_out, _ = space.run(top_k=None, budget=None, prune=False)
        memo_after_batch = dict(space.memo)
        lazy = {
            tuple(cmb): space.price_combo(cmb + (space.default_node,))
            for _, cmb in batch_out
        }
        assert space.memo == memo_after_batch  # everything was memoized
        for seconds, cmb in batch_out:
            assert lazy[tuple(cmb)] == seconds

    def test_bound_tables_vectorized_equals_scalar(
        self, xeon_engine, g500_setup
    ):
        """The bound tables equal a build from the frozen scalar oracle,
        one alone pricing per cell the walk reads."""
        phases, sizes = g500_setup
        prepared = tuple(
            xeon_engine.prepare_phase(p, pus=XEON_PUS) for p in phases
        )
        # All buffers critical, then a subset (the rest pinned on node 0).
        for crit in (tuple(sizes), ("parent", "csr_targets")):
            vec = _BoundModel(xeon_engine, prepared, crit, (0, 2), 0)
            assert (
                vec.pricings, vec._dec_lat, vec._dec_bw, vec._touch,
                vec._suffix_lat, vec._suffix_bw,
            ) == _scalar_bound_tables(xeon_engine, prepared, crit, (0, 2), 0)
