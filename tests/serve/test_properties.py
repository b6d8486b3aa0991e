"""Property-based invariants of the daemon's pure components.

Two laws carry the correctness argument (``docs/SERVE.md``):

* **Sequencer** — any arrival permutation of a dense schedule is
  released in exactly schedule order, once, with duplicates refused;
* **Quota ledger** — usage never goes negative, never crosses the
  quota, and every refused operation leaves the ledger bit-identical.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ServeError
from repro.serve import QuotaLedger, Sequencer

# ----------------------------------------------------------------------
# Sequencer
# ----------------------------------------------------------------------
class TestSequencer:
    @given(st.permutations(list(range(12))))
    def test_any_arrival_order_releases_schedule_order(self, arrival):
        seq = Sequencer()
        released = []
        for n in arrival:
            released.extend(seq.push(n, f"item{n}"))
        assert released == [f"item{n}" for n in range(12)]
        assert seq.pending == 0
        assert seq.next_seq == 12

    @given(st.permutations(list(range(8))), st.integers(0, 7))
    def test_duplicates_refused_loudly(self, arrival, dup):
        seq = Sequencer()
        pushed = set()
        for n in arrival:
            seq.push(n, n)
            pushed.add(n)
            if dup in pushed:
                with pytest.raises(ServeError):
                    seq.push(dup, "again")
                return

    def test_gap_holds_everything_behind_it(self):
        seq = Sequencer()
        assert seq.push(1, "b") == []
        assert seq.push(2, "c") == []
        assert seq.pending == 2
        assert seq.push(0, "a") == ["a", "b", "c"]

    def test_drain_returns_held_items_in_order(self):
        seq = Sequencer()
        seq.push(3, "d")
        seq.push(1, "b")
        assert seq.drain() == ["b", "d"]
        assert seq.pending == 0


# ----------------------------------------------------------------------
# QuotaLedger
# ----------------------------------------------------------------------
ledger_ops = st.lists(
    st.tuples(
        st.sampled_from(["charge", "release"]),
        st.integers(min_value=0, max_value=50),
    ),
    max_size=40,
)


def ledger_state(ledger: QuotaLedger) -> dict:
    return ledger.snapshot()


class TestQuotaLedger:
    @given(quota=st.integers(0, 100), ops=ledger_ops)
    def test_usage_never_negative_never_over_quota(self, quota, ops):
        ledger = QuotaLedger()
        ledger.open("t", quota)
        for op, pages in ops:
            try:
                if op == "charge":
                    ledger.charge("t", pages)
                else:
                    ledger.release("t", pages)
            except ServeError:
                pass
            assert 0 <= ledger.usage("t") <= quota

    @given(quota=st.integers(0, 100), ops=ledger_ops)
    def test_refused_ops_leave_ledger_untouched(self, quota, ops):
        """The admission-control law at the bookkeeping level."""
        ledger = QuotaLedger()
        ledger.open("t", quota)
        ledger.open("bystander", 7)
        ledger.charge("bystander", 3)
        for op, pages in ops:
            before = ledger_state(ledger)
            try:
                if op == "charge":
                    ledger.charge("t", pages)
                else:
                    ledger.release("t", pages)
            except ServeError:
                assert ledger_state(ledger) == before
            else:
                if pages > 0:
                    assert ledger_state(ledger) != before

    @given(ops=st.lists(st.integers(1, 30), max_size=15))
    def test_unmetered_tenant_never_refused_a_charge(self, ops):
        ledger = QuotaLedger()
        ledger.open("t", None)
        total = 0
        for pages in ops:
            ledger.charge("t", pages)
            total += pages
        assert ledger.usage("t") == total
        assert ledger.remaining("t") is None
        assert not ledger.would_exceed("t", 10**9)

    @given(quota=st.integers(0, 50), charges=st.lists(st.integers(1, 20), max_size=10))
    @settings(max_examples=50)
    def test_charge_release_round_trips_to_zero(self, quota, charges):
        ledger = QuotaLedger()
        ledger.open("t", quota)
        accepted = []
        for pages in charges:
            try:
                ledger.charge("t", pages)
            except ServeError:
                continue
            accepted.append(pages)
        for pages in accepted:
            ledger.release("t", pages)
        assert ledger.usage("t") == 0
        assert ledger.close("t") == 0

    def test_negative_amounts_refused(self):
        ledger = QuotaLedger()
        ledger.open("t", 10)
        with pytest.raises(ServeError):
            ledger.charge("t", -1)
        with pytest.raises(ServeError):
            ledger.release("t", -1)

    def test_release_beyond_held_refused(self):
        ledger = QuotaLedger()
        ledger.open("t", None)
        ledger.charge("t", 5)
        with pytest.raises(ServeError):
            ledger.release("t", 6)
        assert ledger.usage("t") == 5

    def test_double_open_and_unknown_close_refused(self):
        ledger = QuotaLedger()
        ledger.open("t", 1)
        with pytest.raises(ServeError):
            ledger.open("t", 2)
        with pytest.raises(ServeError):
            ledger.close("ghost")
