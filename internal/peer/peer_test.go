package peer

import (
	"math/rand"
	"testing"
	"time"

	"mspastry/internal/id"
)

func testID(b byte) id.ID {
	return id.New(uint64(b)<<56, 0)
}

// setMembers makes exactly the given peers routing-state members.
func setMembers(r *Registry, ids ...id.ID) {
	r.Each(func(rec *Record) { rec.SetMembership(InTable, false) })
	for _, x := range ids {
		if rec := r.Lookup(x); rec != nil {
			rec.SetMembership(InTable, true)
		}
	}
}

func TestStrangerShortExpiry(t *testing.T) {
	r := New(Config{StrangerTTL: time.Minute, AdmittedTTL: time.Hour})
	stranger, mem := testID(1), testID(2)
	r.Obtain(stranger, "s", 0)
	r.Obtain(mem, "m", 0)

	setMembers(r, mem)
	if n := r.Sweep(30 * time.Second); n != 0 {
		t.Fatalf("evicted %d before TTL", n)
	}
	if r.Len() != 2 {
		t.Fatalf("len=%d, want 2", r.Len())
	}
	if n := r.Sweep(time.Minute); n != 1 {
		t.Fatalf("evicted %d at TTL, want 1 (the stranger)", n)
	}
	if r.Lookup(stranger) != nil {
		t.Fatal("stranger record survived")
	}
	if rec := r.Lookup(mem); rec == nil || !rec.Admitted() {
		t.Fatal("member should survive, admitted")
	}
	st := r.Stats()
	if st.EvictedStrangers != 1 || st.EvictedAdmitted != 0 {
		t.Fatalf("stats %+v: want 1 stranger eviction", st)
	}
}

func TestAdmittedLongTTLAndTouchRefresh(t *testing.T) {
	r := New(Config{StrangerTTL: time.Minute, AdmittedTTL: 10 * time.Minute})
	x := testID(3)
	r.Obtain(x, "a", 0)
	setMembers(r, x)
	r.Sweep(0) // admits
	setMembers(r)
	if n := r.Sweep(9 * time.Minute); n != 0 {
		t.Fatal("admitted record evicted before AdmittedTTL")
	}
	r.Lookup(x).Touch(9 * time.Minute)
	if n := r.Sweep(10 * time.Minute); n != 0 {
		t.Fatal("touch did not refresh the idle clock")
	}
	if n := r.Sweep(19 * time.Minute); n != 1 {
		t.Fatal("admitted record not evicted after AdmittedTTL idle")
	}
}

func TestPrunableSlotBlocksEviction(t *testing.T) {
	r := New(Config{StrangerTTL: time.Minute, AdmittedTTL: time.Hour})
	type supp struct{ at time.Duration }
	horizon := 2 * time.Minute
	slot := r.NewSlot("suppress", func(_ *Record, v any, now time.Duration) any {
		if s := v.(*supp); now-s.at > horizon {
			return nil
		}
		return v
	})
	x := testID(4)
	rec := r.Obtain(x, "a", 0)
	r.Put(rec, slot, &supp{at: 0})
	// Past StrangerTTL but within the slot horizon: the slot vetoes.
	if n := r.Sweep(90 * time.Second); n != 0 {
		t.Fatal("record evicted while prunable slot held state")
	}
	if r.SlotCount(slot) != 1 {
		t.Fatal("slot count should be 1")
	}
	// Past the horizon: slot drains, record follows in the same sweep.
	if n := r.Sweep(3 * time.Minute); n != 1 {
		t.Fatal("record not evicted after slot drained")
	}
	if r.SlotCount(slot) != 0 {
		t.Fatal("slot count should be 0 after drain")
	}
	if st := r.Stats(); len(st.Slots) != 1 || st.Slots[0].Dropped != 1 {
		t.Fatalf("slot stats %+v: want one drop", st.Slots)
	}
}

func TestRetainedSlotNeverBlocks(t *testing.T) {
	r := New(Config{StrangerTTL: time.Minute, AdmittedTTL: time.Hour})
	slot := r.NewRetainedSlot("rtt")
	x := testID(5)
	rec := r.Obtain(x, "a", 0)
	r.Put(rec, slot, "estimator")
	if n := r.Sweep(time.Minute); n != 1 {
		t.Fatal("retained slot must not delay eviction")
	}
	if r.SlotCount(slot) != 0 {
		t.Fatal("retained slot count not released at eviction")
	}
}

func TestEvictionBroadcastSortedByID(t *testing.T) {
	r := New(Config{StrangerTTL: time.Minute, AdmittedTTL: time.Hour})
	var got []id.ID
	r.OnEvict(func(x id.ID, addr string) { got = append(got, x) })
	// Insert in descending order; broadcast must come back ascending.
	for b := byte(9); b >= 1; b-- {
		r.Obtain(testID(b), "a", 0)
	}
	if n := r.Sweep(time.Minute); n != 9 {
		t.Fatalf("evicted %d, want 9", n)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Cmp(got[i]) >= 0 {
			t.Fatalf("broadcast out of order at %d: %v", i, got)
		}
	}
}

func TestExpelBroadcastsOnceAndDooms(t *testing.T) {
	r := New(Config{StrangerTTL: time.Hour, AdmittedTTL: time.Hour})
	evictions := 0
	r.OnEvict(func(x id.ID, addr string) {
		evictions++
		if addr != "a" {
			t.Fatalf("addr %q, want record's address", addr)
		}
	})
	x := testID(6)
	r.Obtain(x, "a", 0)
	setMembers(r, x)
	r.Sweep(0) // admit
	setMembers(r)
	r.Expel(x, "")
	if evictions != 1 {
		t.Fatal("Expel must broadcast immediately")
	}
	// Doomed: deleted at the next sweep without TTL wait, no re-broadcast.
	if n := r.Sweep(time.Second); n != 1 {
		t.Fatal("doomed record not collected")
	}
	if evictions != 1 {
		t.Fatal("doomed collection must not re-broadcast")
	}
}

func TestReadmissionLiftsDoom(t *testing.T) {
	r := New(Config{StrangerTTL: time.Hour, AdmittedTTL: time.Hour})
	x := testID(7)
	r.Obtain(x, "a", 0)
	r.Expel(x, "")
	// The peer comes back before the next sweep: membership lifts the doom.
	setMembers(r, x)
	if n := r.Sweep(time.Second); n != 0 {
		t.Fatal("readmitted peer evicted")
	}
	if rec := r.Lookup(x); rec == nil || !rec.Admitted() {
		t.Fatal("readmitted peer should be live and admitted")
	}
}

func TestExpelWithoutRecordIsSafe(t *testing.T) {
	r := New(Config{})
	called := false
	r.OnEvict(func(x id.ID, addr string) { called = true })
	r.Expel(testID(8), "addr")
	if !called {
		t.Fatal("Expel must still notify subscribers")
	}
}

// BenchmarkRegistryAdmitEvict is the CI lifecycle smoke: observe,
// admit, slot-fill, expire and evict a rolling peer population.
func BenchmarkRegistryAdmitEvict(b *testing.B) {
	r := New(Config{StrangerTTL: time.Minute, AdmittedTTL: 5 * time.Minute})
	slot := r.NewSlot("bench", func(rec *Record, v any, now time.Duration) any {
		if !rec.Member() {
			return nil
		}
		return v
	})
	rtt := r.NewRetainedSlot("rtt")
	rng := rand.New(rand.NewSource(1))
	ids := make([]id.ID, 256)
	for i := range ids {
		ids[i] = id.Random(rng)
	}
	now := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := ids[i%len(ids)]
		now += time.Second
		rec := r.Obtain(x, "addr", now)
		rec.SetMembership(InTable, x.Lo&1 == 0)
		rec.LastRecv = now
		if rec.Get(slot) == nil {
			r.Put(rec, slot, &struct{}{})
		}
		if rec.Get(rtt) == nil {
			r.Put(rec, rtt, &struct{}{})
		}
		if i%len(ids) == 0 {
			r.Sweep(now)
		}
	}
}

func TestHoldersTrackSlotValues(t *testing.T) {
	r := New(Config{StrangerTTL: time.Minute, AdmittedTTL: time.Hour})
	slot := r.NewSlot("hint", func(rec *Record, v any, _ time.Duration) any {
		if !rec.InRoutingState() {
			return nil
		}
		return v
	})
	holders := func() map[id.ID]bool {
		set := make(map[id.ID]bool)
		for _, rec := range r.Holders(slot) {
			if rec.Get(slot) == nil {
				t.Fatalf("holder %v has no value", rec.ID)
			}
			set[rec.ID] = true
		}
		if len(set) != len(r.Holders(slot)) || len(set) != r.SlotCount(slot) {
			t.Fatalf("holder list %d entries, %d distinct, count %d", len(r.Holders(slot)), len(set), r.SlotCount(slot))
		}
		return set
	}
	var recs []*Record
	for b := byte(1); b <= 6; b++ {
		rec := r.Obtain(testID(b), "a", 0)
		r.Put(rec, slot, b)
		recs = append(recs, rec)
	}
	// Clearing from the middle moves the last holder into the gap.
	r.Put(recs[1], slot, nil)
	r.Put(recs[1], slot, nil) // clearing twice is a no-op
	r.Put(recs[3], slot, "replaced")
	if got := holders(); len(got) != 5 || got[recs[1].ID] {
		t.Fatalf("holders %v after clearing record 1", got)
	}
	// A sweep prunes non-members' values and evicts drained strangers;
	// the members keep theirs.
	recs[0].SetMembership(InLeafSet, true)
	recs[4].SetMembership(InTable, true)
	r.Sweep(time.Minute)
	if got := holders(); len(got) != 2 || !got[recs[0].ID] || !got[recs[4].ID] {
		t.Fatalf("holders %v after sweep, want records 0 and 4", got)
	}
	if r.Len() != 2 {
		t.Fatalf("len %d after sweep, want the 2 members", r.Len())
	}
	seen := 0
	r.Each(func(rec *Record) {
		if r.Lookup(rec.ID) != rec {
			t.Fatalf("Each visited %v, not the registered record", rec.ID)
		}
		seen++
	})
	if seen != 2 {
		t.Fatalf("Each visited %d records, want 2", seen)
	}
}

// TestLowHalfCollisionChain pins the index's collision handling: records
// whose identifiers share the low half live on one chain, each is found
// by its exact identifier, and evicting one from the head, middle or tail
// of the chain leaves the others reachable.
func TestLowHalfCollisionChain(t *testing.T) {
	r := New(Config{StrangerTTL: time.Minute, AdmittedTTL: time.Hour})
	ids := []id.ID{id.New(1, 7), id.New(2, 7), id.New(3, 7), id.New(4, 7), id.New(1, 8)}
	for i, x := range ids {
		r.Obtain(x, string(rune('a'+i)), 0)
	}
	if r.Len() != len(ids) || r.Stats().Live != len(ids) {
		t.Fatalf("len=%d live=%d, want %d", r.Len(), r.Stats().Live, len(ids))
	}
	for i, x := range ids {
		rec := r.Lookup(x)
		if rec == nil || rec.ID != x || rec.Addr != string(rune('a'+i)) {
			t.Fatalf("Lookup(%v) = %+v", x, rec)
		}
		if again := r.Obtain(x, "", time.Second); again != rec {
			t.Fatalf("Obtain(%v) made a second record", x)
		}
	}
	if r.Lookup(id.New(5, 7)) != nil || r.Lookup(id.New(2, 8)) != nil {
		t.Fatal("Lookup found a record for an unknown identifier")
	}
	// Keep ids[0] and ids[2]; the rest idle out. The chain for low half 7
	// was built head-first, so this evicts from its head and middle.
	setMembers(r, ids[0], ids[2])
	if n := r.Sweep(2 * time.Minute); n != 3 {
		t.Fatalf("evicted %d, want 3", n)
	}
	for i, x := range ids {
		kept := i == 0 || i == 2
		if (r.Lookup(x) != nil) != kept {
			t.Fatalf("record %d present=%v, want %v", i, !kept, kept)
		}
	}
	setMembers(r, ids[2])
	if n := r.Sweep(3 * time.Hour); n != 1 || r.Lookup(ids[0]) != nil || r.Lookup(ids[2]) == nil {
		t.Fatalf("tail eviction: evicted %d", n)
	}
	if rec := r.Obtain(ids[1], "b2", 4*time.Hour); rec.Addr != "b2" || r.Len() != 2 {
		t.Fatalf("re-created record %+v, len %d", rec, r.Len())
	}
}
