package cache

import (
	"testing"

	"capri/internal/mem"
)

func TestHitMissBasics(t *testing.T) {
	c := New(4*mem.LineSize, 2)
	if hit, _ := c.Access(0, false, 0, 0); hit {
		t.Error("cold access hit")
	}
	if hit, _ := c.Access(32, false, 0, 0); !hit {
		t.Error("same-line access missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 sets x 2 ways. Lines 0, 128, 256 all map to set 0.
	c := New(4*mem.LineSize, 2)
	c.Access(0, false, 0, 0)
	c.Access(128, false, 0, 0)
	c.Access(0, false, 0, 0) // refresh line 0
	// Fill third conflicting line: victim must be 128 (LRU).
	c.Access(256, false, 0, 0)
	if !c.Lookup(0) {
		t.Error("line 0 (MRU) evicted")
	}
	if c.Lookup(128) {
		t.Error("line 128 (LRU) survived")
	}
}

func TestDirtyEvictionProducesWriteback(t *testing.T) {
	c := New(2*mem.LineSize, 1) // 2 sets, direct mapped
	c.Access(0, true, 5, 3)     // dirty line 0, word 0
	c.Access(8, true, 6, 3)     // same line, word 1
	_, wb := c.Access(128, false, 0, 0)
	if wb == nil {
		t.Fatal("no writeback on dirty eviction")
	}
	if wb.Line != 0 || wb.Seq != 6 || wb.Core != 3 {
		t.Errorf("wb = %+v", wb)
	}
	if len(wb.Words) != 2 || wb.Words[0] != 0 || wb.Words[1] != 8 {
		t.Errorf("wb words = %v", wb.Words)
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	c := New(2*mem.LineSize, 1)
	c.Access(0, false, 0, 0)
	if _, wb := c.Access(128, false, 0, 0); wb != nil {
		t.Error("clean eviction produced a writeback")
	}
}

func TestWritebackSeqIsNewest(t *testing.T) {
	c := New(2*mem.LineSize, 1)
	c.Access(0, true, 10, 0)
	c.Access(0, true, 7, 1) // older seq, different core: must not regress
	_, wb := c.Access(128, false, 0, 0)
	if wb == nil || wb.Seq != 10 || wb.Core != 0 {
		t.Errorf("wb = %+v", wb)
	}
}

func TestFlushAll(t *testing.T) {
	c := New(4*mem.LineSize, 2)
	c.Access(0, true, 1, 0)
	c.Access(64, true, 2, 0)
	c.Access(128, false, 0, 0)
	wbs := c.FlushAll()
	if len(wbs) != 2 {
		t.Fatalf("flush produced %d writebacks, want 2", len(wbs))
	}
	if len(c.FlushAll()) != 0 {
		t.Error("second flush not empty")
	}
	// Lines remain valid (clean) after flush.
	if !c.Lookup(0) || !c.Lookup(64) {
		t.Error("flush invalidated lines")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4*mem.LineSize, 2)
	c.Access(0, true, 9, 2)
	wb := c.Invalidate(8) // same line
	if wb == nil || wb.Seq != 9 {
		t.Fatalf("invalidate wb = %+v", wb)
	}
	if c.Lookup(0) {
		t.Error("line survived invalidation")
	}
	if c.Invalidate(0) != nil {
		t.Error("second invalidate returned a writeback")
	}
}

func TestReset(t *testing.T) {
	c := New(4*mem.LineSize, 2)
	c.Access(0, true, 1, 0)
	c.Reset()
	if c.Lookup(0) {
		t.Error("line survived reset")
	}
	// Reset drops dirty data silently: power failure semantics.
	if wbs := c.FlushAll(); len(wbs) != 0 {
		t.Error("dirty data survived reset")
	}
}

func TestDirtyWordBitmapPerWord(t *testing.T) {
	c := New(2*mem.LineSize, 1)
	c.Access(16, true, 1, 0) // word 2 of line 0
	_, wb := c.Access(128, false, 0, 0)
	if wb == nil || len(wb.Words) != 1 || wb.Words[0] != 16 {
		t.Errorf("wb = %+v", wb)
	}
}

// TestLazySetStorage covers materialization on first touch: a set count
// that is neither a power of two nor a chunk multiple, touched only in
// its trailing partial chunk, must behave as a fully built cache and
// allocate storage for exactly the chunk it touched.
func TestLazySetStorage(t *testing.T) {
	const ways, nsets = 2, setChunk + 36
	c := New(nsets*ways*mem.LineSize, ways)
	last := uint64(nsets-1) * mem.LineSize // maps to the last set
	conflict := last + nsets*mem.LineSize  // same set, different tag
	c.Access(last, true, 1, 0)
	c.Access(conflict, true, 2, 0)
	if hit, _ := c.Access(last, false, 0, 0); !hit {
		t.Error("line in a lazily built set missed")
	}
	if got := c.DirtyLines(); got != 2 {
		t.Errorf("dirty lines = %d, want 2", got)
	}
	for i, set := range c.sets {
		if built := set != nil; built != (i >= setChunk) {
			t.Fatalf("set %d built=%v: only the touched chunk may be materialized", i, built)
		}
		if set != nil && (len(set) != ways || cap(set) != ways) {
			t.Fatalf("set %d has len %d cap %d, want %d", i, len(set), cap(set), ways)
		}
	}
	if wbs := c.FlushAll(); len(wbs) != 2 {
		t.Errorf("flushed %d writebacks, want 2", len(wbs))
	}
}
