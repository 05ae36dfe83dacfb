// Package cache models the on-chip cache hierarchy of the Capri machine:
// per-core L1 data caches and a shared L2, with LRU set-associative timing
// and dirty-line tracking. Caches are timing/traffic structures — functional
// values live in the architectural memory — but they carry per-line store
// sequence metadata so that evicted dirty lines generate writebacks tagged
// with the newest store that dirtied them, which is what the back-end proxy's
// valid-bit scan keys on (paper §5.3).
package cache

import "capri/internal/mem"

// wordsPerLine is the number of words a 64 B line holds (and therefore the
// maximum dirty words one writeback can carry).
const wordsPerLine = mem.LineSize / mem.WordSize

// Writeback describes a dirty line eviction travelling toward the memory
// controller. Writebacks returned by Access and Invalidate point into a
// per-cache scratch buffer that is reused by the next Access/Invalidate on
// the same cache — consume (or copy) them before touching that cache again.
type Writeback struct {
	Line  uint64   // line address
	Words []uint64 // dirty word addresses within the line (aliases buf)
	Seq   uint64   // newest store sequence among the dirty words
	Core  int      // core whose store most recently dirtied the line

	buf [wordsPerLine]uint64
}

// fill populates the writeback from an evicted dirty line without heap
// allocation: Words aliases the writeback's own fixed-size buffer.
func (wb *Writeback) fill(l *line) {
	wb.Line, wb.Seq, wb.Core = l.tag, l.seq, l.core
	n := 0
	for w := uint64(0); w < wordsPerLine; w++ {
		if l.words&(1<<w) != 0 {
			wb.buf[n] = l.tag + w*mem.WordSize
			n++
		}
	}
	wb.Words = wb.buf[:n]
}

// line is one cache line's metadata.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	seq   uint64 // newest store seq
	core  int
	words uint64 // dirty-word bitmap (8 words per 64B line)
	lru   uint64
}

// Cache is a set-associative writeback cache.
type Cache struct {
	// A set's line storage is materialized on first touch, setChunk sets
	// at a time (nil until then): a short run touches a few hundred lines
	// of the figure harness's 2 MB L2, whose full line storage is 1.5 MB.
	sets    [][]line
	setMask uint64 // len(sets)-1 when a power of two, else 0
	ways    int
	clock   uint64

	scratch Writeback // reused by Access/Invalidate writeback returns

	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// New builds a cache with the given capacity in bytes and associativity.
func New(capacity uint64, ways int) *Cache {
	nlines := capacity / mem.LineSize
	nsets := int(nlines) / ways
	if nsets == 0 {
		nsets = 1
	}
	c := &Cache{sets: make([][]line, nsets), ways: ways}
	if n := uint64(nsets); n&(n-1) == 0 {
		c.setMask = n - 1
	}
	return c
}

// setChunk is how many sets' line storage one materialization allocates.
const setChunk = 64

func (c *Cache) set(lineAddr uint64) []line {
	s := lineAddr / mem.LineSize
	if c.setMask != 0 || len(c.sets) == 1 {
		s &= c.setMask
	} else {
		s %= uint64(len(c.sets))
	}
	if set := c.sets[s]; set != nil {
		return set
	}
	return c.materialize(int(s))
}

// materialize allocates line storage for the chunk of sets holding set si
// and returns that set.
func (c *Cache) materialize(si int) []line {
	lo := si / setChunk * setChunk
	hi := min(lo+setChunk, len(c.sets))
	backing := make([]line, (hi-lo)*c.ways)
	for i := lo; i < hi; i++ {
		o := (i - lo) * c.ways
		c.sets[i] = backing[o : o+c.ways : o+c.ways]
	}
	return c.sets[si]
}

// Lookup probes the cache without modifying state. It reports a hit.
func (c *Cache) Lookup(addr uint64) bool {
	la := mem.LineAddr(addr)
	set := c.set(la)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == la {
			return true
		}
	}
	return false
}

// Access performs a read or write access to addr by core. For writes, seq is
// the store's global sequence number. It returns whether the access hit and,
// when the fill evicted a dirty line, the resulting writeback (valid until
// the next Access/Invalidate on this cache).
func (c *Cache) Access(addr uint64, write bool, seq uint64, core int) (hit bool, wb *Writeback) {
	la := mem.LineAddr(addr)
	set := c.set(la)
	c.clock++

	for i := range set {
		l := &set[i]
		if l.valid && l.tag == la {
			c.Hits++
			l.lru = c.clock
			if write {
				l.dirty = true
				l.words |= 1 << ((addr % mem.LineSize) / mem.WordSize)
				if seq > l.seq {
					l.seq = seq
					l.core = core
				}
			}
			return true, nil
		}
	}
	c.Misses++

	// Choose a victim: first invalid way, else LRU.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			goto fill
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].dirty {
		c.Evictions++
		c.scratch.fill(&set[victim])
		wb = &c.scratch
	}
fill:
	l := &set[victim]
	*l = line{tag: la, valid: true, lru: c.clock}
	if write {
		l.dirty = true
		l.seq = seq
		l.core = core
		l.words = 1 << ((addr % mem.LineSize) / mem.WordSize)
	}
	return false, wb
}

// FlushAll evicts every dirty line, returning the writebacks in set order.
// The machine uses it for the baseline (non-Capri) configuration's shutdown
// and for tests; Capri itself never flushes caches (§4.1: "Capri does not
// insert cache-flush instructions"). Unlike Access, the returned writebacks
// are independently allocated (this is a cold path).
func (c *Cache) FlushAll() []*Writeback {
	var out []*Writeback
	for si := range c.sets {
		for wi := range c.sets[si] {
			l := &c.sets[si][wi]
			if l.valid && l.dirty {
				wb := &Writeback{}
				wb.fill(l)
				out = append(out, wb)
				l.dirty = false
				l.words = 0
			}
		}
	}
	return out
}

// Invalidate drops the line containing addr if present, returning its
// writeback if it was dirty (valid until the next Access/Invalidate on this
// cache). Used by the coherence glue when another core writes the same line.
func (c *Cache) Invalidate(addr uint64) *Writeback {
	la := mem.LineAddr(addr)
	set := c.set(la)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == la {
			var wb *Writeback
			if l.dirty {
				c.scratch.fill(l)
				wb = &c.scratch
			}
			l.valid = false
			l.dirty = false
			l.words = 0
			return wb
		}
	}
	return nil
}

// DirtyLines counts currently dirty lines. Observability only (sampled into
// the metrics histograms at region boundaries); it walks every set, so keep it
// off hot paths.
func (c *Cache) DirtyLines() int {
	n := 0
	for si := range c.sets {
		for wi := range c.sets[si] {
			l := &c.sets[si][wi]
			if l.valid && l.dirty {
				n++
			}
		}
	}
	return n
}

// Reset clears the cache (power failure: all volatile contents lost).
func (c *Cache) Reset() {
	for si := range c.sets {
		for wi := range c.sets[si] {
			c.sets[si][wi] = line{}
		}
	}
}
