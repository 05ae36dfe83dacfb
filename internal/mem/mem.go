// Package mem models the memory devices of the Capri machine: the
// byte-addressable NVM main memory (with read/write queues and a
// write-pending queue in the persistent domain) and the hardware-managed
// direct-mapped off-chip DRAM cache in front of it — the "memory mode"
// arrangement of Table 1.
//
// Functional state is tracked at 8-byte word granularity. Every persisted
// word carries the global sequence number of the store that produced it; the
// sequence guard generalizes the paper's redo valid-bit across cores and is
// what makes recovery application order-insensitive (see DESIGN.md).
//
// Both NVM and the architectural memory are backed by a sparse page
// directory of fixed-size flat arrays: word addresses index a page table
// slice directly (no hashing), so the simulator's per-access cost is two
// array indexings instead of a Go map lookup. Addresses beyond the direct
// window (pathological spread) fall back to a page map. Pages are small
// (512 words) because a machine pays for every page it touches several
// times over — live image, crash-harvest clone, recovery clone, the
// rebuilt architectural memory — and a crash trial touches only a few
// hundred words (see DESIGN.md §4l for the measured sizing). A map-backed
// reference implementation is retained behind NewNVMRef/NewMemRef for the
// differential tests that prove the paged store is cycle- and
// image-identical (see machine's RefStore config and TestPagedVsRefStore*).
package mem

import "sort"

// WordSize is the machine word size in bytes.
const WordSize = 8

// LineSize is the cache line size in bytes (Table 1: 64 B blocks).
const LineSize = 64

// LineAddr returns the line-aligned address containing addr.
func LineAddr(addr uint64) uint64 { return addr &^ (LineSize - 1) }

// WordAddr returns the word-aligned address containing addr.
func WordAddr(addr uint64) uint64 { return addr &^ (WordSize - 1) }

// Paged-backing geometry. A page holds 2^pageWordShift words (4 KB of
// address space: 8 KB of host memory for an NVM page, 4 KB for a Mem page);
// the direct page directory covers directPages pages (1 GB of address
// space) before falling back to the far-page map. 512 words measured
// fastest on the crash benchmark: with 4096-word pages a trial spent most
// of its time allocating and zeroing words it never touched, and 128-word
// pages lose more to the longer directory every clone copies than they
// save in page bytes.
const (
	wordShift     = 3 // log2(WordSize)
	pageWordShift = 9
	pageWords     = 1 << pageWordShift
	pageWordMask  = pageWords - 1
	directPages   = 1 << (30 - pageWordShift - wordShift)
)

// growDir extends a page directory so index pi is addressable. append's
// capacity doubling amortizes the copy when a program touches ascending
// pages one at a time; the length stays exactly pi+1 so clones copy only
// the populated prefix.
func growDir[P any](dir []*P, pi uint64) []*P {
	return append(dir, make([]*P, pi+1-uint64(len(dir)))...)
}

// Word is a persisted word value plus the global store sequence number of its
// writer.
type Word struct {
	Val uint64
	Seq uint64
}

// nvmPage is one flat page of persisted words plus a presence bitmap (a word
// is "persisted" once written, even if its value is zero — Len, Entries and
// Snapshot must distinguish written zeros from never-written words exactly
// like the map-backed reference does).
type nvmPage struct {
	words [pageWords]Word
	used  [pageWords / 64]uint64
}

func (p *nvmPage) isUsed(off uint64) bool { return p.used[off>>6]&(1<<(off&63)) != 0 }

// NVM is the non-volatile main memory: the only device whose contents survive
// power failure (alongside the battery-backed proxy buffers). It holds the
// persisted program image and the register checkpoint storage.
type NVM struct {
	pages []*nvmPage          // direct page directory, indexed by page number
	far   map[uint64]*nvmPage // pages beyond the direct window
	count int                 // persisted words

	ref map[uint64]Word // non-nil: map-backed reference implementation

	// writeFree is the write-pending queue's availability cycle: the device
	// timing the memory controller sees when it pushes a 64B line write. The
	// queue drains one line per device write latency, so its depth at any
	// instant is the backlog divided by that latency.
	writeFree uint64

	// Stats
	Writes     uint64 // 64B-equivalent write operations accepted
	WordWrites uint64 // word-granularity writes
	Reads      uint64
	StaleSkips uint64 // writes rejected by the sequence guard
}

// NewNVM returns an empty NVM image with the paged backing.
func NewNVM() *NVM {
	return &NVM{}
}

// NewNVMRef returns an empty NVM image backed by the map-based reference
// implementation. It is semantically identical to the paged store and exists
// only so differential tests (and `capribench -perf`'s speedup measurement)
// can run the whole machine against the seed's data structure.
func NewNVMRef() *NVM {
	return &NVM{ref: make(map[uint64]Word)}
}

// IsRef reports whether this image uses the map-backed reference store.
func (n *NVM) IsRef() bool { return n.ref != nil }

// BookLineWrite reserves one 64B line write in the write-pending queue at
// cycle now, where writeCost is the device's per-line write latency, and
// returns the queue depth (in pending line writes, including this one) right
// after booking. The returned depth feeds the WPQ-depth histogram; timing
// callers only need the booking side effect.
func (n *NVM) BookLineWrite(now, writeCost uint64) uint64 {
	if n.writeFree < now {
		n.writeFree = now
	}
	n.writeFree += writeCost
	if writeCost == 0 {
		return 1
	}
	return (n.writeFree - now + writeCost - 1) / writeCost
}

// PendingLineWrites reports the write-pending queue's current depth at
// cycle now without booking anything: the number of 64B line writes still
// queued ahead of the device, given the per-line write latency. Read-only
// — the telemetry sampler's WPQ-depth gauge is built on it.
func (n *NVM) PendingLineWrites(now, writeCost uint64) uint64 {
	if writeCost == 0 || n.writeFree <= now {
		return 0
	}
	return (n.writeFree - now + writeCost - 1) / writeCost
}

// page returns the page containing word index wi, or nil if absent.
func (n *NVM) page(wi uint64) *nvmPage {
	pi := wi >> pageWordShift
	if pi < uint64(len(n.pages)) {
		return n.pages[pi]
	}
	if n.far != nil {
		return n.far[pi]
	}
	return nil
}

// writablePage returns (allocating if needed) the page containing wi.
func (n *NVM) writablePage(wi uint64) *nvmPage {
	pi := wi >> pageWordShift
	if pi < uint64(len(n.pages)) {
		if p := n.pages[pi]; p != nil {
			return p
		}
	}
	return n.writablePageSlow(pi)
}

func (n *NVM) writablePageSlow(pi uint64) *nvmPage {
	if pi < directPages {
		if pi >= uint64(len(n.pages)) {
			n.pages = growDir(n.pages, pi)
		}
		p := &nvmPage{}
		n.pages[pi] = p
		return p
	}
	if n.far == nil {
		n.far = make(map[uint64]*nvmPage)
	}
	if p := n.far[pi]; p != nil {
		return p
	}
	p := &nvmPage{}
	n.far[pi] = p
	return p
}

// Read returns the persisted value of the word at addr (zero if never
// written) along with its writer sequence.
func (n *NVM) Read(addr uint64) Word {
	n.Reads++
	return n.Peek(addr)
}

// Peek is Read without statistics, for verification code.
func (n *NVM) Peek(addr uint64) Word {
	wi := WordAddr(addr) >> wordShift
	pi := wi >> pageWordShift
	if pi < uint64(len(n.pages)) {
		if p := n.pages[pi]; p != nil {
			return p.words[wi&pageWordMask]
		}
		return Word{}
	}
	return n.peekSlow(wi)
}

func (n *NVM) peekSlow(wi uint64) Word {
	if n.ref != nil {
		return n.ref[wi<<wordShift]
	}
	if p := n.page(wi); p != nil {
		return p.words[wi&pageWordMask]
	}
	return Word{}
}

// Write persists val at addr if seq is newer than the current writer
// sequence. It reports whether the write was applied. This guard is the
// formal core of stale-read prevention: a redo drain or cache writeback
// carrying older data than what NVM already holds is dropped.
func (n *NVM) Write(addr uint64, val uint64, seq uint64) bool {
	a := WordAddr(addr)
	if n.ref != nil {
		cur, ok := n.ref[a]
		if ok && cur.Seq >= seq {
			n.StaleSkips++
			return false
		}
		n.ref[a] = Word{Val: val, Seq: seq}
		n.WordWrites++
		return true
	}
	wi := a >> wordShift
	p := n.writablePage(wi)
	off := wi & pageWordMask
	bw, bb := off>>6, uint64(1)<<(off&63)
	if p.used[bw]&bb != 0 {
		if p.words[off].Seq >= seq {
			n.StaleSkips++
			return false
		}
	} else {
		p.used[bw] |= bb
		n.count++
	}
	p.words[off] = Word{Val: val, Seq: seq}
	n.WordWrites++
	return true
}

// Restore force-writes a word during crash recovery (undo application),
// bypassing the sequence guard. newSeq becomes the word's writer sequence.
func (n *NVM) Restore(addr uint64, val uint64, newSeq uint64) {
	a := WordAddr(addr)
	if n.ref != nil {
		n.ref[a] = Word{Val: val, Seq: newSeq}
		return
	}
	wi := a >> wordShift
	p := n.writablePage(wi)
	off := wi & pageWordMask
	bw, bb := off>>6, uint64(1)<<(off&63)
	if p.used[bw]&bb == 0 {
		p.used[bw] |= bb
		n.count++
	}
	p.words[off] = Word{Val: val, Seq: newSeq}
}

// WordEntry is one persisted word in exportable form.
type WordEntry struct {
	Addr uint64
	Val  uint64
	Seq  uint64
}

// Entries exports the persisted words sorted by ascending address, so
// crash-image serialization is deterministic: two serializations of the same
// machine state are byte-identical (recovery scans and golden comparisons
// must not depend on Go map iteration order).
func (n *NVM) Entries() []WordEntry {
	out := make([]WordEntry, 0, n.Len())
	if n.ref != nil {
		for a, w := range n.ref {
			out = append(out, WordEntry{Addr: a, Val: w.Val, Seq: w.Seq})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
		return out
	}
	appendPage := func(pi uint64, p *nvmPage) {
		base := pi << (pageWordShift + wordShift)
		for off := uint64(0); off < pageWords; off++ {
			if p.isUsed(off) {
				w := p.words[off]
				out = append(out, WordEntry{Addr: base + off<<wordShift, Val: w.Val, Seq: w.Seq})
			}
		}
	}
	for pi, p := range n.pages {
		if p != nil {
			appendPage(uint64(pi), p)
		}
	}
	if len(n.far) > 0 {
		fis := make([]uint64, 0, len(n.far))
		for pi := range n.far {
			fis = append(fis, pi)
		}
		sort.Slice(fis, func(i, j int) bool { return fis[i] < fis[j] })
		for _, pi := range fis {
			appendPage(pi, n.far[pi])
		}
	}
	return out
}

// NVMFromEntries rebuilds an NVM image from exported entries.
func NVMFromEntries(entries []WordEntry) *NVM {
	n := NewNVM()
	for _, e := range entries {
		n.Restore(e.Addr, e.Val, e.Seq)
	}
	return n
}

// forEach visits every persisted word.
func (n *NVM) forEach(visit func(addr uint64, w Word)) {
	if n.ref != nil {
		for a, w := range n.ref {
			visit(a, w)
		}
		return
	}
	visitPage := func(pi uint64, p *nvmPage) {
		base := pi << (pageWordShift + wordShift)
		for off := uint64(0); off < pageWords; off++ {
			if p.isUsed(off) {
				visit(base+off<<wordShift, p.words[off])
			}
		}
	}
	for pi, p := range n.pages {
		if p != nil {
			visitPage(uint64(pi), p)
		}
	}
	for pi, p := range n.far {
		visitPage(pi, p)
	}
}

// Snapshot copies the persisted word values (used by tests and the
// golden-state comparisons).
func (n *NVM) Snapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64, n.Len())
	n.forEach(func(addr uint64, w Word) { out[addr] = w.Val })
	return out
}

// Len returns the number of persisted words.
func (n *NVM) Len() int {
	if n.ref != nil {
		return len(n.ref)
	}
	return n.count
}

// Clone deep-copies the NVM image (crash injection snapshots). The clone
// keeps the original's backing kind.
func (n *NVM) Clone() *NVM {
	c := &NVM{count: n.count}
	if n.ref != nil {
		c.ref = make(map[uint64]Word, len(n.ref))
		for a, w := range n.ref {
			c.ref[a] = w
		}
	} else {
		c.pages = make([]*nvmPage, len(n.pages))
		for i, p := range n.pages {
			if p != nil {
				cp := *p
				c.pages[i] = &cp
			}
		}
		if len(n.far) > 0 {
			c.far = make(map[uint64]*nvmPage, len(n.far))
			for pi, p := range n.far {
				cp := *p
				c.far[pi] = &cp
			}
		}
	}
	c.writeFree = n.writeFree
	c.Writes, c.WordWrites, c.Reads, c.StaleSkips = n.Writes, n.WordWrites, n.Reads, n.StaleSkips
	return c
}

// memPage is one flat page of architectural words plus a presence bitmap.
type memPage struct {
	vals [pageWords]uint64
	used [pageWords / 64]uint64
}

func (p *memPage) isUsed(off uint64) bool { return p.used[off>>6]&(1<<(off&63)) != 0 }

// Mem is the architectural (volatile) memory image: the values loads actually
// observe during execution, maintained at word granularity. It vanishes at a
// power failure; recovery rebuilds it from NVM. The backing mirrors NVM's:
// paged flat arrays by default, a reference map via NewMemRef.
type Mem struct {
	pages []*memPage
	far   map[uint64]*memPage
	count int

	ref map[uint64]uint64 // non-nil: map-backed reference implementation
}

// NewMem returns an empty architectural memory with the paged backing.
func NewMem() *Mem {
	return &Mem{}
}

// NewMemRef returns an empty architectural memory backed by the map-based
// reference implementation (differential testing only).
func NewMemRef() *Mem {
	return &Mem{ref: make(map[uint64]uint64)}
}

// IsRef reports whether this memory uses the map-backed reference store.
func (m *Mem) IsRef() bool { return m.ref != nil }

// FromSnapshot builds architectural memory from a persisted image (used when
// resuming after recovery).
func FromSnapshot(s map[uint64]uint64) *Mem {
	m := NewMem()
	for a, v := range s {
		m.Store(a, v)
	}
	return m
}

// MemFromNVM builds the architectural memory image a recovery produces: every
// persisted word's value, with the same backing kind as the NVM image. This
// is the allocation-lean page-copy path recovery uses instead of going
// through a map snapshot.
func MemFromNVM(n *NVM) *Mem {
	if n.ref != nil {
		m := NewMemRef()
		for a, w := range n.ref {
			m.ref[a] = w.Val
		}
		return m
	}
	m := &Mem{count: n.count, pages: make([]*memPage, len(n.pages))}
	copyPage := func(p *nvmPage) *memPage {
		mp := &memPage{used: p.used}
		for off := 0; off < pageWords; off++ {
			mp.vals[off] = p.words[off].Val
		}
		return mp
	}
	for i, p := range n.pages {
		if p != nil {
			m.pages[i] = copyPage(p)
		}
	}
	if len(n.far) > 0 {
		m.far = make(map[uint64]*memPage, len(n.far))
		for pi, p := range n.far {
			m.far[pi] = copyPage(p)
		}
	}
	return m
}

func (m *Mem) writablePage(wi uint64) *memPage {
	pi := wi >> pageWordShift
	if pi < uint64(len(m.pages)) {
		if p := m.pages[pi]; p != nil {
			return p
		}
	}
	return m.writablePageSlow(pi)
}

func (m *Mem) writablePageSlow(pi uint64) *memPage {
	if pi < directPages {
		if pi >= uint64(len(m.pages)) {
			m.pages = growDir(m.pages, pi)
		}
		p := &memPage{}
		m.pages[pi] = p
		return p
	}
	if m.far == nil {
		m.far = make(map[uint64]*memPage)
	}
	if p := m.far[pi]; p != nil {
		return p
	}
	p := &memPage{}
	m.far[pi] = p
	return p
}

// Load returns the word at addr.
func (m *Mem) Load(addr uint64) uint64 {
	wi := WordAddr(addr) >> wordShift
	pi := wi >> pageWordShift
	if pi < uint64(len(m.pages)) {
		if p := m.pages[pi]; p != nil {
			return p.vals[wi&pageWordMask]
		}
		return 0
	}
	return m.loadSlow(wi)
}

func (m *Mem) loadSlow(wi uint64) uint64 {
	if m.ref != nil {
		return m.ref[wi<<wordShift]
	}
	if m.far != nil {
		if p := m.far[wi>>pageWordShift]; p != nil {
			return p.vals[wi&pageWordMask]
		}
	}
	return 0
}

// Store writes the word at addr and returns the previous value (the undo
// image the front-end proxy captures).
func (m *Mem) Store(addr uint64, val uint64) (old uint64) {
	a := WordAddr(addr)
	if m.ref != nil {
		old = m.ref[a]
		m.ref[a] = val
		return old
	}
	wi := a >> wordShift
	p := m.writablePage(wi)
	off := wi & pageWordMask
	old = p.vals[off]
	bw, bb := off>>6, uint64(1)<<(off&63)
	if p.used[bw]&bb == 0 {
		p.used[bw] |= bb
		m.count++
	}
	p.vals[off] = val
	return old
}

// Snapshot copies the current word map.
func (m *Mem) Snapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64, m.Len())
	if m.ref != nil {
		for a, v := range m.ref {
			out[a] = v
		}
		return out
	}
	visitPage := func(pi uint64, p *memPage) {
		base := pi << (pageWordShift + wordShift)
		for off := uint64(0); off < pageWords; off++ {
			if p.isUsed(off) {
				out[base+off<<wordShift] = p.vals[off]
			}
		}
	}
	for pi, p := range m.pages {
		if p != nil {
			visitPage(uint64(pi), p)
		}
	}
	for pi, p := range m.far {
		visitPage(pi, p)
	}
	return out
}

// Len returns the number of populated words.
func (m *Mem) Len() int {
	if m.ref != nil {
		return len(m.ref)
	}
	return m.count
}
