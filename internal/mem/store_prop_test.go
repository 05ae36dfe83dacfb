package mem

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Property test for the paged word stores: random Write/Restore/Peek/Read
// and Store/Load sequences run against the paged backing and the map-backed
// reference side by side, and every observable — per-access results,
// Entries, Snapshot, Len, clone independence, MemFromNVM — must agree. The
// address pool straddles every page edge it touches, the direct window's
// last page and the far-page map beyond it, and is visited in ascending,
// descending and sparse page order so the directory grows every way a
// program can make it grow.

const pageBytes = pageWords * WordSize

// propAddrs builds the address pool for one page order: words on both
// sides of each chosen page's edges plus one interior word.
func propAddrs(rng *rand.Rand, order string) []uint64 {
	var pages []uint64
	switch order {
	case "ascending":
		for p := uint64(0); p < 24; p++ {
			pages = append(pages, p)
		}
	case "descending":
		for p := uint64(300); p > 250; p -= 3 {
			pages = append(pages, p)
		}
	case "sparse":
		pages = []uint64{1 << 7, 1 << 8, 0, directPages - 1, directPages, directPages + 1, 1 << 25, 3}
		for i := 0; i < 8; i++ {
			pages = append(pages, uint64(rng.Intn(1<<12)))
		}
	}
	var addrs []uint64
	for _, p := range pages {
		base := p * pageBytes
		addrs = append(addrs, base, base+WordSize, base+pageBytes-WordSize, base+uint64(rng.Intn(pageWords))*WordSize)
		if base > 0 {
			addrs = append(addrs, base-WordSize)
		}
	}
	return addrs
}

// storePair is one paged store and its reference twin.
type storePair struct {
	nvm, nvmRef *NVM
	mem, memRef *Mem
}

func (s *storePair) check(t *testing.T, what string, probe []uint64) {
	t.Helper()
	if got, want := s.nvm.Entries(), s.nvmRef.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: NVM Entries diverge:\n paged %v\n ref   %v", what, got, want)
	}
	if got, want := s.nvm.Snapshot(), s.nvmRef.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: NVM Snapshot diverges", what)
	}
	if s.nvm.Len() != s.nvmRef.Len() {
		t.Fatalf("%s: NVM Len %d, ref %d", what, s.nvm.Len(), s.nvmRef.Len())
	}
	if got, want := s.mem.Snapshot(), s.memRef.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Mem Snapshot diverges", what)
	}
	if s.mem.Len() != s.memRef.Len() {
		t.Fatalf("%s: Mem Len %d, ref %d", what, s.mem.Len(), s.memRef.Len())
	}
	for _, a := range probe {
		if s.nvm.Peek(a) != s.nvmRef.Peek(a) || s.mem.Load(a) != s.memRef.Load(a) {
			t.Fatalf("%s: word %#x diverges", what, a)
		}
	}
}

func (s *storePair) step(t *testing.T, rng *rand.Rand, addrs []uint64) {
	t.Helper()
	a := addrs[rng.Intn(len(addrs))] + uint64(rng.Intn(WordSize)) // unaligned too
	val := rng.Uint64() & 0xff                                    // small values: zeros get written
	seq := uint64(rng.Intn(64))                                   // small seqs: the guard fires
	switch rng.Intn(6) {
	case 0, 1:
		if got, want := s.nvm.Write(a, val, seq), s.nvmRef.Write(a, val, seq); got != want {
			t.Fatalf("Write(%#x, seq %d) applied %v, ref %v", a, seq, got, want)
		}
	case 2:
		s.nvm.Restore(a, val, seq)
		s.nvmRef.Restore(a, val, seq)
	case 3:
		if got, want := s.nvm.Read(a), s.nvmRef.Read(a); got != want {
			t.Fatalf("Read(%#x) = %+v, ref %+v", a, got, want)
		}
	case 4:
		if got, want := s.mem.Store(a, val), s.memRef.Store(a, val); got != want {
			t.Fatalf("Store(%#x) undo %d, ref %d", a, got, want)
		}
	case 5:
		if got, want := s.mem.Load(a), s.memRef.Load(a); got != want {
			t.Fatalf("Load(%#x) = %d, ref %d", a, got, want)
		}
	}
}

func TestPagedStoreProperty(t *testing.T) {
	for _, order := range []string{"ascending", "descending", "sparse"} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			addrs := propAddrs(rng, order)
			s := &storePair{nvm: NewNVM(), nvmRef: NewNVMRef(), mem: NewMem(), memRef: NewMemRef()}
			// Touch the pool in its page order before the random mix, so
			// directory growth follows that order exactly.
			for i, a := range addrs {
				s.nvm.Write(a, uint64(i), 1)
				s.nvmRef.Write(a, uint64(i), 1)
				s.mem.Store(a, uint64(i))
				s.memRef.Store(a, uint64(i))
			}
			for round := 0; round < 8; round++ {
				for i := 0; i < 300; i++ {
					s.step(t, rng, addrs)
				}
				s.check(t, order, addrs)
				checkClones(t, rng, s, addrs)
				checkMemFromNVM(t, s.nvm, addrs)
			}
		}
	}
}

// checkClones proves Clone deep-copies in both directions: writes to the
// clone are invisible to the original and vice versa, for paged and
// reference backings alike.
func checkClones(t *testing.T, rng *rand.Rand, s *storePair, addrs []uint64) {
	t.Helper()
	c, cRef := s.nvm.Clone(), s.nvmRef.Clone()
	before := s.nvm.Entries()
	if !reflect.DeepEqual(c.Entries(), before) || c.Len() != s.nvm.Len() {
		t.Fatal("clone differs from its original")
	}
	a, b := addrs[rng.Intn(len(addrs))], addrs[rng.Intn(len(addrs))]
	far := uint64(directPages+7) * pageBytes // a page neither side has
	for _, x := range []uint64{a, far} {
		c.Restore(x, 0xc10e, 1<<40)
		cRef.Restore(x, 0xc10e, 1<<40)
	}
	if !reflect.DeepEqual(s.nvm.Entries(), before) {
		t.Fatal("original sees its clone's writes")
	}
	afterClone := c.Entries()
	for _, x := range []uint64{b, b + pageBytes} {
		s.nvm.Restore(x, 0x0219, 1<<41)
		s.nvmRef.Restore(x, 0x0219, 1<<41)
	}
	if !reflect.DeepEqual(c.Entries(), afterClone) {
		t.Fatal("clone sees its original's writes")
	}
	if !reflect.DeepEqual(c.Entries(), cRef.Entries()) || c.Len() != cRef.Len() {
		t.Fatal("paged clone diverges from reference clone")
	}
	s.check(t, "after clone", addrs)
}

// checkMemFromNVM proves the page-copy path recovery uses builds the same
// architectural memory as a rebuild through a map snapshot, and shares no
// page with the image it came from.
func checkMemFromNVM(t *testing.T, n *NVM, addrs []uint64) {
	t.Helper()
	snap := n.Snapshot()
	m, want := MemFromNVM(n), FromSnapshot(snap)
	if !reflect.DeepEqual(m.Snapshot(), want.Snapshot()) || m.Len() != want.Len() {
		t.Fatalf("MemFromNVM diverges from the snapshot rebuild: len %d vs %d", m.Len(), want.Len())
	}
	keys := make([]uint64, 0, len(snap))
	for a := range snap {
		keys = append(keys, a)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, a := range append(keys, addrs...) {
		if m.Load(a) != want.Load(a) {
			t.Fatalf("MemFromNVM word %#x = %d, rebuild %d", a, m.Load(a), want.Load(a))
		}
	}
	if len(keys) > 0 {
		a := keys[0]
		old := n.Peek(a)
		m.Store(a, old.Val+1)
		if n.Peek(a) != old {
			t.Fatal("MemFromNVM aliases the NVM image's pages")
		}
	}
}
