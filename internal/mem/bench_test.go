package mem

import "testing"

// Raw store micro-benchmarks: the per-access cost of the paged flat-array
// backing versus the map-backed reference implementation, over the access
// patterns the simulator actually generates (sequential heap sweeps and
// strided line-granular writebacks). Run with:
//
//	go test -bench 'Mem|NVM' -benchmem ./internal/mem
//
// The paged/ref pairs are this PR's perf-regression anchors: the paged side
// must stay allocation-free per access and several times faster than ref.

// benchSpan covers 2 MB of heap — the figure workloads' footprint scale,
// touched densely the way their kernels sweep arrays.
const benchSpan = uint64(2 << 20)

func benchAddrs() []uint64 {
	addrs := make([]uint64, 4096)
	for i := range addrs {
		// 17-word stride: line-crossing, page-dense, cache-hostile.
		addrs[i] = (uint64(i) * 17 * WordSize) % benchSpan
	}
	return addrs
}

func benchMemLoad(b *testing.B, m *Mem) {
	addrs := benchAddrs()
	for _, a := range addrs {
		m.Store(a, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Load(addrs[i&(len(addrs)-1)])
	}
	benchSink = sink
}

func benchMemStore(b *testing.B, m *Mem) {
	addrs := benchAddrs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Store(addrs[i&(len(addrs)-1)], uint64(i))
	}
}

func benchNVMWrite(b *testing.B, n *NVM) {
	addrs := benchAddrs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Monotonic seq: every write passes the guard, as phase-2 drains do.
		n.Write(addrs[i&(len(addrs)-1)], uint64(i), uint64(i)+1)
	}
}

var benchSink uint64

func BenchmarkMemLoadPaged(b *testing.B) { benchMemLoad(b, NewMem()) }
func BenchmarkMemLoadRef(b *testing.B)   { benchMemLoad(b, NewMemRef()) }

func BenchmarkMemStorePaged(b *testing.B) { benchMemStore(b, NewMem()) }
func BenchmarkMemStoreRef(b *testing.B)   { benchMemStore(b, NewMemRef()) }

func BenchmarkNVMWritePaged(b *testing.B) { benchNVMWrite(b, NewNVM()) }
func BenchmarkNVMWriteRef(b *testing.B)   { benchNVMWrite(b, NewNVMRef()) }

// BenchmarkNVMWriteStale measures the guard's rejection path (writebacks
// racing drained entries): all writes carry a stale sequence and must be
// skipped without mutating the page.
func BenchmarkNVMWriteStale(b *testing.B) {
	n := NewNVM()
	addrs := benchAddrs()
	for _, a := range addrs {
		n.Write(a, a, ^uint64(0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Write(addrs[i&(len(addrs)-1)], uint64(i), 1)
	}
}

// smallFootprint is what one small machine touches — a progen corpus
// program's scale: a stack page's worth of frames below thread 0's stack
// top plus a few hundred heap words scattered over 16 KB, at the machine's
// memory map (stack top 512 KB, heap base 1 MB).
func smallFootprint() []uint64 {
	const stackTop, heapBase = 1 << 19, 1 << 20
	var addrs []uint64
	for i := uint64(1); i <= 64; i++ {
		addrs = append(addrs, stackTop-i*WordSize)
	}
	for i := uint64(0); i < 192; i++ {
		addrs = append(addrs, heapBase+(i*37%2048)*WordSize)
	}
	return addrs
}

// benchImageLifecycle is one small machine's image lifecycle on the crash
// path: the live NVM and architectural images are written, the crash
// harvest clones the NVM image, and recovery rebuilds architectural memory
// from the clone. B/op is the host memory every crash trial pays for it.
func benchImageLifecycle(b *testing.B, newNVM func() *NVM, newMem func() *Mem) {
	addrs := smallFootprint()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n, m := newNVM(), newMem()
		for j, a := range addrs {
			n.Write(a, uint64(j), uint64(j)+1)
			m.Store(a, uint64(j))
		}
		benchMem = MemFromNVM(n.Clone())
	}
}

var benchMem *Mem

func BenchmarkNVMImageLifecyclePaged(b *testing.B) { benchImageLifecycle(b, NewNVM, NewMem) }
func BenchmarkNVMImageLifecycleRef(b *testing.B)   { benchImageLifecycle(b, NewNVMRef, NewMemRef) }
