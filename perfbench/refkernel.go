package main

import (
	"fmt"
	"runtime/debug"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel is a fixed piece of work in the benchmark's own code
// that exercises what the model checker's hot paths exercise: dependent
// random reads over a buffer larger than the last-level cache (105 MiB on
// the reference machine), many small heap allocations, and map inserts. It
// runs right before and right after every timed operation; an operation's
// drift-corrected time is its raw time scaled by refNominalS over the mean of
// the two kernel times, which cancels machine-wide slowdowns (noisy
// neighbours, frequency changes) that hit the kernel and the operation alike.

const (
	// refBufWords is the size of the read buffer in 4-byte words (128 MiB).
	refBufWords = 32 << 20
	refReads    = 150_000
	refAllocs   = 40_000
	refInserts  = 40_000
	// refNominalS is about the kernel's median time between operations on
	// the reference machine (2-core Xeon VM, 105 MiB L3, GOMAXPROCS=2);
	// corrected times are seconds at that speed.
	refNominalS = 0.050
)

// refKernel owns the read buffer. The buffer lives outside the Go heap
// (an anonymous mapping), so it neither adds to the heap the benchmark
// reports nor raises the garbage collector's heap goal for the program
// under test.
type refKernel struct {
	buf []uint32
	raw []byte
}

// kernelSink keeps the kernel's results observable so the compiler cannot
// drop the work.
var kernelSink uint64

func newRefKernel() (*refKernel, error) {
	raw, err := syscall.Mmap(-1, 0, refBufWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference buffer: %w", err)
	}
	buf := unsafe.Slice((*uint32)(unsafe.Pointer(&raw[0])), refBufWords)
	x := uint32(2463534242)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		buf[i] = x
	}
	return &refKernel{buf: buf, raw: raw}, nil
}

func (k *refKernel) close() {
	if k.raw != nil {
		_ = syscall.Munmap(k.raw) // the mapping is private; nothing to flush
		k.raw, k.buf = nil, nil
	}
}

type refNode struct {
	next *refNode
	v    [4]uint64
}

// run executes the kernel once and returns its wall time in seconds. The
// work is identical on every call; the collector is off while it runs, so
// its time does not depend on how much heap the program under test holds.
func (k *refKernel) run() float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := time.Now()
	const mask = refBufWords - 1
	idx := uint32(12345)
	var acc uint64
	for i := 0; i < refReads; i++ {
		v := k.buf[idx&mask]
		acc += uint64(v)
		idx = v*2654435761 + uint32(i)
	}
	var head *refNode
	for i := 0; i < refAllocs; i++ {
		head = &refNode{next: head, v: [4]uint64{uint64(i), acc}}
	}
	m := make(map[uint64]uint64)
	for i := 0; i < refInserts; i++ {
		m[uint64(i)*0x9e3779b97f4a7c15^acc] = uint64(i)
	}
	for n := head; n != nil; n = n.next {
		acc += n.v[0]
	}
	kernelSink += acc + uint64(len(m))
	return time.Since(start).Seconds()
}
