package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// The benchmark times ops in wall-clock time, rescaled by a reference
// computation it runs between ops. On a shared host the wall clock swings
// by 10–30% from one minute to the next: the hypervisor steals slices of
// the vCPUs, and the neighbours' load slows every instruction. The
// reference's wall time swings by the same factor, so op time divided by
// the reference's mean time repeats to a few percent. The mean, not the
// median: steal comes in slices, and an op spanning many of them loses
// about the mean share, which the median of short samples misses. Times
// are reported as they would read on a nominal machine, one on which the
// reference takes refNominal.
const (
	refNominal = 5 * time.Millisecond
	// refEvery is how many ops run between two reference samples.
	refEvery = 8
)

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // only EFAULT/EINVAL: a bug
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTime is the process's CPU time so far, user plus system, over all
// threads.
func cpuTime() time.Duration { return rusage(syscall.RUSAGE_SELF) }

// stealSeconds reads the machine's cumulative steal time (the CPU the
// hypervisor gave to other guests), or 0 where /proc/stat is missing.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var user, nice, sys, idle, iowait, irq, softirq, steal float64
	fmt.Sscanf(string(b), "cpu %f %f %f %f %f %f %f %f", &user, &nice, &sys, &idle, &iowait, &irq, &softirq, &steal)
	return steal / 100 // USER_HZ
}

// refSample is one run of the reference computation: its wall time and
// the CPU time of the thread that ran it.
type refSample struct{ wall, cpu time.Duration }

// reference is the fixed computation: sort 32Ki pseudo-random words and
// hash them, then follow refChase links of a random cycle through 32 MiB.
// The first half is branchy and arithmetic work inside the core's own
// caches; the second waits on the shared cache and memory, which the
// neighbours' load slows as it slows the program's heap. It allocates
// nothing, and runs on an OS thread of its own, so neither its wall time
// nor its CPU time includes work the program does on other threads (a
// replica's write-behind still running when an op returns); it is the
// benchmark's own code, so no change to the program moves it.
type reference struct {
	data, buf []uint64
	bytes     []byte
	sink      [sha256.Size]byte
	ring      []uint32 // ring[i] is the next index of one cycle through all of ring
	at        uint32
	req       chan struct{}
	resp      chan refSample
}

const refChase = 1 << 14

func newReference() *reference {
	r := &reference{
		data:  make([]uint64, 1<<15),
		buf:   make([]uint64, 1<<15),
		bytes: make([]byte, 8<<15),
		ring:  make([]uint32, 1<<23),
		req:   make(chan struct{}),
		resp:  make(chan refSample),
	}
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range r.data {
		r.data[i] = next()
	}
	// Sattolo's shuffle of the identity makes one cycle through every slot.
	for i := range r.ring {
		r.ring[i] = uint32(i)
	}
	for i := len(r.ring) - 1; i > 0; i-- {
		j := next() % uint64(i)
		r.ring[i], r.ring[j] = r.ring[j], r.ring[i]
	}
	go r.serve()
	return r
}

// serve runs the reference on request, on a thread locked to it for
// good; the thread exits with the goroutine when close is called.
func (r *reference) serve() {
	runtime.LockOSThread()
	for range r.req {
		c0, t0 := rusage(rusageThread), time.Now()
		copy(r.buf, r.data)
		slices.Sort(r.buf)
		for i, v := range r.buf {
			binary.LittleEndian.PutUint64(r.bytes[8*i:], v)
		}
		r.sink = sha256.Sum256(r.bytes)
		for k := 0; k < refChase; k++ {
			r.at = r.ring[r.at]
		}
		r.resp <- refSample{time.Since(t0), rusage(rusageThread) - c0}
	}
}

// sample waits until the process is idle, then runs the reference once.
func (r *reference) sample() refSample {
	quiesce()
	r.req <- struct{}{}
	return <-r.resp
}

func (r *reference) close() { close(r.req) }

// quiesce waits, for at most 50 ms, until the process spends less than a
// tenth of one CPU over a millisecond: until work an op left running on
// other threads (a replica's write-behind) is done, so that it neither
// competes with the reference nor is counted in it.
func quiesce() {
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
		c0 := cpuTime()
		time.Sleep(time.Millisecond)
		if cpuTime()-c0 < 100*time.Microsecond {
			return
		}
	}
}

// scale converts times measured while the reference took ref into
// nominal-machine times.
func scale(ds []time.Duration, ref time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = time.Duration(float64(d) * float64(refNominal) / float64(ref))
	}
	return out
}
