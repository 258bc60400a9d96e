package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// host is the machine a run measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     envOr("PERFBENCH_COMMIT", "unknown"),
	}
}

func (h host) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibrator runs two fixed kernels that do not depend on the simulator,
// so their times witness machine drift: a pure-CPU integer kernel and a
// memory-bound pointer chase over a buffer larger than the caches. The
// buffer lives outside the Go heap so it does not change the simulator's
// GC pacing or its measured heap.
type calibrator struct {
	next []uint32 // one random cycle through every slot
	mem  []byte
	sink uint64
}

const (
	calibCPUIters   = 1 << 21
	calibChaseSlots = 1 << 22 // 16 MiB of uint32
	calibChaseSteps = 1 << 17
)

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calibChaseSlots*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration buffer: %w", err)
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calibChaseSlots)
	// Sattolo's shuffle: a single cycle, so the chase visits every slot.
	for i := range next {
		next[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &calibrator{next: next, mem: mem}, nil
}

func (c *calibrator) close() {
	c.next = nil
	_ = syscall.Munmap(c.mem) // the process is about to exit
}

// cpuNs returns the pure-CPU kernel's time per iteration.
func (c *calibrator) cpuNs() float64 {
	x, acc := uint64(88172645463325252), uint64(0)
	t0 := time.Now()
	for i := 0; i < calibCPUIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x * 0x9E3779B97F4A7C15
	}
	d := time.Since(t0)
	c.sink += acc
	return float64(d.Nanoseconds()) / calibCPUIters
}

// memNs returns the pointer chase's time per dependent load.
func (c *calibrator) memNs() float64 {
	i := uint32(c.sink) % calibChaseSlots
	t0 := time.Now()
	for k := 0; k < calibChaseSteps; k++ {
		i = c.next[i]
	}
	d := time.Since(t0)
	c.sink += uint64(i)
	return float64(d.Nanoseconds()) / calibChaseSteps
}
