package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCPU, usedCPU     float64 // estimated CPU seconds (runtime/metrics)
	allocBytes, allocs uint64
	processCPU         float64 // user+system seconds of the whole process
	wall               time.Time
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:      s[0].Value.Float64(),
		usedCPU:    s[1].Value.Float64() - s[2].Value.Float64(),
		allocBytes: s[3].Value.Uint64(),
		allocs:     s[4].Value.Uint64(),
		processCPU: processCPU(),
		wall:       time.Now(),
	}
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// peakRSSMB covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set size since the last reset, or
// over the process's lifetime when resets are unavailable.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedRegion is the runtime accounting of one timed region.
type timedRegion struct {
	wallS, cpuS, gcShare float64
	allocBytes, allocs   uint64
	peakHeapMB           float64
}

// heapWatch samples the live heap every few milliseconds until stopped,
// keeping the peak: runtime/metrics has no high-water mark of its own.
type heapWatch struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapWatchEvery = 5 * time.Millisecond

func startHeapWatch() *heapWatch {
	w := &heapWatch{stop: make(chan struct{})}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(heapWatchEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > w.peak {
				w.peak = v
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// Stop ends the sampling and returns the peak heap in MiB.
func (w *heapWatch) Stop() float64 {
	close(w.stop)
	w.done.Wait()
	return float64(w.peak) / (1 << 20)
}

// timeRegion runs fn as a timed region. A collection first keeps the
// previous region's garbage off this one's account; a collection after it
// settles the runtime's CPU estimates, which advance at GC boundaries.
// With watchHeap the live heap is sampled while fn runs.
func timeRegion(fn func(), watchHeap bool) timedRegion {
	runtime.GC()
	var w *heapWatch
	if watchHeap {
		w = startHeapWatch()
	}
	a := readRuntime()
	fn()
	b := readRuntime()
	var r timedRegion
	if w != nil {
		r.peakHeapMB = w.Stop()
	}
	runtime.GC()
	c := readRuntime()
	r.wallS = b.wall.Sub(a.wall).Seconds()
	r.cpuS = b.processCPU - a.processCPU
	if used := c.usedCPU - a.usedCPU; used > 0 {
		r.gcShare = (c.gcCPU - a.gcCPU) / used
	}
	r.allocBytes = b.allocBytes - a.allocBytes
	r.allocs = b.allocs - a.allocs
	return r
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
