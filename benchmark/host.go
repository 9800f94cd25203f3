package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord is the honest-harness stamp attached to every result: enough to
// tell afterwards whether two numbers were taken under comparable conditions.
type hostRecord struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	LoadAvg1   float64 `json:"load_avg_1m"`
}

func readHost() hostRecord {
	return hostRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LoadAvg1:   loadAvg1(),
	}
}

// loadAvg1 reads the 1-minute load average; -1 where /proc is unavailable.
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// processCPU returns the user+system CPU time this process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM) in
// MB, falling back to getrusage's ru_maxrss (KB on Linux) without /proc.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so that
// peak_rss_mb covers the warmed-up, measured system and not the set-up
// repetitions before it. Where the kernel refuses (no /proc, no permission)
// the mark simply keeps covering the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runtimeProbe samples the Go runtime over an interval: allocation rate,
// the garbage collector's share of the process's CPU time, and the goroutine
// high-water mark (polled by the caller through observe).
type runtimeProbe struct {
	start         time.Time
	startAlloc    uint64
	startGCCPU    float64
	startCPU      time.Duration
	goroutinesMax int
}

// gcCPUSeconds reads the runtime's estimate of CPU time spent collecting.
func gcCPUSeconds() float64 {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}

func startRuntimeProbe() *runtimeProbe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &runtimeProbe{
		start:         time.Now(),
		startAlloc:    ms.TotalAlloc,
		startGCCPU:    gcCPUSeconds(),
		startCPU:      processCPU(),
		goroutinesMax: runtime.NumGoroutine(),
	}
}

func (p *runtimeProbe) observe() {
	if n := runtime.NumGoroutine(); n > p.goroutinesMax {
		p.goroutinesMax = n
	}
}

// finish returns MB allocated per second and the GC's share of the CPU time
// the process used since start.
func (p *runtimeProbe) finish() (allocMBPerS, gcCPUFrac float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if elapsed := time.Since(p.start).Seconds(); elapsed > 0 {
		allocMBPerS = float64(ms.TotalAlloc-p.startAlloc) / (1 << 20) / elapsed
	}
	if used := (processCPU() - p.startCPU).Seconds(); used > 0 {
		gcCPUFrac = (gcCPUSeconds() - p.startGCCPU) / used
	}
	return allocMBPerS, gcCPUFrac
}
