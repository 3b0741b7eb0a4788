package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
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

// geomean returns the geometric mean of positive ratios; 1 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// share returns num/base, or 0 when base is 0.
func share(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// cpuNow returns the process's user plus system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the peak resident set size of this program image in
// MB: VmHWM from /proc/self/status. getrusage's ru_maxrss is not used: on
// Linux it keeps, across exec, the peak of the process image that forked
// it, so a parent process larger than the benchmark would set the number.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes returns the bytes allocated on the heap since the process
// started. Unlike runtime.ReadMemStats it does not stop the world.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	if allocSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return allocSample[0].Value.Uint64()
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat and returns the
// steal ticks and the total ticks; ok is false where the file is missing.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the host's CPU steal share over an interval. It
// explains spread between runs; it is never used to filter them.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{s, t, ok}
}

// share returns the stolen fraction of all CPU ticks since start, or -1
// when /proc/stat is unavailable.
func (m stealMeter) share() float64 {
	s, t, ok := cpuTicks()
	if !m.ok || !ok || t <= m.total {
		return -1
	}
	return float64(s-m.steal) / float64(t-m.total)
}
