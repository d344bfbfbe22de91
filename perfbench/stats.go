package main

import (
	"bufio"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hist is a log-linear latency histogram in ns: values below 2^subBits
// are exact, larger ones fall in one of 2^subBits buckets per power of
// two (0.8% wide). Its size is fixed, so recording allocates nothing and
// the measured program's heap does not grow with the run.
type hist struct {
	counts [maxExp * subBuckets]uint32
	n      int64
}

const (
	subBits    = 7
	subBuckets = 1 << subBits
	maxExp     = 40 - subBits // up to 2^40 ns, about 18 minutes
)

func bucketOf(v int64) int {
	if v < subBuckets {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 1 // ≥ subBits
	i := (e-subBits+1)*subBuckets + int(v>>(e-subBits)&(subBuckets-1))
	return min(i, maxExp*subBuckets-1)
}

// valueOf returns the midpoint of bucket i.
func valueOf(i int) float64 {
	if i < subBuckets {
		return float64(i)
	}
	e := i/subBuckets - 1 + subBits
	lo := float64(uint64(subBuckets+i%subBuckets) << (e - subBits))
	return lo + float64(uint64(1)<<(e-subBits))/2
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile in µs (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(int64(q*float64(h.n)+0.5), 1)
	var seen int64
	for i, c := range h.counts {
		seen += int64(c)
		if seen >= rank {
			return valueOf(i) / 1e3
		}
	}
	return valueOf(len(h.counts)-1) / 1e3
}

// series records one kind of timed op, with one histogram per slot of
// the timed phase.
type series struct {
	slots []hist
}

// slot is the time resolution of a series: the shortest window the
// estimators below can pick.
const slot = 250 * time.Millisecond

func newSeries(d time.Duration) *series {
	return &series{slots: make([]hist, int((d+slot-1)/slot))}
}

// add records an op that started at ns into the phase and took dur ns.
func (s *series) add(at, dur int64) {
	i := min(int(at/int64(slot)), len(s.slots)-1)
	s.slots[i].add(dur)
}

func (s *series) count() int64 {
	var n int64
	for i := range s.slots {
		n += s.slots[i].n
	}
	return n
}

func (s *series) all() *hist {
	var h hist
	for i := range s.slots {
		h.merge(&s.slots[i])
	}
	return &h
}

// Windowed estimators: the phase is cut into equal windows of whole
// slots, as many as leave each window minPerWindow samples on average (so
// a window's p99 has ten samples beyond it), and the metric is the value
// of the best window: the lowest of the windows' latencies, the highest
// of their rates. The host's speed drifts by up to 1.7x, in states that
// last from a fraction of a second to minutes, and interference only adds
// time, so the best window is the one closest to the program's own cost;
// short windows let a run find the fast state if it visited it at all.
const minPerWindow = 1000

// windowCount is the number of windows a phase of n samples is cut into.
func (s *series) windowCount(n int64) int {
	return min(max(int(n/minPerWindow), 1), len(s.slots))
}

// windowQuantiles returns the q-quantile of every non-empty window, in
// µs. Slot i belongs to window i*k/len(slots).
func (s *series) windowQuantiles(q float64) []float64 {
	n, k := len(s.slots), s.windowCount(s.count())
	vals := make([]float64, 0, k)
	var h hist
	for i := range s.slots {
		h.merge(&s.slots[i])
		if i == n-1 || (i+1)*k/n != i*k/n {
			if h.n > 0 {
				vals = append(vals, h.quantile(q))
			}
			h = hist{}
		}
	}
	return vals
}

// windowedQuantile is the best window's q-quantile, in µs.
func (s *series) windowedQuantile(q float64) float64 {
	vals := s.windowQuantiles(q)
	if len(vals) == 0 {
		return 0
	}
	return slices.Min(vals)
}

// windowedRate is the best window's rate of the ops of all the given
// series, per second; elapsed is the phase length.
func windowedRate(elapsed time.Duration, ss ...*series) float64 {
	var total int64
	for _, s := range ss {
		total += s.count()
	}
	n, k := len(ss[0].slots), ss[0].windowCount(total)
	counts := make([]float64, k)
	secs := make([]float64, k)
	for i := 0; i < n; i++ {
		w := i * k / n
		for _, s := range ss {
			counts[w] += float64(s.slots[i].n)
		}
		// The last slot runs to the end of the phase, which the last
		// step may have overshot.
		if i < n-1 {
			secs[w] += slot.Seconds()
		} else {
			secs[w] += elapsed.Seconds() - float64(i)*slot.Seconds()
		}
	}
	for i := range counts {
		counts[i] /= secs[i]
	}
	return slices.Max(counts)
}

// median returns the median of xs (0 when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// sortedQuantile returns the nearest-rank q-quantile of sorted values.
func sortedQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := min(max(int(q*float64(len(sorted))+0.5)-1, 0), len(sorted)-1)
	return sorted[i]
}

func sortInt64s(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

func us(ns int64) float64 { return float64(ns) / 1e3 }

// since returns ns elapsed from t0 to t.
func since(t0, t time.Time) int64 { return int64(t.Sub(t0)) }

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != "VmHWM:" {
			continue
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
