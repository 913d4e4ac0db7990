package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// series is one parsed exposition line: family name, labels, value.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one Prometheus text exposition, keyed by the series as the
// daemon printed it (name plus label block).
type scrape map[string]series

// parseMetrics parses the Prometheus text format: comments and blank
// lines are skipped, every other line is `name{labels} value`.
func parseMetrics(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		key, val := line[:cut], line[cut+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %v", line, err)
		}
		s := series{name: key, value: v}
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				return nil, fmt.Errorf("metrics: unterminated labels in %q", line)
			}
			s.name = key[:i]
			if s.labels, err = parseLabels(key[i+1 : len(key)-1]); err != nil {
				return nil, fmt.Errorf("metrics: %q: %v", line, err)
			}
		}
		out[key] = s
	}
	return out, sc.Err()
}

// parseLabels parses `a="x",b="y"` with the format's \\, \" and \n escapes.
func parseLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("bad label block %q", s)
		}
		name := s[:eq]
		var val strings.Builder
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				if s[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		out[name] = val.String()
		s = strings.TrimPrefix(s[i+1:], ",")
	}
	return out, nil
}

// minus returns s - prev series by series; a counter or histogram diff
// over a phase.
func (s scrape) minus(prev scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		v.value -= prev[k].value
		out[k] = v
	}
	return out
}

// sum adds the values of family name over the series whose label lab is
// one of vals (any series when lab is "").
func (s scrape) sum(name, lab string, vals ...string) float64 {
	var t float64
	for _, v := range s {
		if v.name == name && (lab == "" || contains(vals, v.labels[lab])) {
			t += v.value
		}
	}
	return t
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// hist is a histogram merged over several label sets.
type hist struct {
	sum, count float64
	buckets    []bucket // ascending upper bounds, cumulative counts
}

type bucket struct{ le, n float64 }

// histogram merges histogram family name over the series whose endpoint
// label is one of endpoints. Bucket bounds are shared across a family, so
// cumulative counts add.
func (s scrape) histogram(name string, endpoints ...string) hist {
	h := hist{
		sum:   s.sum(name+"_sum", "endpoint", endpoints...),
		count: s.sum(name+"_count", "endpoint", endpoints...),
	}
	by := map[float64]float64{}
	for _, v := range s {
		if v.name != name+"_bucket" || !contains(endpoints, v.labels["endpoint"]) {
			continue
		}
		le, err := strconv.ParseFloat(v.labels["le"], 64)
		if err != nil {
			continue
		}
		by[le] += v.value
	}
	for le, n := range by {
		h.buckets = append(h.buckets, bucket{le, n})
	}
	sort.Slice(h.buckets, func(i, j int) bool { return h.buckets[i].le < h.buckets[j].le })
	return h
}

func (h hist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// quantile interpolates linearly inside the bucket holding rank q·count,
// as Prometheus' histogram_quantile does; the +Inf bucket answers with the
// largest finite bound.
func (h hist) quantile(q float64) float64 {
	if h.count == 0 || len(h.buckets) == 0 {
		return 0
	}
	rank := q * h.count
	lo, below := 0.0, 0.0
	for _, b := range h.buckets {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.n == below {
				return b.le
			}
			return lo + (b.le-lo)*(rank-below)/(b.n-below)
		}
		lo, below = b.le, b.n
	}
	return lo
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTicks = 100

// cpuTicks parses the utime+stime of a /proc/<pid>/stat line. The command
// name in parentheses may contain spaces, so fields count from the last ')'.
func cpuTicks(stat []byte) (uint64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	u, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %v", err)
	}
	s, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %v", err)
	}
	return u + s, nil
}

// statusKB reads a "Name:   123 kB" field of /proc/<pid>/status.
func statusKB(status []byte, field string) (int64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, field+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", field, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s field", field)
}

// procCPU returns a process's user+system CPU time in microseconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	t, err := cpuTicks(b)
	return float64(t) * 1e6 / clockTicks, err
}

// procHWM returns a process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := statusKB(b, "VmHWM")
	return float64(kb) / 1024, err
}

// stealTicks is the steal column of the aggregate cpu line of /proc/stat:
// time the hypervisor ran something else while this machine's CPUs had
// work, in clock ticks summed over CPUs.
func stealTicks(stat []byte) (uint64, error) {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	f := strings.Fields(string(line))
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("proc stat: unexpected first line %q", line)
	}
	return strconv.ParseUint(f[8], 10, 64)
}

// hostSteal returns the machine's cumulative steal time in seconds summed
// over CPUs; 0 where /proc/stat has no steal column to offer.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	t, err := stealTicks(b)
	if err != nil {
		return 0
	}
	return float64(t) / clockTicks
}
